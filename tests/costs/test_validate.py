"""The sweep itself as a regression gate, plus its frozen JSON schema.

The quick sweep is the costs step of CI's ``matrix-gate``: it must come back with zero
``MISMATCH`` cells on every commit, and downstream consumers of the
``python -m repro costs`` JSON depend on the exact key layout, so the
schema is pinned test-side (any key change must bump
``COSTS_SCHEMA_VERSION`` *and* this file, deliberately).
"""

import json

from repro.cli import main
from repro.costs import COSTS_SCHEMA_VERSION, run_sweep, sweep_report

#: The pinned per-cell key set — schema v1.
CELL_KEYS = [
    "arq",
    "bounds",
    "measured",
    "mismatches",
    "params",
    "predicted",
    "protocol",
    "seed",
    "verdict",
]

#: The pinned top-level key set — schema v1.
REPORT_KEYS = ["cells", "mismatches", "ok", "quick", "schema", "seed"]


class TestQuickSweepGate:
    def test_every_cell_matches(self):
        cells = run_sweep(quick=True)
        assert cells, "quick sweep must not be empty"
        bad = [c for c in cells if c.verdict != "MATCH"]
        detail = "; ".join(m for c in bad for m in c.mismatches)
        assert not bad, f"formula/wire disagreement: {detail}"

    def test_every_family_represented(self):
        families = {c.protocol for c in run_sweep(quick=True)}
        assert families == {
            "equality-deterministic",
            "equality-randomized",
            "equality-rabin-karp",
            "trivial-singularity",
            "fingerprint-singularity",
            "rank-column-basis",
            "solvability-trivial",
            "solvability-fingerprint",
            "matmul-verify-deterministic",
            "matmul-verify-freivalds",
        }

    def test_sweep_is_deterministic(self):
        first = sweep_report(run_sweep(quick=True, seed=7), quick=True, seed=7)
        second = sweep_report(run_sweep(quick=True, seed=7), quick=True, seed=7)
        assert first == second

    def test_bounds_bracket_singularity_measurements(self):
        # On singularity cells the paper's bounds must actually bracket
        # the protocols: trivial meets its upper bound exactly, the
        # fingerprint meets Leighton's, and the lower bound sits beneath
        # the deterministic upper bound.
        for cell in run_sweep(quick=True):
            if not cell.bounds:
                continue
            assert cell.bounds["lower"] < cell.bounds["trivial_upper"]
            if cell.protocol == "trivial-singularity":
                assert cell.measured["total_bits"] == cell.bounds["trivial_upper"]
            if cell.protocol == "fingerprint-singularity":
                assert cell.measured["total_bits"] == cell.bounds["leighton_upper"]


class TestFrozenSchema:
    def test_schema_version_pinned(self):
        assert COSTS_SCHEMA_VERSION == 1

    def test_report_layout(self):
        cells = run_sweep(quick=True, seed=3)
        report = sweep_report(cells, quick=True, seed=3)
        assert sorted(report) == REPORT_KEYS
        assert report["schema"] == 1
        assert report["quick"] is True
        assert report["seed"] == 3
        assert report["mismatches"] == 0
        assert report["ok"] is True
        assert len(report["cells"]) == len(cells)
        for cell in report["cells"]:
            assert sorted(cell) == CELL_KEYS
            assert cell["verdict"] in ("MATCH", "MISMATCH")
            assert sorted(cell["measured"]) == sorted(cell["predicted"])
            assert sorted(cell["arq"]) == ["config", "measured", "predicted"]
            assert len(cell["arq"]["measured"]) == 2  # one per endpoint

    def test_report_round_trips_through_json(self):
        report = sweep_report(run_sweep(quick=True), quick=True, seed=0)
        assert json.loads(json.dumps(report, sort_keys=True)) == report


class TestCostsCli:
    def test_quick_table_exit_zero(self, capsys):
        assert main(["costs", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "measured vs predicted" in out
        assert "all cells MATCH" in out
        assert "MISMATCH" not in out

    def test_quick_json_document(self, capsys, tmp_path):
        out_path = tmp_path / "costs.json"
        assert main(["costs", "--quick", "--json", "--out", str(out_path)]) == 0
        on_stdout = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out_path.read_text())
        assert on_stdout == on_disk
        assert on_disk["schema"] == COSTS_SCHEMA_VERSION
        assert on_disk["ok"] is True
        assert sorted(on_disk) == REPORT_KEYS

    def test_seed_changes_instances_not_verdicts(self, capsys):
        assert main(["costs", "--quick", "--seed", "99"]) == 0
        assert "all cells MATCH" in capsys.readouterr().out
