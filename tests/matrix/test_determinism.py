"""Worker-count and cache-warmth byte-identity of the matrix sweep.

The report must be a pure function of ``(quick, seed)``: same bytes at
workers 1, 2 and 4; same bytes on a cold cache, a warm cache, and no
cache at all; and the rendered RESULTS markdown identical in turn.  The
committed ``docs/RESULTS.md`` is checked against a fresh sweep — the
same gate CI's ``matrix-gate`` job applies via ``--check-render``.
"""

import json
from pathlib import Path

import pytest

from repro import cache
from repro.matrix import render_results, run_sweep, sweep_report

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _canonical(workers=None):
    cells = run_sweep(quick=True, seed=0, workers=workers)
    report = sweep_report(cells, quick=True, seed=0)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


class TestWorkerIdentity:
    def test_bit_identical_at_1_2_4_workers(self):
        serial = _canonical(workers=1)
        assert serial == _canonical(workers=2)
        assert serial == _canonical(workers=4)

    def test_seed_changes_the_report(self):
        a = sweep_report(run_sweep(quick=True, seed=0), quick=True, seed=0)
        b = sweep_report(run_sweep(quick=True, seed=1), quick=True, seed=1)
        assert a != b
        # ...but both must pass the gate.
        assert a["ok"] and b["ok"]


class TestCacheIdentity:
    def test_cold_warm_and_uncached_agree(self, tmp_path):
        with cache.disabled():
            uncached = _canonical(workers=2)
        with cache.directory(tmp_path) as store:
            cold = _canonical(workers=2)
            cached_docs = store.stats()["cells"]["entries"]
            warm = _canonical(workers=2)
            # The warm pass answered from the cells tier alone.
            assert store.stats()["cells"]["entries"] == cached_docs
        assert cached_docs == len(
            json.loads(cold)["cells"]
        ), "every cell document should persist"
        assert uncached == cold == warm

    def test_cell_documents_verify_clean(self, tmp_path):
        with cache.directory(tmp_path) as store:
            run_sweep(quick=True, seed=0)
            assert store.verify() == []
            assert store.verify() == []


class TestRenderedResults:
    def test_render_is_deterministic(self):
        report = sweep_report(run_sweep(quick=True, seed=0), quick=True)
        assert render_results(report) == render_results(
            json.loads(json.dumps(report))
        )

    def test_committed_results_md_matches_fresh_sweep(self):
        committed = REPO_ROOT / "docs" / "RESULTS.md"
        if not committed.exists():
            pytest.fail("docs/RESULTS.md is missing — render and commit it")
        report = sweep_report(run_sweep(quick=True, seed=0), quick=True)
        assert committed.read_text() == render_results(report), (
            "docs/RESULTS.md drifted from the quick sweep; regenerate with "
            "PYTHONPATH=src python -m repro matrix --quick "
            "--render docs/RESULTS.md"
        )
