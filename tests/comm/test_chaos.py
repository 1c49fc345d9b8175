"""Tests for the chaos harness — including the no-silent-corruption sweep."""

import pytest

from repro.comm.chaos import (
    FAULT_KINDS,
    SCENARIOS,
    make_fault_model,
    run_case,
    sweep,
    sweep_table,
)
from repro.comm.faults import NoFaults
from repro.comm.transport import ArqConfig
from repro.matrix.scenarios import MatrixCase
from repro.util.rng import derive_seed


def _no_dispatch(*args, **kwargs):
    raise AssertionError("sweep dispatched tasks for invalid input")


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_clean_channel_recovers_gold_with_bounded_overhead(self, name):
        case = SCENARIOS[name](derive_seed(99, name))
        outcome = run_case(case, NoFaults(), coin_seed=1)
        assert outcome.recovered
        assert not outcome.silent_wrong
        assert outcome.report.outcome == "ok"
        assert outcome.answer == outcome.gold
        assert outcome.stats.retransmissions == 0
        # framing overhead exists but is bounded: a handful of frames, each
        # paying header + crc, plus acks and linger traffic.
        frames = outcome.stats.frames_delivered
        cfg = ArqConfig()
        per_frame = cfg.data_header_bits + 16 + 2 * cfg.control_frame_bits
        assert 0 < outcome.stats.overhead_bits <= frames * per_frame + 200

    def test_instances_vary_with_seed(self):
        a = SCENARIOS["equality"](derive_seed(0, "eq", 0))
        b = SCENARIOS["equality"](derive_seed(0, "eq", 1))
        assert (a.input0, a.input1) != (b.input0, b.input1)

    def test_case_is_plain_data(self):
        case = MatrixCase("deterministic", "toy", {}, None, 1, 2)
        assert not case.randomized
        assert case.truth is None and case.bounds == {}
        built = SCENARIOS["equality"](0)
        assert isinstance(built, MatrixCase)
        assert built.params == {"n_bits": 16}


class TestFaultModelFactory:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_known_kinds(self, kind):
        model = make_fault_model(kind, 0.1, seed=1)
        assert model.apply(0, 0, (1,) * 8) is not None

    def test_rate_zero_is_clean(self):
        assert isinstance(make_fault_model("flip", 0.0), NoFaults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            make_fault_model("gremlins", 0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_fault_model("flip", -0.1)


class TestSweep:
    def test_aggregation_is_consistent(self):
        points = sweep(
            protocols=["equality"],
            kinds=("flip",),
            rates=(0.0, 0.02),
            runs=5,
            seed=1,
        )
        assert len(points) == 2
        for point in points:
            assert point.runs == 5
            assert (
                point.recovered + point.silent_wrong + sum(point.failures.values())
                == point.runs
            )
        clean, faulty = points
        assert clean.rate == 0.0 and clean.recovered == 5
        assert clean.faults_injected == 0
        assert faulty.faults_injected > 0

    def test_replayable(self):
        kwargs = dict(
            protocols=["trivial"], kinds=("erase",), rates=(0.05,), runs=4, seed=7
        )
        first = sweep(**kwargs)
        second = sweep(**kwargs)
        assert [p.as_dict() for p in first] == [p.as_dict() for p in second]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocols"):
            sweep(protocols=["nonsense"])

    def test_unknown_kind_rejected_before_dispatch(self, monkeypatch):
        monkeypatch.setattr("repro.comm.chaos.parmap", _no_dispatch)
        with pytest.raises(ValueError, match="unknown fault kinds"):
            sweep(kinds=("bogus",), rates=(0.0,), workers=2)

    def test_negative_rate_rejected_before_dispatch(self, monkeypatch):
        monkeypatch.setattr("repro.comm.chaos.parmap", _no_dispatch)
        with pytest.raises(ValueError, match="fault rates must be >= 0"):
            sweep(rates=(0.01, -0.5))

    def test_zero_runs_rejected_before_dispatch(self, monkeypatch):
        monkeypatch.setattr("repro.comm.chaos.parmap", _no_dispatch)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            sweep(runs=0)

    def test_as_dict_shape(self):
        (point,) = sweep(
            protocols=["equality"], kinds=("flip",), rates=(0.0,), runs=1
        )
        d = point.as_dict()
        for key in (
            "protocol",
            "kind",
            "rate",
            "runs",
            "recovered",
            "silent_wrong",
            "failures",
            "recovery_rate",
            "mean_retries",
            "mean_overhead_bits",
        ):
            assert key in d
        assert d["recovery_rate"] == 1.0

    def test_table_renders(self):
        points = sweep(
            protocols=["equality"], kinds=("flip",), rates=(0.0,), runs=1
        )
        text = sweep_table(points).render()
        assert "equality" in text and "recovered" in text


class TestNoSilentCorruption:
    """The acceptance criterion: ≥ 1000 seeded faulty runs, zero runs that
    finish ``ok`` with an answer different from the fault-free gold standard.
    Failures must be loud (structured non-ok outcomes), never silent."""

    def test_thousand_runs_zero_silent_wrong(self):
        protocols = ["equality", "trivial", "solvability", "matmul_verify"]
        kinds = FAULT_KINDS  # flip, burst, erase, duplicate, delay
        rates = (0.01, 0.05)
        runs = 25  # 4 protocols × 5 kinds × 2 rates × 25 = 1000 runs
        points = sweep(
            protocols=protocols, kinds=kinds, rates=rates, runs=runs, seed=2026
        )
        total = sum(p.runs for p in points)
        assert total >= 1000
        assert sum(p.silent_wrong for p in points) == 0
        for point in points:
            for outcome_name in point.failures:
                assert outcome_name in (
                    "transport_failure",
                    "deadlock",
                    "budget_exceeded",
                    "agent_error",
                )
        # the sweep is not vacuous: faults really were injected and many
        # runs still recovered the gold answer.
        assert sum(p.faults_injected for p in points) > 100
        assert sum(p.recovered for p in points) > total // 2
