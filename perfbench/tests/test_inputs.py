"""Seeded inputs: the same seed gives the same inputs, another seed other
inputs, and the metric names never depend on the seed."""

import json
import subprocess
import sys

import pytest

import inputs
from conftest import BENCH, ROOT


def _schedule_bytes(seed):
    schedule = inputs.serve_schedule(seed, seconds=4)
    return json.dumps(
        {
            rung: [(r.klass, r.method, r.params, r.tenant) for r in reqs]
            for rung, reqs in schedule.items()
        },
        sort_keys=True,
    )


def _batch_bytes(seed):
    return b"".join(
        (inst.matrix.tobytes() if inst.matrix is not None else repr(inst.rows).encode())
        for inst in inputs.search_batch(seed)
    )


def test_same_seed_same_inputs():
    assert _schedule_bytes(4) == _schedule_bytes(4)
    assert _batch_bytes(4) == _batch_bytes(4)
    assert inputs.sweep_seed(4, 1) == inputs.sweep_seed(4, 1)


def test_other_seed_other_inputs():
    assert _schedule_bytes(4) != _schedule_bytes(5)
    assert _batch_bytes(4) != _batch_bytes(5)
    assert inputs.sweep_seed(4, 0) != inputs.sweep_seed(5, 0)


def test_schedule_shape_and_mix():
    schedule = inputs.serve_schedule(1, seconds=20)
    assert list(schedule) == [rung for rung, _, _ in inputs.LADDER]
    props = inputs.serve_properties(schedule)
    assert 0.05 < props["heavy_share"] < 0.15
    heavy = [r for reqs in schedule.values() for r in reqs if r.klass == "heavy"]
    assert all(len(r.params["matrix"]) == inputs.HEAVY_SIZE for r in heavy)


def test_repeats_are_permuted_copies_of_earlier_instances():
    batch = inputs.search_batch(2)
    for index, inst in enumerate(batch):
        if inst.kind != "repeat":
            continue
        assert inst.of < index
        original = batch[inst.of].matrix
        copy = inst.matrix.T if inst.transposed else inst.matrix
        assert copy.shape == original.shape
        # Permuting rows and columns keeps the multisets of line sums.
        for axis in (0, 1):
            assert sorted(copy.sum(axis=axis)) == sorted(original.sum(axis=axis))
    props = inputs.search_properties(batch)
    assert props["repeat_share"] == pytest.approx(
        inputs.REPEAT_INSTANCES / len(batch), abs=1e-4
    )


def _metric_names(seed, trace=0):
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            "sweep-cold",
            "--seed",
            str(seed),
            "--seconds",
            "0.01",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return sorted(result["metrics"])


def test_seed_changes_inputs_not_metric_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(m["name"] for m in declared["end_to_end"])
    assert _metric_names(1) == names
    assert _metric_names(2) == names


def test_trace_run_emits_every_per_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert _metric_names(1, trace=1) == sorted(m["name"] for m in declared["per_layer"])
