"""The repository's benchmark: three seeded workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding ``src/``).  It
prints every metric by name, unit and sample count, checks every answer
against a reference, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
the timed phase in a fresh interpreter of its own; ``--trace 1`` runs the
workload untraced and then traced (half the seconds each) and reports the
per-layer ledger.  The exit code is 0 only
when every answer was correct.  See ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("serve-mixed", "sweep-cold", "search-cold")
#: Fresh-interpreter set-ups before the timed phase, and again after it;
#: ``setup_s`` is the median of all of them.  Taking them on both sides
#: spreads them over the run, so a slow few seconds of the machine moves
#: fewer of them.
SETUP_REPEATS = 6
#: Seconds any one child interpreter may take.
CHILD_TIMEOUT_S = 170
#: The ledger's layers, each a ``repro`` module (see ``ledger.py``).
LAYERS = ("serve", "exhaustive", "parallel", "truth_builder", "cache", "comm", "costs", "matrix")


def _prepare_environment() -> None:
    """Point imports at ``src/`` and keep every file the program writes
    (stores, pool bound files) inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout")
    for var in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_TRACE_DIR"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    tempfile.tempdir = str(WORK / "tmp")


def fingerprint() -> dict:
    """The machine a result was measured on."""
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- child interpreters -----------------------------------------------------


def _child(mode: str, workload: str, seed: int, work: Path, seconds: float = 0.0) -> str:
    """Run ``run.py`` in ``mode`` in a fresh interpreter; returns its stdout."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            mode,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            repr(seconds),
            "--work",
            str(work),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _setup_in_process(workload: str, work: Path) -> float:
    """Set the workload up in this process; returns the seconds it took,
    counting the imports of the benchmark's modules, numpy and the program
    that this process had not made yet."""
    start = time.perf_counter()
    import workloads

    if workload == "serve-mixed":
        workloads.serve_setup()
    elif workload == "sweep-cold":
        workloads.sweep_setup(work)
    else:
        workloads.search_setup(work)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Set the workload up ``SETUP_REPEATS`` times, each in a fresh
    interpreter, so every import is paid each time; returns the seconds
    each took as the child measured them (interpreter start excluded)."""
    return [
        float(_child("--setup-child", workload, seed, work).strip().splitlines()[-1])
        for _ in range(SETUP_REPEATS)
    ]


def measure_in_child(prep: dict, seconds: float):
    """The timed phase in a fresh interpreter of its own, after an untimed
    set-up there.  ``peak_rss_mb`` then covers that phase and its pool
    workers, and none of the reference work or set-ups before it.
    Returns the phase's outcome and that peak."""
    work = prep["work"]
    (work / "prep.pickle").write_bytes(pickle.dumps(prep))
    _child("--measure-child", prep["workload"], prep["seed"], work, seconds)
    return pickle.loads((work / "outcome.pickle").read_bytes())


def _measure_child(workload: str, seconds: float, work: Path) -> None:
    prep = pickle.loads((work / "prep.pickle").read_bytes())
    _setup_in_process(workload, work)
    outcome = measure(prep, seconds)
    (work / "outcome.pickle").write_bytes(pickle.dumps((outcome, peak_rss_mb())))


# -- metrics ----------------------------------------------------------------


def end_to_end(workload: str, outcome, setup_times, rss_mb: float) -> dict:
    """name -> (value, unit, samples, q) for every end-to-end metric, where
    q is the percentile a figure is, or None."""
    import stats

    out = {"setup_s": (statistics.median(setup_times), "s", len(setup_times), None)}
    if workload == "serve-mixed":
        extra = outcome.extra
        out["items_per_s"] = extra["overload_goodput_rps"]
        out["item_p50_ms"] = extra["cheap_p50_ms"]
        out["item_p90_ms"] = extra["cheap_p90_ms"]
    else:
        ms = [x * 1e3 for x in outcome.latencies]
        rates = outcome.pass_rates
        out["items_per_s"] = (statistics.median(rates), "1/s", len(rates), None)
        out["item_p50_ms"] = (stats.percentile(ms, 50), "ms", len(ms), 50)
        out["item_p90_ms"] = (stats.percentile(ms, 90), "ms", len(ms), 90)
    out["peak_rss_mb"] = (rss_mb, "MB", 1, None)
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(outcome, tracer, untraced) -> dict:
    """name -> value for every per-layer metric of ``BENCHMARK.json``."""
    ledger = tracer.ledger
    c = tracer.counters
    n = ledger.counts
    busy = ledger.busy
    self_s = ledger.self_s
    named = ledger.named
    m: dict[str, float] = {}
    for method in ("protocol.run", "cost.estimate", "exhaustive.cc", "partition.search"):
        m[f"serve.handler_s.{method}"] = named.get(f"serve.handler_s.{method}", 0.0)
    m["serve.codec_s"] = named.get("serve.codec_s", 0.0)
    answered = outcome.counts.get("serve.answered", 0)
    handler_total = sum(v for k, v in named.items() if k.startswith("serve.handler_s."))
    m["serve.loop_busy_frac"] = (
        _frac(outcome.busy_s, outcome.wall_s) if answered else 0.0
    )
    m["serve.wait_ms_mean"] = (
        _frac(outcome.counts["serve.latency_s"] - handler_total - m["serve.codec_s"], answered)
        * 1e3
        if answered
        else 0.0
    )
    m["serve.gen_lag_ms_p99"] = outcome.counts.get("serve.gen_lag_ms_p99", 0.0)
    m["serve.memo_frac"] = _frac(c.get("serve.memo_hits", 0), c.get("serve.requests", 0))
    m["serve.shed"] = c.get("serve.shed.overloaded", 0) + c.get("serve.shed.client_limit", 0)
    m["exhaustive.busy_s"] = busy.get("exhaustive", 0.0)
    m["exhaustive.calls"] = ledger.calls.get("exhaustive", 0)
    hits = c.get("exhaustive.search_cache.hits", 0)
    m["exhaustive.search_cache.hit_frac"] = _frac(
        hits, hits + c.get("exhaustive.search_cache.misses", 0)
    )
    m["exhaustive.subproblems"] = c.get("exhaustive.subproblems", 0)
    m["exhaustive.pruned"] = c.get("exhaustive.pruned", 0) + c.get(
        "exhaustive.parallel.pruned", 0
    )
    m["parallel.calls"] = n.get("parallel.calls", 0)
    m["parallel.pool_calls"] = n.get("parallel.pool_calls", 0)
    m["parallel.tasks"] = n.get("parallel.tasks", 0)
    m["parallel.busy_s"] = busy.get("parallel", 0.0)
    m["parallel.task_s"] = n.get("parallel.task_s", 0.0)
    m["parallel.useful_frac"] = _frac(
        n.get("parallel.pool_task_s", 0.0), n.get("parallel.pool_capacity_s", 0.0)
    )
    m["truth_builder.busy_s"] = busy.get("truth_builder", 0.0)
    m["truth_builder.entries"] = n.get("truth_builder.entries", 0)
    for name in ("modnp_filtered", "exact_confirms", "shards_built", "shards_resumed"):
        m[f"truth_builder.{name}"] = c.get(f"truth_builder.{name}", 0)
    m["cache.busy_s"] = busy.get("cache", 0.0)
    m["cache.lookups"] = c.get("cache.lookups", 0)
    m["cache.hit_frac"] = _frac(c.get("cache.hits", 0), c.get("cache.lookups", 0))
    m["cache.stores"] = c.get("cache.stores", 0)
    m["cache.cell.hit_frac"] = _frac(c.get("cache.cell.hits", 0), c.get("cache.cell.lookups", 0))
    shard_hits = c.get("cache.shard.hits", 0)
    m["cache.shard.hit_frac"] = _frac(
        shard_hits, shard_hits + c.get("cache.shard.misses", 0)
    )
    m["comm.runs"] = ledger.calls.get("comm.run_busy_s", 0)
    m["comm.run_busy_s"] = named.get("comm.run_busy_s", 0.0)
    m["comm.wire_bits"] = c.get("channel.wire_bits", 0)
    m["comm.retries"] = outcome.counts.get("comm.retries", 0)
    m["comm.silent_wrong"] = outcome.counts.get("comm.silent_wrong", 0)
    m["costs.price_busy_s"] = named.get("costs.price_busy_s", 0.0)
    m["matrix.busy_s"] = busy.get("matrix", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.attributed_frac"] = _frac(ledger.root_s, outcome.busy_s)
    traced_cost = _frac(outcome.busy_s, max(outcome.attempted, 1))
    untraced_cost = _frac(untraced.busy_s, max(untraced.attempted, 1))
    m["trace.overhead_frac"] = _frac(traced_cost, untraced_cost) - 1.0
    return m


# -- running a workload -----------------------------------------------------


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json``, the one place metric names and units are fixed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def prepare(workload: str, seed: int, seconds: float) -> dict:
    """Inputs and references, before any set-up or timing."""
    import inputs
    import workloads

    prep: dict = {"workload": workload, "seed": seed, "work": WORK / workload}
    prep["work"].mkdir(parents=True, exist_ok=True)
    if workload == "sweep-cold":
        prep["reference"] = workloads.sweep_reference(seed)
        prep["props"] = {
            "cells_per_round": len(prep["reference"]),
            "workers": workloads.WORKERS,
        }
    elif workload == "search-cold":
        prep["batch"] = inputs.search_batch(seed)
        prep["refs"] = workloads.search_reference(prep["batch"])
        prep["props"] = inputs.search_properties(prep["batch"])
    else:
        prep["props"] = inputs.serve_properties(inputs.serve_schedule(seed, seconds))
    return prep


def measure(prep: dict, seconds: float, tracer=None):
    """The timed phase of a prepared workload."""
    import workloads

    workload, seed, work = prep["workload"], prep["seed"], prep["work"]
    if workload == "serve-mixed":
        return workloads.run_serve(seed, seconds, tracer)
    if workload == "sweep-cold":
        return workloads.run_sweep_cold(seed, seconds, work, prep["reference"], tracer)
    return workloads.run_search(seconds, work, prep["batch"], prep["refs"], tracer)


def run_untraced(workload: str, seed: int, seconds: float, units: dict):
    """``--trace 0``: references, ``SETUP_REPEATS`` set-ups, the timed
    phase, ``SETUP_REPEATS`` set-ups more."""
    import stats

    prep = prepare(workload, seed, seconds)
    setup_times = measure_setup(workload, seed, prep["work"])
    outcome, rss_mb = measure_in_child(prep, seconds)
    setup_times += measure_setup(workload, seed, prep["work"])
    figures = end_to_end(workload, outcome, setup_times, rss_mb)
    for name, (value, unit, samples, q) in sorted(outcome.extra.items()):
        if name not in figures:
            print(f"  {name} = {value:.6g} {unit} ({stats.sample_note(samples, q)})")
    for name, (value, unit, samples, q) in figures.items():
        print(f"metric {name} = {value:.6g} {unit} ({stats.sample_note(samples, q)})")
    metrics = {name: figure[0] for name, figure in figures.items()}
    return outcome, prep["props"], metrics


def run_traced(workload: str, seed: int, seconds: float, units: dict):
    """``--trace 1``: half the seconds untraced, half traced, one set-up
    in-process before each (set-up is never traced)."""
    import ledger

    prep = prepare(workload, seed, seconds / 2)
    _setup_in_process(workload, prep["work"])
    untraced = measure(prep, seconds / 2)
    _setup_in_process(workload, prep["work"])
    tracer = ledger.Tracer(ledger.Ledger())
    outcome = measure(prep, seconds / 2, tracer)
    metrics = per_layer(outcome, tracer, untraced)
    for name, value in metrics.items():
        print(f"layer {name} = {value:.6g} {units[name]}")
    outcome.attempted += untraced.attempted
    outcome.failed += untraced.failed
    outcome.wrong += untraced.wrong
    outcome.problems += untraced.problems
    return outcome, prep["props"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--measure-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()

    if args.setup_child:
        print(repr(_setup_in_process(args.workload, Path(args.work))))
        return 0
    if args.measure_child:
        _measure_child(args.workload, args.seconds, Path(args.work))
        return 0

    import stats

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")
    run = run_traced if args.trace else run_untraced
    outcome, props, metrics = run(args.workload, args.seed, args.seconds, units)
    if sorted(metrics) != sorted(units):
        sys.exit(f"perfbench: emitted {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    for name in metrics:
        stats.check_metric_name(name)
    for note in outcome.notes:
        print(f"  {note}")
    print(f"inputs: {json.dumps(props, sort_keys=True)}")
    print(f"  fail_frac = {outcome.failed / max(outcome.attempted, 1):.6g} (n={outcome.attempted})")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    correct = outcome.wrong == 0
    result = {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
