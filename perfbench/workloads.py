"""The three workloads: reference answers, set-up, and the timed phase.

Each workload function takes the seed, the seconds to measure and an
optional :class:`ledger.Tracer` factory, and returns a :class:`Outcome`
holding every count, latency and problem it saw.  Only public entry
points of the program are called:

* serve-mixed: ``Service.call`` on encoded frames;
* sweep-cold: ``repro.matrix.run_sweep``, ``repro.comm.chaos.sweep``,
  ``repro.costs.run_sweep``;
* search-cold: ``sharded_truth_matrix``,
  ``communication_complexity`` and ``partition_number``, with a
  ``CacheStore`` opened through ``repro.cache.directory``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import stats

#: Pool workers for the parallel paths (the reference machine has 2 cores).
WORKERS = 2
#: A request not answered this long after its rung ends counts as hung.
HANG_S = 30.0
#: Latency limits a serve rung must meet to count toward ``max_rate_rps``.
CHEAP_P99_LIMIT_MS = 100.0
HEAVY_P90_LIMIT_MS = 500.0
FAIL_FRAC_LIMIT = 0.01
#: How far ahead of a due time the open-loop generator stops sleeping.
SPIN_S = 0.002


@dataclass
class Outcome:
    """What one timed phase saw."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    #: Item latencies in seconds (batch workloads).
    latencies: list[float] = field(default_factory=list)
    #: Items per second within each complete pass or round (batch
    #: workloads); their median resists a burst of machine noise.
    pass_rates: list[float] = field(default_factory=list)
    #: Wall time of the timed phase, seconds.
    wall_s: float = 0.0
    #: Busy time of the timed phase (wall minus event-loop idle for serve).
    busy_s: float = 0.0
    #: Workload-specific end-to-end figures: name -> (value, unit, samples,
    #: q), where q is the percentile a figure is, or None.
    extra: dict[str, tuple[float, str, int, float | None]] = field(default_factory=dict)
    #: Figures for the per-layer ledger that only the workload sees
    #: (e.g. chaos silent_wrong, serve generator lag).
    counts: dict[str, float] = field(default_factory=dict)
    #: Human-readable detail lines (e.g. one per serve rung).
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ===========================================================================
# serve-mixed
# ===========================================================================


def _expected(method: str, params: dict, legacy: bool):
    """The serial handler's verdict for one request: ("ok", result) or
    ("error", code).  With ``legacy``, a matrix up to 5x5 is also checked
    against the legacy engine."""
    from repro.serve.service import HandlerError, ServiceConfig, execute_method

    try:
        result = execute_method(method, params, ServiceConfig())
    except HandlerError as exc:
        return ("error", exc.code)
    if legacy and method == "exhaustive.cc" and max(result["shape"]) <= 5:
        import numpy as np

        from repro.comm.exhaustive import communication_complexity, partition_number
        from repro.comm.truth_matrix import TruthMatrix

        matrix = np.array(params["matrix"], dtype=np.uint8)
        tm = TruthMatrix(
            matrix, tuple(range(matrix.shape[0])), tuple(range(matrix.shape[1]))
        )
        legacy = (
            communication_complexity(tm, engine="legacy"),
            partition_number(tm, engine="legacy"),
        )
        if legacy != (result["d"], result["leaves"]):
            raise RuntimeError(
                f"bitset and legacy engines disagree on {params['matrix']}"
            )
    return ("ok", json.loads(json.dumps(result)))


def serve_setup() -> None:
    """Bring a fresh service to ready: start it, answer one request per
    method, stop."""
    from repro import cache
    from repro.serve import Service, request_frame

    async def ready() -> None:
        async with Service() as service:
            for i, (method, params) in enumerate(inputs.warmup_requests()):
                await service.call(request_frame(f"warm{i}", method, params))

    with cache.disabled():
        asyncio.run(ready())


class _IdleMeter:
    """Event-loop idle time: the time spent blocked in the selector.

    Busy time is wall time minus this; it needs no change to the program.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.idle_s = 0.0
        selector = getattr(loop, "_selector", None)
        if selector is None:
            return
        real = selector.select
        meter = self

        def select(timeout=None):
            start = time.perf_counter()
            try:
                return real(timeout)
            finally:
                meter.idle_s += time.perf_counter() - start

        selector.select = select


async def _drive(service, schedule, frames) -> tuple[float, float, dict]:
    """Run the ladder; returns its wall and event-loop idle seconds and, per rung,
    ``(start, due times, generator lateness, (done, response) or None)``."""
    meter = _IdleMeter(asyncio.get_running_loop())
    rung_records = {}
    began = time.perf_counter()

    async def one(frame: bytes):
        response = await service.call(frame)
        return time.perf_counter(), response

    for rung, rate, _share in inputs.LADDER:
        reqs = schedule[rung]
        start = time.perf_counter() + 0.005
        dues = stats.due_times(start, rate, len(reqs))
        tasks = []
        lags = []
        i = 0
        while i < len(reqs):
            # The loop's timers wake up to a millisecond late: sleep short of
            # the next due time, then yield until it arrives.
            delay = dues[i] - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < dues[i]:
                await asyncio.sleep(0)
            # Send everything now due at once; a stalled loop makes a burst.
            now = time.perf_counter()
            while i < len(reqs) and dues[i] <= now:
                lags.append(stats.lateness(dues[i], now))
                frame = frames[(rung, reqs[i].index)]
                tasks.append(asyncio.create_task(one(frame)))
                i += 1
        done, pending = await asyncio.wait(tasks, timeout=HANG_S)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
        results = [
            task.result() if task in done and not task.cancelled() else None
            for task in tasks
        ]
        rung_records[rung] = (start, dues, lags, results)
    return time.perf_counter() - began, meter.idle_s, rung_records


#: Structured refusals: expected above saturation, failures below it.
SHED_CODES = ("overloaded", "client_limit", "deadline_exceeded")


def _verdict(result):
    """A response as ("ok", result) / ("error", code), or None if it
    never came back; raises ``FrameError`` on a malformed frame."""
    from repro.serve.wire import decode_frame, validate_response

    if result is None:
        return None
    frame = validate_response(decode_frame(result[1]))
    if frame["ok"]:
        return ("ok", frame["result"])
    return ("error", frame["error"]["code"])


def _request_key(req) -> tuple[str, str]:
    return (req.method, json.dumps(req.params, sort_keys=True))


def _rung_summary(reqs, dues, results, verdicts, expected, rung, outcome):
    """Classify one rung's responses; returns per-class latency lists of
    the correct answers, their count, the rung's failures and the time
    the last response arrived."""
    lat = {"cheap": [], "heavy": []}
    good = 0
    failed = 0
    last_done = dues[0]
    for req, due, result, verdict in zip(reqs, dues, results, verdicts):
        if result is None:
            failed += 1
            outcome.fail(f"{rung}#{req.index} {req.method}: hung")
            continue
        done = result[0]
        last_done = max(last_done, done)
        if isinstance(verdict, Exception):
            failed += 1
            outcome.fail(f"{rung}#{req.index}: bad response frame: {verdict}", True)
            continue
        want = expected.get(_request_key(req))
        if verdict == want:
            good += 1
            lat[req.klass].append(stats.open_loop_latency(due, done))
            continue
        shed = verdict[0] == "error" and verdict[1] in SHED_CODES
        if shed and rung == inputs.OVERLOAD_RUNG:
            continue  # refusing work above saturation is the point
        failed += 1
        outcome.fail(
            f"{rung}#{req.index} {req.method}: got {verdict!r:.120}, "
            f"want {want!r:.120}",
            wrong=not shed and verdict[1] != "internal",
        )
    return lat, good, failed, last_done


def run_serve(seed: int, seconds: float, tracer=None) -> Outcome:
    """serve-mixed: the open-loop ladder into one in-process Service."""
    from repro import cache
    from repro.serve import Service, ServiceConfig, request_frame

    outcome = Outcome()
    schedule = inputs.serve_schedule(seed, seconds)
    frames = {
        (rung, req.index): request_frame(
            f"{rung}-{req.index}", req.method, req.params, tenant=req.tenant
        )
        for rung, reqs in schedule.items()
        for req in reqs
    }

    warmup = [
        request_frame(f"memo{i}", method, params)
        for i, (method, params) in enumerate(inputs.memo_warmup(seed))
    ]

    async def main() -> tuple[float, float, dict]:
        async with Service(ServiceConfig()) as service:
            for frame in warmup:
                await service.call(frame)
            with tracer or nullcontext():
                return await _drive(service, schedule, frames)

    with cache.disabled():
        outcome.wall_s, idle_s, rung_records = asyncio.run(main())
    outcome.busy_s = outcome.wall_s - idle_s

    # References after the timed phase, and only for the requests that got
    # an answer other than a refusal: a reference per shed request would
    # cost more than the run.
    from repro.serve.wire import FrameError

    verdicts = {}
    expected = {}
    for rung, reqs in schedule.items():
        row = []
        for req, result in zip(reqs, rung_records[rung][3]):
            try:
                verdict = _verdict(result)
            except FrameError as exc:
                verdict = exc
            row.append(verdict)
            if isinstance(verdict, tuple) and not (
                verdict[0] == "error" and verdict[1] in SHED_CODES
            ):
                # The legacy engine re-checks the answers below overload;
                # on the overload rung it would cost more than the run.
                key = _request_key(req)
                legacy = expected.get(key, False) or rung != inputs.OVERLOAD_RUNG
                expected[key] = legacy
        verdicts[rung] = row
    with cache.disabled():
        for key, legacy in expected.items():
            expected[key] = _expected(key[0], json.loads(key[1]), legacy)

    all_lags = []
    passing_rates = []
    ladder_ok = True
    for rung, rate, _share in inputs.LADDER:
        reqs = schedule[rung]
        start, dues, lags, results = rung_records[rung]
        lat, good, failed, last_done = _rung_summary(
            reqs, dues, results, verdicts[rung], expected, rung, outcome
        )
        outcome.attempted += len(reqs)
        if rung == inputs.OVERLOAD_RUNG:
            span = max(last_done - start, 1e-9)
            outcome.notes.append(
                f"rung {rung} {rate:g}/s: n={len(reqs)} good={good} "
                f"refused_or_failed={len(reqs) - good} span={span:.4g}s"
            )
            outcome.extra["overload_goodput_rps"] = (good / span, "1/s", len(reqs), None)
            continue
        all_lags.extend(lags)
        fail_frac = failed / len(reqs)
        cheap_ms = [x * 1e3 for x in lat["cheap"]]
        heavy_ms = [x * 1e3 for x in lat["heavy"]]
        meets = (
            bool(cheap_ms)
            and stats.percentile(cheap_ms, 99) <= CHEAP_P99_LIMIT_MS
            and (not heavy_ms or stats.percentile(heavy_ms, 90) <= HEAVY_P90_LIMIT_MS)
            and fail_frac <= FAIL_FRAC_LIMIT
            and not stats.lag_is_growing(lags)
        )
        ladder_ok = ladder_ok and meets
        outcome.notes.append(
            f"rung {rung} {rate:g}/s: n={len(reqs)} fail_frac={fail_frac:.4g} "
            f"cheap_p99={stats.percentile(cheap_ms, 99) if cheap_ms else 0:.4g}ms "
            f"({stats.sample_note(len(cheap_ms), 99)}) "
            f"heavy_p90={stats.percentile(heavy_ms, 90) if heavy_ms else 0:.4g}ms "
            f"({stats.sample_note(len(heavy_ms), 90)}) "
            f"lag_p99={stats.percentile(lags, 99) * 1e3:.4g}ms "
            f"lag_growing={stats.lag_is_growing(lags)} meets_limits={meets}"
        )
        if ladder_ok:
            passing_rates.append(rate)
        if rung == inputs.LADDER[0][0]:
            for name, values, q in (
                ("cheap_p50_ms", cheap_ms, 50),
                ("cheap_p90_ms", cheap_ms, 90),
                ("cheap_p99_ms", cheap_ms, 99),
                ("heavy_p50_ms", heavy_ms, 50),
                ("heavy_p90_ms", heavy_ms, 90),
            ):
                if values:
                    outcome.extra[name] = (
                        stats.percentile(values, q), "ms", len(values), q
                    )
    outcome.extra["max_rate_rps"] = (
        max(passing_rates) if passing_rates else 0.0,
        "1/s",
        len(inputs.LADDER) - 1,
        None,
    )
    if all_lags:
        outcome.counts["serve.gen_lag_ms_p99"] = stats.percentile(all_lags, 99) * 1e3
    latencies = [
        stats.open_loop_latency(due, result[0])
        for rung, reqs in schedule.items()
        for due, result in zip(rung_records[rung][1], rung_records[rung][3])
        if result is not None
    ]
    outcome.counts["serve.latency_s"] = sum(latencies)
    outcome.counts["serve.answered"] = len(latencies)
    return outcome


# ===========================================================================
# sweep-cold
# ===========================================================================


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _sweep_docs(matrix_cells, chaos_points, costs_cells) -> list[str]:
    from dataclasses import asdict

    return (
        [_canonical(c) for c in matrix_cells]
        + [_canonical(asdict(p)) for p in chaos_points]
        + [_canonical(c.as_dict()) for c in costs_cells]
    )


def sweep_reference(seed: int) -> list[str]:
    """Round 0 of the sweep at ``workers=1`` with no store: the cell-for-cell
    reference the first timed round must reproduce."""
    from repro import cache
    from repro.comm import chaos
    from repro.costs import run_sweep as costs_sweep
    from repro.matrix import run_sweep as matrix_sweep

    root = inputs.sweep_seed(seed, 0)
    with cache.disabled():
        return _sweep_docs(
            matrix_sweep(quick=False, seed=root, workers=1),
            chaos.sweep(seed=root, workers=1),
            costs_sweep(quick=False, seed=root),
        )


def sweep_setup(work: Path) -> None:
    """Ready the sweep engines: imports plus a fresh, empty store."""
    import repro.comm.chaos  # noqa: F401
    import repro.costs  # noqa: F401
    import repro.matrix  # noqa: F401
    from repro import cache

    with cache.directory(_fresh_dir(work / "store")) as store:
        store.stats()


def run_sweep_cold(seed: int, seconds: float, work: Path, reference, tracer=None) -> Outcome:
    """sweep-cold: rounds of matrix + chaos + costs sweeps into fresh stores.

    The sweeps are looked up on their modules at call time, so a traced
    run reaches the ledger's wrappers.
    """
    import repro.costs as costs_mod
    import repro.matrix as matrix_mod
    from repro import cache
    from repro.comm import chaos

    outcome = Outcome()
    silent_wrong = retries = 0
    with tracer or nullcontext():
        start = time.perf_counter()
        round_index = 0
        while time.perf_counter() - start < seconds:
            root = inputs.sweep_seed(seed, round_index)
            with cache.directory(_fresh_dir(work / "store")):
                t0 = time.perf_counter()
                cells = matrix_mod.run_sweep(quick=False, seed=root, workers=WORKERS)
                t1 = time.perf_counter()
                points = chaos.sweep(seed=root, workers=WORKERS)
                t2 = time.perf_counter()
                costs = costs_mod.run_sweep(quick=False, seed=root)
                t3 = time.perf_counter()
            outcome.pass_rates.append(
                (len(cells) + len(points) + len(costs)) / (t3 - t0)
            )
            outcome.latencies += [t1 - t0] * len(cells)
            outcome.latencies += [t2 - t1] * len(points)
            outcome.latencies += [t3 - t2] * len(costs)
            outcome.attempted += len(cells) + len(points) + len(costs)
            docs = _sweep_docs(cells, points, costs)
            for cell in cells:
                if cell["verdict"] == "MISMATCH":
                    outcome.fail(f"matrix cell MISMATCH: {cell['mismatches'][:2]}", True)
            for point in points:
                silent_wrong += point.silent_wrong
                retries += point.total_retries
                if point.silent_wrong:
                    outcome.fail(
                        f"chaos {point.protocol}/{point.kind}@{point.rate}: "
                        f"{point.silent_wrong} silent_wrong",
                        True,
                    )
            for cell in costs:
                if cell.verdict != "MATCH":
                    outcome.fail(f"costs cell {cell.protocol}: {cell.verdict}", True)
            if round_index == 0 and docs != reference:
                differing = sum(1 for a, b in zip(docs, reference) if a != b)
                differing += abs(len(docs) - len(reference))
                for _ in range(differing):
                    outcome.fail("round 0 differs from the workers=1 reference", True)
            round_index += 1
        outcome.wall_s = outcome.busy_s = time.perf_counter() - start
    outcome.counts["comm.silent_wrong"] = silent_wrong
    outcome.counts["comm.retries"] = retries
    outcome.notes.append(f"rounds={round_index} cells_per_round={len(reference)}")
    return outcome


# ===========================================================================
# search-cold
# ===========================================================================


def _truth_matrix(inst: inputs.Instance, workers: int):
    """The instance's truth matrix (family instances are built sharded)."""
    from repro.comm.truth_matrix import TruthMatrix

    if inst.kind == "family":
        from repro.singularity.family import RestrictedFamily
        from repro.singularity.truth_builder import sharded_truth_matrix

        family = RestrictedFamily(*inst.family)
        return sharded_truth_matrix(family, inst.rows, inst.cols, workers=workers)
    rows, cols = inst.matrix.shape
    return TruthMatrix(inst.matrix, tuple(range(rows)), tuple(range(cols)))


def search_reference(batch: list[inputs.Instance]) -> list[tuple]:
    """Per instance: (matrix bytes or None, D, d^P) from the sequential
    bitset engine, checked against the legacy engine up to 6x6."""
    from repro import cache
    from repro.comm.exhaustive import (
        clear_search_cache,
        communication_complexity,
        dedupe,
        partition_number,
    )
    from repro.comm.truth_matrix import TruthMatrix
    from repro.singularity.family import RestrictedFamily
    from repro.singularity.truth_builder import restricted_truth_matrix

    refs: list[tuple] = []
    with cache.disabled():
        for inst in batch:
            if inst.kind == "repeat":
                refs.append((None,) + refs[inst.of][1:])
                continue
            if inst.kind == "family":
                tm = restricted_truth_matrix(
                    RestrictedFamily(*inst.family), inst.rows, inst.cols
                )
                data = tm.data.tobytes()
            else:
                rows, cols = inst.matrix.shape
                tm = TruthMatrix(inst.matrix, tuple(range(rows)), tuple(range(cols)))
                data = None
            clear_search_cache()
            d = communication_complexity(tm, workers=1)
            leaves = partition_number(tm, workers=1)
            if max(dedupe(tm).shape) <= 6:
                legacy = (
                    communication_complexity(tm, engine="legacy"),
                    partition_number(tm, engine="legacy"),
                )
                if legacy != (d, leaves):
                    raise RuntimeError("bitset and legacy engines disagree")
            refs.append((data, d, leaves))
        clear_search_cache()
    return refs


def _solve(inst: inputs.Instance):
    """One item: build the truth matrix, then D(f) and d^P at WORKERS."""
    from repro.comm.exhaustive import communication_complexity, partition_number

    tm = _truth_matrix(inst, WORKERS)
    got = (
        communication_complexity(tm, workers=WORKERS),
        partition_number(tm, workers=WORKERS),
    )
    return tm, got


def _search_item(inst, ref, outcome: Outcome, label: str) -> None:
    tm, got = _solve(inst)
    if ref[0] is not None and tm.data.tobytes() != ref[0]:
        outcome.fail(f"{label}: truth matrix bytes differ from single-pass build", True)
    elif got != ref[1:]:
        outcome.fail(f"{label}: (D, d^P) = {got}, want {ref[1:]}", True)


def search_setup(work: Path) -> None:
    """Ready the search engines: imports plus a fresh, empty store."""
    from repro import cache
    from repro.comm import exhaustive  # noqa: F401
    from repro.singularity import truth_builder  # noqa: F401

    with cache.directory(_fresh_dir(work / "store")) as store:
        store.stats()


def run_search(seconds: float, work: Path, batch, refs, tracer=None) -> Outcome:
    """search-cold: passes of the batch, each into a fresh store.

    Passes always run to the end of the batch, so every pass does the same
    work; the last one may end after ``seconds``.
    """
    from repro import cache
    from repro.comm.exhaustive import clear_search_cache

    outcome = Outcome()
    passes = 0
    with tracer or nullcontext():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            clear_search_cache()
            store_dir = _fresh_dir(work / "store")
            began = time.perf_counter()
            with cache.directory(store_dir):
                for index, (inst, ref) in enumerate(zip(batch, refs)):
                    t0 = time.perf_counter()
                    _search_item(inst, ref, outcome, f"pass {passes} #{index}")
                    outcome.latencies.append(time.perf_counter() - t0)
                    outcome.attempted += 1
            outcome.pass_rates.append(len(batch) / (time.perf_counter() - began))
            passes += 1
        outcome.wall_s = outcome.busy_s = time.perf_counter() - start
    clear_search_cache()
    outcome.notes.append(f"passes={passes} instances_per_pass={len(batch)}")
    return outcome
