"""The scenario-matrix sweep: every cell measured, predicted and judged.

One cell = (model, family, params) × fault regime.  Execution is
gold-standard-gated like the chaos harness and exact like the costs gate:

* **clean regime** — the instance runs on a bare
  :class:`~repro.comm.channel.BitChannel` (transcript totals, rounds and
  per-agent splits must equal the :class:`~repro.costs.models
  .MessageShape` prediction by integer equality) and once more through
  clean-channel ARQ (each endpoint's live
  :class:`~repro.comm.transport.TransportStats` must equal
  ``predicted_transport_stats`` field for field, its bit buckets must sum
  to its wire bits, and the channel must have carried exactly the bits
  it claims).  Deterministic models must also reproduce the instance's
  ground truth.  :func:`clean_legs` is also the whole of the costs gate
  (:func:`repro.costs.validate.run_cell`).  Verdict: ``MATCH``
  or ``MISMATCH`` — nothing in between.

* **faulted regime** — the same instance, same coins, re-run several
  times through ARQ over a seeded
  :class:`~repro.comm.faults.FaultyChannel`
  (:func:`repro.comm.chaos.run_case` does the judging).  A run either
  recovers the gold answer, fails loudly, or — the unacceptable bucket —
  returns ``ok`` with a wrong answer.  Verdict: ``WITHIN_BOUND`` when
  there is zero silent corruption and every recovered run's wire total
  lands in ``[clean ARQ wire bits, arq_retry_ceiling_bits]``; any
  violation is a ``MISMATCH``.

The sweep fans out through :func:`repro.util.parallel.parmap` (one task
per cell, all randomness derived from the cell's coordinates, so the JSON
is byte-identical at any worker count), traces a ``matrix.sweep`` span
with one ``matrix.cell`` event per cell, and caches finished cells in the
active :class:`~repro.cache.store.CacheStore` under
:func:`repro.cache.keys.cell_key` addresses — a warm re-sweep reads every
cell back without running a single protocol.

The JSON layout is pinned at :data:`MATRIX_SCHEMA_VERSION`; see
``docs/scenario_matrix.md`` for the field-by-field contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.comm.channel import BitChannel
from repro.comm.chaos import (
    accounting_problems,
    make_fault_model,
    run_arq,
    run_clean,
)
from repro.comm.chaos import run_case as run_chaos_case
from repro.comm.transport import ArqConfig, TransportStats
from repro.costs.models import arq_retry_ceiling_bits
from repro.matrix.scenarios import MatrixCase, case_shape, catalogue
from repro.trace import core as trace
from repro.util.fmt import Table
from repro.util.parallel import parmap
from repro.util.rng import derive_seed

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "FaultRegime",
    "clean_legs",
    "regimes",
    "render_table",
    "run_cell",
    "run_sweep",
    "sweep_report",
    "transcript_counts",
]

#: Version of the ``sweep_report`` JSON layout (bump on any key change).
MATRIX_SCHEMA_VERSION = 1

#: Cache engine tag for cell records; bump to orphan stale cells.
CELL_ENGINE_VERSION = "repro.matrix/1"

#: Frame-payload cap for the ARQ legs (same as the costs sweep: small
#: enough to exercise chunking, large enough to stay fast).
MATRIX_FRAME_PAYLOAD = 64

#: Scheduler step budget for one ARQ leg.
_MAX_STEPS = 2_000_000

#: The pinned key set of one cell document (the frozen-schema contract).
CELL_KEYS = (
    "bounds",
    "family",
    "measured",
    "mismatches",
    "model",
    "params",
    "predicted",
    "regime",
    "seed",
    "verdict",
)


@dataclass(frozen=True)
class FaultRegime:
    """One point on the fault axis.

    Attributes:
        name: stable regime id (``clean``, ``flip@20``, ...).
        kind: fault kind for :func:`repro.comm.chaos.make_fault_model`,
            or None for the clean regime.
        rate_permille: fault rate in permille — an integer so the schema
            stays float-free; the live rate is ``rate_permille / 1000``.
        runs: seeded executions aggregated (1 for the clean regime).
    """

    name: str
    kind: str | None
    rate_permille: int
    runs: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (keys pinned by the schema test)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "rate_permille": self.rate_permille,
            "runs": self.runs,
        }


def regimes(quick: bool = True) -> list[FaultRegime]:
    """The fault axis: clean plus at least two faulted regimes.

    Quick mode (the CI gate) injects bit flips and erasures at 2%; full
    mode covers every fault kind the chaos harness knows.
    """
    if quick:
        return [
            FaultRegime("clean", None, 0, 1),
            FaultRegime("flip@20", "flip", 20, 3),
            FaultRegime("erase@20", "erase", 20, 3),
        ]
    return [FaultRegime("clean", None, 0, 1)] + [
        FaultRegime(f"{kind}@20", kind, 20, 5)
        for kind in ("flip", "burst", "erase", "duplicate", "delay")
    ]


def _arq_config() -> ArqConfig:
    return ArqConfig(frame_payload=MATRIX_FRAME_PAYLOAD)


def transcript_counts(record) -> dict[str, int]:
    """Total bits, rounds and per-agent split of a transcript or a shape."""
    return {
        "total_bits": record.total_bits,
        "rounds": record.rounds,
        "bits_agent0": record.bits_from(0),
        "bits_agent1": record.bits_from(1),
    }


def _predictions(shape, config: ArqConfig) -> dict[str, int]:
    return {
        **transcript_counts(shape),
        "arq_wire_bits": shape.arq_wire_bits(config),
        "arq_ceiling_bits": arq_retry_ceiling_bits(shape, config),
    }


def _bound_mismatches(case: MatrixCase, predicted: dict[str, int]) -> list[str]:
    """Model-specific bound relations every cell must respect."""
    problems: list[str] = []
    bounds = case.bounds
    total = predicted["total_bits"]
    if case.model == "deterministic" and "lower" in bounds:
        if total < bounds["lower"]:
            problems.append(
                f"deterministic cost {total} beats the paper's lower bound "
                f"{bounds['lower']}"
            )
    if "trivial_upper" in bounds and case.model == "deterministic":
        if total > bounds["trivial_upper"]:
            problems.append(
                f"deterministic cost {total} exceeds the trivial upper "
                f"bound {bounds['trivial_upper']}"
            )
    if "leighton_upper" in bounds and case.model == "randomized-leighton":
        if total > bounds["leighton_upper"]:
            problems.append(
                f"randomized cost {total} exceeds Leighton's upper bound "
                f"{bounds['leighton_upper']}"
            )
    if case.model == "one-way":
        if total != bounds["one_way"] + 1:
            problems.append(
                f"one-way cost {total} != one_way_cc + answer bit "
                f"{bounds['one_way'] + 1}"
            )
        if bounds["d_exact"] > bounds["one_way"] + 1:
            problems.append(
                f"two-way D(f) {bounds['d_exact']} exceeds one-way + 1 "
                f"{bounds['one_way'] + 1} (sandwich violated)"
            )
    if case.model == "nondeterministic":
        width = max(1, bounds["nondet"])
        if total != width + 2:
            problems.append(
                f"certificate cost {total} != certificate width + audits "
                f"{width + 2}"
            )
        if bounds["nondet"] > bounds["d_exact"]:
            problems.append(
                f"N(f) {bounds['nondet']} exceeds D(f) {bounds['d_exact']} "
                "(log cover <= D violated)"
            )
    return problems


def clean_legs(
    case: MatrixCase, shape, coin_seed: int, config: ArqConfig
) -> tuple[
    dict[str, Any],
    tuple[TransportStats, TransportStats],
    tuple[TransportStats, TransportStats],
    list[str],
]:
    """Bare-channel run plus clean-channel ARQ run, both exactly audited
    against ``shape`` (the case's :func:`case_shape`).

    Returns ``(measured, live_stats, predicted_stats, mismatches)``: the
    integer measurements of the bare run (plus its answer and the clean
    ARQ wire total), each endpoint's live and predicted
    :class:`~repro.comm.transport.TransportStats`, and every
    exact-comparison failure across both legs.  Ground truth is not
    checked here — that is the matrix cell's job (:func:`run_cell`).
    """
    mismatches: list[str] = []
    result = run_clean(case, coin_seed)
    answer = result.agreed_output()
    measured = {**transcript_counts(result.transcript), "answer": bool(answer)}
    predicted = transcript_counts(shape)
    for key in predicted:
        if measured[key] != predicted[key]:
            mismatches.append(
                f"clean {key}: measured {measured[key]} != "
                f"predicted {predicted[key]}"
            )

    report, e0, e1 = run_arq(case, BitChannel(), coin_seed, config, _MAX_STEPS)
    if not report.ok:
        mismatches.append(f"clean arq run not ok: outcome {report.outcome}")
    elif report.agreed_output() != answer:
        mismatches.append("clean arq answer disagrees with the bare channel")
    live_stats = (e0.stats, e1.stats)
    pred_stats = shape.predicted_transport_stats(config)
    for agent in (0, 1):
        live, pred = live_stats[agent], pred_stats[agent]
        for name in sorted(live.__dataclass_fields__):
            have, want = getattr(live, name), getattr(pred, name)
            if have != want:
                mismatches.append(
                    f"clean arq endpoint {agent} {name}: measured {have} "
                    f"!= predicted {want}"
                )
    mismatches.extend(accounting_problems(report, (e0, e1)))
    measured["arq_wire_bits"] = e0.stats.wire_bits + e1.stats.wire_bits
    return measured, live_stats, pred_stats, mismatches


def _faulted_leg(
    case: MatrixCase,
    coin_seed: int,
    regime: FaultRegime,
    fault_seed_root: int,
    predicted: dict[str, int],
    config: ArqConfig,
):
    """``regime.runs`` seeded fault executions, chaos-judged and bounded.

    Returns ``(measured_faulted, mismatches)``.  Each run reuses the cell
    instance and coins (the gold answer is pinned) and varies only the
    fault randomness, so a violation replays from its coordinates.
    """
    rate = regime.rate_permille / 1000
    recovered = 0
    loud = 0
    silent = 0
    faults = 0
    retries = 0
    wire_min = 0
    wire_max = 0
    wire_total = 0
    mismatches: list[str] = []
    for run_index in range(regime.runs):
        model = make_fault_model(
            regime.kind, rate,
            seed=derive_seed(fault_seed_root, regime.name, run_index),
        )
        outcome = run_chaos_case(
            case, model, coin_seed=coin_seed, config=config
        )
        faults += outcome.report.faults_injected
        retries += outcome.stats.retries
        if outcome.silent_wrong:
            silent += 1
            mismatches.append(
                f"{regime.name} run {run_index}: SILENT CORRUPTION — "
                "ok with a wrong answer"
            )
        elif outcome.recovered:
            recovered += 1
            wire = outcome.stats.wire_bits
            wire_total += wire
            wire_min = wire if recovered == 1 else min(wire_min, wire)
            wire_max = max(wire_max, wire)
            if wire < predicted["arq_wire_bits"]:
                mismatches.append(
                    f"{regime.name} run {run_index}: recovered on "
                    f"{wire} wire bits, below the clean ARQ floor "
                    f"{predicted['arq_wire_bits']}"
                )
            if wire > predicted["arq_ceiling_bits"]:
                mismatches.append(
                    f"{regime.name} run {run_index}: {wire} wire bits "
                    f"exceed the retry ceiling "
                    f"{predicted['arq_ceiling_bits']}"
                )
        else:
            loud += 1
    measured = {
        "runs": regime.runs,
        "recovered": recovered,
        "loud_failures": loud,
        "silent_wrong": silent,
        "faults_injected": faults,
        "retries": retries,
        "wire_bits_min": wire_min,
        "wire_bits_max": wire_max,
        "wire_bits_total": wire_total,
    }
    return measured, mismatches


def run_cell(
    case: MatrixCase,
    instance_seed: int,
    regime: FaultRegime,
    config: ArqConfig | None = None,
) -> dict[str, Any]:
    """Execute and judge one cell; returns its pinned JSON document.

    The clean regime runs the exact clean-channel audits; a faulted
    regime runs the chaos-judged fault legs against the same predictions.
    ``verdict`` is ``MATCH`` (clean, every integer comparison held),
    ``WITHIN_BOUND`` (faulted, no silent corruption, recovery inside the
    ARQ envelope) or ``MISMATCH``.
    """
    cfg = config or _arq_config()
    shape = case_shape(case)
    predicted = _predictions(shape, cfg)
    coin_seed = derive_seed(instance_seed, "coins")
    mismatches = _bound_mismatches(case, predicted)

    if regime.kind is None:
        clean, _, _, clean_problems = clean_legs(case, shape, coin_seed, cfg)
        mismatches.extend(clean_problems)
        if case.truth is not None:
            truth = bool(case.truth())
            if clean["answer"] != truth:
                mismatches.append(
                    f"clean answer {clean['answer']} != ground truth {truth}"
                )
        measured: dict[str, Any] = {"clean": clean, "faulted": None}
        verdict = "MATCH" if not mismatches else "MISMATCH"
    else:
        faulted, fault_problems = _faulted_leg(
            case, coin_seed, regime, instance_seed, predicted, cfg
        )
        mismatches.extend(fault_problems)
        measured = {"clean": None, "faulted": faulted}
        verdict = "WITHIN_BOUND" if not mismatches else "MISMATCH"

    return {
        "bounds": dict(case.bounds),
        "family": case.family,
        "measured": measured,
        "mismatches": mismatches,
        "model": case.model,
        "params": dict(case.params),
        "predicted": predicted,
        "regime": regime.as_dict(),
        "seed": instance_seed,
        "verdict": verdict,
    }


# ----------------------------------------------------------------------
# The sweep: coordinates → tasks → parmap → cached cells
# ----------------------------------------------------------------------
def _cell_coordinates(quick: bool, seed: int) -> list[tuple[int, int, int]]:
    """Every cell as ``(axis_index, regime_index, instance_seed)``.

    The instance seed is derived from the root seed and the cell's
    (builder, params) coordinates — never from list positions alone — so
    adding axis points does not reshuffle existing cells' randomness.
    """
    coords = []
    axes = catalogue(quick)
    for axis_index, (builder, params) in enumerate(axes):
        instance_seed = derive_seed(
            seed, "matrix", builder.__name__, *sorted(params.items())
        )
        for regime_index in range(len(regimes(quick))):
            coords.append((axis_index, regime_index, instance_seed))
    return coords


def _cell_task(task: tuple[int, int, int, bool]) -> dict[str, Any]:
    """One cell, computed purely from its coordinates (parmap-safe)."""
    axis_index, regime_index, instance_seed, quick = task
    builder, params = catalogue(quick)[axis_index]
    regime = regimes(quick)[regime_index]
    case = builder(instance_seed, **params)
    return run_cell(case, instance_seed, regime)


def _cell_cache_key(
    quick: bool, seed: int, axis_index: int, regime_index: int
) -> str:
    """The cell's content address (coordinates, not list positions)."""
    from repro.cache.keys import cell_key

    builder, params = catalogue(quick)[axis_index]
    regime = regimes(quick)[regime_index]
    return cell_key(
        CELL_ENGINE_VERSION,
        {
            "builder": builder.__name__,
            "params": {key: params[key] for key in sorted(params)},
            "regime": regime.name,
            "kind": regime.kind,
            "rate_permille": regime.rate_permille,
            "runs": regime.runs,
            "seed": seed,
            "frame_payload": MATRIX_FRAME_PAYLOAD,
        },
    )


def run_sweep(
    quick: bool = True,
    seed: int = 0,
    workers: int | None = None,
) -> list[dict[str, Any]]:
    """The full matrix: every (model, family) × regime cell, judged.

    Cells already in the active cache are read back verbatim; the rest
    fan out through parmap and are written back on completion.  The
    returned list is byte-identical (as canonical JSON) at every worker
    count and on warm and cold caches alike.
    """
    from repro.cache.store import active_store

    coords = _cell_coordinates(quick, seed)
    store = active_store()
    cells: list[dict[str, Any] | None] = [None] * len(coords)
    pending: list[tuple[int, tuple[int, int, int, bool]]] = []
    keys: list[str | None] = [None] * len(coords)
    for position, (axis_index, regime_index, instance_seed) in enumerate(
        coords
    ):
        if store is not None:
            key = _cell_cache_key(quick, seed, axis_index, regime_index)
            keys[position] = key
            cached = store.get_cell(key)
            if cached is not None:
                cells[position] = cached
                continue
        pending.append(
            (position, (axis_index, regime_index, instance_seed, quick))
        )
    with trace.span(
        "matrix.sweep",
        cells=len(coords),
        cached=len(coords) - len(pending),
        quick=quick,
    ):
        fresh = parmap(_cell_task, [task for _, task in pending], workers=workers)
        for (position, _task), cell in zip(pending, fresh):
            cells[position] = cell
            if store is not None and keys[position] is not None:
                store.put_cell(keys[position], cell)
        for cell in cells:
            trace.event(
                "matrix.cell",
                model=cell["model"],
                family=cell["family"],
                regime=cell["regime"]["name"],
                verdict=cell["verdict"],
            )
    return [cell for cell in cells if cell is not None]


def sweep_report(
    cells: list[dict[str, Any]], quick: bool = True, seed: int = 0
) -> dict[str, Any]:
    """The pinned schema-v1 JSON document for a sweep's cells."""
    counts = {"MATCH": 0, "WITHIN_BOUND": 0, "MISMATCH": 0}
    for cell in cells:
        counts[cell["verdict"]] += 1
    return {
        "schema": MATRIX_SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "cells": cells,
        "counts": counts,
        "models": sorted({cell["model"] for cell in cells}),
        "regimes": sorted({cell["regime"]["name"] for cell in cells}),
        "mismatches": counts["MISMATCH"],
        "ok": counts["MISMATCH"] == 0,
    }


def render_table(cells: list[dict[str, Any]]) -> Table:
    """Render sweep cells as the standard experiment table."""
    table = Table(
        [
            "model",
            "family",
            "params",
            "regime",
            "measured",
            "predicted",
            "verdict",
        ],
        title="scenario matrix: models x families x fault regimes",
    )
    for cell in cells:
        params = ",".join(
            f"{k}={v}" for k, v in sorted(cell["params"].items())
        )
        clean = cell["measured"]["clean"]
        faulted = cell["measured"]["faulted"]
        if clean is not None:
            measured = clean["total_bits"]
        else:
            measured = (
                f"{faulted['recovered']}/{faulted['runs']} recovered"
            )
        table.add_row(
            [
                cell["model"],
                cell["family"],
                params,
                cell["regime"]["name"],
                measured,
                cell["predicted"]["total_bits"],
                cell["verdict"],
            ]
        )
    return table
