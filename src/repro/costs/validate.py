"""The measured-vs-predicted sweep: every formula checked on a live wire.

Each sweep cell builds one seeded protocol instance with a shared builder
from :mod:`repro.matrix.scenarios` and audits it with the scenario
matrix's clean legs (:func:`repro.matrix.sweep.clean_legs`), which run
the instance twice:

1. **clean channel** — :func:`repro.comm.agents.run_protocol` on a bare
   :class:`~repro.comm.channel.BitChannel`; the transcript's total bits,
   round count and per-agent split must equal the shape's predictions
   exactly;
2. **clean-channel ARQ** — the same instance tunneled through
   :func:`repro.comm.transport.reliable_pair` (with a small
   ``frame_payload`` so chunking actually exercises the framing formulas);
   each endpoint's live :class:`~repro.comm.transport.TransportStats` must
   equal ``predicted_transport_stats`` **field for field**, the four bit
   buckets must sum to the wire count, and the ARQ channel transcript must
   reconcile with the endpoints' wire totals.

Every comparison is integer equality — a cell is ``MATCH`` or it is
``MISMATCH`` with the exact discrepancies listed, and any ``MISMATCH`` is
a bug in either the formula or the stack, never acceptable noise.  The
``python -m repro costs`` CLI, the bench gate and CI's ``matrix-gate``
all consume :func:`run_sweep` / :func:`sweep_report`; the JSON layout is
pinned at ``COSTS_SCHEMA_VERSION``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.util.fmt import Table
from repro.util.rng import derive_seed

#: Version of the ``sweep_report`` JSON layout (bump on any key change).
COSTS_SCHEMA_VERSION = 1


@dataclass
class SweepCell:
    """One validated cell: measured vs predicted vs bounds, with verdict.

    ``verdict`` is ``"MATCH"`` exactly when every integer comparison held;
    otherwise ``"MISMATCH"`` and ``mismatches`` lists each discrepancy as
    a human-readable string.
    """

    protocol: str
    params: dict[str, int]
    seed: int
    measured: dict[str, int]
    predicted: dict[str, int]
    arq: dict[str, Any]
    bounds: dict[str, int]
    mismatches: list[str]

    @property
    def verdict(self) -> str:
        """``MATCH`` iff every exact comparison in this cell held."""
        return "MATCH" if not self.mismatches else "MISMATCH"

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (key set pinned by the schema test)."""
        return {
            "arq": self.arq,
            "bounds": dict(self.bounds),
            "measured": dict(self.measured),
            "mismatches": list(self.mismatches),
            "params": dict(self.params),
            "predicted": dict(self.predicted),
            "protocol": self.protocol,
            "seed": self.seed,
            "verdict": self.verdict,
        }


def sweep_axes(quick: bool = False) -> list[tuple[str, Callable[..., Any], dict]]:
    """The sweep's cells: (pinned family name, builder, params) per cell.

    Builders come from :mod:`repro.matrix.scenarios`.  Quick mode keeps
    one or two points per family (the CI gate); full mode widens every
    axis.  Every implemented protocol appears in both.
    """
    from repro.matrix import scenarios as s

    if quick:
        return [
            ("equality-deterministic", s._det_equality, {"n": 16}),
            ("equality-randomized", s._rand_equality, {"n": 16, "rounds": 8}),
            ("equality-rabin-karp", s._rand_rabin_karp, {"n": 8}),
            ("trivial-singularity", s._det_singularity, {"size": 4, "k": 2}),
            ("fingerprint-singularity", s._rand_fingerprint, {"size": 4, "k": 2}),
            ("rank-column-basis", s._det_column_basis, {"size": 4}),
            ("solvability-trivial", s._det_solvability,
             {"n_rows": 3, "n_cols": 4, "k": 2}),
            ("solvability-fingerprint", s._rand_solvability,
             {"n_rows": 3, "n_cols": 4, "k": 2}),
            ("matmul-verify-deterministic", s._det_matmul, {"n": 2, "k": 2}),
            ("matmul-verify-freivalds", s._rand_freivalds,
             {"n": 2, "k": 2, "rounds": 2}),
        ]
    axes: list[tuple[str, Callable[..., Any], dict]] = []
    for n in (4, 16, 33):
        axes.append(("equality-deterministic", s._det_equality, {"n": n}))
        axes.append(("equality-rabin-karp", s._rand_rabin_karp, {"n": n}))
    for rounds in (1, 8, 16):
        axes.append(
            ("equality-randomized", s._rand_equality, {"n": 16, "rounds": rounds})
        )
    for size in (4, 6):
        for k in (1, 2, 3):
            params = {"size": size, "k": k}
            axes.append(("trivial-singularity", s._det_singularity, params))
            axes.append(("fingerprint-singularity", s._rand_fingerprint, params))
        axes.append(("rank-column-basis", s._det_column_basis, {"size": size}))
    for n_rows, n_cols, k in ((3, 4, 2), (4, 4, 1), (2, 6, 3)):
        params = {"n_rows": n_rows, "n_cols": n_cols, "k": k}
        axes.append(("solvability-trivial", s._det_solvability, params))
        axes.append(("solvability-fingerprint", s._rand_solvability, params))
    for n, k in ((2, 2), (3, 1), (3, 3)):
        axes.append(("matmul-verify-deterministic", s._det_matmul, {"n": n, "k": k}))
    for rounds in (1, 3):
        axes.append(
            ("matmul-verify-freivalds", s._rand_freivalds,
             {"n": 3, "k": 2, "rounds": rounds})
        )
    return axes


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _stats_dict(stats) -> dict[str, int]:
    """A TransportStats as a plain, key-sorted dict of ints."""
    out = {
        name: getattr(stats, name)
        for name in sorted(stats.__dataclass_fields__)
    }
    out["accounted_bits"] = stats.accounted_bits
    return out


def run_cell(name: str, case, seed: int, config=None) -> SweepCell:
    """Validate one case (a :class:`~repro.matrix.scenarios.MatrixCase`)
    under the family name ``name``: the matrix's clean legs, formatted as
    a schema-v1 cell."""
    from repro.comm.transport import ArqConfig
    from repro.matrix.scenarios import case_shape
    from repro.matrix.sweep import (
        MATRIX_FRAME_PAYLOAD,
        clean_legs,
        transcript_counts,
    )

    cfg = config or ArqConfig(frame_payload=MATRIX_FRAME_PAYLOAD)
    shape = case_shape(case)
    predicted = transcript_counts(shape)
    measured, live_stats, pred_stats, mismatches = clean_legs(
        case, shape, seed, cfg
    )
    return SweepCell(
        protocol=name,
        params=dict(case.params),
        seed=seed,
        measured={key: measured[key] for key in predicted},
        predicted=predicted,
        arq={
            "config": {
                "frame_payload": cfg.max_payload,
                "max_retries": cfg.max_retries,
                "seq_bits": cfg.seq_bits,
                "len_bits": cfg.len_bits,
            },
            "measured": [_stats_dict(s) for s in live_stats],
            "predicted": [_stats_dict(s) for s in pred_stats],
        },
        bounds=dict(case.bounds),
        mismatches=mismatches,
    )


def run_sweep(quick: bool = False, seed: int = 0) -> list[SweepCell]:
    """Run the full measured-vs-predicted sweep; one cell per axis point.

    Each cell's instance and coins are derived deterministically from
    ``seed`` and the cell coordinates, so a failing cell replays exactly.
    """
    cells: list[SweepCell] = []
    for name, builder, params in sweep_axes(quick):
        instance_seed = derive_seed(
            seed, "costs", name, *sorted(params.items())
        )
        case = builder(instance_seed, **params)
        coin_seed = derive_seed(instance_seed, "coins")
        cells.append(run_cell(name, case, coin_seed))
    return cells


def sweep_report(
    cells: list[SweepCell], quick: bool = False, seed: int = 0
) -> dict[str, Any]:
    """The pinned schema-v1 JSON document for a sweep's cells."""
    mismatched = sum(1 for c in cells if c.verdict != "MATCH")
    return {
        "schema": COSTS_SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "cells": [c.as_dict() for c in cells],
        "mismatches": mismatched,
        "ok": mismatched == 0,
    }


def render_table(cells: list[SweepCell]) -> Table:
    """Render sweep cells as the standard experiment table."""
    table = Table(
        [
            "protocol",
            "params",
            "measured",
            "predicted",
            "lower",
            "det_upper",
            "rand_upper",
            "verdict",
        ],
        title="costs: measured vs predicted bits (exact)",
    )
    for cell in cells:
        params = ",".join(f"{k}={v}" for k, v in sorted(cell.params.items()))
        table.add_row(
            [
                cell.protocol,
                params,
                cell.measured["total_bits"],
                cell.predicted["total_bits"],
                cell.bounds.get("lower", "-"),
                cell.bounds.get("trivial_upper", "-"),
                cell.bounds.get("leighton_upper", "-"),
                cell.verdict,
            ]
        )
    return table
