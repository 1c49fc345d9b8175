"""Seeded input generation for the three workloads.

Everything here is a pure function of ``--seed``: the same seed always
yields the same request schedule, instance batch and sweep seeds.  The
program under test only ever sees the generated inputs.  Inputs are made
before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

#: Scenario names ``protocol.run`` / ``cost.estimate`` accept
#: (``repro.comm.chaos.SCENARIOS``), listed here so the inputs do not
#: depend on importing the program.
SCENARIO_NAMES = (
    "equality",
    "fingerprint",
    "matmul_verify",
    "rank_protocol",
    "solvability",
    "trivial",
)

# -- serve-mixed -------------------------------------------------------------

#: The open-loop ladder: (rung name, offered rate in requests/s, share of
#: the measured seconds).  ``overload`` is set well above saturation; only
#: there are sheds expected rather than counted as failures.  The lowest
#: rung is slow enough that heavy requests keep the loop busy well under
#: 10% of the time: cheap requests stuck behind one sort above the p90,
#: so more blocking than that would move the cheap p90 into them.
LADDER = (
    ("r1", 30.0, 0.55),
    ("r2", 75.0, 0.07),
    ("r3", 150.0, 0.07),
    ("r4", 300.0, 0.07),
    ("overload", 2000.0, 0.24),
)
OVERLOAD_RUNG = "overload"

#: Cheap request kinds and their weights (they sum to 0.9); heavy is 0.1.
#: ``exhaustive.fresh`` is the one cheap kind that always reaches its
#: handler: 20% of the cheap requests, so the cheap p50 falls inside the
#: memo-hit / refusal path and the cheap p90 inside the fresh tiny
#: searches, never on the edge between the two.
CHEAP_MIX = (
    ("cost.estimate", 0.16),
    ("protocol.run", 0.22),
    ("exhaustive.small", 0.12),
    ("exhaustive.fresh", 0.18),
    ("partition.search", 0.12),
    ("bait", 0.10),
)
HEAVY_SHARE = 0.10
#: Heavy requests: fresh ``HEAVY_SIZE`` x ``HEAVY_SIZE`` matrices.
HEAVY_SIZE = 5
#: Fresh cheap ``exhaustive.cc`` requests: ``FRESH_SIZE`` x ``FRESH_SIZE``.
FRESH_SIZE = 4
#: Seeds ``protocol.run`` / ``cost.estimate`` draw from (small, so repeats
#: let the service's memo and in-flight coalescing fire).
REPEAT_SEEDS = 6
#: Size of the pool of small (2x2..4x4) matrices repeated cheap
#: ``exhaustive.cc`` requests draw from.
SMALL_POOL = 24
#: Distinct tenants the open loop cycles through (independent users).
TENANTS = 97


@dataclass(frozen=True)
class ServeRequest:
    """One scheduled request of the open loop."""

    rung: str
    index: int
    klass: str  # "cheap" or "heavy"
    kind: str  # the mix entry that produced it
    method: str
    params: dict = field(hash=False)
    tenant: str


def _random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]


def _small_pool(seed: int) -> list[list[list[int]]]:
    rng = random.Random(f"small-pool:{seed}")
    return [
        _random_matrix(rng, rng.randint(2, 4), rng.randint(2, 4))
        for _ in range(SMALL_POOL)
    ]


PARTITION_PROBLEMS = ("parity", "eq_pairs")
PARTITION_BITS = (2, 4)


def _cheap_request(rng: random.Random, kind: str, pool) -> tuple[str, dict]:
    if kind in ("cost.estimate", "protocol.run"):
        return kind, {
            "scenario": rng.choice(SCENARIO_NAMES),
            "seed": rng.randrange(REPEAT_SEEDS),
        }
    if kind == "exhaustive.small":
        return "exhaustive.cc", {"matrix": rng.choice(pool)}
    if kind == "partition.search":
        return kind, {
            "problem": rng.choice(PARTITION_PROBLEMS),
            "total_bits": rng.choice(PARTITION_BITS),
        }
    # bait: requests the service must refuse with a structured error.
    bait = rng.randrange(3)
    if bait == 0:
        return "exhaustive.cc", {"matrix": _random_matrix(rng, 9, 9)}
    if bait == 1:
        return "partition.search", {"problem": "parity", "total_bits": 6}
    return "protocol.run", {
        "scenario": rng.choice(("equality", "rank_protocol", "matmul_verify")),
        "seed": rng.randrange(REPEAT_SEEDS),
        "bit_budget": 1,
    }


def rung_count(rate: float, share: float, seconds: float) -> int:
    """Requests in one rung: offered rate times the rung's duration."""
    return max(1, int(round(rate * share * seconds)))


def _stratified_kinds(rng: random.Random, n: int) -> list[str]:
    """Exactly ``round(weight * n)`` requests of each kind, shuffled, so two
    seeds differ in which requests they draw but never in the mix."""
    kinds = [kind for kind, _ in CHEAP_MIX] + ["heavy"]
    weights = [weight for _, weight in CHEAP_MIX] + [HEAVY_SHARE]
    counts = [int(w * n) for w in weights]
    by_remainder = sorted(
        range(len(kinds)), key=lambda i: weights[i] * n - counts[i], reverse=True
    )
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    out = [kind for kind, count in zip(kinds, counts) for _ in range(count)]
    rng.shuffle(out)
    return out


def _bases(size: int, count: int) -> list[list[list[int]]]:
    """The first ``count`` matrices of one fixed stream of random
    ``size`` x ``size`` matrices (the same for every seed).

    Matrices with a repeated row or column are skipped: deduplication
    would shrink them, and a few much cheaper searches would widen the
    cost spread the latency percentiles sit on.
    """
    rng = random.Random(f"serve-bases:{size}")
    bases: list[list[list[int]]] = []
    while len(bases) < count:
        matrix = _random_matrix(rng, size, size)
        if len(set(map(tuple, matrix))) == size == len(set(zip(*matrix))):
            bases.append(matrix)
    return bases


def _permuted(rng: random.Random, matrix: list[list[int]]) -> list[list[int]]:
    """A seeded row/column permutation of ``matrix``, transposed half the time."""
    rows = list(range(len(matrix)))
    cols = list(range(len(matrix[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = [[matrix[i][j] for j in cols] for i in rows]
    if rng.randrange(2):
        out = [list(col) for col in zip(*out)]
    return out


def serve_schedule(seed: int, seconds: float) -> dict[str, list[ServeRequest]]:
    """The seeded request list of every rung, in arrival order.

    Heavy and fresh cheap ``exhaustive.cc`` requests are seeded row/column
    permutations of distinct base matrices, each base used once per run:
    every one is new work for the service, and the total work of a run
    does not depend on the seed, only its order within each rung.
    """
    pool = _small_pool(seed)
    rng = random.Random(f"serve:{seed}")
    kinds = {
        rung: _stratified_kinds(rng, rung_count(rate, share, seconds))
        for rung, rate, share in LADDER
    }
    fresh = {
        kind: _bases(size, sum(k.count(kind) for k in kinds.values()))
        for kind, size in (("heavy", HEAVY_SIZE), ("exhaustive.fresh", FRESH_SIZE))
    }
    schedule: dict[str, list[ServeRequest]] = {}
    for rung, _rate, _share in LADDER:
        # Each rung takes the next bases of the fixed stream, in seeded
        # order, so a rung's fresh work is the same for every seed.
        mine = {}
        for kind, bases in fresh.items():
            count = kinds[rung].count(kind)
            mine[kind], fresh[kind] = bases[:count], bases[count:]
            rng.shuffle(mine[kind])
        requests = []
        for index, kind in enumerate(kinds[rung]):
            if kind in mine:
                method = "exhaustive.cc"
                params = {"matrix": _permuted(rng, mine[kind].pop())}
                klass = "heavy" if kind == "heavy" else "cheap"
            else:
                method, params = _cheap_request(rng, kind, pool)
                klass = "cheap"
            requests.append(
                ServeRequest(
                    rung=rung,
                    index=index,
                    klass=klass,
                    kind=kind,
                    method=method,
                    params=params,
                    tenant=f"user{(index * 31 + len(rung)) % TENANTS}",
                )
            )
        schedule[rung] = requests
    return schedule


def memo_warmup(seed: int) -> list[tuple[str, dict]]:
    """Every repeatable cheap request of ``serve_schedule(seed, ...)``
    once, sent before the ladder so the timed phase sees the memo warm,
    as a long-running service would."""
    requests = [
        (method, {"scenario": scenario, "seed": s})
        for method in ("cost.estimate", "protocol.run")
        for scenario in SCENARIO_NAMES
        for s in range(REPEAT_SEEDS)
    ]
    requests += [("exhaustive.cc", {"matrix": m}) for m in _small_pool(seed)]
    requests += [
        ("partition.search", {"problem": p, "total_bits": b})
        for p in PARTITION_PROBLEMS
        for b in PARTITION_BITS
    ]
    return requests


def warmup_requests() -> list[tuple[str, dict]]:
    """One request per method, outside every workload's seed range, used
    to bring a fresh service to a ready state during set-up."""
    return [
        ("cost.estimate", {"scenario": "trivial", "seed": 1000}),
        ("protocol.run", {"scenario": "trivial", "seed": 1000}),
        ("exhaustive.cc", {"matrix": [[1, 0, 1], [0, 1, 1], [1, 1, 0]]}),
        ("partition.search", {"problem": "eq_pairs", "total_bits": 2}),
        ("cache.stats", {}),
    ]


# -- search-cold -------------------------------------------------------------

#: Instances per batch and their composition.
FAMILY_INSTANCES = 10
SMALL_INSTANCES = 20  # random 5x5..7x7
MEDIUM_INSTANCES = 4  # random 8x8
REPEAT_INSTANCES = 10  # row/column-permuted (and some transposed) copies
#: Three in five small instances are 5x5, so that with the 5x5 repeats and
#: the family matrices (which dedupe to 5x5) more than half the batch is
#: small.  The p50 then falls inside the small instances, where pool start
#: dominates; with one size in three it sat on the edge to the 6x6 and 7x7
#: ones and read 59-90 ms over ten seeds.
SMALL_SIZES = (5, 5, 5, 6, 7)
MEDIUM_SIZE = 8


@dataclass
class Instance:
    """One D(f) + d^P instance of the search batch.

    ``kind`` is ``family`` (a Section 3 restricted-family truth matrix the
    benchmark builds with ``sharded_truth_matrix``), ``random``, or
    ``repeat`` (a permuted / transposed copy of instance ``of``).
    """

    kind: str
    shape: tuple[int, int]
    matrix: np.ndarray | None = None
    family: tuple[int, int] | None = None
    rows: list | None = None
    cols: list | None = None
    of: int | None = None
    transposed: bool = False


def _family_instance(seed: int, index: int) -> Instance:
    from repro.singularity.family import RestrictedFamily
    from repro.singularity.truth_builder import (
        completed_columns,
        random_columns,
        sample_distinct_rows,
    )
    from repro.util.rng import ReproducibleRNG

    rng = random.Random(f"family:{seed}:{index}")
    n = rng.choice((5, 7))
    family = RestrictedFamily(n, 3)
    n_rows = rng.randint(10, 12)
    n_cols = rng.randint(40, 64)
    source = ReproducibleRNG(rng.randrange(1 << 30))
    rows = sample_distinct_rows(family, source, n_rows)
    cols = completed_columns(family, rows[:4], source, 2)
    cols += random_columns(family, source, n_cols - len(cols))
    return Instance(
        kind="family",
        shape=(len(rows), len(cols)),
        family=(n, 3),
        rows=rows,
        cols=cols,
    )


def _search_bases() -> list[np.ndarray]:
    """The random base matrices of every batch: one fixed stream, the same
    for every seed, in ``SMALL_SIZES`` rotation and then ``MEDIUM_SIZE``."""
    gen = np.random.default_rng(20260417)
    sizes = [SMALL_SIZES[i % len(SMALL_SIZES)] for i in range(SMALL_INSTANCES)]
    sizes += [MEDIUM_SIZE] * MEDIUM_INSTANCES
    return [gen.integers(0, 2, size=(n, n), dtype=np.uint8) for n in sizes]


def _permuted_array(gen: np.random.Generator, matrix: np.ndarray, transpose: bool):
    out = matrix[gen.permutation(matrix.shape[0])][:, gen.permutation(matrix.shape[1])]
    return np.ascontiguousarray(out.T if transpose else out)


def search_batch(seed: int) -> list[Instance]:
    """The seeded instance list of search-cold.

    The random instances are seeded row/column permutations of fixed base
    matrices, and the repeats are permuted copies of a fixed share of
    them.  The seed decides the permutations, the family instances and
    the order.  The search work of a batch then hardly depends on the
    seed, while no two seeds send the same bytes.
    """
    rng = random.Random(f"search:{seed}")
    gen = np.random.default_rng(rng.randrange(1 << 62))
    batch: list[Instance] = [
        _family_instance(seed, i) for i in range(FAMILY_INSTANCES)
    ]
    for base in _search_bases():
        batch.append(
            Instance(
                kind="random",
                shape=base.shape,
                matrix=_permuted_array(gen, base, transpose=False),
            )
        )
    # The same base matrices are repeated for every seed: every other one
    # of the small bases, REPEAT_INSTANCES in all.
    repeated = [
        id(batch[FAMILY_INSTANCES + b]) for b in range(0, 2 * REPEAT_INSTANCES, 2)
    ]
    rng.shuffle(batch)
    position = {id(inst): i for i, inst in enumerate(batch)}
    chosen = [position[key] for key in repeated]
    # Repeats follow every original, so the first sight of each matrix is
    # the original and the memo has something to find.
    for r, of in enumerate(chosen):
        transposed = r % 3 == 0
        copy = _permuted_array(gen, batch[of].matrix, transposed)
        batch.append(
            Instance(
                kind="repeat",
                shape=copy.shape,
                matrix=copy,
                of=of,
                transposed=transposed,
            )
        )
    return batch


def sweep_seed(seed: int, round_index: int) -> int:
    """The root seed of sweep round ``round_index`` of a run."""
    return random.Random(f"sweep:{seed}:{round_index}").randrange(1 << 31)


# -- measured input properties ---------------------------------------------


def serve_properties(schedule: dict[str, list[ServeRequest]]) -> dict:
    """Mix, heavy share and repeat (memo-able) share of a schedule."""
    import json

    total = sum(len(reqs) for reqs in schedule.values())
    heavy = sum(1 for reqs in schedule.values() for r in reqs if r.klass == "heavy")
    by_kind: dict[str, int] = {}
    seen: set[str] = set()
    repeats = 0
    for reqs in schedule.values():
        for r in reqs:
            by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
            key = r.method + json.dumps(r.params, sort_keys=True)
            if key in seen:
                repeats += 1
            seen.add(key)
    return {
        "requests": total,
        "per_rung": {rung: len(reqs) for rung, reqs in schedule.items()},
        "heavy_share": round(heavy / total, 4),
        "heavy_size": f"{HEAVY_SIZE}x{HEAVY_SIZE}",
        "kind_share": {k: round(v / total, 4) for k, v in sorted(by_kind.items())},
        "repeat_share": round(repeats / total, 4),
    }


def search_properties(batch: list[Instance]) -> dict:
    """Size distribution, kind shares and repeat share of a batch."""
    sizes: dict[str, int] = {}
    kinds: dict[str, int] = {}
    for inst in batch:
        label = f"{inst.shape[0]}x{inst.shape[1]}"
        sizes[label] = sizes.get(label, 0) + 1
        kinds[inst.kind] = kinds.get(inst.kind, 0) + 1
    n = len(batch)
    return {
        "instances": n,
        "sizes": dict(sorted(sizes.items())),
        "kind_share": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
        "repeat_share": round(kinds.get("repeat", 0) / n, 4),
        "transposed_repeats": sum(1 for i in batch if i.transposed),
    }
