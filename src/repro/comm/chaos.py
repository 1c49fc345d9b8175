"""Chaos harness: protocols under injected faults, measured honestly.

The question this module answers is empirical: *when the channel misbehaves,
does the stack fail safely?*  For every named scenario in :data:`SCENARIOS`
it

1. builds a fresh random instance (deterministically, from a seed) with
   the scenario's shared builder from :mod:`repro.matrix.scenarios`,
2. runs it once on a clean channel — the **gold standard** answer for this
   exact instance and these exact public coins,
3. re-runs it through the ARQ transport (:mod:`repro.comm.transport`) over a
   :class:`~repro.comm.faults.FaultyChannel`, supervised
   (:func:`~repro.comm.agents.run_supervised`),
4. classifies the result: recovered with the gold answer, failed loudly
   (structured non-``ok`` outcome), or — the one unacceptable bucket —
   returned ``ok`` with a *different* answer (a silent corruption).

:func:`sweep` aggregates this over fault kinds × rates × seeds into
:class:`SweepPoint` rows: correctness and overhead curves against fault
rate.  The ``chaos`` CLI subcommand and ``benchmarks/bench_e17_chaos.py``
are thin shells over these functions; the scenario matrix's faulted cells
judge their runs with :func:`run_case` too.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Any

from repro.comm.agents import RunReport, RunResult, run_protocol, run_supervised
from repro.comm.channel import BitChannel
from repro.comm.faults import (
    BitFlipFaults,
    BurstFaults,
    DelayFaults,
    DuplicateFaults,
    ErasureFaults,
    FaultModel,
    FaultyChannel,
    NoFaults,
)
from repro.comm.transport import (
    ArqConfig,
    ArqEndpoint,
    TransportStats,
    reliable_pair,
)
from repro.trace import core as trace
from repro.util.fmt import Table
from repro.util.parallel import parmap
from repro.util.rng import ReproducibleRNG, derive_seed


@dataclass(frozen=True)
class Scenario:
    """A named instance family: one shared case builder at fixed params.

    Attributes:
        builder: name of a case builder in :mod:`repro.matrix.scenarios`,
            resolved at call time — :mod:`repro.matrix` imports this
            package, so this module does not import it back.
        params: the builder's fixed keyword parameters.
    """

    builder: str
    params: dict[str, int]

    # Resolved once per scenario (cached_property writes the instance
    # dict, which a frozen dataclass allows): one case per service
    # request or chaos run must not pay an import and a lookup each time.
    @cached_property
    def _build(self) -> Callable[[int], Any]:
        from repro.matrix import scenarios

        return partial(getattr(scenarios, self.builder), **self.params)

    def __call__(self, seed: int) -> Any:
        """The seeded :class:`~repro.matrix.scenarios.MatrixCase`."""
        return self._build(seed)


#: Registered scenarios: name → instance seed → case.
SCENARIOS: dict[str, Scenario] = {
    "equality": Scenario("_det_equality", {"n": 16}),
    "trivial": Scenario("_det_singularity", {"size": 4, "k": 2}),
    "fingerprint": Scenario("_rand_fingerprint", {"size": 4, "k": 2}),
    "matmul_verify": Scenario("_det_matmul", {"n": 2, "k": 2}),
    "rank_protocol": Scenario("_det_column_basis", {"size": 4}),
    "solvability": Scenario(
        "_det_solvability", {"n_rows": 3, "n_cols": 4, "k": 2}
    ),
}


def make_fault_model(kind: str, rate: float, seed: int = 0) -> FaultModel:
    """Build a seeded fault model of the named kind at the given rate.

    Kinds: ``flip`` (independent bit flips), ``burst`` (burst flips),
    ``erase`` (tail truncation), ``duplicate`` (message replays), ``delay``
    (deliveries postponed behind later sends).  ``rate = 0`` always means a
    clean channel.
    """
    if rate < 0:
        raise ValueError("fault rate must be >= 0")
    if rate == 0:
        return NoFaults()
    makers: dict[str, Callable[[], FaultModel]] = {
        "flip": lambda: BitFlipFaults(rate, seed=seed),
        "burst": lambda: BurstFaults(rate, seed=seed),
        "erase": lambda: ErasureFaults(rate, seed=seed),
        "duplicate": lambda: DuplicateFaults(rate, seed=seed),
        "delay": lambda: DelayFaults(rate, seed=seed),
    }
    if kind not in makers:
        raise ValueError(f"unknown fault kind {kind!r}; have {sorted(makers)}")
    return makers[kind]()


#: Fault kinds :func:`make_fault_model` understands.
FAULT_KINDS = ("flip", "burst", "erase", "duplicate", "delay")


@dataclass(frozen=True)
class ChaosOutcome:
    """One faulty run, judged against its fault-free gold standard.

    Attributes:
        report: the supervised run's structured report (with the transport
            accounting fields filled in).
        gold: the answer the same instance produces on a clean channel.
        answer: the faulty run's agreed answer (None unless ``ok``).
        stats: merged :class:`~repro.comm.transport.TransportStats` of the
            two endpoints.
    """

    report: RunReport
    gold: Any
    answer: Any
    stats: TransportStats

    @property
    def recovered(self) -> bool:
        """True when the run finished ``ok`` with the gold answer."""
        return self.report.ok and self.answer == self.gold

    @property
    def silent_wrong(self) -> bool:
        """True for the unacceptable bucket: ``ok`` but a different answer."""
        return self.report.ok and self.answer != self.gold


def run_clean(case: Any, coin_seed: int = 0) -> RunResult:
    """Run ``case`` once on a bare clean channel (no transport, no faults).

    ``case`` is a :class:`~repro.matrix.scenarios.MatrixCase` (any object
    with ``protocol``, ``input0``, ``input1`` and ``randomized``); a
    randomized case takes ``ReproducibleRNG(coin_seed)`` as its public
    coins, exactly as :func:`run_arq` does.
    """
    coins = ReproducibleRNG(coin_seed) if case.randomized else None
    return run_protocol(
        case.protocol.agent0,
        case.protocol.agent1,
        case.input0,
        case.input1,
        public_randomness=coins,
    )


def run_arq(
    case: Any,
    channel: BitChannel,
    coin_seed: int = 0,
    config: ArqConfig | None = None,
    max_steps: int = 10_000_000,
) -> tuple[RunReport, ArqEndpoint, ArqEndpoint]:
    """Run ``case`` through ARQ endpoints over ``channel``, supervised.

    Returns ``(report, endpoint0, endpoint1)``.  The coins are those of
    :func:`run_clean` at the same ``coin_seed``.
    """
    protocol = case.protocol
    if case.randomized:
        coins = ReproducibleRNG(coin_seed)
        inner0 = protocol.agent0(case.input0, coins)
        inner1 = protocol.agent1(case.input1, coins)
    else:
        inner0 = protocol.agent0(case.input0)
        inner1 = protocol.agent1(case.input1)
    wrapped0, wrapped1, e0, e1 = reliable_pair(inner0, inner1, config)
    report = run_supervised(
        lambda _: wrapped0,
        lambda _: wrapped1,
        None,
        None,
        channel=channel,
        max_steps=max_steps,
    )
    return report, e0, e1


def accounting_problems(
    report: RunReport, endpoints: tuple[ArqEndpoint, ArqEndpoint]
) -> list[str]:
    """Violations of the transport accounting invariants in one ARQ run.

    * the four bit buckets partition each endpoint's wire bits exactly;
    * on completed runs, every bit an endpoint claims it sent is a bit
      the channel transcript actually recorded (a failed run may die
      between an endpoint's accounting and a closed channel's refusal,
      so the cross-check is only exact when the run finished).
    """
    problems: list[str] = []
    for agent, endpoint in enumerate(endpoints):
        stats = endpoint.stats
        if stats.wire_bits != stats.accounted_bits:
            problems.append(
                f"arq endpoint {agent} buckets: wire {stats.wire_bits} "
                f"!= accounted {stats.accounted_bits}"
            )
        seen = report.transcript.bits_from(agent)
        if report.ok and seen != stats.wire_bits:
            problems.append(
                f"arq endpoint {agent}: channel saw {seen} bits, "
                f"endpoint claims {stats.wire_bits}"
            )
    return problems


def run_case(
    case: Any,
    fault_model: FaultModel,
    coin_seed: int = 0,
    config: ArqConfig | None = None,
    max_steps: int = 10_000_000,
) -> ChaosOutcome:
    """Execute one case under faults, ARQ-protected, judged against gold.

    The gold standard is the *same* instance with the *same* public coins
    on a clean channel (:func:`run_clean`) — so for randomized protocols
    a disagreement really is corruption, never coin luck.  Every run,
    faulty or not, must also keep :func:`accounting_problems` empty.
    """
    gold = run_clean(case, coin_seed).agreed_output()
    report, e0, e1 = run_arq(
        case, FaultyChannel(fault_model), coin_seed, config, max_steps
    )
    problems = accounting_problems(report, (e0, e1))
    if problems:
        raise AssertionError("; ".join(problems))
    stats = e0.stats.merged(e1.stats)
    report = replace(
        report,
        retries=stats.retries,
        overhead_bits=stats.overhead_bits,
        payload_bits=stats.payload_bits,
    )
    answer = report.agreed_output() if report.ok else None
    return ChaosOutcome(report=report, gold=gold, answer=answer, stats=stats)


@dataclass
class SweepPoint:
    """Aggregate of many seeded runs at one (protocol, kind, rate) cell.

    Attributes:
        protocol: scenario name.
        kind: fault kind (``flip``, ``erase``, ...).
        rate: the fault rate parameter.
        runs: number of seeded executions aggregated.
        recovered: runs that finished ``ok`` with the gold answer.
        silent_wrong: runs that finished ``ok`` with a *wrong* answer —
            must stay 0 for the stack to be trustworthy.
        failures: structured non-``ok`` outcomes, by outcome name.
        faults_injected: total fault events over all runs.
        faults_by_kind: fault events by taxonomy kind over all runs
            (folded from each :class:`RunSummary`'s picklable histogram,
            so the breakdown survives parmap worker boundaries).
        total_retries: transport recovery actions over all runs.
        total_payload_bits / total_wire_bits: transport accounting sums.
    """

    protocol: str
    kind: str
    rate: float
    runs: int = 0
    recovered: int = 0
    silent_wrong: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    total_retries: int = 0
    total_payload_bits: int = 0
    total_wire_bits: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of runs that recovered the gold answer."""
        return self.recovered / self.runs if self.runs else 0.0

    @property
    def mean_overhead_bits(self) -> float:
        """Mean wire bits beyond payload per run (the reliability tax)."""
        if not self.runs:
            return 0.0
        return (self.total_wire_bits - self.total_payload_bits) / self.runs

    @property
    def mean_retries(self) -> float:
        """Mean transport recovery actions per run."""
        return self.total_retries / self.runs if self.runs else 0.0

    def observe(self, outcome: ChaosOutcome) -> None:
        """Fold one run into the aggregate."""
        self.observe_summary(_summarize(outcome))

    def observe_summary(self, summary: "RunSummary") -> None:
        """Fold one run's reduced summary (what :func:`sweep` workers ship
        back — a :class:`ChaosOutcome` holds generators and is not
        picklable) into the aggregate."""
        self.runs += 1
        if summary.silent_wrong:
            self.silent_wrong += 1
        elif summary.recovered:
            self.recovered += 1
        else:
            name = summary.failure
            self.failures[name] = self.failures.get(name, 0) + 1
        self.faults_injected += summary.faults_injected
        for fault_kind, count in summary.fault_kinds:
            self.faults_by_kind[fault_kind] = (
                self.faults_by_kind.get(fault_kind, 0) + count
            )
        self.total_retries += summary.retries
        self.total_payload_bits += summary.payload_bits
        self.total_wire_bits += summary.wire_bits

    @property
    def retries_by_kind(self) -> dict[str, int]:
        """Transport recovery actions attributed to fault kinds.

        Every run in this cell injects faults of one configured kind, so
        the cell's whole retry total is attributable to that kind exactly
        (empty when nothing needed recovery).
        """
        return {self.kind: self.total_retries} if self.total_retries else {}

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready flat representation (for the CLI and benchmarks)."""
        return {
            "protocol": self.protocol,
            "kind": self.kind,
            "rate": self.rate,
            "runs": self.runs,
            "recovered": self.recovered,
            "silent_wrong": self.silent_wrong,
            "failures": dict(self.failures),
            "recovery_rate": self.recovery_rate,
            "faults_injected": self.faults_injected,
            "faults_by_kind": {
                k: self.faults_by_kind[k] for k in sorted(self.faults_by_kind)
            },
            "retries_by_kind": self.retries_by_kind,
            "mean_retries": self.mean_retries,
            "mean_overhead_bits": self.mean_overhead_bits,
        }


@dataclass(frozen=True)
class RunSummary:
    """The picklable residue of one :class:`ChaosOutcome` — exactly what a
    :class:`SweepPoint` needs to aggregate, shippable across process
    boundaries by :func:`sweep`'s workers."""

    recovered: bool
    silent_wrong: bool
    failure: str | None
    faults_injected: int
    retries: int
    payload_bits: int
    wire_bits: int
    #: Fault-kind histogram as a sorted tuple of (kind, count) pairs — a
    #: tuple (not a dict) so the frozen dataclass stays hashable, and
    #: carried here explicitly because :attr:`ChaosOutcome.report`'s
    #: ``fault_events`` never cross the process boundary.
    fault_kinds: tuple[tuple[str, int], ...] = ()


def _summarize(outcome: ChaosOutcome) -> RunSummary:
    kinds: dict[str, int] = {}
    for event in outcome.report.fault_events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return RunSummary(
        recovered=outcome.recovered,
        silent_wrong=outcome.silent_wrong,
        failure=None if outcome.report.ok else outcome.report.outcome,
        faults_injected=outcome.report.faults_injected,
        retries=outcome.stats.retries,
        payload_bits=outcome.stats.payload_bits,
        wire_bits=outcome.stats.wire_bits,
        fault_kinds=tuple(sorted(kinds.items())),
    )


def _sweep_task(
    task: tuple[str, str, float, int, int, ArqConfig | None]
) -> RunSummary:
    """One seeded execution of one sweep cell — all randomness derived from
    the task's coordinates, so results are identical at any worker count."""
    name, kind, rate, r, seed, config = task
    case = SCENARIOS[name](derive_seed(seed, name, "instance", r))
    model = make_fault_model(
        kind, rate, seed=derive_seed(seed, name, kind, rate, r)
    )
    outcome = run_case(
        case, model, coin_seed=derive_seed(seed, name, "coins", r), config=config
    )
    return _summarize(outcome)


def sweep(
    protocols: Sequence[str] | None = None,
    kinds: Sequence[str] = ("flip", "erase", "duplicate"),
    rates: Sequence[float] = (0.0, 0.002, 0.01, 0.05),
    runs: int = 20,
    seed: int = 0,
    config: ArqConfig | None = None,
    workers: int | None = None,
) -> list[SweepPoint]:
    """Correctness/overhead curves: protocols × fault kinds × rates.

    Every cell aggregates ``runs`` seeded executions with independent
    instances, coins and fault randomness (all derived from ``seed``, so
    the whole sweep replays exactly).  Unknown protocols or fault kinds,
    negative rates and ``runs < 1`` raise :class:`ValueError` before any
    run is dispatched.  Runs fan out through
    :func:`repro.util.parallel.parmap`; the verdicts are bit-identical at
    every ``workers`` value because each run's randomness comes from its
    coordinates, never from shared state.
    """
    names = list(protocols) if protocols is not None else sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown protocols {unknown}; have {sorted(SCENARIOS)}")
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        raise ValueError(f"unknown fault kinds {unknown}; have {list(FAULT_KINDS)}")
    if any(rate < 0 for rate in rates):
        raise ValueError("fault rates must be >= 0")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    cells = [
        (name, kind, rate)
        for name in names
        for kind in kinds
        for rate in rates
    ]
    tasks = [
        (name, kind, rate, r, seed, config)
        for name, kind, rate in cells
        for r in range(runs)
    ]
    with trace.span("chaos.sweep", cells=len(cells), runs=runs):
        summaries = parmap(_sweep_task, tasks, workers=workers)
        points: list[SweepPoint] = []
        cursor = 0
        for name, kind, rate in cells:
            point = SweepPoint(protocol=name, kind=kind, rate=rate)
            for summary in summaries[cursor : cursor + runs]:
                point.observe_summary(summary)
            cursor += runs
            points.append(point)
            trace.event(
                "chaos.point",
                protocol=name,
                kind=kind,
                rate=rate,
                runs=point.runs,
                recovered=point.recovered,
                silent_wrong=point.silent_wrong,
                faults_by_kind={
                    k: point.faults_by_kind[k]
                    for k in sorted(point.faults_by_kind)
                },
                retries_by_kind=point.retries_by_kind,
            )
    return points


def sweep_table(points: Iterable[SweepPoint]) -> Table:
    """Render sweep points as the standard experiment table."""
    table = Table(
        [
            "protocol",
            "kind",
            "rate",
            "runs",
            "recovered",
            "silent_wrong",
            "failures",
            "mean_retries",
            "mean_overhead_bits",
        ],
        title="chaos sweep: recovery and overhead vs fault rate",
    )
    for p in points:
        failures = (
            ",".join(f"{k}:{v}" for k, v in sorted(p.failures.items())) or "-"
        )
        table.add_row(
            [
                p.protocol,
                p.kind,
                f"{p.rate:g}",
                p.runs,
                p.recovered,
                p.silent_wrong,
                failures,
                f"{p.mean_retries:.2f}",
                f"{p.mean_overhead_bits:.1f}",
            ]
        )
    return table
