"""Lint configuration: which rules watch which modules.

The defaults encode this repository's invariant map:

* **EXA** (exact arithmetic) guards the truth-matrix/oracle paths —
  ``repro.exact``, ``repro.singularity`` and ``repro.comm.truth_matrix``.
  ``repro.exact.modnp`` is allowlisted: its uint64 mod-p kernels are the
  documented, tested exception (see docs/performance.md), and its results
  are cross-checked against the Fraction engine.
* **DET** (determinism) guards everything that produces wire traffic,
  sweep results, cache bytes or trace records — ``repro.protocols``,
  ``repro.comm``, ``repro.cache``, ``repro.trace`` and the
  ``repro.persist`` write/activation plumbing they share.  Randomness must
  come from :mod:`repro.util.rng`, never ambient state or the clock, and
  persisted records must be byte-stable.  (:mod:`repro.trace`'s single
  monotonic-tick read carries a documented inline pragma.)
* **ISO** (two-party isolation) classifies agent programs in the same
  scope as Alice (agent 0) / Bob (agent 1) and rejects any reach across
  the partition that does not cross the channel.
* **WIRE** pairs every ``encode_*`` in ``protocols/wire.py`` with a
  ``decode_*`` and demands both be exercised by the corruption tests.
* **SES** (session duality) proves agent0's protocol skeleton dual to
  agent1's for every class in the flow scope (``repro.protocols`` and
  ``repro.comm``) — a static deadlock-freedom check.
* **COST** compares the statically-derived message plan against the
  declared ``PROTOCOL_PLANS`` table in ``repro.costs.plan`` for the cost
  scope (``repro.protocols``).
* **ASY** watches ``repro.serve`` coroutines for blocking calls,
  dropped coroutine objects, and stale read–await–write-back races.

Scopes and allowlists are fnmatch patterns over *dotted module names*
derived from file paths (``src/repro/exact/rank.py`` → ``repro.exact.rank``),
so tests can point a custom config at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path


def module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` relative to the source root.

    ``root/pkg/mod.py`` → ``pkg.mod``; ``__init__.py`` names the package.
    Files outside ``root`` fall back to their stem.
    """
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.stem
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def matches_any(name: str, patterns) -> bool:
    """fnmatch ``name`` against any pattern (``repro.exact.*`` style)."""
    return any(fnmatch(name, pat) for pat in patterns)


@dataclass
class AgentRegistry:
    """Classify agent-program definitions as Alice (party 0) / Bob (party 1).

    A function or method is classified by name: exact names first, then
    fnmatch patterns (``alice*`` / ``bob*``).  Everything else is neutral.
    The classification drives the ISO rules: a party-0 program must never
    touch party-1's input view, and vice versa.
    """

    party0_names: tuple[str, ...] = ("agent0",)
    party1_names: tuple[str, ...] = ("agent1",)
    party0_patterns: tuple[str, ...] = ("alice*",)
    party1_patterns: tuple[str, ...] = ("bob*",)
    #: Input-view identifiers owned by each party; the other party's agent
    #: program must not mention them.
    party0_views: tuple[str, ...] = ("input0", "view0", "x0")
    party1_views: tuple[str, ...] = ("input1", "view1", "x1")

    def classify(self, func_name: str) -> int | None:
        """0, 1 or None for a definition named ``func_name``."""
        if func_name in self.party0_names:
            return 0
        if func_name in self.party1_names:
            return 1
        if any(fnmatch(func_name, p) for p in self.party0_patterns):
            return 0
        if any(fnmatch(func_name, p) for p in self.party1_patterns):
            return 1
        return None

    def forbidden_views(self, party: int) -> tuple[str, ...]:
        """The identifiers a ``party`` program must never mention."""
        return self.party1_views if party == 0 else self.party0_views


@dataclass
class LintConfig:
    """Everything the engine needs to lint one tree.

    Attributes:
        src_root: directory module names are derived from (usually ``src``).
        paths: files/directories to scan (defaults to ``src_root``).
        exa_scope: module patterns under EXA rules.
        exa_allowed_modules: module patterns exempt from EXA (documented
            numeric kernels).
        det_scope: module patterns under DET rules.
        iso_scope: module patterns under ISO rules.
        registry: the Alice/Bob classification.
        wire_module: path of the wire-format module (WIRE pairing), or None
            to skip the WIRE family.
        wire_test_paths: test files that must exercise every codec pair.
        baseline_path: committed baseline file (None disables baselining).
    """

    src_root: Path
    paths: tuple[Path, ...] = ()
    exa_scope: tuple[str, ...] = (
        "repro.exact", "repro.exact.*",
        "repro.singularity", "repro.singularity.*",
        "repro.comm.truth_matrix",
        "repro.costs", "repro.costs.*",
    )
    exa_allowed_modules: tuple[str, ...] = ("repro.exact.modnp",)
    det_scope: tuple[str, ...] = (
        "repro.protocols", "repro.protocols.*",
        "repro.comm", "repro.comm.*",
        "repro.cache", "repro.cache.*",
        "repro.trace", "repro.trace.*",
        "repro.persist",
        "repro.serve", "repro.serve.*",
        "repro.matrix", "repro.matrix.*",
    )
    iso_scope: tuple[str, ...] = (
        "repro.protocols", "repro.protocols.*",
        "repro.comm", "repro.comm.*",
        "repro.serve", "repro.serve.*",
        "repro.matrix", "repro.matrix.*",
    )
    flow_scope: tuple[str, ...] = (
        "repro.protocols", "repro.protocols.*",
        "repro.comm", "repro.comm.*",
    )
    cost_scope: tuple[str, ...] = (
        "repro.protocols", "repro.protocols.*",
    )
    asy_scope: tuple[str, ...] = (
        "repro.serve", "repro.serve.*",
    )
    registry: AgentRegistry = field(default_factory=AgentRegistry)
    wire_module: Path | None = None
    wire_test_paths: tuple[Path, ...] = ()
    plan_module: Path | None = None
    baseline_path: Path | None = None

    def __post_init__(self):
        self.src_root = Path(self.src_root)
        if not self.paths:
            self.paths = (self.src_root,)
        self.paths = tuple(Path(p) for p in self.paths)
        if self.plan_module is not None:
            self.plan_module = Path(self.plan_module)

    def module_of(self, path: Path) -> str:
        """Dotted module name for a scanned file."""
        return module_name(path, self.src_root)

    def in_exa_scope(self, module: str) -> bool:
        """True when EXA rules apply to ``module`` (allowlist wins)."""
        return matches_any(module, self.exa_scope) and not matches_any(
            module, self.exa_allowed_modules
        )

    def in_det_scope(self, module: str) -> bool:
        """True when DET rules apply to ``module``."""
        return matches_any(module, self.det_scope)

    def in_iso_scope(self, module: str) -> bool:
        """True when ISO rules apply to ``module``."""
        return matches_any(module, self.iso_scope)

    def in_flow_scope(self, module: str) -> bool:
        """True when the SES protocol-flow rules apply to ``module``."""
        return matches_any(module, self.flow_scope)

    def in_cost_scope(self, module: str) -> bool:
        """True when COST plan accounting applies to ``module``."""
        return matches_any(module, self.cost_scope)

    def in_asy_scope(self, module: str) -> bool:
        """True when ASY asyncio-hazard rules apply to ``module``."""
        return matches_any(module, self.asy_scope)


def default_config(repo_root: Path | None = None) -> LintConfig:
    """The committed configuration for this repository.

    ``repo_root`` defaults to the ancestor of this file that contains
    ``src/repro`` — correct both for an editable checkout and for tests
    that run from the repository root.
    """
    if repo_root is None:
        here = Path(__file__).resolve()
        for parent in here.parents:
            if (parent / "src" / "repro").is_dir():
                repo_root = parent
                break
        else:  # pragma: no cover — installed without sources alongside
            repo_root = Path.cwd()
    repo_root = Path(repo_root)
    src_root = repo_root / "src"
    wire = src_root / "repro" / "protocols" / "wire.py"
    plan = src_root / "repro" / "costs" / "plan.py"
    tests = repo_root / "tests" / "protocols"
    return LintConfig(
        src_root=src_root,
        paths=(src_root / "repro",),
        wire_module=wire if wire.exists() else None,
        plan_module=plan if plan.exists() else None,
        wire_test_paths=tuple(
            p for p in (
                tests / "test_wire_corruption.py",
                tests / "test_wire.py",
            ) if p.exists()
        ),
        baseline_path=repo_root / "LINT_BASELINE.json",
    )
