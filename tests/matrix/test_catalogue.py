"""One case catalogue: the costs axes and the chaos scenarios are views of it.

Every costs cell and every named chaos scenario must build its instance
with a builder from :mod:`repro.matrix.scenarios`, and on the same
builder and seed the costs gate must report exactly the numbers the
matrix's clean cell measures and predicts.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.comm.chaos import SCENARIOS
from repro.costs.validate import run_cell as costs_cell
from repro.costs.validate import sweep_axes
from repro.matrix import scenarios
from repro.matrix.scenarios import MatrixCase, canonical_scenarios, catalogue
from repro.matrix.sweep import regimes
from repro.matrix.sweep import run_cell as matrix_cell
from repro.util.rng import derive_seed

CLEAN = regimes(quick=True)[0]
SRC = str(Path(scenarios.__file__).resolve().parents[2])
AXES = sweep_axes(quick=True) + sweep_axes(quick=False)


def _is_shared_builder(builder) -> bool:
    return (
        inspect.isfunction(builder)
        and builder.__module__ == scenarios.__name__
        and getattr(scenarios, builder.__name__) is builder
    )


class TestSharedBuilders:
    @pytest.mark.parametrize("name, builder, params", AXES)
    def test_costs_axes_use_shared_builders(self, name, builder, params):
        assert _is_shared_builder(builder), name
        assert isinstance(builder(0, **params), MatrixCase)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_resolve_to_shared_builders(self, name):
        scenario = SCENARIOS[name]
        assert _is_shared_builder(getattr(scenarios, scenario.builder))
        assert isinstance(scenario(derive_seed(0, name)), MatrixCase)

    def test_canonical_scenarios_are_the_quick_catalogue_builders(self):
        quick = {builder.__name__ for builder, _ in catalogue(quick=True)}
        assert canonical_scenarios() == tuple(
            sorted(n for n, s in SCENARIOS.items() if s.builder in quick)
        )
        assert canonical_scenarios() == (
            "equality", "fingerprint", "matmul_verify", "trivial",
        )


class TestCostsEqualsMatrixCleanLeg:
    @pytest.mark.parametrize("name, builder, params", AXES)
    def test_same_builder_same_seed_same_numbers(self, name, builder, params):
        instance_seed = derive_seed(5, name, *sorted(params.items()))
        matrix = matrix_cell(builder(instance_seed, **params), instance_seed, CLEAN)
        costs = costs_cell(
            name,
            builder(instance_seed, **params),
            derive_seed(instance_seed, "coins"),
        )
        clean = matrix["measured"]["clean"]
        assert costs.verdict == "MATCH", costs.mismatches
        assert costs.measured == {key: clean[key] for key in costs.measured}
        assert costs.predicted == {
            key: matrix["predicted"][key] for key in costs.predicted
        }
        assert costs.bounds == matrix["bounds"]
        assert costs.params == matrix["params"]


class TestImportLayering:
    def test_packages_import_in_any_order_without_a_cycle(self):
        # repro.comm imports chaos eagerly and repro.matrix imports
        # repro.comm, so chaos must resolve its builders lazily.
        code = (
            "import sys, importlib\n"
            "importlib.import_module(sys.argv[1])\n"
            "if sys.argv[1] == 'repro.comm.chaos':\n"
            "    assert 'repro.matrix' not in sys.modules\n"
        )
        for module in (
            "repro.comm.chaos", "repro.costs", "repro.matrix", "repro.serve"
        ):
            subprocess.run(
                [sys.executable, "-c", code, module],
                check=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
