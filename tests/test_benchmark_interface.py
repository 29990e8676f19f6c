"""The benchmark under perfbench/ looks photonstat's names up at run time.

Building every wrapper it installs, and the device configs its workloads
derive, makes a rename or deletion of any name the benchmark uses fail this
suite rather than the benchmark run.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from photonstat.model import paper_device_defaults, validate  # noqa: E402
from photonstat.numerics import FitProblem  # noqa: E402


def test_every_traced_function_and_handler_exists():
    wrappers = spans._wrappers(spans.Tracer())
    expected = (sum(len(names) for names in spans.LAYERS.values())
                + len(spans.CLI_COMMANDS) + 1)  # + acceptance.run_criterion
    assert len(wrappers) == expected
    assert all(callable(fn) and callable(wrapper) for fn, wrapper in wrappers)


def test_tcspc_holds_the_least_squares_the_benchmark_patches():
    import photonstat.numerics
    import photonstat.tcspc

    assert photonstat.tcspc.least_squares is photonstat.numerics.least_squares


def test_least_squares_wrapper_reads_the_fit_result():
    tracer = spans.Tracer()
    wrapper = {f"{fn.__module__}.{fn.__name__}": w for fn, w in spans._wrappers(tracer)}
    fit = wrapper["photonstat.numerics.least_squares"]
    x = np.linspace(0.0, 1.0, 10)
    result = fit(FitProblem(model=lambda p, t: p[0] + p[1] * t, x=x, y=1.0 + 2.0 * x,
                            initial_params=[0.0, 0.0]))
    totals = spans.per_pass_totals(tracer)[None]
    assert totals["numerics.least_squares.iterations"] == result.iterations > 0
    assert totals["numerics.least_squares.converged"] == 1.0
    assert totals["numerics.least_squares.model_evals"] >= result.iterations


def test_workload_configs_build_and_validate():
    emitter = paper_device_defaults().emitter
    assert dataclasses.replace(emitter, slow_branch_fraction=0.0).slow_branch_fraction == 0.0
    for config in (workloads.stock_config(1), workloads.lifetime_config(4),
                   workloads.hbt_config(5)):
        assert validate(config) == []
