"""Work counts of the benchmark's seed-0 instances, solved in process.

Spies count the kernel applies per kernel type, the message passes, the
projection weights and projections, the coordinate updates and conjugates
per catalog type, and the mixed tries.  The counts are exact: a change that
adds or saves work shows here before it shows in any timing.  Only the
solve is counted, not the output step.
"""

import pytest

from gtop import functions, model, solver
from gtop.projections import ChainEngine

from test_workload_sweeps import workloads  # noqa: F401  (the fixture)

ENGINE_METHODS = ("rebuild_backward", "push_forward", "w_node", "w_edge", "marginal",
                  "bimarginal")
CATALOG = (functions.Zero, functions.Equality, functions.Box, functions.Linear,
           functions.QuadraticDistance, functions.Congestion, functions.Blockwise)

# Every workload routes to the path engine.  Per instance: kernel applies
# by kernel type, the engine methods, coordinate updates and conjugates by
# catalog type, then sweeps and tries.  ``w_node``/``w_edge`` include the
# weight that each ``marginal``/``bimarginal`` takes.  Costs that ignore
# their weight (mfg_hub's indicator boxes and linear rows, the zero rows of
# mfg_hub and flow_od) are constants of the spec: no update or conjugate.
COUNTS = {
    "chain_steer": {
        "apply.EdgeKernel": 2205, "rebuild_backward": 24, "push_forward": 1029, "w_node": 2089,
        "w_edge": 0, "marginal": 1089, "bimarginal": 0, "solve_inclusion.Box": 960,
        "solve_inclusion.Equality": 40, "solve_inclusion.QuadraticDistance": 20,
        "conjugate.Box": 1104, "conjugate.Equality": 46, "conjugate.QuadraticDistance": 23,
        "sweeps": 20, "tries": 3,
    },
    "dense_cycle": {
        "apply.EdgeKernel": 220, "rebuild_backward": 24, "push_forward": 100, "w_node": 185,
        "w_edge": 0, "marginal": 90, "bimarginal": 0, "solve_inclusion.Box": 19,
        "solve_inclusion.Congestion": 19, "solve_inclusion.Equality": 38,
        "solve_inclusion.QuadraticDistance": 19, "conjugate.Box": 23,
        "conjugate.Congestion": 23, "conjugate.Equality": 46, "conjugate.QuadraticDistance": 23,
        "sweeps": 19, "tries": 4,
    },
    "flow_od": {
        "apply.EdgeKernel": 1897, "rebuild_backward": 147, "push_forward": 868, "w_node": 926,
        "w_edge": 248, "marginal": 218, "bimarginal": 130, "solve_inclusion.Blockwise": 708,
        "solve_inclusion.Equality": 118, "conjugate.Blockwise": 876,
        "conjugate.Congestion": 876, "conjugate.Equality": 146, "sweeps": 118, "tries": 28,
    },
    "mfg_hub": {
        "apply.SeparableKernel": 234, "rebuild_backward": 14, "push_forward": 120, "w_node": 37,
        "w_edge": 132, "marginal": 13, "bimarginal": 12, "solve_inclusion.Blockwise": 108,
        "solve_inclusion.Equality": 12, "solve_inclusion.QuadraticDistance": 24,
        "conjugate.Blockwise": 117, "conjugate.Equality": 13, "conjugate.QuadraticDistance": 143,
        "sweeps": 12, "tries": 1,
    },
}


def count_work(wl_module, name, work_dir, patch):
    """Solve the seed-0 instance of ``name`` with every spy installed through
    ``patch(owner, attr, value)``; returns the counts, every engine method
    listed even at zero, and the solve report."""
    counts = {}

    def spy(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            k = key(args[0]) if callable(key) else key
            counts[k] = counts.get(k, 0) + 1
            return original(*args, **kwargs)

        patch(owner, attr, counted)

    for kernel in (model.EdgeKernel, model.SeparableKernel):
        spy(kernel, "apply", "apply." + kernel.__name__)
    for attr in ENGINE_METHODS:
        spy(ChainEngine, attr, attr)
    spy(functions.MarginalFunction, "solve_inclusion",
        lambda fn: "solve_inclusion." + type(fn).__name__)
    for cls in CATALOG:
        spy(cls, "conjugate", "conjugate." + cls.__name__)
    problem = wl_module.WORKLOADS[name](0, str(work_dir)).setup()
    spec = getattr(problem, "spec", problem)
    config = getattr(problem, "solver_config", None) or solver.SolverConfig(
        feasibility_tol=wl_module.TOL, potential_tol=wl_module.TOL)
    _, report = solver.solve(spec, config)
    for attr in ENGINE_METHODS:
        counts.setdefault(attr, 0)
    counts.update(sweeps=report.sweeps, tries=len(report.extrapolations))
    return counts, report


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_work_counts(workloads, tmp_path, monkeypatch, name):  # noqa: F811
    counts, report = count_work(workloads, name, tmp_path, monkeypatch.setattr)
    assert report.termination == "converged"
    assert counts == COUNTS[name]
