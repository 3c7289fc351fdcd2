"""Sweep counts of the full-size benchmark instances, solved in process.

The instances come from ``perfbench/workloads.py``, imported by path so
that this file depends on the benchmark's inputs and nothing else of it.
chain_steer contracts too irregularly for the geometric extrapolation to
try a jump, so its sweeps stay as they were.  mfg_hub settles at a change
ratio near 0.25 and keeps one jump, decided by the dual alone (its one
``marginal`` call per try shows that no slope is taken); dense_cycle
settles into a slower steady rate and keeps four jumps, the late ones
decided by the dual's slope, at every seed.
"""

import pytest

from gtop import Box, ChainEngine, solver
from gtop.functions import MarginalFunction

from _support import load_workloads


@pytest.fixture(scope="module")
def workloads():
    return load_workloads()


def solve_seed0(workloads, name, work_dir, seed=0):
    wl = workloads.WORKLOADS[name](seed, str(work_dir))
    problem = wl.setup()
    if name == "mfg_hub":
        return solver.solve(problem.spec, problem.solver_config)[1]
    config = solver.SolverConfig(feasibility_tol=workloads.TOL,
                                 potential_tol=workloads.TOL)
    return solver.solve(problem, config)[1]


@pytest.mark.parametrize("name, sweeps", [("chain_steer", 31)])
def test_irregular_instances_never_try(workloads, name, sweeps, tmp_path):
    report = solve_seed0(workloads, name, tmp_path)
    assert report.termination == "converged"
    assert report.sweeps == sweeps
    assert report.extrapolations == []


def test_mfg_hub_keeps_one_fast_jump(workloads, tmp_path):
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.termination == "converged"
    assert report.sweeps == 14
    assert [(sweep, kept) for sweep, _, kept in report.extrapolations] == [(7, True)]
    ref = workloads.REFERENCE_DUAL["mfg_hub"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)


def test_mfg_hub_solves_its_indicator_boxes_once(workloads, tmp_path, monkeypatch):
    # The obstacle box of each of the 8 running nodes ignores its weight,
    # so only the first sweep solves it.
    calls = []
    solve_inclusion = MarginalFunction.solve_inclusion

    def counted(self, w, epsilon):
        if type(self) is Box:
            calls.append(self)
        return solve_inclusion(self, w, epsilon)

    monkeypatch.setattr(MarginalFunction, "solve_inclusion", counted)
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.termination == "converged"
    assert len(calls) == 8


def test_dense_cycle_is_extrapolated(workloads, tmp_path):
    for seed in (0, 1, 3, 7):
        report = solve_seed0(workloads, "dense_cycle", tmp_path, seed)
        assert report.termination == "converged"
        assert report.sweeps == 35
        assert [kept for _, _, kept in report.extrapolations] == [True] * 4
    report = solve_seed0(workloads, "dense_cycle", tmp_path)
    ref = workloads.REFERENCE_DUAL["dense_cycle"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)


def test_mfg_hub_projects_no_marginal_for_its_residuals(workloads, tmp_path, monkeypatch):
    # Its hard node parts are indicator boxes, which report a residual of 0
    # without a projection: the node marginals are the 14 sweep duals and
    # the dual of the one try.
    calls = []
    marginal = ChainEngine.marginal

    def counted(self, v, pots):
        calls.append(v)
        return marginal(self, v, pots)

    monkeypatch.setattr(ChainEngine, "marginal", counted)
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.sweeps == 14 and len(report.extrapolations) == 1
    assert len(calls) == 15


def test_mfg_hub_projects_only_its_equality_hub_edge(workloads, tmp_path, monkeypatch):
    # The species rows of hub edges 1-9 are hard only through an indicator
    # box, so their residuals need no projection: the one bimarginal per
    # sweep is the residual of the equality on hub edge 0.
    calls = []
    bimarginal = ChainEngine.bimarginal

    def counted(self, e, pots):
        calls.append(e)
        return bimarginal(self, e, pots)

    monkeypatch.setattr(ChainEngine, "bimarginal", counted)
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.sweeps == 14
    assert len(calls) == 14 and set(calls) == {(10, 0)}


def test_mfg_hub_shares_its_species_rows(workloads, tmp_path):
    # 8 running hub edges share one row table, the terminal edge has its own
    spec = workloads.WORKLOADS["mfg_hub"](0, str(tmp_path)).setup().spec
    rows = [fn for (a, b), fn in spec.edge_functions.items() if a == spec.topology.hub and b > 0]
    assert len(rows) == 9 and len({id(fn) for fn in rows}) == 2
