"""Sweep and work counts of the full-size benchmark instances, solved in process.

The instances come from ``perfbench/workloads.py``, imported by path so
that this file depends on the benchmark's inputs and nothing else of it.
Every try mixes the last exact sweeps (Anderson, type II).  chain_steer's
change ratios settle within the trigger's spread three times, and it keeps
all three tries.  mfg_hub keeps its one try, decided by the dual alone
(one ``marginal`` call for it shows that no slope is taken); dense_cycle
keeps four tries at every seed, at seed 0 the last one decided by the
dual's slope.
"""

import pytest

from gtop import Box, ChainEngine, solver
from gtop.solver import _Mixer

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


def test_chain_steer_keeps_its_three_tries(workloads, tmp_path):
    report = solve_seed0(workloads, "chain_steer", tmp_path)
    assert report.termination == "converged"
    assert report.sweeps == 20
    assert [(sweep, kept) for sweep, _, kept in report.extrapolations] == \
        [(6, True), (12, True), (18, True)]
    ref = workloads.REFERENCE_DUAL["chain_steer"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)


def test_mfg_hub_keeps_one_fast_jump(workloads, tmp_path):
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.termination == "converged"
    assert report.sweeps == 12
    assert [(sweep, kept) for sweep, _, kept in report.extrapolations] == [(6, True)]
    ref = workloads.REFERENCE_DUAL["mfg_hub"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)


def test_mfg_hub_solves_its_indicator_boxes_once(workloads, tmp_path, monkeypatch):
    # The obstacle box of each of the 8 running nodes ignores its weight:
    # the spec computes its factor once, and no sweep updates it.  The 7
    # equal obstacle entries of the config are one Box; node 4's composite
    # holds the other.
    calls = []
    methods = {name: getattr(Box, name) for name in ("solve_inclusion", "fixed_factor")}

    def spy(name):
        def counted(self, *args):
            if type(self) is Box:
                calls.append(name)
            return methods[name](self, *args)
        return counted

    for name in methods:
        monkeypatch.setattr(Box, name, spy(name))
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.termination == "converged"
    assert calls == ["fixed_factor"] * 2


def test_dense_cycle_is_extrapolated(workloads, tmp_path):
    for seed, sweeps in ((0, 19), (1, 19), (3, 19), (7, 19)):
        report = solve_seed0(workloads, "dense_cycle", tmp_path, seed)
        assert report.termination == "converged"
        assert report.sweeps == sweeps
        assert [kept for _, _, kept in report.extrapolations] == [True] * 4
    report = solve_seed0(workloads, "dense_cycle", tmp_path)
    ref = workloads.REFERENCE_DUAL["dense_cycle"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)


def test_mfg_hub_projects_no_marginal_for_its_residuals(workloads, tmp_path, monkeypatch):
    # Its hard node parts are indicator boxes, constants of the spec with
    # no residual: the node marginals are the 12 sweep duals and the dual
    # of the one try.
    calls = []
    marginal = ChainEngine.marginal

    def counted(self, v, pots):
        calls.append(v)
        return marginal(self, v, pots)

    monkeypatch.setattr(ChainEngine, "marginal", counted)
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.sweeps == 12 and len(report.extrapolations) == 1
    assert len(calls) == 13


def test_mfg_hub_projects_only_its_equality_hub_edge(workloads, tmp_path, monkeypatch):
    # The species rows of hub edges 1-9 are hard only through an indicator
    # box, a constant of the spec, so their residuals need no projection:
    # the one bimarginal per sweep is the residual of the equality on hub
    # edge 0.
    calls = []
    bimarginal = ChainEngine.bimarginal

    def counted(self, e, pots):
        calls.append(e)
        return bimarginal(self, e, pots)

    monkeypatch.setattr(ChainEngine, "bimarginal", counted)
    report = solve_seed0(workloads, "mfg_hub", tmp_path)
    assert report.sweeps == 12
    assert len(calls) == 12 and set(calls) == {(10, 0)}


def test_mfg_hub_shares_its_species_rows(workloads, tmp_path):
    # 8 running hub edges share one row table, the terminal edge has its own
    spec = workloads.WORKLOADS["mfg_hub"](0, str(tmp_path)).setup().spec
    rows = [fn for (kind, e), parts in spec.blocks.items()
            if kind == "edge" and e[0] == spec.topology.hub and e[1] > 0 for fn in parts]
    assert len(rows) == 9 and len({id(fn) for fn in rows}) == 2


@pytest.mark.parametrize("name, in_band", [("dense_cycle", [False, False, False, True]),
                                           ("mfg_hub", [False])])
def test_what_a_try_costs(workloads, tmp_path, monkeypatch, name, in_band):
    # An out-of-band try is one backward rebuild and one dual; an in-band
    # try adds one forward pass and two slopes.  Building the proposal
    # projects nothing.
    counts = dict.fromkeys(["rebuild_backward", "push_forward", "w_node", "w_edge",
                            "marginal", "bimarginal", "dual_objective", "_dual_slope"], 0)

    def counted(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for attr in ("rebuild_backward", "push_forward", "w_node", "w_edge", "marginal",
                 "bimarginal"):
        counted(ChainEngine, attr)
    counted(solver, "dual_objective")
    counted(solver, "_dual_slope")
    tries, built = [], []
    trial, proposal = solver._try_extrapolation, _Mixer.proposal

    def spied_trial(spec, pots, engine, replaced, dual, mixed):
        before = dict(counts)
        kept = trial(spec, pots, engine, replaced, dual, mixed)
        pushes = sum(kind == "push" for kind, _ in engine.order)
        tries.append(({k: counts[k] - before[k] for k in counts}, pushes))
        return kept

    def spied_proposal(self):
        before = dict(counts)
        mixed = proposal(self)
        built.append(counts == before)
        return mixed

    monkeypatch.setattr(solver, "_try_extrapolation", spied_trial)
    monkeypatch.setattr(_Mixer, "proposal", spied_proposal)
    report = solve_seed0(workloads, name, tmp_path)
    assert report.termination == "converged"
    assert len(built) == len(report.extrapolations) and all(built)
    assert [used["_dual_slope"] > 0 for used, _ in tries] == in_band
    for used, pushes in tries:
        assert used["rebuild_backward"] == used["dual_objective"] == 1
        # the dual's projections are the only weights a try takes
        assert used["w_node"] + used["w_edge"] == used["marginal"] + used["bimarginal"] > 0
        if used["_dual_slope"]:
            assert used["_dual_slope"] == 2 and used["push_forward"] == pushes > 0
        else:
            assert used["push_forward"] == 0
