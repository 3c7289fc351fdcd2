"""Solver tests: single updates, full solves, reports, and convergence traits."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gtop import (Blockwise, Box, ChainEngine, CompositeFunction, Congestion, DualPotentials,
                  EdgeKernel, Equality, GraphTopology, Infeasible, InvalidInput, Linear,
                  NumericalFailure, ProblemSpec, QuadraticDistance, ScaledArray, SolverConfig,
                  TopologyMismatch, VerificationFailure, Zero, build_kernel, dual_objective,
                  make_engine, solve, stack_rows)
from gtop import solver as solver_module
from gtop.model import smul
from gtop.projections import DenseEngine
from gtop.solver import _Mixer, _Updater, _Verifier, residual_map

from _support import (as_general, assert_maxnorm_close, block_functions, dense_tensor,
                      inclusion_residual, random_hub_spec, random_potentials, solve_dense)


def two_node_spec(rng, n=3, epsilon=0.7, mu0=None, mu1=None):
    topo = GraphTopology.chain(2)
    k = build_kernel(rng.uniform(0.0, 1.5, (n, n)), epsilon)
    mu0 = rng.uniform(0.2, 1.0, n) if mu0 is None else np.asarray(mu0, float)
    if mu1 is None:
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 *= mu0.sum() / mu1.sum()
    return ProblemSpec(topo, {(0, 1): k}, {0: Equality(mu0), 1: Equality(mu1)}, {},
                       epsilon)


def update_node(j, pots, eng, spec):
    """One exact node update against freshly rebuilt projections."""
    eng.refresh(pots)
    (fn,) = spec.blocks[("node", j)]
    pots.factors[("node", j)] = [fn.solve_inclusion(eng.w_node(j, pots), spec.epsilon)]


class TestSingleUpdates:
    def test_first_equality_update_matches_target(self):
        rng = np.random.default_rng(0)
        spec = two_node_spec(rng)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        update_node(0, pots, eng, spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.marginal(0, pots).value(),
                                   spec.blocks[("node", 0)][0].target, rtol=1e-12)

    def test_box_update_complementary_slackness(self):
        rng = np.random.default_rng(1)
        n = 4
        topo = GraphTopology.chain(2)
        k = build_kernel(rng.uniform(0, 1, (n, n)), 1.0)
        cap = rng.uniform(0.5, 1.2, n)
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Equality(rng.uniform(0.2, 1.0, n)), 1: Box(0.0, cap)}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        update_node(0, pots, eng, spec)
        update_node(1, pots, eng, spec)
        eng.refresh(pots)
        p = eng.marginal(1, pots).value()
        u = pots.factors[("node", 1)][0].value()
        assert np.all(p <= cap + 1e-12)
        active = u < 1.0 - 1e-12
        np.testing.assert_allclose(p[active], cap[active], rtol=1e-10)

    def test_updates_never_decrease_dual(self):
        rng = np.random.default_rng(2)
        spec = two_node_spec(rng)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        eng.refresh(pots)
        d = dual_objective(pots, spec, eng)
        for _ in range(6):
            for j in (0, 1):
                update_node(j, pots, eng, spec)
                eng.refresh(pots)
                d2 = dual_objective(pots, spec, eng)
                assert d2 >= d - 1e-9 * max(1.0, abs(d))
                d = d2

    def test_od_chord_update_is_direct_scaling(self):
        rng = np.random.default_rng(3)
        n = 3
        topo = GraphTopology.od_cycle(4)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)
                   for j in range(3)}
        R = rng.uniform(0.1, 1.0, (n, n))
        spec = ProblemSpec(topo, kernels, {}, {topo.chord: Equality(R)}, 0.5)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        eng.refresh(pots)
        (fn,) = spec.blocks[("edge", topo.chord)]
        pots.factors[("edge", topo.chord)] = [fn.solve_inclusion(eng.w_edge(topo.chord, pots),
                                                                 spec.epsilon)]
        eng.refresh(pots)
        np.testing.assert_allclose(eng.bimarginal(topo.chord, pots).value(), R, rtol=1e-12)

    def test_hub_linear_edge_update_idempotent(self):
        rng = np.random.default_rng(4)
        n, tc, L = 3, 3, 2
        topo = GraphTopology.species_hub(tc, L)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)
                   for j in range(tc - 1)}
        c = rng.uniform(0, 1, (L, n))
        spec = ProblemSpec(topo, kernels, {},
                           {(topo.hub, 0): Equality(rng.uniform(0.1, 1, (L, n))),
                            (topo.hub, 1): Linear(c)}, 0.5)
        # The linear cost's factor exp(-c / epsilon) is a constant of the
        # spec, folded into the kernel of its edge (all ones before).
        pots, report = solve(spec, SolverConfig(max_sweeps=60))
        assert report.termination == "converged" and ("edge", (topo.hub, 1)) not in pots.factors
        np.testing.assert_allclose(spec.kernels[(topo.hub, 1)].value(), np.exp(-c / 0.5),
                                   rtol=1e-12)

    def test_composite_single_part_reduces_to_plain(self):
        rng = np.random.default_rng(5)
        spec = two_node_spec(rng)
        fns = block_functions(spec, "node")
        comp_spec = ProblemSpec(spec.topology, spec.kernels,
                                {0: fns[0], 1: CompositeFunction([fns[1]])}, {}, spec.epsilon)
        p1, _ = solve(spec, SolverConfig())
        p2, _ = solve(comp_spec, SolverConfig())
        e1 = make_engine(spec)
        e1.refresh(p1)
        e2 = make_engine(comp_spec)
        e2.refresh(p2)
        assert_maxnorm_close(e1.bimarginal((0, 1), p1), e2.bimarginal((0, 1), p2), 1e-10,
                             "single-part composite")


class TestSolve:
    def test_symmetric_instance(self):
        topo = GraphTopology.chain(2)
        k = build_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Equality([0.5, 0.5]), 1: Equality([0.5, 0.5])}, {}, 1.0)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        assert report.sweeps < 100
        assert report.max_residual <= 1e-8
        eng = make_engine(spec)
        eng.refresh(pots)
        coupling = eng.bimarginal((0, 1), pots).value()
        np.testing.assert_allclose(coupling, coupling.T, atol=1e-12)

    def test_constant_kernel_gives_product_coupling(self):
        rng = np.random.default_rng(6)
        n = 3
        topo = GraphTopology.chain(2)
        k = build_kernel(np.zeros((n, n)), 1.0)
        mu0 = rng.uniform(0.2, 1.0, n)
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 *= mu0.sum() / mu1.sum()
        spec = ProblemSpec(topo, {(0, 1): k}, {0: Equality(mu0), 1: Equality(mu1)}, {}, 1.0)
        pots, report = solve(spec)
        eng = make_engine(spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.bimarginal((0, 1), pots).value(),
                                   np.outer(mu0, mu1) / mu0.sum(), rtol=1e-8)

    def test_desk_hub_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        n, tc, L = 4, 3, 2
        topo = GraphTopology.species_hub(tc, L)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.2, (n, n)), 0.5)
                   for j in range(tc - 1)}
        R0 = rng.uniform(0.1, 0.8, (L, n))
        node_fns = {1: QuadraticDistance(0.8, rng.uniform(0.2, 0.6, n))}
        efns = {(topo.hub, 0): Equality(R0)}
        spec = ProblemSpec(topo, kernels, node_fns, efns, 0.5)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        dense_spec = ProblemSpec(GraphTopology.general(topo.node_count, topo.edges),
                                 spec.kernels, node_fns, efns, 0.5)
        dense_pots, dense_report = solve(dense_spec, SolverConfig())
        assert dense_report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        den = DenseEngine(dense_spec)
        for j in range(tc):
            assert_maxnorm_close(eng.marginal(j, pots), den.project(dense_pots, (j,)), 1e-6,
                                 "hub vs dense marginal %d" % j)

    @staticmethod
    def _hub_edge_kernel_spec():
        rng = np.random.default_rng(40)
        spec = random_hub_spec(rng, time_nodes=3, n_states=3, species=2, epsilon=0.7)
        kernels = dict(spec.kernels)
        kernels[(spec.topology.hub, 1)] = build_kernel(rng.uniform(0.0, 2.0, (2, 3)),
                                                       spec.epsilon)
        return ProblemSpec(spec.topology, kernels,
                           {2: QuadraticDistance(0.8, rng.uniform(0.2, 0.6, 3))},
                           block_functions(spec, "edge"), spec.epsilon)

    @staticmethod
    def _stacked_chain_spec(n=3, epsilon=0.7):
        # a composite node, a Congestion node and a Box edge: the path and
        # dense engines update them in different orders
        rng = np.random.default_rng(41)
        topo = GraphTopology.chain(3)
        kernels = {e: build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon) for e in topo.edges}
        mu = rng.uniform(0.2, 1.0, n)
        total = float(mu.sum())
        nfns = {0: Equality(mu),
                1: CompositeFunction([Box(0.0, np.full(n, 0.6 * total)),
                                      QuadraticDistance(0.8, rng.uniform(0.1, 0.4, n))]),
                2: Congestion(np.full(n, 1.5 * total))}
        efns = {(0, 1): Box(0.0, np.full((n, n), 0.3 * total))}
        return ProblemSpec(topo, kernels, nfns, efns, epsilon)

    @staticmethod
    def _path_chord_costs_spec(n=3, epsilon=0.7):
        # a general path plus the chords (0, 2) and (0, 3), with costs on a
        # path edge and on a chord: the path order updates the edges amid the
        # nodes, the dense order after them
        rng = np.random.default_rng(42)
        edges = [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]
        kernels = {e: build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon) for e in edges}
        mu = rng.uniform(0.2, 1.0, n)
        total = float(mu.sum())
        nfns = {0: Equality(mu), 2: QuadraticDistance(0.8, rng.uniform(0.1, 0.4, n))}
        efns = {(1, 2): Box(0.0, np.full((n, n), 0.3 * total)),
                (0, 3): QuadraticDistance(1.0, rng.uniform(0.0, 0.1, (n, n)))}
        return ProblemSpec(GraphTopology.general(4, edges), kernels, nfns, efns, epsilon)

    @staticmethod
    def _hub_node_cost_spec(n=3, L=2, epsilon=0.7):
        # the species masses as an Equality on the hub node itself, and a
        # soft cost on the hub edge (hub, 1), a chord of the path (hub, 0, 1, 2)
        rng = np.random.default_rng(44)
        topo = GraphTopology.species_hub(3, L)
        kernels = {e: build_kernel(rng.uniform(0.0, 2.0, (L if e[0] == topo.hub else n, n)),
                                   epsilon) for e in topo.edges}
        masses = rng.uniform(0.2, 1.0, L)
        mu = rng.uniform(0.2, 1.0, n)
        mu *= masses.sum() / mu.sum()
        nfns = {topo.hub: Equality(masses), 0: Equality(mu),
                2: QuadraticDistance(0.8, rng.uniform(0.1, 0.4, n))}
        efns = {(topo.hub, 1): QuadraticDistance(1.0, rng.uniform(0.0, 0.2, (L, n)))}
        return ProblemSpec(topo, kernels, nfns, efns, epsilon)

    @staticmethod
    def _od_path_edge_cost_spec(n=3, epsilon=0.7):
        # an OD cycle with soft costs on the path edges (0, 1) and (1, 2)
        # besides the Equality on its chord
        rng = np.random.default_rng(45)
        topo = GraphTopology.od_cycle(4)
        kernels = {e: build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon) for e in topo.edges}
        R = rng.uniform(0.05, 0.5, (n, n))
        efns = {topo.chord: Equality(R),
                (0, 1): QuadraticDistance(1.0, rng.uniform(0.0, 0.1, (n, n))),
                (1, 2): Congestion(np.full((n, n), float(R.sum())))}
        return ProblemSpec(topo, kernels, {}, efns, epsilon)

    @staticmethod
    def _reversed_edge(spec, e):
        """``spec`` declared general with the cost-free edge ``e`` given high to low."""
        assert ("edge", e) not in spec.blocks
        edges = [f[::-1] if f == e else f for f in spec.topology.edges]
        kernels = dict(spec.kernels)
        k = kernels.pop(e)
        kernels[e[::-1]] = EdgeKernel(k.m.T, k.log_scale)
        return ProblemSpec(GraphTopology.general(spec.topology.node_count, edges), kernels,
                           block_functions(spec, "node"), block_functions(spec, "edge"),
                           spec.epsilon)

    @pytest.mark.parametrize("instance", ["hub_edge_kernel", "stacked_chain",
                                          "path_chord_costs", "hub_node_cost",
                                          "od_path_edge_cost"])
    def test_structured_solve_matches_dense(self, instance):
        spec = getattr(self, "_%s_spec" % instance)()
        pots, report = solve(spec, SolverConfig(potential_tol=1e-12))
        dense_pots, dense_report = solve_dense(spec, SolverConfig(potential_tol=1e-12))
        assert report.termination == dense_report.termination == "converged"
        assert report.dual_objective == pytest.approx(dense_report.dual_objective, rel=1e-9)
        eng = make_engine(spec)
        eng.refresh(pots)
        den = DenseEngine(spec)
        for j in range(spec.topology.node_count):
            assert_maxnorm_close(eng.marginal(j, pots), den.project(dense_pots, (j,)), 1e-8,
                                 "%s vs dense marginal %d" % (instance, j))

    @pytest.mark.parametrize("declared", ["structured", "general", "path_chords"])
    def test_oracle_built_only_for_other_engines(self, declared, monkeypatch):
        # a general spec that is no path plus chords from node 0 already
        # solves on the dense engine: no second copy; a general path gets one
        spec = self._stacked_chain_spec()
        if declared == "general":
            spec = self._reversed_edge(spec, (1, 2))
        elif declared == "path_chords":
            spec = as_general(spec)
        built = []
        init = DenseEngine.__init__

        def counted(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(DenseEngine, "__init__", counted)
        _, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        assert len(built) == 1

    def test_verified_solve_builds_one_path_engine(self, monkeypatch):
        # the per-update dual takes its mass from the solve engine's projections
        built = []
        init = ChainEngine.__init__

        def counted(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(ChainEngine, "__init__", counted)
        _, report = solve(self._stacked_chain_spec(), SolverConfig(verify=True))
        assert report.termination == "converged"
        assert len(built) == 1

    def test_monotone_dual_trace(self):
        rng = np.random.default_rng(8)
        spec = two_node_spec(rng)
        _, report = solve(spec, SolverConfig(verify=True))
        vals = [v for v in report.dual_values if math.isfinite(v)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))

    def test_callback_invoked_each_sweep(self):
        rng = np.random.default_rng(9)
        spec = two_node_spec(rng)
        seen = []
        _, report = solve(spec, SolverConfig(callback=lambda s, d, r: seen.append((s, d, r))))
        assert len(seen) == report.sweeps
        assert seen[0][0] == 1

    def test_mass_mismatch_detected_early(self):
        rng = np.random.default_rng(10)
        spec = two_node_spec(rng, mu0=[1.0, 1.0, 1.0], mu1=[0.5, 0.5, 0.5])
        with pytest.raises(Infeasible):
            solve(spec)

    def test_unreachable_equality_state_raises_with_context(self):
        topo = GraphTopology.chain(2)
        cost = np.array([[0.0, np.inf], [0.0, np.inf]])
        k = build_kernel(cost, 1.0)
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Equality([0.5, 0.5]), 1: Equality([0.5, 0.5])}, {}, 1.0)
        with pytest.raises(Infeasible) as err:
            solve(spec)
        assert "node 1" in str(err.value)
        assert "sweep" in str(err.value)
        report = err.value.report
        assert (report.termination, report.sweeps, report.feasible) == ("infeasible", 1, False)
        assert report.residuals["node:0"] == pytest.approx(0.0, abs=1e-15)
        assert report.residuals["node:1"] == pytest.approx(1.0, rel=1e-14)

    def test_partial_report_counts_only_the_solve_rescales(self):
        # at this small epsilon the refresh that reads the partial residuals
        # rescales too; those events belong to no sweep
        rng = np.random.default_rng(7)
        n = 4
        cost = rng.uniform(0, 5, (n, n))
        cost[:, 3] = np.inf
        with pytest.warns(RuntimeWarning):
            k = build_kernel(cost, 0.002)
        spec = ProblemSpec(GraphTopology.chain(4), {(j, j + 1): k for j in range(3)},
                           {0: Equality(np.full(n, 0.25)), 1: Congestion(np.full(n, 3.0))},
                           {}, 0.002)
        eng = make_engine(spec)
        pots = DualPotentials.ones_for(spec)
        eng.rebuild_backward(pots)
        with pytest.raises(Infeasible):
            _Updater(spec, pots, None, 1).sweep(eng)
        with pytest.raises(Infeasible) as err:
            solve(spec)
        assert err.value.report.rescale_events == eng.rescale_events > 0
        eng.refresh(pots)
        assert eng.rescale_events > err.value.report.rescale_events
        assert err.value.report.residuals == residual_map(pots, spec, eng)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tolerances_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidInput):
            SolverConfig(feasibility_tol=tol)
        with pytest.raises(InvalidInput):
            SolverConfig(potential_tol=tol)

    @pytest.mark.parametrize("max_sweeps", [0, -1, 2.5, 1.0, True, "7", None])
    def test_max_sweeps_must_be_a_positive_integer(self, max_sweeps):
        with pytest.raises(InvalidInput, match="max_sweeps"):
            SolverConfig(max_sweeps=max_sweeps)

    def test_max_sweeps_takes_numpy_integers(self):
        spec = two_node_spec(np.random.default_rng(11))
        _, report = solve(spec, SolverConfig(max_sweeps=np.int64(2)))
        assert report.sweeps == 2

    def test_max_sweeps_reported(self):
        rng = np.random.default_rng(11)
        spec = two_node_spec(rng)
        _, report = solve(spec, SolverConfig(max_sweeps=1))
        assert report.termination == "max_sweeps"
        assert report.sweeps == 1

    def test_warm_start_converges_immediately(self):
        rng = np.random.default_rng(12)
        spec = two_node_spec(rng)
        pots, report = solve(spec)
        pots2, report2 = solve(spec, initial=pots)
        assert report2.termination == "converged"
        assert report2.sweeps <= 2
        # the passed-in potentials are not mutated
        eng = make_engine(spec)
        eng.refresh(pots)
        assert residual_map(pots, spec, eng)["node:0"] <= 1e-8


class TestWarmStartChecks:
    """A warm start must be keyed and shaped like the spec's blocks."""

    @staticmethod
    def chain_and_start():
        # Equality at nodes 0 and 2; node 1 has no cost and so no factor.
        rng = np.random.default_rng(12)
        kernels = {e: build_kernel(rng.uniform(0.0, 1.0, (3, 3)), 1.0) for e in [(0, 1), (1, 2)]}
        spec = ProblemSpec(GraphTopology.chain(3), kernels,
                           {0: Equality(np.full(3, 1 / 3)), 2: Equality([0.2, 0.3, 0.5])}, {}, 1.0)
        return spec, solve(spec, SolverConfig(max_sweeps=2))[0]

    @pytest.mark.parametrize("block,factors,message", [
        (("node", 2), None, r"warm start: node 2 has factors of shapes \[\], its cost needs 1 "
                            r"of shape \(3,\)$"),
        (("node", 0), [(4,)], r"warm start: node 0 has factors of shapes \[\(4,\)\]"),
        (("node", 2), [(1,)], r"warm start: node 2 has factors of shapes \[\(1,\)\]"),
        (("node", 0), [(3,), (3,)], r"warm start: node 0 has factors of shapes "
                                    r"\[\(3,\), \(3,\)\], its cost needs 1"),
        # No sweep would update it, so it would act on the plan unchecked.
        (("node", 1), [(3,)], r"^warm start has factors for \('node', 1\), which is not a "
                              r"block"),
    ], ids=["missing", "wrong_shape", "size_one", "extra_part", "no_cost"])
    def test_a_start_unlike_the_blocks_is_named(self, block, factors, message):
        spec, start = self.chain_and_start()
        start.factors.pop(block, None)
        if factors is not None:
            start.factors[block] = [ScaledArray.ones(shape) for shape in factors]
        with pytest.raises(InvalidInput, match=message):
            solve(spec, initial=start)

    def test_a_matching_start_is_taken(self):
        spec, start = self.chain_and_start()
        assert solve(spec, initial=start)[1].termination == "converged"


def cycle_with_chord_spec(n=3, epsilon=0.5):
    """A 6-cycle plus the chord (0, 3), declared general, with Equality, Box,
    QuadraticDistance and Congestion node costs drawn from one positive plan."""
    rng = np.random.default_rng(43)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]
    plan = rng.uniform(0.5, 1.5, (n,) * 6)
    plan /= plan.sum()
    m = [plan.sum(axis=tuple(a for a in range(6) if a != j)) for j in range(6)]
    kernels = {e: build_kernel(rng.uniform(0.0, 1.0, (n, n)), epsilon) for e in edges}
    nfns = {0: Equality(m[0]), 2: QuadraticDistance(1.0, m[2]), 3: Box(0.0, 1.2 * m[3]),
            4: Congestion(4.0 * m[4]), 5: Equality(m[5])}
    return ProblemSpec(GraphTopology.general(6, edges), kernels, nfns, {}, epsilon)


class TestPathChordRouting:
    """A general path plus chords from node 0 solves on the path engine."""

    def test_cycle_with_chord_matches_dense_trace(self):
        # with node costs only, both engines update nodes 0..5 in turn
        spec = cycle_with_chord_spec()
        _, report = solve(spec)
        _, dense_report = solve_dense(spec)
        assert report.termination == dense_report.termination == "converged"
        assert report.sweeps == dense_report.sweeps
        np.testing.assert_allclose(report.dual_values, dense_report.dual_values,
                                   rtol=1e-12, atol=0.0)

    def test_routed_solve_never_projects_densely(self, monkeypatch):
        # only the verifier's dense oracle may project densely
        calls = []
        project = DenseEngine.project
        verifiers = []
        init = _Verifier.__init__

        def counted(engine, *args, **kwargs):
            calls.append(engine)
            return project(engine, *args, **kwargs)

        def recorded(verifier, *args, **kwargs):
            init(verifier, *args, **kwargs)
            verifiers.append(verifier)

        monkeypatch.setattr(DenseEngine, "project", counted)
        monkeypatch.setattr(_Verifier, "__init__", recorded)
        spec = cycle_with_chord_spec()
        _, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        oracle = verifiers[0].oracle
        assert oracle is not None and oracle in calls
        assert [e for e in calls if e is not oracle] == []
        solve_dense(spec, SolverConfig(max_sweeps=1))
        assert [e for e in calls if e is not oracle]

    def test_large_general_path_matches_od_cycle(self):
        # a general path plus chords from node 0 is admitted at any size:
        # 8^10 entries are far beyond the dense budget
        rng = np.random.default_rng(46)
        n = 8
        topo = GraphTopology.od_cycle(10)
        kernels = {e: build_kernel(rng.uniform(0.0, 1.5, (n, n)), 0.6) for e in topo.edges}
        R = rng.uniform(0.05, 0.5, (n, n))
        nfns = {j: Congestion(np.full(n, float(R.sum()))) for j in range(1, 9, 2)}
        efns = {topo.chord: Equality(R)}
        od = ProblemSpec(topo, kernels, nfns, efns, 0.6)
        general = ProblemSpec(GraphTopology.general(10, topo.edges), kernels, nfns, efns, 0.6)
        _, od_report = solve(od)
        _, report = solve(general)
        assert report.termination == od_report.termination == "converged"
        assert report.dual_values == od_report.dual_values


class TestComposite:
    def _composite_spec(self, rng, cap_slack):
        n = 3
        topo = GraphTopology.chain(2)
        k = build_kernel(rng.uniform(0, 1.2, (n, n)), 0.6)
        mu0 = rng.uniform(0.2, 1.0, n)
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 *= mu0.sum() / mu1.sum()
        cap = mu1 + cap_slack if cap_slack >= 0 else np.maximum(mu1 + cap_slack, 0.02)
        comp = CompositeFunction([Equality(mu1), Box(0.0, cap)])
        spec = ProblemSpec(topo, {(0, 1): k}, {0: Equality(mu0), 1: comp}, {}, 0.6)
        return spec, mu1, cap

    def test_feasible_composite_converges_with_inactive_cap(self):
        rng = np.random.default_rng(12)
        spec, mu1, cap = self._composite_spec(rng, cap_slack=0.4)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.marginal(1, pots).value(), mu1, rtol=1e-7)
        # the box multiplier is inactive: its factor pins at one
        np.testing.assert_allclose(pots.factors[("node", 1)][1].value(), np.ones(3), atol=1e-7)
        # and both sub-inclusions hold
        w = eng.w_node(1, pots)
        parts = spec.blocks[("node", 1)]
        factors = pots.factors[("node", 1)]
        for k_idx, part in enumerate(parts):
            others = [factors[i] for i in range(len(factors)) if i != k_idx]
            w_eff = smul(w, *others)
            assert np.max(inclusion_residual(part, factors[k_idx], w_eff,
                                             spec.epsilon)) <= 1e-8

    def test_contradictory_composite_fails_in_the_presolve(self):
        rng = np.random.default_rng(13)
        spec, mu1, cap = self._composite_spec(rng, cap_slack=-0.3)
        assert np.any(cap < mu1)
        # the cap's total is below the target's, and so is an entry's
        with pytest.raises(Infeasible, match="node 1 has no feasible value at entry"):
            solve(spec)
        # with one entry uncapped the totals meet: only an entry is left
        cap[0] = np.inf
        comp = CompositeFunction([Equality(mu1), Box(0.0, cap)])
        spec = ProblemSpec(spec.topology, spec.kernels, {0: spec.blocks[("node", 0)][0], 1: comp},
                           {}, spec.epsilon)
        entry = int(np.flatnonzero(cap < mu1)[0])
        with pytest.raises(Infeasible, match="node 1 has no feasible value at entry %d: its "
                           "parts need at least %.12g there and allow at most %.12g"
                           % (entry, mu1[entry], cap[entry])):
            solve(spec)

    def test_update_composite_matches_manual(self):
        rng = np.random.default_rng(14)
        spec, mu1, cap = self._composite_spec(rng, cap_slack=0.4)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        parts = spec.blocks[("node", 1)]
        eng.refresh(pots)
        w = eng.w_node(1, pots)
        factors = pots.factors[("node", 1)]
        factors[0] = parts[0].solve_inclusion(smul(w, factors[1]), spec.epsilon)
        eng.refresh(pots)
        w = eng.w_node(1, pots)
        res = inclusion_residual(parts[0], factors[0], smul(w, factors[1]), spec.epsilon)
        assert np.max(res) <= 1e-10


class TestKeptLogs:
    """Potentials keep their logs; the change test and the dual reuse them."""

    def test_log_change_matches_entrywise_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a, b = rng.uniform(0.0, 1.0, (2, 6))
            gone = rng.uniform(size=6) < 0.3
            a[gone] = b[gone] = 0.0
            old, new = ScaledArray(a, rng.normal()), ScaledArray(b, rng.normal())
            lo, ln = old.log_value(), new.log_value()
            both = np.isfinite(lo)
            expected = float(np.max(np.abs(lo[both] - ln[both]))) if both.any() else 0.0
            assert _Updater._log_change(old, new) == expected
        zero = ScaledArray(np.zeros(3), 2.0)
        assert _Updater._log_change(zero, ScaledArray(np.zeros(3), -5.0)) == 0.0
        assert _Updater._log_change(zero, ScaledArray(np.array([0.0, 1.0, 0.0]))) == math.inf
        assert _Updater._log_change(ScaledArray(np.ones(3)), zero) == math.inf

    def test_kept_logs_are_exact_after_solve(self):
        rng = np.random.default_rng(42)
        n = 4
        topo = GraphTopology.chain(3)
        kernels = {(0, 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5),
                   (1, 2): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)}
        mu0 = np.array([0.3, 0.0, 0.5, 0.2])
        comp = CompositeFunction([Congestion(np.full(n, 2.0)), Box(0.0, np.full(n, 0.9))])
        spec = ProblemSpec(topo, kernels,
                           {0: Equality(mu0), 1: comp,
                            2: QuadraticDistance(1.2, rng.uniform(0.1, 0.5, n))},
                           {(1, 2): Box(0.0, np.full((n, n), 0.4))}, 0.5)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        for fs in pots.factors.values():
            for f in fs:
                with np.errstate(divide="ignore"):
                    fresh = np.log(f.m) + f.log_scale
                assert f.log_value().tobytes() == fresh.tobytes()
        assert np.isneginf(pots.factors[("node", 0)][0].log_value()[1])


class TestCompositeEdge:
    def test_stacked_costs_on_chord(self):
        rng = np.random.default_rng(30)
        n = 3
        topo = GraphTopology.od_cycle(4)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.6)
                   for j in range(3)}
        R = rng.uniform(0.1, 0.6, (n, n))
        comp = CompositeFunction([Equality(R), Box(0.0, R + 0.2)])
        spec = ProblemSpec(topo, kernels, {}, {topo.chord: comp}, 0.6)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        assert len(pots.factors[("edge", topo.chord)]) == 2
        eng = make_engine(spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.bimarginal(topo.chord, pots).value(), R,
                                   rtol=1e-7)


class TestRandomizedVerifiedSolves:
    """Mixed random instances solved under per-update dual verification."""

    def test_battery(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            kind = trial % 3
            if kind == 0:
                T = int(rng.integers(2, 5))
                topo = GraphTopology.chain(T)
                kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), 0.6)
                           for j in range(T - 1)}
                mu = rng.uniform(0.2, 1.0, n)
                fns = {0: Equality(mu)}
                for j in range(1, T):
                    pick = rng.integers(0, 3)
                    if pick == 0:
                        fns[j] = Box(0.0, np.full(n, float(mu.sum())))
                    elif pick == 1:
                        fns[j] = QuadraticDistance(0.8, rng.uniform(0.1, 0.5, n))
                    else:
                        fns[j] = Congestion(np.full(n, float(mu.sum()) * 1.5))
                spec = ProblemSpec(topo, kernels, fns, {}, 0.6)
            elif kind == 1:
                T = int(rng.integers(3, 5))
                topo = GraphTopology.od_cycle(T)
                kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), 0.6)
                           for j in range(T - 1)}
                R = rng.uniform(0.05, 0.5, (n, n))
                fns = {j: Congestion(np.full(n, float(R.sum())))
                       for j in range(1, T - 1)}
                spec = ProblemSpec(topo, kernels, fns, {topo.chord: Equality(R)}, 0.6)
            else:
                tc = int(rng.integers(2, 4))
                L = int(rng.integers(1, 3))
                topo = GraphTopology.species_hub(tc, L)
                kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), 0.6)
                           for j in range(tc - 1)}
                efns = {(topo.hub, 0): Equality(rng.uniform(0.1, 0.6, (L, n)))}
                spec = ProblemSpec(topo, kernels, {}, efns, 0.6)
            pots, report = solve(spec, SolverConfig(verify=True, max_sweeps=600))
            assert report.termination == "converged", "trial %d" % trial


class TestResiduals:
    def test_satisfied_equality_is_zero(self):
        rng = np.random.default_rng(18)
        spec = two_node_spec(rng)
        pots, _ = solve(spec, SolverConfig(feasibility_tol=1e-12, potential_tol=1e-13))
        eng = make_engine(spec)
        eng.refresh(pots)
        res = residual_map(pots, spec, eng)
        assert max(res.values()) <= 1e-11

    def test_double_mass_is_unit_residual(self):
        fn = Equality(np.array([0.5, 0.5]))
        assert fn.feasibility_residual(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_midsolve_residuals_match_oracle_recompute(self):
        rng = np.random.default_rng(19)
        spec = two_node_spec(rng)
        pots, _ = solve(spec, SolverConfig(max_sweeps=3))
        eng = make_engine(spec)
        eng.refresh(pots)
        res = residual_map(pots, spec, eng)
        den = DenseEngine(spec)
        for j in (0, 1):
            (fn,) = spec.blocks[("node", j)]
            expected = fn.feasibility_residual(den.project(pots, (j,)).value())
            assert res["node:%d" % j] == pytest.approx(expected, rel=1e-12)


class TestKKTAtTermination:
    def test_all_inclusions_hold(self):
        rng = np.random.default_rng(20)
        n = 3
        topo = GraphTopology.chain(3)
        kernels = {(0, 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5),
                   (1, 2): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)}
        mu0 = rng.uniform(0.2, 1.0, n)
        spec = ProblemSpec(topo, kernels,
                           {0: Equality(mu0),
                            1: Congestion(np.full(n, float(mu0.sum()))),
                            2: QuadraticDistance(1.2, rng.uniform(0.1, 0.5, n))}, {}, 0.5)
        cfg = SolverConfig(feasibility_tol=1e-10, potential_tol=1e-11)
        pots, report = solve(spec, cfg)
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        for j in range(3):
            w = eng.w_node(j, pots)
            (fn,) = spec.blocks[("node", j)]
            res = inclusion_residual(fn, pots.factors[("node", j)][0], w, spec.epsilon)
            assert np.max(res) <= 10 * cfg.feasibility_tol


class TestRLinearTrend:
    def test_smooth_instance_contracts_geometrically(self):
        # strictly positive kernel, smooth anchored costs away from the boundary
        rng = np.random.default_rng(21)
        n = 3
        topo = GraphTopology.chain(3)
        kernels = {(0, 1): build_kernel(rng.uniform(0, 1.0, (n, n)), 0.4),
                   (1, 2): build_kernel(rng.uniform(0, 1.0, (n, n)), 0.4)}
        fns = {j: QuadraticDistance(1.0, rng.uniform(0.3, 0.8, n)) for j in range(3)}
        spec = ProblemSpec(topo, kernels, fns, {}, 0.4)
        ref_pots, ref_report = solve(spec, SolverConfig(potential_tol=1e-14,
                                                        max_sweeps=20000))
        assert ref_report.termination == "converged"
        m_star = dense_tensor(spec, ref_pots).value()

        errors = []
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        from gtop.solver import _Updater
        eng.rebuild_backward(pots)
        for sweep in range(1, 61):
            _Updater(spec, pots, None, sweep).sweep(eng)
            errors.append(float(np.abs(dense_tensor(spec, pots).value()
                                       - m_star).sum()))
        # keep the tail above the reference-solution precision floor
        tail = np.array([e for e in errors if e > 1e-9][-40:])
        assert len(tail) >= 20
        # the smallest rho making every 10-step bound hold with 5% slack:
        # e_{k+10} <= rho^10 * e_k * 1.05 for all k in the window
        ratios = tail[10:] / (1.05 * tail[:-10])
        rho10 = float(np.max(ratios))
        assert rho10 < 1.0
        assert np.all(ratios <= rho10)


class TestChecksThatFire:
    """The verifier's checks and the dual warning fire on a faulty update or
    projection, not only stay quiet on correct ones."""

    @staticmethod
    def _skewed_update(monkeypatch, at_call):
        """Make the ``at_call``-th equality update return its factor times a
        nonconstant vector: the update misses the block's maximum."""
        exact = Equality.solve_inclusion
        calls = []

        def skewed(self, w, epsilon):
            u = exact(self, w, epsilon)
            calls.append(1)
            if len(calls) == at_call:
                u = ScaledArray(u.m * np.linspace(1.0, 3.0, u.m.size).reshape(u.shape),
                                u.log_scale)
            return u

        monkeypatch.setattr(Equality, "solve_inclusion", skewed)

    def test_verified_solve_fails_when_an_update_lowers_the_dual(self, monkeypatch):
        spec = two_node_spec(np.random.default_rng(50))
        self._skewed_update(monkeypatch, at_call=3)  # sweep 2, node 0
        with pytest.raises(VerificationFailure, match="dual objective dropped .* at node 0"):
            solve(spec, SolverConfig(verify=True))

    def test_plain_solve_warns_when_a_sweep_lowers_the_dual(self, monkeypatch):
        spec = two_node_spec(np.random.default_rng(50))
        self._skewed_update(monkeypatch, at_call=4)  # sweep 2, node 1
        _, report = solve(spec, SolverConfig(max_sweeps=50))
        assert report.dual_values[1] < report.dual_values[0]
        assert "dual objective decreased at sweep 2" in report.warnings

    def test_verified_solve_fails_on_a_projection_off_the_dense_oracle(self, monkeypatch):
        spec = two_node_spec(np.random.default_rng(50))
        exact = DenseEngine.project

        def perturbed(self, pots, keep, exclude=None):
            p = exact(self, pots, keep, exclude)
            return ScaledArray(p.m * (1.0 + 1e-6 * np.arange(p.m.size).reshape(p.shape)),
                               p.log_scale)

        monkeypatch.setattr(DenseEngine, "project", perturbed)
        with pytest.raises(VerificationFailure, match=r"projection mismatch .* for node 0 at "
                                                      r"sweep 1"):
            solve(spec, SolverConfig(verify=True))

    @pytest.mark.parametrize("block", [("node", 1), ("edge", (1, 2))])
    def test_verified_solve_checks_the_nodes_and_edges_with_no_cost(self, monkeypatch, block):
        # Only the verifier projects them, so a fault in their path-engine
        # weight shows nowhere else.
        rng = np.random.default_rng(51)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 1.0, (3, 3)), 1.0) for j in range(3)}
        spec = ProblemSpec(GraphTopology.chain(4), kernels,
                           {0: Equality(np.full(3, 0.3)), 3: Equality([0.2, 0.3, 0.4])}, {}, 1.0)
        assert block not in spec.blocks
        kind, where = block
        exact = getattr(ChainEngine, "w_" + kind)

        def faulty(self, at, pots):
            w = exact(self, at, pots)
            return ScaledArray(w.m * (1.0 + 1e-6 * np.arange(w.m.size).reshape(w.shape)),
                               w.log_scale) if at == where else w

        monkeypatch.setattr(ChainEngine, "w_" + kind, faulty)
        assert solve(spec)[1].termination == "converged"
        with pytest.raises(VerificationFailure, match=r"projection mismatch .* for %s %s at "
                                                      r"sweep 1" % (kind, re.escape(repr(where)))):
            solve(spec, SolverConfig(verify=True))


class TestFailuresKeepTheirReport:
    """Every package error raised once the first sweep has begun carries the
    partial report: the sweeps begun, the duals so far and the residuals."""

    @staticmethod
    def failing_at(monkeypatch, owner, name, at_call, fault):
        """Make the ``at_call``-th call of ``owner.name`` return ``fault(result)``."""
        exact = getattr(owner, name)
        calls = []

        def patched(self, *args):
            out = exact(self, *args)
            calls.append(1)
            return fault(out) if len(calls) == at_call else out

        monkeypatch.setattr(owner, name, patched)

    @staticmethod
    def check_report(exc, sweeps, termination="error"):
        report = exc.value.report
        assert (report.termination, report.sweeps) == (termination, sweeps)
        assert len(report.dual_values) == len(report.max_residuals) == sweeps - 1
        assert all(math.isfinite(d) for d in report.dual_values)
        assert set(report.residuals) == {"node:0", "node:1"}
        assert report.wall_time_s > 0.0 and not report.feasible
        return report

    def test_numerical_failure_of_an_update(self, monkeypatch):
        # The third equality update, node 0 in sweep 2, yields NaN log potentials.
        spec = two_node_spec(np.random.default_rng(50))
        self.failing_at(monkeypatch, Equality, "_solve_log", 3, lambda out: out * math.nan)
        with pytest.raises(NumericalFailure, match=r"^node 0, sweep 2: a coordinate update "
                                                   r"produced 3 NaN") as exc:
            solve(spec)
        self.check_report(exc, 2)

    def test_numerical_failure_of_a_renormalization(self, monkeypatch):
        # The backward rebuild that closes sweep 2 meets an infinite kernel
        # product: the message names the sweep, and no block.
        spec = two_node_spec(np.random.default_rng(50))
        self.failing_at(monkeypatch, EdgeKernel, "apply", 5, lambda out: out * math.inf)
        with pytest.raises(NumericalFailure, match=r"^sweep 2: non-finite mantissa encountered "
                                                   r"during renormalization$") as exc:
            solve(spec)
        self.check_report(exc, 2)

    @staticmethod
    def raise_numerical_failure(out):
        raise NumericalFailure("forced")

    @pytest.mark.parametrize("name", ["feasibility_residual", "conjugate"])
    def test_numerical_failure_after_the_updates(self, monkeypatch, name):
        # The third call, node 0's in sweep 2, fails: in ``residual_map`` or in
        # ``dual_objective``, after the sweep's updates and closing rebuild.
        spec = two_node_spec(np.random.default_rng(50))
        self.failing_at(monkeypatch, Equality, name, 3, self.raise_numerical_failure)
        with pytest.raises(NumericalFailure, match=r"^sweep 2: forced$") as exc:
            solve(spec)
        self.check_report(exc, 2)

    def test_numerical_failure_of_a_try(self, monkeypatch):
        # The try after sweep 4 proposes NaN log factors, which the conversion
        # to factors rejects; the sweep's own dual is already recorded.
        spec = two_node_spec(np.random.default_rng(50))
        monkeypatch.setattr(_Mixer, "proposal", lambda mixer: [
            np.full(g.shape, math.nan) for g in mixer.pairs[-1][1]])
        with pytest.raises(NumericalFailure, match=r"^sweep 4, try: a coordinate update "
                                                   r"produced 3 NaN") as exc:
            solve(spec)
        report = exc.value.report
        assert (report.termination, report.sweeps, len(report.dual_values)) == ("error", 4, 4)
        assert set(report.residuals) == {"node:0", "node:1"} and report.extrapolations == []

    def test_verification_failure(self, monkeypatch):
        spec = two_node_spec(np.random.default_rng(50))
        TestChecksThatFire._skewed_update(monkeypatch, at_call=3)  # sweep 2, node 0
        with pytest.raises(VerificationFailure, match=r"^node 0, sweep 2: dual objective "
                                                      r"dropped") as exc:
            solve(spec, SolverConfig(verify=True))
        self.check_report(exc, 2)

    def test_engine_error(self, monkeypatch):
        spec = two_node_spec(np.random.default_rng(50))
        calls = []
        exact = ChainEngine.w_node

        def w_node(self, v, pots):
            calls.append(v)
            if len(calls) == 6:
                raise TopologyMismatch("no node %r in the path" % (v,))
            return exact(self, v, pots)

        monkeypatch.setattr(ChainEngine, "w_node", w_node)
        with pytest.raises(TopologyMismatch, match=r"^node 0, sweep 2: no node 0") as exc:
            solve(spec)
        report = self.check_report(exc, 2)
        assert isinstance(exc.value.__cause__, TopologyMismatch)
        assert report.residuals["node:0"] >= 0.0

    def test_infeasible_keeps_its_termination(self):
        spec = ProblemSpec(GraphTopology.chain(2), {(0, 1): build_kernel(
            [[0.0, math.inf], [0.0, math.inf]], 1.0)}, {0: Equality([0.5, 0.5]),
                                                          1: Equality([0.5, 0.5])}, {}, 1.0)
        with pytest.raises(Infeasible, match=r"^node 1, sweep 1: ") as exc:
            solve(spec)
        assert (exc.value.report.termination, exc.value.report.sweeps) == ("infeasible", 1)


class TestDivergenceWarning:
    def test_unattained_dual_warns_not_errors(self, monkeypatch):
        # two constraints that force a plan entry to zero: the optimal primal
        # exists but the dual multipliers run away; expect a warning only
        topo = GraphTopology.general(2, [(0, 1)])
        k = build_kernel(np.zeros((2, 2)), 1.0)
        R = np.array([[1.0, 0.0], [1.0, 1.0]])
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Box(0.0, np.array([1.0, 2.0]))},
                           {(0, 1): Box(R, np.full((2, 2), np.inf))}, 1.0)
        monkeypatch.setattr("gtop.solver._LOG_POTENTIAL_BOUND", 3.0)
        pots, report = solve(spec, SolverConfig(max_sweeps=200))
        assert any("log bound" in w for w in report.warnings)
        # the primal plan itself approaches its optimum even so
        plan = dense_tensor(spec, pots).value()
        np.testing.assert_allclose(plan, [[1.0, 0.0], [1.0, 1.0]], atol=0.02)

    def test_warns_at_the_first_sweep_a_rescan_exceeds_the_bound(self, monkeypatch):
        # Each factor keeps its largest |log|; a full rescan of the live
        # factors after every sweep must pick out the same sweep.
        topo = GraphTopology.general(2, [(0, 1)])
        k = build_kernel(np.zeros((2, 2)), 1.0)
        R = np.array([[1.0, 0.0], [1.0, 1.0]])
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Box(0.0, np.array([1.0, 2.0]))},
                           {(0, 1): Box(R, np.full((2, 2), np.inf))}, 1.0)
        monkeypatch.setattr("gtop.solver._LOG_POTENTIAL_BOUND", 6.0)
        live = []
        ones_for = DualPotentials.ones_for.__func__

        def kept_ones_for(cls, sp):
            live.append(ones_for(cls, sp))
            return live[-1]

        monkeypatch.setattr(DualPotentials, "ones_for", classmethod(kept_ones_for))
        over = []

        def rescan(sweep, dual, res):
            worst = 0.0
            for fs in live[0].factors.values():
                for f in fs:
                    with np.errstate(divide="ignore"):
                        lv = np.log(f.m) + f.log_scale
                    worst = max(worst, float(np.max(np.abs(lv), where=np.isfinite(lv),
                                                    initial=0.0)))
            if worst > 6.0:
                over.append(sweep)

        _, report = solve(spec, SolverConfig(max_sweeps=60, callback=rescan))
        assert over
        assert [w for w in report.warnings if "log bound" in w] == \
            ["dual iterates exceed log bound 6 at sweep %d; the dual may not attain its "
             "supremum" % over[0]]

    def test_kept_log_peak_matches_a_masked_scan(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            m = rng.uniform(0.0, 1.0, 7)
            m[rng.uniform(size=7) < 0.3] = 0.0
            f = ScaledArray(m, rng.normal(scale=20.0))
            with np.errstate(divide="ignore"):
                lv = np.log(m) + f.log_scale
            expected = float(np.max(np.abs(lv), where=np.isfinite(lv), initial=0.0))
            assert f.max_abs_log() == expected
            f.renormalize()
            with np.errstate(divide="ignore"):
                lv = np.log(f.m) + f.log_scale
            assert f.max_abs_log() == float(np.max(np.abs(lv), where=np.isfinite(lv),
                                                   initial=0.0))
        assert ScaledArray(np.zeros(3), 5.0).max_abs_log() == 0.0


def marks_off(monkeypatch):
    """Every part counts as weight-dependent: solved in every sweep, no reuse."""
    for cls in (Zero, Linear, Box, Blockwise):
        monkeypatch.setattr(cls, "ignores_weight", property(lambda self: False))


def indicator_row(rng, n):
    """Upper bounds 0 or +inf with the last state always open."""
    upper = np.where(rng.uniform(size=n) < 0.4, 0.0, np.inf)
    upper[-1] = np.inf
    return Box(0.0, upper)


def marked_spec(seed, kind, epsilon=0.5):
    """A random hub or chain with indicator, linear and zero parts among its costs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    if kind == "hub":
        tc, species = int(rng.integers(3, 6)), 4
        topo = GraphTopology.species_hub(tc, species)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 1.5, (n, n)), epsilon)
                   for j in range(tc - 1)}
        edge_fns = {(topo.hub, 0): Equality(rng.uniform(0.1, 0.6, (species, n)))}
        for j in range(1, tc):
            rows = [indicator_row(rng, n), None, Linear(rng.uniform(0.0, 1.0, n)),
                    QuadraticDistance(0.5, rng.uniform(0.0, 0.3, n))]
            edge_fns[(topo.hub, j)] = stack_rows(rows, n)
        obstacle = Box(0.0, np.r_[0.0, np.full(n - 1, np.inf)])
        node_fns = {j: obstacle for j in range(1, tc - 1)}
        node_fns[1] = CompositeFunction([obstacle, QuadraticDistance(2.0, np.full(n, 0.3))])
        node_fns[tc - 1] = QuadraticDistance(1.0, np.full(n, 1.0 / n))
        return ProblemSpec(topo, kernels, node_fns, edge_fns, epsilon)
    T = int(rng.integers(5, 7))
    topo = GraphTopology.chain(T)
    kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 1.5, (n, n)), epsilon)
               for j in range(T - 1)}
    mu = rng.uniform(0.2, 1.0, n)
    nu = rng.uniform(0.2, 1.0, n)
    node_fns = {0: Equality(mu), 1: indicator_row(rng, n), 2: Linear(rng.uniform(0, 1, n)),
                3: CompositeFunction([indicator_row(rng, n), Linear(rng.uniform(0, 1, n))]),
                T - 1: Equality(nu * mu.sum() / nu.sum())}
    edge_fns = {(1, 2): stack_rows([indicator_row(rng, n) if r % 2 else
                                    QuadraticDistance(1.0, rng.uniform(0.0, 0.2, n))
                                    for r in range(n)], n),
                (2, 3): stack_rows([[indicator_row(rng, n), None, Linear(np.ones(n))][r % 3]
                                    for r in range(n)], n)}
    return ProblemSpec(topo, kernels, node_fns, edge_fns, epsilon)


class TestWeightIndependentParts:
    """Parts whose update ignores the weight are constants of the spec: in the
    plan from the start, and never updated."""

    @pytest.mark.parametrize("kind", ["hub", "chain"])
    def test_solves_match_the_solves_without_the_marks(self, kind, monkeypatch):
        # With the marks off every part is a block, updated in every sweep.
        # The first sweep then differs, so the iterates differ at roundoff
        # and the two ways meet at the optimum.
        runs = []
        for marked in (True, False):
            if not marked:
                marks_off(monkeypatch)
            reports = []
            for seed in range(4):
                spec = marked_spec(seed, kind)
                assert bool(spec.constants) == marked
                _, verified = solve(spec, SolverConfig(verify=True))
                start, _ = solve(spec, SolverConfig(max_sweeps=3))
                _, warm = solve(spec, initial=start)
                assert verified.termination == warm.termination == "converged"
                reports.append((verified, warm))
            runs.append(reports)
        for (v1, w1), (v0, w0) in zip(*runs):
            assert v1.dual_objective == pytest.approx(v0.dual_objective, rel=1e-10)
            assert w1.dual_objective == pytest.approx(v0.dual_objective, rel=1e-10)
            assert w0.dual_objective == pytest.approx(v0.dual_objective, rel=1e-10)

    def test_marked_parts_are_never_updated(self, monkeypatch):
        spec = marked_spec(0, "chain")
        updates = []
        apply = _Updater._apply

        def counted(self, factors, k, part, w, block):
            updates.append((self.sweep_no, block, k))
            return apply(self, factors, k, part, w, block)

        monkeypatch.setattr(_Updater, "_apply", counted)
        _, report = solve(spec)
        assert report.sweeps > 2
        # node 1 is an indicator box, node 2 linear, node 3 both, edge (2, 3)
        # indicator, zero and linear rows: constants, never updated.  Edge
        # (1, 2) mixes indicator and distance rows: only the distance rows
        # remain a block.  Node 4 has a zero cost: neither block nor constant.
        fixed = {("node", 1), ("node", 2), ("node", 3), ("edge", (2, 3))}
        assert set(spec.constants) == fixed | {("edge", (1, 2))}
        assert not fixed & set(spec.blocks)
        (rows,) = spec.blocks[("edge", (1, 2))]
        assert [type(fn) for _, fn in rows.blocks] == [QuadraticDistance] * len(rows.blocks)
        first = {(b, k) for s, b, k in updates if s == 1}
        assert first == {(b, k) for b, parts in spec.blocks.items() for k in range(len(parts))}
        assert {(b, k) for s, b, k in updates if s > 1} == first
        assert spec.topology.node_count > 5 and ("node", 4) not in {b for _, b, _ in updates}
        assert ("node", 4) not in spec.constants

    def test_warm_start_of_a_constant_is_rejected(self):
        # A warm start has factors for the blocks only; node 1, an indicator
        # box, is a constant.
        spec = marked_spec(0, "chain")
        _, cold = solve(spec)
        start = random_potentials(spec, np.random.default_rng(0))
        _, warm = solve(spec, initial=start)
        assert warm.termination == cold.termination == "converged"
        assert all(math.isfinite(d) for d in warm.dual_values)
        assert warm.dual_objective == pytest.approx(cold.dual_objective, rel=1e-12, abs=1e-12)
        start.factors[("node", 1)] = [ScaledArray.ones(spec.block_shape(("node", 1)))]
        with pytest.raises(InvalidInput, match=r"factors for \('node', 1\), which is not a "
                                               r"block .*only constants"):
            solve(spec, initial=start)

    def test_no_trial_while_the_dual_is_minus_inf(self, monkeypatch):
        # A conjugate that reads +inf, as at a multiplier outside its domain,
        # makes the dual -inf at every sweep although the change ratios call
        # for trials.
        rng = np.random.default_rng(3)
        n, epsilon = 4, 0.1
        topo = GraphTopology.chain(3)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), epsilon)
                   for j in range(2)}
        spec = ProblemSpec(topo, kernels,
                           {0: Equality(rng.uniform(0.2, 1.0, n)), 1: Linear([0, 0, 0, 200]),
                            2: QuadraticDistance(0.8, rng.uniform(0.1, 0.5, n))}, {}, epsilon)
        monkeypatch.setattr(QuadraticDistance, "conjugate", lambda self, s: math.inf)
        due = []
        record = _Mixer.record

        def spied(self, pots, upd):
            due.append(record(self, pots, upd))
            return due[-1]

        monkeypatch.setattr(_Mixer, "record", spied)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = solve(spec, SolverConfig(max_sweeps=60))
        assert report.dual_values == [-math.inf] * report.sweeps
        assert any(rho is not None for rho in due)
        assert report.extrapolations == []

    def test_linear_edge_cost_is_its_kernel_reweighted(self):
        # exp(-(C + c) / epsilon) by hand, against the linear cost c on the
        # kernel exp(-C / epsilon): the same plan, verified against the dense
        # oracle in every sweep.
        rng = np.random.default_rng(12)
        n, epsilon = 4, 0.4
        topo = GraphTopology.chain(3)
        costs = [rng.uniform(0.0, 1.5, (n, n)) for _ in range(2)]
        c = rng.uniform(0.0, 2.0, (n, n))
        nodes = {0: Equality(rng.uniform(0.2, 1.0, n)),
                 2: QuadraticDistance(0.8, rng.uniform(0.1, 0.5, n))}
        kernels = {e: build_kernel(cost, epsilon) for e, cost in zip(topo.edges, costs)}
        linear = ProblemSpec(topo, kernels, nodes, {(0, 1): Linear(c)}, epsilon)
        by_hand = ProblemSpec(topo, {**kernels, (0, 1): build_kernel(costs[0] + c, epsilon)},
                              nodes, {}, epsilon)
        assert ("edge", (0, 1)) not in linear.blocks
        assert set(linear.constants) == {("edge", (0, 1))}
        plans = []
        for spec in (linear, by_hand):
            pots, report = solve(spec, SolverConfig(verify=True, potential_tol=1e-12))
            assert report.termination == "converged"
            dense = DenseEngine(spec)
            plans.append([dense.project(pots, e) for e in topo.edges])
        for a, b, e in zip(*plans, topo.edges):
            assert_maxnorm_close(a, b, 1e-10, "edge %r" % (e,))


class TestSpecHoldsNoSolveState:
    """A solve reads its spec and writes nothing into it."""

    @staticmethod
    def snapshot(spec):
        """Identity of every attribute, and of every entry of a dict attribute."""
        return {name: (id(value), sorted((repr(k), id(v)) for k, v in value.items())
                       if isinstance(value, dict) else None)
                for name, value in vars(spec).items()}

    @pytest.mark.parametrize("kind", ["hub", "chain"])
    def test_solves_leave_the_spec_as_it_was(self, kind):
        spec = marked_spec(1, kind)
        before = self.snapshot(spec)
        _, first = solve(spec)
        assert self.snapshot(spec) == before
        _, second = solve(spec)
        assert self.snapshot(spec) == before
        for name in ("termination", "sweeps", "dual_values", "max_residuals", "residuals",
                     "extrapolations"):
            assert getattr(first, name) == getattr(second, name)

    def test_all_zero_blockwise_of_the_wrong_size_on_an_edge_is_rejected(self):
        # A zero-cost edge has no block, but its function is still checked.
        spec = marked_spec(0, "chain")
        with pytest.raises(InvalidInput):
            ProblemSpec(spec.topology, spec.kernels, block_functions(spec, "node"),
                        {(0, 1): Blockwise(4, [([0, 1, 2, 3], Zero())])}, spec.epsilon)


def slow_spec(rng, kind, epsilon=0.4):
    """A chain (kind 0), OD cycle (1) or species hub (2) with tight caps or
    congestion, whose sweeps contract slowly enough to be extrapolated."""
    n = int(rng.integers(3, 6))
    if kind == 0:
        T = int(rng.integers(3, 6))
        topo = GraphTopology.chain(T)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), epsilon)
                   for j in range(T - 1)}
        mu = rng.uniform(0.2, 1.0, n)
        fns = {0: Equality(mu)}
        for j in range(1, T):
            pick = rng.integers(0, 3)
            if pick == 0:
                fns[j] = Box(0.0, np.full(n, 0.6 * float(mu.sum())))
            elif pick == 1:
                fns[j] = QuadraticDistance(0.8, rng.uniform(0.1, 0.5, n))
            else:
                fns[j] = Congestion(np.full(n, 0.5 * float(mu.sum())))
        return ProblemSpec(topo, kernels, fns, {}, epsilon)
    if kind == 1:
        T = int(rng.integers(4, 7))
        topo = GraphTopology.od_cycle(T)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), epsilon)
                   for j in range(T - 1)}
        R = rng.uniform(0.05, 0.5, (n, n))
        fns = {j: Congestion(np.full(n, 0.5 * float(R.sum()))) for j in range(1, T - 1)}
        return ProblemSpec(topo, kernels, fns, {topo.chord: Equality(R)}, epsilon)
    tc = int(rng.integers(3, 5))
    L = int(rng.integers(2, 4))
    topo = GraphTopology.species_hub(tc, L)
    kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), epsilon)
               for j in range(tc - 1)}
    efns = {(topo.hub, 0): Equality(rng.uniform(0.1, 0.6, (L, n)))}
    return ProblemSpec(topo, kernels, {tc - 1: QuadraticDistance(1.0, np.full(n, 1.0 / n))},
                       efns, epsilon)


def extrapolation_off(monkeypatch):
    """No tail projects ``_MIN_SWEEPS_LEFT`` sweeps: the solve runs exact sweeps only."""
    monkeypatch.setattr("gtop.solver._MIN_SWEEPS_LEFT", math.inf)


def solver_state(pots, engine):
    """Every potential factor and engine message: identity, mantissa bytes, log scale."""
    def entry(arr):
        return None if arr is None else (id(arr), arr.m.tobytes(), arr.log_scale)
    factors = [[entry(f) for f in fs] for fs in pots.factors.values()]
    return factors, [entry(a) for a in engine.fwd], [entry(a) for a in engine.bwd]


def propose_behind(monkeypatch):
    """Every try goes to 2 x_k - g_k, behind the sweep's input x_k."""
    def behind(self):
        inputs, outputs = self.pairs[-1]
        return [g + 2.0 * solver_module._log_diff(x, g) for x, g in zip(inputs, outputs)]

    monkeypatch.setattr(_Mixer, "proposal", behind)


class TestExtrapolation:
    """Safeguarded Anderson-mixed tries between exact sweeps."""

    def test_forced_rejection_restores_state_bit_for_bit(self, monkeypatch):
        # The proposal moves back past the sweep's input x_k; the dual is
        # concave in log u and rose from x_k to g_k, so it must fall there.
        propose_behind(monkeypatch)
        duals = []
        objective = solver_module.dual_objective

        def recorded(*args, **kwargs):
            duals.append(objective(*args, **kwargs))
            return duals[-1]

        trial = solver_module._try_extrapolation
        checked = []

        def checked_trial(spec, pots, engine, replaced, dual, proposal):
            state = solver_state(pots, engine)
            kept = trial(spec, pots, engine, replaced, dual, proposal)
            assert not kept
            # late trials move the dual by roundoff only; the first one drops it
            assert duals[-1] < dual or checked
            assert solver_state(pots, engine) == state
            checked.append(dual)
            return kept

        monkeypatch.setattr(solver_module, "dual_objective", recorded)
        monkeypatch.setattr(solver_module, "_try_extrapolation", checked_trial)
        spec = slow_spec(np.random.default_rng(5), 1)
        # the verifier checks every update after a restore as well
        _, report = solve(spec, SolverConfig(verify=True))
        assert checked and [k for _, _, k in report.extrapolations] == [False] * len(checked)
        # every trial was undone, so the solve is the plain one bit for bit
        extrapolation_off(monkeypatch)
        _, plain = solve(spec, SolverConfig(verify=True))
        assert plain.extrapolations == []
        assert report.dual_values == plain.dual_values
        assert report.max_residuals == plain.max_residuals

    @staticmethod
    def spy_tries(monkeypatch):
        """Per try: the sweep's dual, the trial dual, the slopes taken and the decision."""
        tries = []
        objective = solver_module.dual_objective
        slope = solver_module._dual_slope
        trial = solver_module._try_extrapolation

        def recorded(*args, **kwargs):
            value = objective(*args, **kwargs)
            if tries and "kept" not in tries[-1]:
                tries[-1]["trial"] = value
            return value

        def sloped(*args):
            tries[-1]["slopes"].append(slope(*args))
            return tries[-1]["slopes"][-1]

        def spied(spec, pots, engine, replaced, dual, proposal):
            tries.append({"dual": dual, "slopes": []})
            tries[-1]["kept"] = trial(spec, pots, engine, replaced, dual, proposal)
            return tries[-1]["kept"]

        monkeypatch.setattr(solver_module, "dual_objective", recorded)
        monkeypatch.setattr(solver_module, "_dual_slope", sloped)
        monkeypatch.setattr(solver_module, "_try_extrapolation", spied)
        return tries

    def test_slope_is_taken_only_inside_the_roundoff_band(self, monkeypatch):
        tries = self.spy_tries(monkeypatch)
        for seed, kind in ((9, 1), (0, 0)):
            _, report = solve(slow_spec(np.random.default_rng(seed), kind))
            assert report.termination == "converged"
        band = solver_module._ROUNDOFF_BAND
        inside = [abs(t["trial"] - t["dual"]) <= band * max(1.0, abs(t["dual"])) for t in tries]
        assert any(inside) and not all(inside)
        for t, slope_taken in zip(tries, inside):
            assert len(t["slopes"]) == (2 if slope_taken else 0)
            if slope_taken:
                assert t["kept"] == (sum(t["slopes"]) > 0.0)
            else:
                assert t["kept"] == (t["trial"] > t["dual"])

    def test_in_band_rejection_restores_state_bit_for_bit(self, monkeypatch):
        # Every try is decided by its slope, and a step back past x_k
        # lowers the dual, so every one is rejected after the forward and
        # backward messages were rebuilt at the trial point.
        monkeypatch.setattr("gtop.solver._ROUNDOFF_BAND", math.inf)
        propose_behind(monkeypatch)
        trial = solver_module._try_extrapolation
        slopes = []
        checked = []

        def checked_trial(spec, pots, engine, replaced, dual, proposal):
            state = solver_state(pots, engine)
            kept = trial(spec, pots, engine, replaced, dual, proposal)
            assert not kept
            assert solver_state(pots, engine) == state
            checked.append(dual)
            return kept

        slope = solver_module._dual_slope
        monkeypatch.setattr(solver_module, "_dual_slope",
                            lambda *args: slopes.append(1) or slope(*args))
        monkeypatch.setattr(solver_module, "_try_extrapolation", checked_trial)
        spec = slow_spec(np.random.default_rng(5), 1)
        _, report = solve(spec)
        assert checked and len(slopes) == 2 * len(checked)
        extrapolation_off(monkeypatch)
        _, plain = solve(spec)
        assert report.dual_values == plain.dual_values
        assert report.max_residuals == plain.max_residuals

    def test_trapezoid_matches_the_dual_gain_far_above_roundoff(self, monkeypatch):
        # With the band opened, every try takes both slopes; where the gain
        # is far above roundoff and the step short, (g'(0) + g'(1)) / 2
        # is the gain to 3 digits.
        monkeypatch.setattr("gtop.solver._ROUNDOFF_BAND", math.inf)
        tries = self.spy_tries(monkeypatch)
        solve(slow_spec(np.random.default_rng(5), 1))
        compared = 0
        for t in tries:
            gain = t["trial"] - t["dual"]
            if 1e-12 < abs(gain) < 1e-5:
                assert 0.5 * sum(t["slopes"]) == pytest.approx(gain, rel=1e-3)
                compared += 1
        assert compared >= 2

    def test_blockwise_slope_counts_infinite_ends_as_flat(self, monkeypatch):
        # The zero, linear and indicator-box rows of the blockwise cost keep
        # their log-factors, so their moves are renormalization roundoff,
        # where the subgradient end is infinite.
        rng = np.random.default_rng(0)
        n, epsilon = 6, 0.4
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), epsilon)
                   for j in range(3)}
        mu = rng.uniform(0.2, 1.0, n)
        mixed = Blockwise(n, [([0], Zero()), ([1], Linear([0.3])),
                              ([2, 3], Box(0.0, [np.inf, 0.0])),
                              ([4, 5], QuadraticDistance(0.5, np.full(2, 0.4 * mu.sum())))])
        spec = ProblemSpec(GraphTopology.chain(4), kernels,
                           {0: Equality(mu), 1: Congestion(np.full(n, 0.5 * mu.sum())),
                            2: mixed, 3: Box(0.0, np.full(n, 0.3 * mu.sum()))}, {}, epsilon)
        monkeypatch.setattr("gtop.solver._ROUNDOFF_BAND", math.inf)
        slope = solver_module._dual_slope
        flat = []

        def checked(spec, pots, engine, moves):
            value = slope(spec, pots, engine, moves)
            assert math.isfinite(value)
            for block, k, d in moves:
                if block == ("node", 2):
                    s = -epsilon * pots.factors[("node", 2)][k].log_value().ravel()
                    lower, upper = mixed.conjugate_subgradient(s)
                    end = np.where(d > 0, lower, upper)
                    flat.append(np.count_nonzero(~np.isfinite(end) & (d != 0)))
            return value

        monkeypatch.setattr(solver_module, "_dual_slope", checked)
        _, report = solve(spec)
        assert report.termination == "converged" and report.extrapolations
        assert flat and max(flat) > 0
        extrapolation_off(monkeypatch)
        _, plain = solve(spec)
        assert report.dual_objective == pytest.approx(plain.dual_objective, rel=1e-12,
                                                      abs=1e-12)

    def test_randomized_verified_solves_match_plain(self, monkeypatch):
        rng = np.random.default_rng(5)
        specs = [slow_spec(rng, trial % 3) for trial in range(6)]
        tried = kept = 0
        finals = []
        for spec in specs:
            _, report = solve(spec, SolverConfig(verify=True, max_sweeps=3000))
            assert report.termination == "converged"
            d = np.array(report.dual_values)
            # exact sweeps near the optimum move the computed dual by a few
            # ulps either way; nothing more than that may be lost
            assert np.all(np.diff(d) >= -1e-14 * np.maximum(1.0, np.abs(d[:-1])))
            tried += len(report.extrapolations)
            kept += sum(k for _, _, k in report.extrapolations)
            finals.append(report)
        # trials clipped to the updates' ranges are kept on every instance;
        # the forced-rejection test restores under verification
        assert kept >= len(specs) and tried == kept
        extrapolation_off(monkeypatch)
        for spec, report in zip(specs, finals):
            _, plain = solve(spec, SolverConfig(verify=True, max_sweeps=3000))
            assert plain.termination == "converged"
            assert report.sweeps < plain.sweeps
            assert report.dual_objective == pytest.approx(plain.dual_objective, rel=1e-12,
                                                          abs=1e-12)

    @staticmethod
    def capped_chain():
        """A 4-node chain: an equality, a box closing state 1, congestion and a box."""
        rng = np.random.default_rng(8)
        n = 4
        topo = GraphTopology.chain(4)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), 0.4)
                   for j in range(3)}
        mu = rng.uniform(0.2, 1.0, n)
        closed = np.full(n, 0.6 * float(mu.sum()))
        closed[1] = 0.0
        return ProblemSpec(topo, kernels,
                           {0: Equality(mu), 1: Box(0.0, closed),
                            2: Congestion(np.full(n, 0.5 * float(mu.sum()))),
                            3: Box(0.0, np.full(n, 0.6 * float(mu.sum())))}, {}, 0.4)

    def test_minus_inf_potentials_pass_a_trial_without_warnings(self):
        spec = self.capped_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        assert any(k for _, _, k in report.extrapolations)
        assert np.isneginf(pots.factors[("node", 1)][0].log_value()[1])

    def test_trials_stay_in_the_updates_log_ranges(self, monkeypatch):
        # A proposal 1 above every sweep output in log: the box and
        # congestion factors stop at their parts' log_factor_bounds (or at
        # the sweep's output, where that lies beyond), the equality moves.
        monkeypatch.setattr(_Mixer, "proposal",
                            lambda self: [g + 1.0 for g in self.pairs[-1][1]])
        trial = solver_module._try_extrapolation
        moved = []

        def checked_trial(spec, pots, engine, replaced, dual, proposal):
            slots = [(pots.factors[block], k, spec.blocks[block][k])
                     for block, k, _ in replaced]
            swept = [fs[k].log_value() for fs, k, _ in slots]
            rebuild = engine.rebuild_backward

            def at_trial(p):
                for (fs, k, part), g in zip(slots, swept):
                    t = fs[k].log_value()
                    lo, hi = part.log_factor_bounds(spec.epsilon)
                    assert np.all(t <= np.maximum(hi, g) + 1e-12)
                    assert np.all(t >= np.minimum(lo, g) - 1e-12)
                    if isinstance(part, Equality):
                        np.testing.assert_allclose(t, g + 1.0, rtol=1e-14)
                    moved.append(type(part))
                rebuild(p)

            monkeypatch.setattr(engine, "rebuild_backward", at_trial)
            try:
                return trial(spec, pots, engine, replaced, dual, proposal)
            finally:
                monkeypatch.setattr(engine, "rebuild_backward", rebuild)

        monkeypatch.setattr(solver_module, "_try_extrapolation", checked_trial)
        spec = self.capped_chain()
        _, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged" and report.extrapolations
        assert {Equality, Box, Congestion} <= set(moved)
        extrapolation_off(monkeypatch)
        _, plain = solve(spec)
        assert report.dual_objective == pytest.approx(plain.dual_objective, rel=1e-12)

    @staticmethod
    def affine_mixer(side_outputs):
        """A mixer holding six sweeps of an affine contraction of dimension 3,
        plus a second factor whose outputs are ``side_outputs(j)``."""
        rng = np.random.default_rng(0)
        A = 0.8 * np.linalg.qr(rng.normal(size=(3, 3)))[0] @ np.diag([1.0, 0.7, 0.4])
        b = rng.normal(size=3)
        mixer = _Mixer(1e-9)
        x, side = rng.normal(size=3), side_outputs(-1)
        for j in range(6):
            g, g_side = A @ x + b, side_outputs(j)
            mixer.pairs.append(([x, side], [g, g_side]))
            x, side = g, g_side
        return mixer, np.linalg.solve(np.eye(3) - A, b), x

    def test_mixing_solves_an_affine_map(self):
        # Type-II Anderson over 5 differences reaches the fixed point of an
        # affine map of dimension 3 (up to the Tikhonov term); a factor
        # whose outputs do not change is handed back as it is.
        mixer, fixed, last = self.affine_mixer(lambda j: np.zeros(2))
        mixed, side = mixer.proposal()
        np.testing.assert_allclose(mixed, fixed, rtol=1e-8)
        assert abs(mixed - fixed).max() < 1e-3 * abs(last - fixed).max()
        assert side is mixer.pairs[-1][1][1]
        # residuals that do not change leave nothing to mix
        mixer.pairs = [([np.zeros(2)], [np.ones(2)])] * 3
        assert mixer.proposal() is None

    def test_extrapolated_factor_keeps_minus_inf_entries(self):
        # The side factor's first entry is -inf throughout, and its second
        # is -inf in the oldest input only: both keep the last output, and
        # the finite entries still mix to the fixed point.
        mixer, fixed, _ = self.affine_mixer(
            lambda j: np.array([-np.inf, -np.inf if j < 0 else 0.1 * j]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed, side = mixer.proposal()
        np.testing.assert_allclose(mixed, fixed, rtol=1e-8)
        assert np.isneginf(side[0]) and side[1] == 0.5

    def test_mixing_keeps_references_not_copies(self, monkeypatch):
        # With no try in between, one sweep's outputs are the next one's
        # inputs, and the last outputs are the live factors' cached logs.
        spec = slow_spec(np.random.default_rng(5), 1)
        mixers = []
        init = _Mixer.__init__

        def kept(self, tol):
            init(self, tol)
            mixers.append(self)

        monkeypatch.setattr(_Mixer, "__init__", kept)
        extrapolation_off(monkeypatch)
        pots, _ = solve(spec, SolverConfig(max_sweeps=12))
        pairs = mixers[0].pairs
        assert len(pairs) == solver_module._MIX_DEPTH + 1
        for (_, g), (x, _) in zip(pairs, pairs[1:]):
            assert all(a is b for a, b in zip(g, x))
        live = [f.log_value() for fs in pots.factors.values() for f in fs]
        assert all(any(g is f for f in live) for g in pairs[-1][1])

    def test_rate_needs_three_agreeing_ratios(self):
        def rate(changes, tol=1e-9):
            mixer = _Mixer(tol)
            return [mixer.record(None, SimpleNamespace(sweep_no=1, replaced=[], max_change=c))
                    for c in changes][-1]

        assert rate((1.0, 0.8, 0.64, 0.512)) == pytest.approx(0.8)
        # ratios 0.8, 0.825, 0.8 agree within 20%; 0.8, 0.625, 0.9 do not
        assert rate((1.0, 0.8, 0.66, 0.528)) == pytest.approx(0.8)
        assert rate((1.0, 0.8, 0.5, 0.45)) is None
        # a fast tail tries as well; a rate at 1 never does
        assert rate((1.0, 0.5, 0.25, 0.125)) == 0.5
        assert rate((1.0, 1.0, 1.0, 1.0)) is None
        # too close to the tolerance to save _MIN_SWEEPS_LEFT sweeps
        assert rate([c * 2e-9 for c in (1.0, 0.8, 0.64, 0.512)]) is None

    def test_trials_are_exact_sweeps_apart_and_report_only_exact_sweeps(self):
        spec = slow_spec(np.random.default_rng(6), 1)
        calls = []
        _, report = solve(spec, SolverConfig(callback=lambda *a: calls.append(a)))
        sweeps = [s for s, _, _ in report.extrapolations]
        assert sweeps and all(b - a >= 4 for a, b in zip(sweeps, sweeps[1:]))
        assert len(report.dual_values) == len(report.max_residuals) == report.sweeps
        assert [c[0] for c in calls] == list(range(1, report.sweeps + 1))
        assert all(s < report.sweeps for s in sweeps)


def three_node_steering(middle, end=None, edge_functions=None):
    """A 3-node chain with 5 states and eps = 0.1, mass 1 at both ends."""
    x = (np.arange(5) + 0.5) / 5
    k = build_kernel((x[:, None] - x[None, :]) ** 2, 0.1)
    mu = np.full(5, 0.2)
    nodes = {0: Equality(mu), 1: middle, 2: Equality(mu) if end is None else end}
    return ProblemSpec(GraphTopology.chain(3), {(0, 1): k, (1, 2): k}, nodes,
                       edge_functions or {}, 0.1)


class TestPresolve:
    """Every block bounds the one plan mass; bounds that cannot meet fail
    before the first sweep and name the two blocks."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = _Updater.sweep

        def counted(self, engine):
            calls.append(self.sweep_no)
            return sweep(self, engine)

        monkeypatch.setattr(_Updater, "sweep", counted)
        return calls

    @pytest.mark.parametrize("middle, message", [
        (Box(0.0, 0.05), "node 0 needs at least 1, node 1 allows at most 0.25"),
        (Box(0.5, np.inf), "node 1 needs at least 2.5, node 0 allows at most 1"),
        (Box(0.0, np.full(5, 0.05)), "node 1 allows at most 0.25"),
        (Congestion(0.1), "node 1 allows at most 0.5"),
        (Blockwise(5, [([0, 1], Box(0.0, 0.1)), ([2, 3, 4], Equality([0.1, 0.2, 0.2]))]),
         "node 1 allows at most 0.7"),
        (Blockwise(5, [([0, 3], Equality([0.6, 0.6])), ([1, 2, 4], Linear([0.0, 1.0, 2.0]))]),
         "node 1 needs at least 1.2"),
        (CompositeFunction([QuadraticDistance(1.0, np.full(5, 0.2)), Box(0.0, 0.1)]),
         "node 1 allows at most 0.5"),
    ], ids=["cap", "floor", "vector_cap", "congestion", "blockwise_cap", "blockwise_floor",
            "composite"])
    def test_bounds_that_cannot_meet_fail_before_sweep_1(self, sweeps, middle, message):
        with pytest.raises(Infeasible, match=message):
            solve(three_node_steering(middle))
        assert sweeps == []

    def test_stacked_parts_that_no_entry_satisfies_fail_before_sweep_1(self, sweeps):
        # Each part on node 1 allows a plan mass of 1, but their stack leaves
        # only states 2 and 3 open, capped at .465 + .184 = .649.
        k = build_kernel(np.random.default_rng(0).uniform(0.0, 1.0, (4, 4)), 0.5)
        node1 = CompositeFunction([Box(0.0, [0.598, 0.481, 0.465, 0.184]),
                                   Box(0.0, [0.0, 0.0, np.inf, np.inf])])
        spec = ProblemSpec(GraphTopology.chain(2), {(0, 1): k},
                           {0: Equality(np.full(4, 0.25)), 1: node1}, {}, 0.5)
        with pytest.raises(Infeasible,
                           match="node 0 needs at least 1, node 1 allows at most 0.649"):
            solve(spec, SolverConfig(max_sweeps=300))
        assert sweeps == []

    @pytest.mark.parametrize("middle, edges, message", [
        (CompositeFunction([Equality([0.1, 0.2, 0.3, 0.2, 0.2]), Box(0.0, 0.25)]), {},
         "node 1 has no feasible value at entry 2: its parts need at least 0.3 there and "
         "allow at most 0.25"),
        (Zero(), {(0, 1): CompositeFunction([Box(0.02, np.inf),
                                             Box(0.0, np.where(np.eye(5, k=2) > 0, 0.01,
                                                               np.inf))])},
         r"edge \(0, 1\) has no feasible value at entry \(0, 2\): its parts need at least 0.02 "
         "there and allow at most 0.01"),
    ], ids=["node", "edge"])
    def test_crossed_entry_bounds_name_the_block_and_entry(self, sweeps, middle, edges, message):
        with pytest.raises(Infeasible, match=message):
            solve(three_node_steering(middle, edge_functions=edges))
        assert sweeps == []

    def test_unequal_equality_masses_name_both_nodes(self, sweeps):
        with pytest.raises(Infeasible, match="node 2 needs at least 1.5, node 0 allows at most 1"):
            solve(three_node_steering(Zero(), end=Equality(np.full(5, 0.3))))
        assert sweeps == []

    def test_edge_bounds_take_part(self, sweeps):
        spec = three_node_steering(Zero(), edge_functions={(1, 2): Box(0.0, 0.01)})
        with pytest.raises(Infeasible, match=r"edge \(1, 2\) allows at most 0.25"):
            solve(spec)
        assert sweeps == []

    @pytest.mark.parametrize("middle", [
        Box(0.0, 0.2 * (1.0 - 1e-12)),
        Box(0.2 * (1.0 + 1e-12), np.inf),
        Box(0.0, [1.0, np.inf, 0.0, 0.0, 0.0]),
        Congestion(0.3),
        Blockwise(5, [([0, 1], Box(0.0, 0.4)), ([2, 3, 4], Equality([0.1, 0.2, 0.2]))]),
        CompositeFunction([Linear(np.zeros(5)), QuadraticDistance(1.0, np.full(5, 0.2))]),
    ], ids=repr)
    def test_bounds_that_meet_within_the_slack_pass(self, sweeps, middle):
        solve(three_node_steering(middle), SolverConfig(max_sweeps=2))
        assert sweeps == [1, 2]


class TestStoppedShortOfFeasibility:
    """A solve that stops at ``max_sweeps`` with a residual above the
    feasibility tolerance says so, naming the block with the largest one."""

    @staticmethod
    def support_against_edge_box_chain(epsilon=0.05):
        # Node 2 keeps states 2 and 3 only, and the box on edge (2, 3) caps
        # each entry at 0.1, so those two rows carry at most 0.8 of the plan
        # mass 1.  Every block's own bounds allow a mass of 1: the presolve
        # passes, and node 0's equality stays short by 0.2.
        rng = np.random.default_rng(0)
        n = 4
        kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 1.0, (n, n)), epsilon)
                   for j in range(4)}
        nodes = {0: Equality(np.full(n, 0.25)), 2: Box(0.0, [0.0, 0.0, np.inf, np.inf])}
        return ProblemSpec(GraphTopology.chain(5), kernels, nodes,
                           {(2, 3): Box(0.0, np.full((n, n), 0.1))}, epsilon)

    def test_infeasible_data_warns_and_the_dual_never_drops(self):
        _, report = solve(self.support_against_edge_box_chain(), SolverConfig(max_sweeps=300))
        assert report.termination == "max_sweeps" and not report.feasible
        assert report.residuals["node:0"] == pytest.approx(0.2, abs=1e-9)
        assert report.warnings == ["stopped at max_sweeps with residual 0.2 at node:0, "
                                   "above feasibility_tol 1e-08"]
        # the dual climbs the infeasible ray; every try on it was safeguarded
        assert report.extrapolations
        assert np.all(np.diff(report.dual_values) >= 0.0)

    def test_no_try_once_the_residual_stays_flat(self, monkeypatch):
        # From about sweep 12 the residual stays at 0.2 to roundoff while the
        # change ratios still call for tries: along the dual ray a try would
        # only jump toward the end of the float range.
        due = []
        record = _Mixer.record

        def spied(self, pots, upd):
            due.append((upd.sweep_no, record(self, pots, upd)))
            return due[-1][1]

        monkeypatch.setattr(_Mixer, "record", spied)
        _, report = solve(self.support_against_edge_box_chain(), SolverConfig(max_sweeps=300))
        assert report.termination == "max_sweeps"
        assert report.extrapolations and max(s for s, _, _ in report.extrapolations) < 15
        assert any(rho is not None for sweep, rho in due if sweep >= 15)

    @pytest.mark.parametrize("epsilon,converged_at", [(0.05, 3260), (0.01, 2963)])
    def test_projections_that_disagree_on_the_mass_raise(self, epsilon, converged_at):
        # Along the dual ray the edge box's log factors drift toward the end
        # of the float range, until node 0's and edge (2, 3)'s projections
        # no longer carry one plan mass.  By sweep ``converged_at`` every
        # residual and log change is within tolerance on a plan whose node
        # masses differ, so the solve must raise before it.
        with pytest.raises(NumericalFailure, match=r"^sweep \d+: projections disagree on the "
                                                   r"plan mass: node 0 carries [^,]+, edge "
                                                   r"\(2, 3\) carries ") as exc:
            solve(self.support_against_edge_box_chain(epsilon), SolverConfig(max_sweeps=8000))
        report = exc.value.report
        assert report.termination == "error" and 300 < report.sweeps < converged_at

    def test_a_plan_mass_failure_keeps_every_hard_residual(self):
        # The handler's own residual map meets the same disagreement; the
        # report keeps the map that the failure computed in full.
        with pytest.raises(NumericalFailure, match="plan mass") as exc:
            solve(self.support_against_edge_box_chain(), SolverConfig(max_sweeps=8000))
        report = exc.value.report
        assert set(report.residuals) == {"node:0", "edge:2-3"}
        assert report.residuals["node:0"] == pytest.approx(0.2, abs=1e-6)
        assert report.residuals["edge:2-3"] == 0.0

    def test_feasible_stops_do_not_warn(self):
        spec = three_node_steering(QuadraticDistance(1.0, np.full(5, 0.2)))
        _, report = solve(spec)
        assert report.termination == "converged" and report.warnings == []
        # stopped early, but every residual is already within the tolerance
        _, report = solve(spec, SolverConfig(max_sweeps=3, feasibility_tol=1.0))
        assert report.termination == "max_sweeps" and report.warnings == []
