"""Solver tests: single updates, full solves, reports, and convergence traits."""

import math

import numpy as np
import pytest

from gtop import (Box, CompositeFunction, Congestion, DualPotentials, Equality,
                  GraphTopology, Infeasible, Linear, ProblemSpec,
                  QuadraticDistance, SolverConfig, Zero, build_kernel,
                  dual_objective, inclusion_residual, make_engine, residuals, solve)
from gtop.model import _parts, smul
from gtop.projections import DenseEngine

from _support import as_general, assert_maxnorm_close, random_hub_spec, random_potentials


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
    pots.nodes[j] = [spec.node_fn(j).solve_inclusion(eng.w_node(j, pots), spec.epsilon)]


class TestSingleUpdates:
    def test_first_equality_update_matches_target(self):
        rng = np.random.default_rng(0)
        spec = two_node_spec(rng)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        update_node(0, pots, eng, spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.marginal(0, pots).value(),
                                   spec.node_fn(0).target, rtol=1e-12)

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
        u = pots.nodes[1][0].value()
        assert np.all(p <= cap + 1e-12)
        active = u < 1.0 - 1e-12
        np.testing.assert_allclose(p[active], cap[active], rtol=1e-10)

    def test_updates_never_decrease_dual(self):
        rng = np.random.default_rng(2)
        spec = two_node_spec(rng)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        d = dual_objective(pots, spec)
        for _ in range(6):
            for j in (0, 1):
                update_node(j, pots, eng, spec)
                d2 = dual_objective(pots, spec)
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
        pots.edges[topo.chord] = [spec.edge_fn(topo.chord).solve_inclusion(
            eng.w_edge(topo.chord, pots), spec.epsilon)]
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
        pots, report = solve(spec, SolverConfig(max_sweeps=60))
        np.testing.assert_allclose(pots.edges[(topo.hub, 1)][0].value(),
                                   np.exp(-c / 0.5), rtol=1e-12)

    def test_composite_single_part_reduces_to_plain(self):
        rng = np.random.default_rng(5)
        spec = two_node_spec(rng)
        comp_spec = ProblemSpec(spec.topology, spec.kernels,
                                {0: spec.node_fn(0),
                                 1: CompositeFunction([spec.node_fn(1)])}, {}, spec.epsilon)
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
        pots, report = solve(spec, SolverConfig(verify=True, oracle_check=True))
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
        pots, report = solve(spec, SolverConfig(verify=True, oracle_check=True))
        assert report.termination == "converged"
        dense_spec = ProblemSpec(GraphTopology.general(topo.node_count, topo.edges),
                                 spec.kernels, node_fns, efns, 0.5)
        dense_pots, dense_report = solve(dense_spec, SolverConfig())
        assert dense_report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        den = DenseEngine(dense_spec)
        for j in range(tc):
            assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, dense_pots), 1e-6,
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
                           spec.edge_functions, spec.epsilon)

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

    @pytest.mark.parametrize("instance", ["hub_edge_kernel", "stacked_chain"])
    def test_structured_solve_matches_dense(self, instance):
        spec = getattr(self, "_%s_spec" % instance)()
        pots, report = solve(spec, SolverConfig(potential_tol=1e-12))
        dense_pots, dense_report = solve(as_general(spec), SolverConfig(potential_tol=1e-12))
        assert report.termination == dense_report.termination == "converged"
        assert report.dual_objective == pytest.approx(dense_report.dual_objective, rel=1e-9)
        eng = make_engine(spec)
        eng.refresh(pots)
        den = DenseEngine(spec)
        for j in range(spec.topology.node_count):
            assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, dense_pots), 1e-8,
                                 "%s vs dense marginal %d" % (instance, j))

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
        assert residuals(pots, spec)["node:0"] <= 1e-8


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
        pots, report = solve(spec, SolverConfig(verify=True, oracle_check=True))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.marginal(1, pots).value(), mu1, rtol=1e-7)
        # the box multiplier is inactive: its factor pins at one
        np.testing.assert_allclose(pots.nodes[1][1].value(), np.ones(3), atol=1e-7)
        # and both sub-inclusions hold
        w = eng.w_node(1, pots)
        parts = _parts(spec.node_fn(1))
        factors = pots.nodes[1]
        for k_idx, part in enumerate(parts):
            others = [factors[i] for i in range(len(factors)) if i != k_idx]
            w_eff = smul(w, *others)
            assert np.max(inclusion_residual(part, factors[k_idx], w_eff,
                                             spec.epsilon)) <= 1e-8

    def test_contradictory_composite_plateaus(self):
        rng = np.random.default_rng(13)
        spec, mu1, cap = self._composite_spec(rng, cap_slack=-0.3)
        assert np.any(cap < mu1)
        pots, report = solve(spec, SolverConfig(max_sweeps=200))
        assert report.termination == "max_sweeps"
        assert report.max_residual > 1e-6

    def test_update_composite_matches_manual(self):
        rng = np.random.default_rng(14)
        spec, mu1, cap = self._composite_spec(rng, cap_slack=0.4)
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        comp = spec.node_fn(1)
        eng.refresh(pots)
        w = eng.w_node(1, pots)
        pots.nodes[1][0] = comp.parts[0].solve_inclusion(smul(w, pots.nodes[1][1]),
                                                         spec.epsilon)
        eng.refresh(pots)
        w = eng.w_node(1, pots)
        res = inclusion_residual(comp.parts[0], pots.nodes[1][0],
                                 smul(w, pots.nodes[1][1]), spec.epsilon)
        assert np.max(res) <= 1e-10


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
        pots, report = solve(spec, SolverConfig(verify=True, oracle_check=True))
        assert report.termination == "converged"
        assert len(pots.edges[topo.chord]) == 2
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
            pots, report = solve(spec, SolverConfig(verify=True, oracle_check=True,
                                                    max_sweeps=600))
            assert report.termination == "converged", "trial %d" % trial


class TestResiduals:
    def test_satisfied_equality_is_zero(self):
        rng = np.random.default_rng(18)
        spec = two_node_spec(rng)
        pots, _ = solve(spec, SolverConfig(feasibility_tol=1e-12, potential_tol=1e-13))
        res = residuals(pots, spec)
        assert max(res.values()) <= 1e-11

    def test_double_mass_is_unit_residual(self):
        fn = Equality(np.array([0.5, 0.5]))
        assert fn.feasibility_residual(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_midsolve_residuals_match_oracle_recompute(self):
        rng = np.random.default_rng(19)
        spec = two_node_spec(rng)
        pots, _ = solve(spec, SolverConfig(max_sweeps=3))
        res = residuals(pots, spec)
        den = DenseEngine(spec)
        for j in (0, 1):
            expected = spec.node_fn(j).feasibility_residual(den.marginal(j, pots).value())
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
            res = inclusion_residual(spec.node_fn(j), pots.nodes[j][0], w, spec.epsilon)
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
        m_star = DenseEngine(spec).tensor(ref_pots).value()

        errors = []
        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        from gtop.solver import _Updater
        eng.rebuild_backward(pots)
        for sweep in range(1, 61):
            _Updater(spec, pots, None, sweep).sweep(eng)
            errors.append(float(np.abs(DenseEngine(spec).tensor(pots).value()
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


class TestDivergenceWarning:
    def test_unattained_dual_warns_not_errors(self):
        # two constraints that force a plan entry to zero: the optimal primal
        # exists but the dual multipliers run away; expect a warning only
        topo = GraphTopology.general(2, [(0, 1)])
        k = build_kernel(np.zeros((2, 2)), 1.0)
        R = np.array([[1.0, 0.0], [1.0, 1.0]])
        spec = ProblemSpec(topo, {(0, 1): k},
                           {0: Box(0.0, np.array([1.0, 2.0]))},
                           {(0, 1): Box(R, np.full((2, 2), np.inf))}, 1.0)
        pots, report = solve(spec, SolverConfig(max_sweeps=200,
                                                log_potential_bound=3.0))
        assert any("log bound" in w for w in report.warnings)
        # the primal plan itself approaches its optimum even so
        plan = DenseEngine(spec).tensor(pots).value()
        np.testing.assert_allclose(plan, [[1.0, 0.0], [1.0, 1.0]], atol=0.02)
