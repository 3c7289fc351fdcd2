"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gtop import (Box, CompositeFunction, Congestion, DualPotentials, Equality,
                  FlowEdge, FlowNetwork, GraphTopology, Linear, MFGSetup,
                  ProblemSpec, QuadraticDistance, SolverConfig, Zero,
                  build_flow_cost_matrix, build_flow_problem, build_kernel,
                  build_mfg_chain_problem, build_mfg_problem, edge_utilization,
                  embed_od_matrix, grid_points, make_engine, solve)
from gtop.projections import DenseEngine
from gtop.solver import _Updater

from _support import (assert_maxnorm_close, random_chain_spec, random_hub_spec,
                      random_od_spec, random_potentials)


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print("\nACCEPTANCE %s (%s): FAIL" % (number, name))
        raise
    print("\nACCEPTANCE %s (%s): PASS  [%.1fs]"
          % (number, name, time.perf_counter() - started))


def test_criterion_1_oracle_projection_equivalence():
    """50 seeded instances per topology; projections vs brute force at 1e-10."""
    with criterion(1, "oracle projection equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(20260808)
        for trial in range(50):
            eps = (0.5, 1.0)[trial % 2]
            zero_rate = 0.1 if trial % 5 == 0 else 0.0

            chain = random_chain_spec(rng, n_nodes=int(rng.integers(2, 6)),
                                      sizes=None, epsilon=eps,
                                      with_edge_fn=bool(trial % 2),
                                      zero_cost_rate=0.1 if trial % 3 == 0 else 0.0)
            od = random_od_spec(rng, n_nodes=int(rng.integers(3, 6)),
                                n_states=int(rng.integers(2, 6)), epsilon=eps)
            hub = random_hub_spec(rng, time_nodes=int(rng.integers(2, 5)),
                                  n_states=int(rng.integers(2, 6)),
                                  species=int(rng.integers(1, 4)), epsilon=eps)
            for spec in (chain, od, hub):
                pots = random_potentials(spec, rng, zero_rate=zero_rate)
                eng = make_engine(spec)
                eng.refresh(pots)
                den = DenseEngine(spec)
                for j in range(spec.topology.node_count):
                    assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, pots), 1e-10,
                                         "trial %d %s marginal %d"
                                         % (trial, spec.topology.kind, j))
                for e in spec.topology.edges:
                    assert_maxnorm_close(eng.bimarginal(e, pots),
                                         den.bimarginal(e, pots), 1e-10,
                                         "trial %d %s bimarginal %r"
                                         % (trial, spec.topology.kind, e))
        assert time.perf_counter() - started < 30.0


def test_criterion_2_classical_sinkhorn_reduction():
    """Two-marginal equality problem equals a classic scaling run."""
    with criterion(2, "classical Sinkhorn reduction"):
        started = time.perf_counter()
        rng = np.random.default_rng(42)
        n, eps = 10, 0.1
        cost = rng.uniform(0.0, 1.0, (n, n))
        mu0 = rng.uniform(0.2, 1.0, n)
        mu0 /= mu0.sum()
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 /= mu1.sum()
        spec = ProblemSpec(GraphTopology.chain(2), {(0, 1): build_kernel(cost, eps)},
                           {0: Equality(mu0), 1: Equality(mu1)}, {}, eps)
        pots, report = solve(spec, SolverConfig(feasibility_tol=1e-11,
                                                potential_tol=1e-12, verify=True))
        assert report.termination == "converged"
        assert report.max_residual <= 1e-8

        # independent oracle: textbook alternating scaling on the same kernel
        k = np.exp(-cost / eps)
        u = np.ones(n)
        v = np.ones(n)
        for _ in range(20000):
            u = mu0 / (k @ v)
            v = mu1 / (k.T @ u)
        oracle_coupling = u[:, None] * k * v[None, :]

        eng = make_engine(spec)
        eng.refresh(pots)
        coupling = eng.bimarginal((0, 1), pots).value()
        assert np.max(np.abs(coupling - oracle_coupling)) <= 1e-8
        marg_res = max(np.abs(coupling.sum(1) - mu0).sum() / mu0.sum(),
                       np.abs(coupling.sum(0) - mu1).sum() / mu1.sum())
        assert marg_res <= 1e-8
        assert time.perf_counter() - started < 5.0


def test_criterion_3_monotone_dual_ascent():
    """Per-update dual monotonicity on a battery spanning every block type.

    Verify mode evaluates the dual before and after every coordinate update
    and raises if it ever drops more than 1e-9 relative.
    """
    with criterion(3, "monotone dual ascent at every update"):
        rng = np.random.default_rng(7)
        cfg = SolverConfig(verify=True, max_sweeps=400)

        # equality pair
        n = 4
        mu0 = rng.uniform(0.2, 1.0, n)
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 *= mu0.sum() / mu1.sum()
        solve(ProblemSpec(GraphTopology.chain(2),
                          {(0, 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)},
                          {0: Equality(mu0), 1: Equality(mu1)}, {}, 0.5), cfg)

        # chain with box, congestion, quadratic, linear
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.4)
                   for j in range(4)}
        fns = {0: Equality(mu0),
               1: Box(0.0, np.full(n, float(mu0.sum()) * 0.7)),
               2: Congestion(np.full(n, float(mu0.sum()))),
               3: Linear(rng.uniform(0, 0.5, n)),
               4: QuadraticDistance(1.0, rng.uniform(0.1, 0.5, n))}
        solve(ProblemSpec(GraphTopology.chain(5), kernels, fns, {}, 0.4), cfg)

        # od cycle with congestion interior
        topo = GraphTopology.od_cycle(4)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)
                   for j in range(3)}
        R = rng.uniform(0.05, 0.5, (n, n))
        solve(ProblemSpec(topo, kernels,
                          {1: Congestion(np.full(n, float(R.sum()))),
                           2: Congestion(np.full(n, float(R.sum())))},
                          {topo.chord: Equality(R)}, 0.5), cfg)

        # species hub with mixed hub-edge costs and a composite node
        from gtop import stack_rows
        topo = GraphTopology.species_hub(3, 2)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.5)
                   for j in range(2)}
        R0 = rng.uniform(0.1, 0.6, (2, n))
        total = float(R0.sum())
        efns = {(topo.hub, 0): Equality(R0),
                (topo.hub, 1): stack_rows([Linear(rng.uniform(0, 0.4, n)),
                                           QuadraticDistance(0.5, rng.uniform(0.1, 0.4, n))],
                                          n),
                (topo.hub, 2): stack_rows([Box(0.0, np.full(n, total)), None], n)}
        nfns = {1: CompositeFunction([Box(0.0, np.full(n, total)),
                                      QuadraticDistance(0.8, rng.uniform(0.1, 0.4, n))])}
        solve(ProblemSpec(topo, kernels, nfns, efns, 0.5), cfg)

        # general graph, dense engine with a Box-constrained edge
        spec = ProblemSpec(GraphTopology.general(3, [(0, 1), (1, 2), (0, 2)]),
                           {(0, 1): build_kernel(rng.uniform(0, 1, (3, 3)), 0.8),
                            (1, 2): build_kernel(rng.uniform(0, 1, (3, 3)), 0.8),
                            (0, 2): build_kernel(rng.uniform(0, 1, (3, 3)), 0.8)},
                           {0: Equality(rng.uniform(0.2, 0.8, 3)),
                            1: QuadraticDistance(1.0, rng.uniform(0.1, 0.4, 3))},
                           {(0, 2): Box(0.0, np.full((3, 3), 0.4))}, 0.8)
        solve(spec, cfg)


def test_criterion_4_r_linear_convergence():
    """Geometric tail contraction on a smooth, strictly positive instance."""
    with criterion(4, "empirical R-linear convergence"):
        started = time.perf_counter()
        rng = np.random.default_rng(21)
        n, eps = 3, 0.05
        topo = GraphTopology.chain(2)
        kernels = {(0, 1): build_kernel(rng.uniform(0.0, 3.0, (n, n)), eps)}
        # anchors strictly inside the positive orthant
        fns = {j: QuadraticDistance(1.0, rng.uniform(0.3, 0.8, n)) for j in range(2)}
        spec = ProblemSpec(topo, kernels, fns, {}, eps)
        assert all(np.all(k.m > 0) for k in spec.kernels.values())

        ref_pots, ref_report = solve(spec, SolverConfig(potential_tol=5e-15,
                                                        max_sweeps=40000))
        assert ref_report.termination == "converged"
        m_star = DenseEngine(spec).tensor(ref_pots).value()

        pots = DualPotentials.ones_for(spec)
        eng = make_engine(spec)
        eng.rebuild_backward(pots)
        errors = []
        for sweep in range(1, 201):
            _Updater(spec, pots, None, sweep).sweep(eng)
            errors.append(float(np.abs(DenseEngine(spec).tensor(pots).value()
                                       - m_star).sum()))
        # last 100 checked pairs, all above the reference precision floor
        tail = np.array([e for e in errors if e > 1e-8][-110:])
        assert len(tail) == 110
        # fitted rho: the smallest ratio satisfying every 10-step bound
        # e_{k+10} <= rho^10 * e_k * (1 + 0.05) over the window
        ratios = tail[10:] / (1.05 * tail[:-10])
        rho10 = float(np.max(ratios))
        rho = rho10 ** 0.1
        assert rho < 1.0
        assert np.all(ratios <= rho10)
        assert time.perf_counter() - started < 30.0


def test_criterion_5_conjugate_table_verification():
    """Numerical biconjugation f** = f for every catalog entry, at 1e-6."""
    with criterion(5, "conjugate catalog verification"):
        def biconjugate(fn, x, s_grid, fstar=None):
            if fstar is None:
                fstar = np.array([fn.conjugate([s]) for s in s_grid])
            finite = np.isfinite(fstar)
            return float(np.max(s_grid[finite] * x - fstar[finite]))

        # zero cost
        s = np.linspace(-5, 5, 1001)
        for x in np.linspace(0.0, 2.0, 9):
            assert abs(biconjugate(Zero(), x, s)) <= 1e-6

        # equality
        s = np.linspace(-10, 10, 2001)
        assert abs(biconjugate(Equality([0.8]), 0.8, s)) <= 1e-6

        # box
        fn = Box(0.2, 1.5)
        s = np.linspace(-30, 30, 6001)
        for x in np.linspace(0.2, 1.5, 9):
            assert abs(biconjugate(fn, x, s)) <= 1e-6

        # linear
        fn = Linear([1.3])
        for x in np.linspace(0.0, 2.0, 9):
            assert abs(biconjugate(fn, x, np.array([1.3])) - 1.3 * x) <= 1e-6

        # anchored quadratic
        sigma, y = 0.5, 0.7
        fn = QuadraticDistance(sigma, [y])
        s = np.linspace(-6, 6, 240001)
        fstar = y * s + s * s / (4 * sigma)
        for x in np.linspace(0.0, 2.0, 11):
            got = float(np.max(s * x - fstar))
            assert abs(got - sigma * (x - y) ** 2) <= 1e-6

        # congestion
        beta = 1.4
        fn = Congestion([beta])
        s = np.concatenate([np.linspace(-2.0, 2.0, 40001),
                            np.geomspace(2.0, 4000.0 / beta, 200001)])
        fstar = np.array([fn.conjugate([v]) for v in s])
        for x in np.linspace(0.0, 0.95 * beta, 12):
            got = biconjugate(fn, x, s, fstar)
            assert abs(got - x / (beta - x)) <= 1e-6

        # congestion conjugate continuity at the kink, with value zero
        kink = 1.0 / beta
        assert fn.conjugate([kink]) == 0.0
        assert kink * beta - 2.0 * math.sqrt(kink * beta) + 1.0 == 0.0
        assert abs(fn.conjugate([kink + 1e-9])) <= 1e-12
        assert fn.conjugate([kink - 1e-9]) == 0.0


def flow_instance():
    """Ten-node ring with two chords, every node both source and sink."""
    nodes = list(range(10))
    undirected = [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)]
    edges = []
    for a, b in undirected:
        edges.append(FlowEdge(a, b, length=1.0, capacity=1.0))
        edges.append(FlowEdge(b, a, length=1.0, capacity=1.0))
    net = FlowNetwork(nodes, edges, sources=nodes, sinks=nodes, horizon=8)
    od = np.full((10, 10), 0.3)
    return net, od


def test_criterion_6_desk_scale_flow_experiment():
    """Congested all-pairs routing: capacities, demand, support, conservation."""
    with criterion(6, "desk-scale network flow experiment"):
        started = time.perf_counter()
        net, od = flow_instance()
        spec = build_flow_problem(net, od=od, epsilon=0.1)
        pots, report = solve(spec, SolverConfig(feasibility_tol=1e-9,
                                                potential_tol=1e-9, max_sweeps=6000))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        T = net.horizon

        # (a) every edge utilization at or below one
        utils = np.array([edge_utilization(net, eng.marginal(t, pots).value())
                          for t in range(1, T - 1)])
        assert np.max(utils) <= 1.0
        assert np.max(utils) > 0.3  # congestion genuinely engaged

        # (b) the od coupling matches the demand table
        R = embed_od_matrix(net, od)
        coupling = eng.bimarginal(spec.topology.chord, pots).value()
        assert np.abs(coupling - R).sum() / R.sum() <= 1e-6

        # (c) all transition mass on the zero-cost pattern
        cost = build_flow_cost_matrix(net)
        forbidden = np.isinf(cost)
        for t in range(T - 1):
            p = eng.bimarginal((t, t + 1), pots).value()
            assert np.abs(p[forbidden]).sum() <= 1e-12 * p.sum()

        # (d) total mass conserved at every time
        masses = np.array([eng.marginal(t, pots).total() for t in range(T)])
        assert np.max(np.abs(masses - masses[0])) <= 1e-10 * masses[0]
        assert time.perf_counter() - started < 60.0


def mfg_instance(n_side=20, steps=9, species=4, epsilon=0.05):
    grid = grid_points((n_side, n_side), (0.0, 3.0, 0.0, 3.0))
    xy = grid
    n = grid.shape[0]

    def bump(cx, cy, s=0.35):
        d = (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2
        v = np.exp(-d / (2 * s * s))
        return v / v.sum() * (1.0 / species)

    initials = [bump(0.6, 2.4), bump(2.4, 2.4), bump(0.6, 0.6), bump(2.4, 0.6)]
    initials = initials[:species]
    upper = xy[:, 1] > 1.5
    kappa_species1 = np.where(upper, np.inf, 0.0)
    obstacle = (np.abs(xy[:, 0] - 1.5) < 0.45) & (np.abs(xy[:, 1] - 1.5) < 0.45)
    kappa_total = np.where(obstacle, 0.0, np.inf)
    c3 = np.where(xy[:, 0] > 1.5, 1.0, 0.0)
    mu4_target = np.full(n, initials[-1].sum() / n)
    checkpoint = bump(1.5, 2.6, 0.5)
    checkpoint = checkpoint / checkpoint.sum()
    uniform_end = np.full(n, 1.0 / n)

    rows = [Box(0.0, kappa_species1), None, Linear(c3),
            QuadraticDistance(0.1, mu4_target)][:species]
    total_running = {j: Box(0.0, kappa_total) for j in range(1, steps)}
    total_running[4] = CompositeFunction([Box(0.0, kappa_total),
                                          QuadraticDistance(3.0, checkpoint)])
    setup = MFGSetup(grid=grid, n_steps=steps, initial_densities=initials,
                     epsilon=epsilon, total_running=total_running,
                     total_terminal=QuadraticDistance(3.0, uniform_end),
                     species_running={j: rows for j in range(1, steps)},
                     species_terminal=rows)
    return setup, upper, obstacle


def test_criterion_7_desk_scale_mfg_experiment():
    """Four species on a 20x20 grid with obstacles, zones, and checkpoints."""
    with criterion(7, "desk-scale multi-species steering experiment"):
        started = time.perf_counter()
        setup, upper, obstacle = mfg_instance()
        spec = build_mfg_problem(setup)
        pots, report = solve(spec, SolverConfig(feasibility_tol=1e-9,
                                                potential_tol=1e-9, max_sweeps=3000))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        hub = spec.topology.hub
        steps = setup.n_steps

        # (a) per-species mass conserved at every time
        target = np.array([m.sum() for m in setup.initial_densities])
        for j in range(steps + 1):
            rows = eng.bimarginal((hub, j), pots).value().sum(axis=1)
            assert np.max(np.abs(rows - target)) <= 1e-8

        # (b) species marginals add up to the totals
        for j in range(steps + 1):
            cols = eng.bimarginal((hub, j), pots).value().sum(axis=0)
            tot = eng.marginal(j, pots).value()
            assert np.max(np.abs(cols - tot)) <= 1e-12 * max(tot.max(), 1e-300)

        # (c) species 1 keeps out of its zero-capacity region
        for j in range(1, steps + 1):
            sp1 = eng.bimarginal((hub, j), pots).value()[0]
            assert sp1[~upper].sum() <= 1e-8

        # (d) total-marginal capacities respected
        for j in range(1, steps):
            tot = eng.marginal(j, pots).value()
            assert tot[obstacle].sum() <= 1e-10

        # (e) single species with no species costs equals the plain chain solve
        single = MFGSetup(grid=setup.grid, n_steps=steps,
                          initial_densities=[np.sum(setup.initial_densities, axis=0)],
                          epsilon=setup.epsilon,
                          total_running=setup.total_running,
                          total_terminal=setup.total_terminal)
        hub_spec = build_mfg_problem(single)
        chain_spec = build_mfg_chain_problem(single)
        hp, hr = solve(hub_spec, SolverConfig(feasibility_tol=1e-10,
                                              potential_tol=1e-10))
        cp, cr = solve(chain_spec, SolverConfig(feasibility_tol=1e-10,
                                                potential_tol=1e-10))
        assert hr.termination == cr.termination == "converged"
        he = make_engine(hub_spec)
        he.refresh(hp)
        ce = make_engine(chain_spec)
        ce.refresh(cp)
        for j in range(steps + 1):
            a = he.marginal(j, hp).value()
            b = ce.marginal(j, cp).value()
            assert np.max(np.abs(a - b)) <= 1e-6 * max(b.max(), 1e-300)
        assert time.perf_counter() - started < 300.0


def test_criterion_7_replica_verifies_per_update():
    """Reduced replica of the steering experiment under per-update checks."""
    with criterion("7b", "reduced steering replica, per-update dual checks"):
        setup, upper, obstacle = mfg_instance(n_side=4, steps=4, epsilon=0.2)
        del setup.total_running[4]
        n = setup.n_points
        setup.total_running[2] = CompositeFunction([
            Box(0.0, np.where(obstacle, 0.0, np.inf)),
            QuadraticDistance(3.0, np.full(n, 1.0 / n))])
        spec = build_mfg_problem(setup)
        pots, report = solve(spec, SolverConfig(verify=True, max_sweeps=600))
        assert report.termination == "converged"


def test_criterion_8_multiple_costs_extension():
    """Stacked equality+box on one node, checked against the combined solve."""
    with criterion(8, "stacked costs on one marginal"):
        rng = np.random.default_rng(88)
        n = 4
        topo = GraphTopology.chain(2)
        k = build_kernel(rng.uniform(0.0, 1.2, (n, n)), 0.5)
        mu0 = rng.uniform(0.2, 1.0, n)
        mu1 = rng.uniform(0.2, 1.0, n)
        mu1 *= mu0.sum() / mu1.sum()
        cap = mu1 + rng.uniform(0.05, 0.3, n)  # slack capacity: equality rules
        comp = CompositeFunction([Equality(mu1), Box(0.0, cap)])
        spec = ProblemSpec(topo, {(0, 1): k}, {0: Equality(mu0), 1: comp}, {}, 0.5)
        pots, report = solve(spec, SolverConfig(feasibility_tol=1e-11,
                                                potential_tol=1e-12, verify=True))
        assert report.termination == "converged"

        # both sub-inclusions satisfied at the fixed point
        from gtop import inclusion_residual
        from gtop.model import smul
        eng = make_engine(spec)
        eng.refresh(pots)
        w = eng.w_node(1, pots)
        factors = pots.nodes[1]
        for idx, part in enumerate(comp.parts):
            others = [factors[i] for i in range(len(factors)) if i != idx]
            res = inclusion_residual(part, factors[idx], smul(w, *others), spec.epsilon)
            assert np.max(res) <= 1e-9

        # matches the dense solve of the combined problem
        combined = ProblemSpec(GraphTopology.general(2, [(0, 1)]), {(0, 1): k},
                               {0: Equality(mu0), 1: Equality(mu1)}, {}, 0.5)
        cpots, creport = solve(combined, SolverConfig(feasibility_tol=1e-11,
                                                      potential_tol=1e-12))
        assert creport.termination == "converged"
        ours = eng.bimarginal((0, 1), pots).value()
        ref = DenseEngine(combined).bimarginal((0, 1), cpots).value()
        assert np.max(np.abs(ours - ref)) <= 1e-6
