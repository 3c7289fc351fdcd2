"""Builder tests: network flow and density-steering problem assembly."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gtop import (Blockwise, Box, CompositeFunction, Congestion, DualPotentials, EdgeKernel,
                  Equality, FlowEdge, FlowNetwork, InvalidInput, Linear, MFGSetup,
                  QuadraticDistance, SeparableKernel, SolverConfig, Zero,
                  build_flow_cost_matrix, build_flow_problem, build_kernel,
                  build_mfg_cost_matrix, build_mfg_problem, edge_utilization,
                  embed_od_matrix, grid_points, make_engine, solve)
from gtop.cli import parse_config
from gtop.projections import DenseEngine

from _support import assert_maxnorm_close, grid_mfg_specs, mfg_chain_spec, row_major_grid

INF = math.inf


def tiny_net(horizon=3):
    return FlowNetwork(["A", "B"], [FlowEdge("A", "B", capacity=5.0)],
                       sources=["A"], sinks=["B"], horizon=horizon)


def two_hop_net(horizon=4):
    edges = [FlowEdge("A", "X", capacity=4.0), FlowEdge("X", "B", capacity=4.0)]
    return FlowNetwork(["A", "X", "B"], edges, sources=["A"], sinks=["B"],
                       horizon=horizon)


class TestFlowCostMatrix:
    def test_single_edge_network(self):
        # states: [edge A->B, source A, sink B]
        c = build_flow_cost_matrix(tiny_net())
        expected = np.array([[INF, INF, 0.0],
                             [0.0, 0.0, INF],
                             [INF, INF, 0.0]])
        np.testing.assert_array_equal(c, expected)

    def test_chained_edges_connect_through_node(self):
        c = build_flow_cost_matrix(two_hop_net())
        # edge 0 (A->X) feeds edge 1 (X->B)
        assert c[0, 1] == 0.0
        assert c[1, 0] == INF

    def test_unrelated_edges_forbidden(self):
        net = FlowNetwork(["A", "B", "C", "D"],
                          [FlowEdge("A", "B"), FlowEdge("C", "D")],
                          sources=["A", "C"], sinks=["B", "D"], horizon=3)
        c = build_flow_cost_matrix(net)
        assert c[0, 1] == INF
        assert c[1, 0] == INF

    def test_edge_states_do_not_wait(self):
        c = build_flow_cost_matrix(two_hop_net())
        assert c[0, 0] == INF
        assert c[1, 1] == INF

    def test_only_unit_length_edges(self):
        assert FlowEdge("A", "B", 1).length == 1
        for length in (7.0, 0.5, math.nan, "1"):
            with pytest.raises(InvalidInput):
                FlowEdge("A", "B", length)
        # a positional third value is the length, never a capacity
        with pytest.raises(InvalidInput):
            FlowNetwork(["A", "B"], [("A", "B", 2.0)], sources=["A"], sinks=["B"], horizon=3)

    def test_dangling_source_warns(self):
        with pytest.warns(UserWarning):
            FlowNetwork(["A", "B", "C"], [FlowEdge("A", "B")],
                        sources=["A", "C"], sinks=["B"], horizon=3)

    def test_dangling_sink_warns(self):
        with pytest.warns(UserWarning, match="^sink 'C' has no incident edge; it cannot "
                                             "receive mass$"):
            FlowNetwork(["A", "B", "C"], [FlowEdge("A", "B")],
                        sources=["A"], sinks=["B", "C"], horizon=3)

    def test_horizon_below_two_rejected(self):
        with pytest.raises(InvalidInput, match="^the horizon needs at least two time points$"):
            tiny_net(horizon=1)


def interior_cost(capacities, sources):
    """The cost build_flow_problem puts on node 1: a path A -> X -> B with
    the given edge capacities, sources as given and sink B."""
    edges = [FlowEdge("A", "X", capacity=capacities[0]),
             FlowEdge("X", "B", capacity=capacities[1])]
    net = FlowNetwork(["A", "X", "B"], edges, sources=sources, sinks=["B"], horizon=3)
    spec = build_flow_problem(net, od=np.full((len(sources), 1), 1.0 / len(sources)))
    (fn,) = spec.blocks[("node", 1)]
    return fn


class TestBuildCongestion:
    """The default edge cost of build_flow_problem: congestion on the edge states."""

    def test_plain_returns_catalog_entry(self):
        idx, fn = interior_cost([1.0, 1.0], ["A"]).blocks[0]
        np.testing.assert_array_equal(idx, [0, 1])
        assert isinstance(fn, Congestion)
        assert fn.conjugate([1.0, 1.0]) == 0.0

    def test_capacity_scaling_is_reparametrization(self):
        # cost at x = alpha*d depends only on the load fraction alpha
        d = np.array([2.0])
        for alpha in (0.1, 0.5, 0.9):
            x = alpha * d
            direct = float(x[0] / (d[0] - x[0]))
            assert direct == pytest.approx(alpha / (1 - alpha))

    def test_padded_blocks(self):
        from gtop import ScaledArray
        fn = interior_cost([1.0, 2.0], ["A", "X"])
        out = fn.solve_inclusion(ScaledArray.from_values([4.0, 4.0, 1.0, 1.0, 1.0]), 1.0)
        assert np.all(out.value()[2:] == 1.0)
        assert np.all(out.value()[:2] < 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            interior_cost([1.0, 0.0], ["A"])
        with pytest.raises(InvalidInput):
            Congestion(np.array([0.0]))


class TestFlowProblem:
    def test_tiny_od_solves_to_demand(self):
        net = tiny_net(horizon=3)
        od = np.array([[1.0]])
        spec = build_flow_problem(net, od=od, epsilon=0.5)
        assert spec.topology.chord == (0, 2)
        pots, report = solve(spec, SolverConfig(verify=True))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        coupling = eng.bimarginal(spec.topology.chord, pots).value()
        np.testing.assert_allclose(coupling, embed_od_matrix(net, od), atol=1e-8)

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 4)])
    def test_terminals_of_the_wrong_length_rejected(self, sizes):
        with pytest.raises(InvalidInput, match=r"^terminal marginals must have one entry per "
                                               r"state \(3\)$"):
            build_flow_problem(tiny_net(), terminals=tuple(np.ones(n) for n in sizes))

    def test_terminal_variant_is_chain(self):
        net = tiny_net(horizon=3)
        mu0 = np.array([0.0, 1.0, 0.0])
        mu2 = np.array([0.0, 0.0, 1.0])
        spec = build_flow_problem(net, terminals=(mu0, mu2), epsilon=0.5)
        assert spec.topology.path_chords == ((0, 1, 2), ())
        pots, report = solve(spec)
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        np.testing.assert_allclose(eng.marginal(0, pots).value(), mu0, atol=1e-8)
        np.testing.assert_allclose(eng.marginal(2, pots).value(), mu2, atol=1e-8)

    def test_uncapacitated_reduces_to_two_marginal_transport(self):
        # interior costs off: the chain solve equals classic scaling on the
        # product of the per-step kernels
        net = two_hop_net(horizon=4)
        n = net.n_states
        mu0 = np.zeros(n)
        mu0[net.edge_count + 0] = 1.0  # all mass waiting at source A
        muT = np.zeros(n)
        muT[net.edge_count + 1] = 1.0  # all mass arrived at sink B
        spec = build_flow_problem(net, terminals=(mu0, muT), edge_cost=Zero(),
                                  epsilon=0.5)
        pots, report = solve(spec, SolverConfig(feasibility_tol=1e-11))
        assert report.termination == "converged"
        k = spec.kernels[(0, 1)]
        k_value = k.m * np.exp(k.log_scale)
        k_chain = np.linalg.multi_dot([k_value] * (net.horizon - 1))
        # classic two-marginal scaling on the chained kernel
        u = np.ones(n)
        v = np.ones(n)
        for _ in range(2000):
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(mu0 > 0, mu0 / (k_chain @ v), 0.0)
                v = np.where(muT > 0, muT / (k_chain.T @ u), 0.0)
        classic = u[:, None] * k_chain * v[None, :]
        den = DenseEngine(spec)
        ours = den.project(pots, (0, net.horizon - 1)).value()
        np.testing.assert_allclose(ours, classic, atol=1e-8)

    def test_congestion_respects_capacity(self):
        net = two_hop_net(horizon=5)
        od = np.array([[3.0]])
        spec = build_flow_problem(net, od=od, epsilon=0.3)
        pots, report = solve(spec, SolverConfig(max_sweeps=4000))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        for t in range(1, net.horizon - 1):
            util = edge_utilization(net, eng.marginal(t, pots).value())
            assert np.all(util <= 1.0)

    def test_transition_mass_confined_to_pattern(self):
        net = two_hop_net(horizon=4)
        od = np.array([[1.0]])
        spec = build_flow_problem(net, od=od, epsilon=0.5)
        pots, report = solve(spec)
        cost = build_flow_cost_matrix(net)
        eng = make_engine(spec)
        eng.refresh(pots)
        for t in range(net.horizon - 1):
            p = eng.bimarginal((t, t + 1), pots).value()
            assert np.abs(p[np.isinf(cost)]).sum() <= 1e-12 * p.sum()

    def test_od_must_fit_source_sink_grid(self):
        net = tiny_net()
        with pytest.raises(InvalidInput):
            build_flow_problem(net, od=np.ones((2, 2)), epsilon=0.5)

    def test_exactly_one_constraint_kind(self):
        net = tiny_net()
        with pytest.raises(InvalidInput):
            build_flow_problem(net, epsilon=0.5)


class TestMFGCostMatrix:
    @pytest.mark.parametrize("inputs", [{}, {"grid": np.zeros(2), "matrix": np.zeros((2, 2))}],
                             ids=["neither", "both"])
    def test_exactly_one_input(self, inputs):
        with pytest.raises(InvalidInput, match="^give exactly one of grid coordinates or a "
                                               "cost matrix$"):
            build_mfg_cost_matrix(**inputs)

    @pytest.mark.parametrize("matrix", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))],
                             ids=["2x3", "vector", "3d"])
    def test_matrix_must_be_square(self, matrix):
        with pytest.raises(InvalidInput, match="^cost matrix must be square$"):
            build_mfg_cost_matrix(matrix=matrix)

    def test_two_points(self):
        c = build_mfg_cost_matrix(grid=np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(c, [[0.0, 1.0], [1.0, 0.0]])

    def test_three_point_line(self):
        c = build_mfg_cost_matrix(grid=np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(c, [[0.0, 0.25, 1.0],
                                       [0.25, 0.0, 0.25],
                                       [1.0, 0.25, 0.0]])

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(7, 3))
        c = build_mfg_cost_matrix(grid=g)
        np.testing.assert_allclose(c, c.T, atol=1e-15)
        np.testing.assert_array_equal(np.diag(c), np.zeros(7))

    def test_scale_multiplier(self):
        g = np.array([0.0, 1.0])
        c = build_mfg_cost_matrix(grid=g, scale=2.5)
        assert c[0, 1] == 2.5

    def test_user_matrix_validated(self):
        with pytest.raises(InvalidInput):
            build_mfg_cost_matrix(matrix=np.array([[0.0, -np.inf], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_difference_formula_exactly(self, d):
        g = np.random.default_rng(d).normal(size=(200, d))
        diff = g[:, None, :] - g[None, :, :]
        np.testing.assert_array_equal(build_mfg_cost_matrix(grid=g, scale=1.7),
                                      1.7 * np.sum(diff * diff, axis=2))

    def test_point_cloud_forms_no_n_by_n_by_d_array(self):
        # a shuffled grid is no Cartesian product, so the dense cost serves it
        g = np.random.default_rng(0).permutation(grid_points((30, 30), (0.0, 1.0, 0.0, 1.0)))
        n = len(g)
        tracemalloc.start()
        try:
            build_mfg_cost_matrix(grid=g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8

    def test_grid_points_layout(self):
        pts = grid_points((2, 2), (0.0, 1.0, 0.0, 1.0))
        np.testing.assert_allclose(pts, [[0.25, 0.25], [0.25, 0.75],
                                         [0.75, 0.25], [0.75, 0.75]])

    @pytest.mark.parametrize("shape", [(2.7, 3.2), (2.0, 3), (True, 3), ("2", 3)], ids=repr)
    def test_grid_points_shape_must_be_integers(self, shape):
        with pytest.raises(InvalidInput, match="grid shape entry must be an integer"):
            grid_points(shape, (0.0, 1.0, 0.0, 1.0))

    def test_grid_points_shape_may_be_numpy_integers(self):
        pts = grid_points(np.array([2, 3], dtype=np.int32), (0.0, 1.0, 0.0, 1.0))
        assert pts.shape == (6, 2)
        np.testing.assert_array_equal(pts, grid_points((2, 3), (0.0, 1.0, 0.0, 1.0)))

    @pytest.mark.parametrize("extent", [["a", 1, 0, 1], [0.0, math.inf, 0.0, 1.0],
                                        [0.0, math.nan, 0.0, 1.0], [0.0, 1.0, 0.0]])
    def test_grid_points_rejects_bad_extent(self, extent):
        with pytest.raises(InvalidInput):
            grid_points((2, 2), extent)


def small_mfg_setup(rng, L=2, n_side=2, steps=3, eps=0.4, species_costs=False):
    grid = grid_points((n_side, n_side), (0.0, 1.0, 0.0, 1.0))
    n = grid.shape[0]
    initials = []
    for ell in range(L):
        mu = rng.uniform(0.05, 1.0, n)
        initials.append(mu / mu.sum() * (1.0 / L))
    setup = MFGSetup(grid=grid, n_steps=steps, initial_densities=initials, epsilon=eps)
    setup.total_terminal = QuadraticDistance(2.0, np.full(n, 1.0 / n))
    if species_costs:
        rows = [None] * L
        rows[0] = Linear(rng.uniform(0.0, 1.0, n))
        setup.species_running = {j: rows for j in range(1, steps)}
    return setup


class TestMFGProblem:
    @pytest.mark.parametrize("key", [0, 3, 99, -1, "2", 1.5], ids=repr)
    def test_total_running_keys_outside_the_interior_are_rejected(self, key):
        grid = grid_points((2, 2), (0.0, 1.0, 0.0, 1.0))
        box = Box(0.0, np.full(4, 0.5))
        with pytest.raises(InvalidInput, match=r"interior time indices 1 \.\. 2"):
            MFGSetup(grid=grid, n_steps=3, initial_densities=[np.full(4, 0.25)],
                     total_running={1: box, key: box})
        setup = MFGSetup(grid=grid, n_steps=3, initial_densities=[np.full(4, 0.25)],
                         total_running={1: box, 2: box})
        assert set(build_mfg_problem(setup).blocks) >= {("node", 1), ("node", 2)}

    @pytest.mark.parametrize("key", [3, 0, "x"], ids=repr)
    def test_total_running_keys_added_after_construction_are_rejected(self, key):
        # The builder checks the keys it reads, not only the constructor.
        grid = grid_points((2, 2), (0.0, 1.0, 0.0, 1.0))
        box = Box(0.0, np.full(4, 0.5))
        setup = MFGSetup(grid=grid, n_steps=3, initial_densities=[np.full(4, 0.25)],
                         total_running={1: box})
        setup.total_running[key] = box
        with pytest.raises(InvalidInput, match=r"interior time indices 1 \.\. 2, got \[%r\]"
                           % (key,)):
            build_mfg_problem(setup)

    def test_cost_matrix_of_the_wrong_size_names_both_sizes(self):
        setup = MFGSetup(grid=grid_points((3, 3), (0.0, 1.0, 0.0, 1.0)), n_steps=2,
                         initial_densities=[np.full(9, 1.0 / 9)], cost_matrix=np.zeros((8, 8)))
        with pytest.raises(InvalidInput, match=r"^cost matrix of shape \(8, 8\), but the grid "
                                               r"has 9 points$"):
            build_mfg_problem(setup)

    def test_all_zero_species_table_puts_no_cost_on_its_hub_edge(self):
        setup = small_mfg_setup(np.random.default_rng(7), L=2)
        setup.species_running = {1: [Zero(), None],
                                 2: [Linear(np.linspace(0.0, 1.0, setup.n_points)), None]}
        spec = build_mfg_problem(setup)
        hub = spec.topology.hub
        assert ("edge", (hub, 1)) not in spec.blocks and ("edge", (hub, 1)) not in spec.constants
        # a linear row is a constant of the spec, not a block
        assert ("edge", (hub, 2)) in spec.constants and ("edge", (hub, 2)) not in spec.blocks

    def test_running_costs_scale_by_dt_per_type(self):
        # An equality is the same constraint at any scale, a blockwise cost
        # scales block by block, and a congestion cost only at dt = 1.
        n = 4
        c, target = np.linspace(0.0, 1.0, 2), np.full(2, 0.125)
        species = Blockwise(n, [(np.arange(2), Linear(c)), (np.arange(2, 4), Equality(target))])
        pinned, congestion = Equality(np.full(n, 0.125)), Congestion(np.full(n, 2.0))
        setup = small_mfg_setup(np.random.default_rng(8), L=2)
        setup.dt = 0.5
        setup.species_running = {1: [species, pinned]}
        spec = build_mfg_problem(setup)
        rows = spec.blocks[("edge", (spec.topology.hub, 1))][0].blocks
        scaled, same = rows[0][1], rows[1][1]
        assert same is pinned
        assert isinstance(scaled, Blockwise) and scaled is not species
        np.testing.assert_array_equal(scaled.blocks[0][1].cost, 0.5 * c)
        assert scaled.blocks[1][1] is species.blocks[1][1]
        setup.dt = 1.0
        setup.species_running = {}
        setup.total_running = {1: congestion}
        assert build_mfg_problem(setup).blocks[("node", 1)] == (congestion,)
        setup.dt = 0.5
        with pytest.raises(InvalidInput, match="^congestion costs cannot be rescaled"):
            build_mfg_problem(setup)

    @pytest.mark.parametrize("table", ["running", "terminal"])
    def test_species_table_shorter_than_the_species_is_rejected(self, table):
        setup = small_mfg_setup(np.random.default_rng(7), L=3)
        rows = [Linear(np.linspace(0.0, 1.0, setup.n_points))] * 2
        if table == "running":
            setup.species_running = {1: rows}
        else:
            setup.species_terminal = rows
        with pytest.raises(InvalidInput, match="one entry per species"):
            build_mfg_problem(setup)

    def test_single_species_matches_chain(self):
        rng = np.random.default_rng(1)
        setup = small_mfg_setup(rng, L=1)
        hub_spec = build_mfg_problem(setup)
        chain_spec = mfg_chain_spec(setup)
        hub_pots, hub_rep = solve(hub_spec, SolverConfig(potential_tol=1e-11))
        chain_pots, chain_rep = solve(chain_spec, SolverConfig(potential_tol=1e-11))
        assert hub_rep.termination == chain_rep.termination == "converged"
        he = make_engine(hub_spec)
        he.refresh(hub_pots)
        ce = make_engine(chain_spec)
        ce.refresh(chain_pots)
        for j in range(setup.n_steps + 1):
            assert_maxnorm_close(he.marginal(j, hub_pots), ce.marginal(j, chain_pots),
                                 1e-6, "single species marginal %d" % j)

    def test_species_mass_conserved(self):
        rng = np.random.default_rng(2)
        setup = small_mfg_setup(rng, L=3, species_costs=True)
        spec = build_mfg_problem(setup)
        pots, report = solve(spec, SolverConfig())
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        target = np.array([mu.sum() for mu in setup.initial_densities])
        hub = spec.topology.hub
        for j in range(setup.n_steps + 1):
            rows = eng.bimarginal((hub, j), pots).value().sum(axis=1)
            np.testing.assert_allclose(rows, target, rtol=1e-7)

    def test_species_sum_to_total(self):
        rng = np.random.default_rng(3)
        setup = small_mfg_setup(rng, L=2, species_costs=True)
        spec = build_mfg_problem(setup)
        pots, _ = solve(spec, SolverConfig(max_sweeps=60))
        eng = make_engine(spec)
        eng.refresh(pots)
        hub = spec.topology.hub
        for j in range(setup.n_steps + 1):
            cols = eng.bimarginal((hub, j), pots).value().sum(axis=0)
            total = eng.marginal(j, pots).value()
            np.testing.assert_allclose(cols, total, rtol=1e-12)

    def test_mixed_cost_table_builds(self):
        # capacity on totals, a zero-region box on one species, a linear cost
        # and an anchored quadratic on others, quadratics on totals at two times
        rng = np.random.default_rng(4)
        L, steps = 4, 4
        grid = grid_points((3, 3), (0.0, 1.0, 0.0, 1.0))
        n = grid.shape[0]
        initials = [rng.uniform(0.05, 1.0, n) for _ in range(L)]
        initials = [m / m.sum() / L for m in initials]
        kappa_species = np.full(n, np.inf)
        kappa_species[: n // 2] = 0.0
        initials[0] = np.zeros(n)
        initials[0][n // 2:] = 1.0 / L / (n - n // 2)
        rows = [Box(0.0, kappa_species), None, Linear(rng.uniform(0, 1, n)),
                QuadraticDistance(0.1, np.full(n, initials[3].sum() / n))]
        kappa_total = np.full(n, np.inf)
        kappa_total[n // 2] = 0.0
        setup = MFGSetup(
            grid=grid, n_steps=steps, initial_densities=initials, epsilon=0.3,
            total_running={2: CompositeFunction([
                Box(0.0, kappa_total),
                QuadraticDistance(3.0, np.full(n, 1.0 / n))])},
            total_terminal=QuadraticDistance(3.0, np.full(n, 1.0 / n)),
            species_running={j: rows for j in range(1, steps)},
            species_terminal=rows,
        )
        spec = build_mfg_problem(setup)
        pots, report = solve(spec, SolverConfig(max_sweeps=800))
        assert report.termination == "converged"
        eng = make_engine(spec)
        eng.refresh(pots)
        hub = spec.topology.hub
        for j in range(1, steps + 1):
            p = eng.bimarginal((hub, j), pots).value()
            assert p[0, : n // 2].sum() <= 1e-10  # species zero-region
        assert eng.marginal(2, pots).value()[n // 2] <= 1e-10  # total obstacle

    def test_equal_row_tables_share_one_species_cost(self):
        # One cost per distinct table of row functions (by identity), whose
        # constant (the indicator and linear rows) the spec computes once; a
        # table of equal but distinct functions per time solves to the same
        # bits.
        rng = np.random.default_rng(6)
        setup = small_mfg_setup(rng, L=2, steps=4, species_costs=True)
        n = setup.n_points
        box = Box(0.0, np.where(np.arange(n) < 2, 0.0, np.inf))
        setup.species_running = {j: [box, setup.species_running[1][0]] for j in range(1, 4)}
        setup.species_terminal = [None, QuadraticDistance(0.5, np.full(n, 0.5 / n))]
        shared = build_mfg_problem(setup)
        hub = shared.topology.hub
        rows = [shared.constants[("edge", (hub, j))] for j in range(1, 4)]
        assert rows[0] is rows[1] is rows[2]
        assert ("edge", (hub, 4)) in shared.blocks and ("edge", (hub, 4)) not in shared.constants
        setup.species_running = {j: [Box(box.lower, box.upper), Linear(table[1].cost)]
                                 for j, table in setup.species_running.items()}
        distinct = build_mfg_problem(setup)
        assert len({id(distinct.constants[("edge", (hub, j))]) for j in range(1, 4)}) == 3
        reports = [solve(spec, SolverConfig())[1] for spec in (shared, distinct)]
        assert reports[0].termination == "converged"
        assert reports[0].dual_values == reports[1].dual_values
        assert reports[0].residuals == reports[1].residuals

    def test_dt_scaling_applied_to_running_costs(self):
        rng = np.random.default_rng(5)
        setup = small_mfg_setup(rng, L=1)
        setup.total_running = {1: QuadraticDistance(1.0, np.full(setup.n_points, 0.1))}
        spec = build_mfg_problem(setup)
        (fn,) = spec.blocks[("node", 1)]
        assert fn.weight == pytest.approx(setup.dt * 1.0)

    def test_initial_density_validation(self):
        with pytest.raises(InvalidInput):
            MFGSetup(grid=np.array([[0.0], [1.0]]), n_steps=2,
                     initial_densities=[np.array([0.5, 0.5, 0.5])])

    def test_zero_steps_rejected(self):
        with pytest.raises(InvalidInput):
            MFGSetup(grid=np.array([[0.0], [1.0]]), n_steps=0,
                     initial_densities=[np.array([0.5, 0.5])])

    @pytest.mark.parametrize("dt", [-1.0, 0.0, math.inf, math.nan, "x"])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(InvalidInput):
            MFGSetup(grid=np.array([[0.0], [1.0]]), n_steps=2,
                     initial_densities=[np.array([0.5, 0.5])], dt=dt)


def mfg_setup_on(grid, rng, cost_matrix=None):
    n = grid.shape[0]
    return MFGSetup(grid=grid, n_steps=2, initial_densities=[rng.uniform(0.1, 1.0, n)],
                    cost_matrix=cost_matrix)


class TestGridKernels:
    """The builders pick a separable kernel exactly for row-major grids of two
    or more axes, and it solves the same problem as the dense kernel."""

    @pytest.mark.parametrize("sizes", [(3, 4), (2, 3, 2)])
    def test_row_major_grid_is_separable(self, sizes):
        rng = np.random.default_rng(80)
        grid = row_major_grid(rng, sizes)
        setup = mfg_setup_on(grid, rng)
        setup.cost_scale = 2.5
        k = build_mfg_problem(setup).kernels[(0, 1)]
        assert isinstance(k, SeparableKernel) and k.sizes == sizes
        dense = build_kernel(build_mfg_cost_matrix(grid, scale=2.5), setup.epsilon)
        assert_maxnorm_close(k.full() * np.exp(k.log_scale), dense.value(), 1e-12,
                             "separable kernel")

    def test_other_grids_stay_dense(self):
        rng = np.random.default_rng(81)
        grid = row_major_grid(rng, (3, 4))
        shuffled = grid[rng.permutation(grid.shape[0])]
        repeated = grid.copy()
        repeated[1] = repeated[0]
        line = np.linspace(0.0, 1.0, 5)
        for points in (shuffled, repeated, line):
            spec = build_mfg_problem(mfg_setup_on(points, rng))
            assert type(spec.kernels[(0, 1)]) is EdgeKernel
        matrix = build_mfg_cost_matrix(grid)
        spec = build_mfg_problem(mfg_setup_on(grid, rng, cost_matrix=matrix))
        assert type(spec.kernels[(0, 1)]) is EdgeKernel

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 2, 2)])
    def test_solve_matches_dense_kernel(self, sizes):
        sep, dense = grid_mfg_specs(np.random.default_rng(82), sizes)
        _, a = solve(sep, SolverConfig())
        _, b = solve(dense, SolverConfig())
        assert a.termination == b.termination == "converged"
        assert a.sweeps == b.sweeps
        np.testing.assert_allclose(a.dual_values, b.dual_values, rtol=1e-12)

    def test_grid_solve_allocates_no_n_by_n_array(self, tmp_path):
        # 30 x 30 grid: one n x n float64 array takes 900**2 * 8 bytes
        side, n = 30, 900
        grid = grid_points((side, side), (0.0, 1.0, 0.0, 1.0))
        mu = np.exp(-8.0 * ((grid - 0.3) ** 2).sum(axis=1))
        body = {"problem": {
            "kind": "mfg",
            "grid": {"shape": [side, side], "extent": [0.0, 1.0, 0.0, 1.0]},
            "steps": 3,
            "species": [{"initial": (mu / mu.sum() / 2).tolist()},
                        {"initial": np.full(n, 0.5 / n).tolist()}],
            "total_terminal": {"type": "quadratic", "weight": 1.0,
                               "anchor": np.full(n, 1.0 / n).tolist()}},
            "epsilon": 0.1, "output": {"directory": str(tmp_path / "out")}}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(body))
        tracemalloc.start()
        try:
            cfg = parse_config(str(path))
            _, setup_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _, report = solve(cfg.spec, SolverConfig())
            _, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.termination == "converged"
        assert isinstance(cfg.spec.kernels[(0, 1)], SeparableKernel)
        assert max(setup_peak, solve_peak) < n * n * 8
