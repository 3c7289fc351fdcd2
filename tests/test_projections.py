"""Projection tests: structured recursions against the dense reference, and
the dense engine's contractions against a brute-force tensor."""

import tracemalloc

import numpy as np
import pytest

from gtop import (Box, ChainEngine, CompositeFunction, DenseEngine, DualPotentials,
                  EdgeKernel, Equality, GraphTopology, InvalidInput, ProblemSpec,
                  QuadraticDistance, ScaledArray, SeparableKernel, SizeBoundExceeded,
                  TopologyMismatch, Zero, build_kernel, make_engine)

from _support import (as_general, assert_maxnorm_close, block_functions, dense_tensor,
                      grid_mfg_specs, random_chain_spec, random_hub_spec, random_od_spec,
                      random_potentials)


def refreshed(spec, pots):
    eng = make_engine(spec)
    eng.refresh(pots)
    return eng


def ones_chain(n_nodes, n, epsilon=1.0):
    topo = GraphTopology.chain(n_nodes)
    kernels = {(j, j + 1): build_kernel(np.zeros((n, n)), epsilon)
               for j in range(n_nodes - 1)}
    return ProblemSpec(topo, kernels, {}, {}, epsilon)


class TestDenseOracle:
    def test_product_coupling(self):
        topo = GraphTopology.general(2, [(0, 1)])
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)}, {}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        pots.factors[("node", 0)] = [ScaledArray.from_values([0.3, 0.7])]
        pots.factors[("node", 1)] = [ScaledArray.from_values([0.6, 0.4])]
        den = DenseEngine(spec)
        t = dense_tensor(spec, pots)
        np.testing.assert_allclose(t.value(), [[0.18, 0.12], [0.42, 0.28]], rtol=1e-14)
        np.testing.assert_allclose(den.project(pots, (0,)).value(), [0.3, 0.7], rtol=1e-14)
        np.testing.assert_allclose(den.project(pots, (1,)).value(), [0.6, 0.4], rtol=1e-14)

    def test_size_budget(self):
        topo = GraphTopology.chain(8)
        kernels = {(j, j + 1): build_kernel(np.zeros((6, 6)), 1.0) for j in range(7)}
        spec = ProblemSpec(topo, kernels, {}, {}, 1.0)
        with pytest.raises(SizeBoundExceeded):
            DenseEngine(spec)

    def test_node_limit(self):
        # einsum subscripts name each node by one letter: 27 size-1 nodes fit
        # the entry budget but not the alphabet
        edges = [(j, j + 1) for j in range(26)] + [(1, 26)]
        spec = ProblemSpec(GraphTopology.general(27, edges),
                           {e: EdgeKernel.ones((1, 1)) for e in edges}, {}, {}, 1.0)
        assert spec.topology.path_chords is None
        with pytest.raises(SizeBoundExceeded):
            make_engine(spec)

    def test_reversed_pair_orientation(self):
        # keep order (b, a) with b > a must transpose correctly
        rng = np.random.default_rng(0)
        spec = random_hub_spec(rng, time_nodes=2, n_states=3, species=2)
        pots = random_potentials(spec, rng)
        den = DenseEngine(spec)
        hub = spec.topology.hub
        p = den.bimarginal((hub, 0), pots)
        q = den.project(pots, (0, hub))
        np.testing.assert_allclose(p.value(), q.value().T, rtol=1e-13)


def brute_projection(spec, pots, keep, exclude=None):
    """``dense_tensor`` summed over every mode not in ``keep``, in ``keep`` order."""
    t = dense_tensor(spec, pots, exclude)
    drop = tuple(ax for ax in range(len(spec.node_sizes)) if ax not in keep)
    m = t.m.sum(axis=drop) if drop else t.m
    order = sorted(keep)
    return ScaledArray(np.transpose(m, [order.index(ax) for ax in keep]), t.log_scale)


def random_general_spec(rng, edges, sizes, epsilon=0.8):
    """General graph with random kernels, Equality costs on the first and last
    edges, and two stacked costs on node 0."""
    kernels = {(a, b): build_kernel(rng.uniform(0.0, 2.0, (sizes[a], sizes[b])), epsilon)
               for a, b in edges}
    edge_fns = {e: Equality(rng.uniform(0.1, 1.0, (sizes[e[0]], sizes[e[1]])))
                for e in (edges[0], edges[-1])}
    node_fns = {0: CompositeFunction([Box(0.0, np.full(sizes[0], 2.0)),
                                      QuadraticDistance(1.0, rng.uniform(0.2, 0.8, sizes[0]))])}
    return ProblemSpec(GraphTopology.general(len(sizes), edges), kernels, node_fns, edge_fns,
                       epsilon)


def path_chord_edges(rng, n):
    """The path over ``n`` nodes plus 1-3 chords (0, b), shuffled between a
    path edge first and a chord last (``random_general_spec`` costs both)."""
    count = int(rng.integers(1, min(3, n - 2) + 1))
    chords = [(0, int(b)) for b in rng.choice(np.arange(2, n), count, replace=False)]
    path = [(j, j + 1) for j in range(n - 1)]
    first = path.pop(int(rng.integers(n - 1)))
    last = chords.pop()
    middle = path + chords
    return [first] + [middle[i] for i in rng.permutation(len(middle))] + [last]


def cycle_with_chord(n):
    """Cycle over ``n`` nodes plus the chord (0, n // 2); the closing edge runs
    high to low, ``(n - 1, 0)``."""
    return [(j, j + 1) for j in range(n - 1)] + [(n - 1, 0), (0, n // 2)]


class TestDenseContraction:
    """Every dense projection equals the matching sum of the brute-force tensor."""

    def check_all(self, spec, pots, context):
        den = DenseEngine(spec)
        count = spec.topology.node_count
        for j in range(count):
            assert_maxnorm_close(den.w_node(j, pots),
                                 brute_projection(spec, pots, (j,), ("node", j)),
                                 1e-12, "%s w_node %d" % (context, j))
            assert_maxnorm_close(den.marginal(j, pots), brute_projection(spec, pots, (j,)),
                                 1e-12, "%s marginal %d" % (context, j))
        for e in spec.topology.edges:
            assert_maxnorm_close(den.w_edge(e, pots),
                                 brute_projection(spec, pots, e, ("edge", e)),
                                 1e-12, "%s w_edge %r" % (context, e))
            assert_maxnorm_close(den.bimarginal(e, pots), brute_projection(spec, pots, e),
                                 1e-12, "%s bimarginal %r" % (context, e))
        adjacent = {frozenset(e) for e in spec.topology.edges}
        apart = next((a, b) for a in range(count) for b in range(a + 1, count)
                     if frozenset((a, b)) not in adjacent)
        for keep in (apart, apart[::-1], (count - 1, 0, 1), tuple(range(count))):
            assert_maxnorm_close(den.project(pots, keep), brute_projection(spec, pots, keep),
                                 1e-12, "%s project %r" % (context, keep))

    def test_cycle_with_chord_unequal_sizes(self):
        rng = np.random.default_rng(60)
        for trial in range(8):
            n = int(rng.integers(4, 7))
            sizes = [int(rng.integers(2, 5)) for _ in range(n)]
            spec = random_general_spec(rng, cycle_with_chord(n), sizes)
            pots = random_potentials(spec, rng, zero_rate=0.2 if trial % 2 else 0.0)
            assert len(pots.factors[("node", 0)]) == 2
            self.check_all(spec, pots, "cycle trial %d" % trial)

    def test_hub_declared_general(self):
        # as_general keeps the hub edges as (hub, j): every one runs high to low
        rng = np.random.default_rng(61)
        for trial in range(6):
            spec = as_general(random_hub_spec(rng, time_nodes=3))
            pots = random_potentials(spec, rng, zero_rate=0.2 if trial % 2 else 0.0)
            self.check_all(spec, pots, "hub trial %d" % trial)

    def test_edge_potential_exact_zeros(self):
        rng = np.random.default_rng(62)
        spec = random_general_spec(rng, cycle_with_chord(5), [3, 2, 4, 3, 2])
        pots = random_potentials(spec, rng)
        e = spec.topology.edges[-1]
        vals = pots.value(("edge", e)).value()
        vals[0, :] = 0.0
        vals[1, 1] = 0.0
        pots.factors[("edge", e)] = [ScaledArray.from_values(vals)]
        self.check_all(spec, pots, "zeroed edge potential")

    def test_peak_memory_below_one_plan(self):
        # one of each projection on a 6-node size-6 graph never holds a 6^6 array
        rng = np.random.default_rng(63)
        spec = random_general_spec(rng, cycle_with_chord(6), [6] * 6)
        pots = random_potentials(spec, rng)
        den = DenseEngine(spec)
        e = spec.topology.edges[0]
        tracemalloc.start()
        try:
            den.w_node(2, pots)
            den.w_edge(e, pots)
            den.marginal(3, pots)
            den.bimarginal(e, pots)
            den.project(pots, (4, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 ** 6 * 8

    def test_paths_planned_once_per_signature(self, monkeypatch):
        rng = np.random.default_rng(64)
        spec = random_general_spec(rng, cycle_with_chord(5), [2, 3, 2, 3, 2])
        pots = random_potentials(spec, rng)
        den = DenseEngine(spec)
        planned = []
        einsum_path = np.einsum_path

        def counted(*args, **kwargs):
            planned.append(args[0])
            return einsum_path(*args, **kwargs)

        monkeypatch.setattr(np, "einsum_path", counted)

        def every_projection():
            for j in range(5):
                den.w_node(j, pots)
                den.marginal(j, pots)
            for e in spec.topology.edges:
                den.w_edge(e, pots)
                den.bimarginal(e, pots)

        signatures = 5 + len(spec.topology.edges)
        every_projection()
        assert len(planned) == signatures
        every_projection()
        assert len(planned) == signatures
        den.project(pots, (3, 0))
        den.project(pots, (3, 0))
        assert len(planned) == signatures + 1


class TestChainProjections:
    def test_constant_tensor_marginal(self):
        spec = ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        np.testing.assert_allclose(refreshed(spec, pots).marginal(1, pots).value(),
                                   [4.0, 4.0], rtol=1e-14)

    def test_constant_tensor_bimarginal(self):
        spec = ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        np.testing.assert_allclose(refreshed(spec, pots).bimarginal((0, 1), pots).value(),
                                   np.full((2, 2), 2.0), rtol=1e-14)

    def test_zero_potential_annihilates_bimarginal(self):
        spec = ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        pots.factors[("node", 2)] = [ScaledArray(np.zeros(2), 0.0)]
        np.testing.assert_array_equal(refreshed(spec, pots).bimarginal((0, 1), pots).value(),
                                      np.zeros((2, 2)))

    @pytest.mark.parametrize("e", [(0, 2), (1, 0)])
    def test_weight_of_a_non_edge_is_named(self, e):
        spec = ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        eng = refreshed(spec, pots)
        message = r"^no path or carried edge \(%d, %d\) in the path engine$" % e
        for method in (eng.w_edge, eng.bimarginal):
            with pytest.raises(TopologyMismatch, match=message):
                method(e, pots)

    def test_point_mass_matches_oracle(self):
        rng = np.random.default_rng(1)
        spec = random_chain_spec(rng, n_nodes=4, sizes=[3, 3, 3, 3])
        pots = random_potentials(spec, rng)
        pots.factors[("node", 0)] = [ScaledArray.from_values([1.0, 0.0, 0.0])]
        eng = refreshed(spec, pots)
        den = DenseEngine(spec)
        for j in range(4):
            assert_maxnorm_close(eng.marginal(j, pots),
                                 den.project(pots, (j,)), 1e-12, "point-mass marginal")

    def test_row_and_column_sums_match_marginals(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            spec = random_chain_spec(rng, with_edge_fn=True)
            pots = random_potentials(spec, rng)
            eng = make_engine(spec)
            eng.refresh(pots)
            T = spec.topology.node_count
            for j in range(T - 1):
                bim = eng.bimarginal((j, j + 1), pots)
                rows = ScaledArray(bim.m.sum(axis=1), bim.log_scale)
                cols = ScaledArray(bim.m.sum(axis=0), bim.log_scale)
                assert_maxnorm_close(rows, eng.marginal(j, pots), 1e-12, "row sums")
                assert_maxnorm_close(cols, eng.marginal(j + 1, pots), 1e-12, "col sums")

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            spec = random_chain_spec(rng, with_edge_fn=bool(trial % 2),
                                     zero_cost_rate=0.15 if trial % 3 == 0 else 0.0)
            pots = random_potentials(spec, rng, zero_rate=0.1 if trial % 4 == 0 else 0.0)
            eng = make_engine(spec)
            eng.refresh(pots)
            den = DenseEngine(spec)
            for j in range(spec.topology.node_count):
                assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-10,
                                     "chain marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.project(pots, e), 1e-10,
                                     "chain bimarginal %r trial %d" % (e, trial))


class TestODProjections:
    def test_constant_tensor(self):
        n = 2
        topo = GraphTopology.od_cycle(3)
        kernels = {(0, 1): build_kernel(np.zeros((n, n)), 1.0),
                   (1, 2): build_kernel(np.zeros((n, n)), 1.0)}
        spec = ProblemSpec(topo, kernels, {}, {topo.chord: Equality(np.ones((n, n)))}, 1.0)
        pots = DualPotentials.ones_for(spec)
        eng = refreshed(spec, pots)
        # carried mode: the node-0 state; the forward seed is the identity,
        # the backward seed is all ones and the chord joins at the last node
        np.testing.assert_array_equal(eng.fwd[0].value(), np.eye(n))
        np.testing.assert_array_equal(eng.bwd[2].value(), np.ones((n, n)))
        np.testing.assert_allclose(eng.bwd[0].value(), np.full((2, 2), 4.0), rtol=1e-14)
        od = eng.bimarginal(topo.chord, pots)
        np.testing.assert_allclose(od.value(), np.full((2, 2), 2.0), rtol=1e-14)
        assert od.total() == pytest.approx(8.0)
        np.testing.assert_allclose(eng.marginal(1, pots).value(), [4.0, 4.0], rtol=1e-14)

    def test_message_seeds_are_kernels(self):
        rng = np.random.default_rng(4)
        od = random_od_spec(rng, n_nodes=5, n_states=3)
        # costs at nodes 0 and 4, so that they have potentials
        spec = ProblemSpec(od.topology, od.kernels, {0: QuadraticDistance(1.0, np.zeros(3)),
                                                     4: QuadraticDistance(1.0, np.ones(3))},
                           block_functions(od, "edge"), od.epsilon)
        pots = random_potentials(spec, rng)
        eng = refreshed(spec, pots)
        np.testing.assert_array_equal(eng.fwd[0].value(), np.eye(3))
        np.testing.assert_array_equal(eng.bwd[4].value(), np.ones((3, 3)))
        # one step from the seeds: the kernels, scaled by the node-0 potential
        # on the left and by the chord factor and node-4 potential on the right
        u0 = pots.value(("node", 0)).value()
        u4 = pots.value(("node", 4)).value()
        chord = spec.kernels[(0, 4)].value() * pots.value(("edge", (0, 4))).value()
        k01 = spec.kernels[(0, 1)].value()
        k34 = spec.kernels[(3, 4)].value()
        np.testing.assert_allclose(eng.fwd[1].value(), u0[:, None] * k01, rtol=1e-13)
        np.testing.assert_allclose(eng.bwd[3].value(), (chord * u4[None, :]) @ k34.T,
                                   rtol=1e-13)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            spec = random_od_spec(rng)
            pots = random_potentials(spec, rng, zero_rate=0.1 if trial % 4 == 0 else 0.0)
            eng = make_engine(spec)
            eng.refresh(pots)
            den = DenseEngine(spec)
            for j in range(spec.topology.node_count):
                assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-10,
                                     "od marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.project(pots, e), 1e-10,
                                     "od bimarginal %r trial %d" % (e, trial))

    def test_endpoint_functionals_supported(self):
        rng = np.random.default_rng(6)
        n = 3
        topo = GraphTopology.od_cycle(4)
        kernels = {(j, j + 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.8)
                   for j in range(3)}
        spec = ProblemSpec(topo, kernels,
                           {0: Equality(rng.uniform(0.1, 1, n)),
                            3: Equality(rng.uniform(0.1, 1, n))},
                           {topo.chord: Equality(rng.uniform(0.1, 1, (n, n)))}, 0.8)
        pots = random_potentials(spec, rng)
        eng = make_engine(spec)
        eng.refresh(pots)
        den = DenseEngine(spec)
        for j in range(4):
            assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-11,
                                 "od endpoint marginal %d" % j)

    def test_topology_guard(self):
        # an OD cycle whose chord is given high to low is not path-plus-chord
        rng = np.random.default_rng(7)
        spec = random_general_spec(rng, [(0, 1), (1, 2), (2, 3), (3, 0)], [3, 2, 3, 2])
        with pytest.raises(TopologyMismatch):
            ChainEngine(spec)


class TestPathChordRouting:
    """A general path plus chords from node 0 runs on the path engine; every
    other general graph stays on the dense engine."""

    def test_matches_dense_randomized(self):
        rng = np.random.default_rng(70)
        for trial in range(12):
            n = int(rng.integers(3, 7))
            sizes = [int(rng.integers(2, 6)) for _ in range(n)]
            spec = random_general_spec(rng, path_chord_edges(rng, n), sizes)
            pots = random_potentials(spec, rng, zero_rate=0.2 if trial % 2 else 0.0)
            assert len(pots.factors[("node", 0)]) == 2
            assert sum(kind == "edge" for kind, _ in pots.factors) == 2
            eng = refreshed(spec, pots)
            assert type(eng) is ChainEngine
            den = DenseEngine(spec)
            for j in range(n):
                assert_maxnorm_close(eng.w_node(j, pots), den.w_node(j, pots), 1e-12,
                                     "w_node %d trial %d" % (j, trial))
                assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-12,
                                     "marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.w_edge(e, pots), den.w_edge(e, pots), 1e-12,
                                     "w_edge %r trial %d" % (e, trial))
                assert_maxnorm_close(eng.bimarginal(e, pots), den.project(pots, e), 1e-12,
                                     "bimarginal %r trial %d" % (e, trial))

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (3, 0)],
        [(0, 1), (2, 1), (2, 3), (3, 4), (0, 3)],
        "hub",
    ], ids=["interior_chord", "chord_high_to_low", "path_edge_high_to_low", "hub"])
    def test_other_graphs_stay_dense(self, edges):
        rng = np.random.default_rng(71)
        if edges == "hub":
            spec = as_general(random_hub_spec(rng, time_nodes=3))
        else:
            spec = random_general_spec(rng, edges, [2, 3, 2, 3, 2])
        assert spec.topology.path_chords is None
        assert type(make_engine(spec)) is DenseEngine
        with pytest.raises(TopologyMismatch):
            ChainEngine(spec)


class TestHubProjections:
    def test_single_species_reduces_to_chain(self):
        rng = np.random.default_rng(8)
        n, tc = 3, 4
        kern = {(j, j + 1): build_kernel(rng.uniform(0, 1.5, (n, n)), 0.6)
                for j in range(tc - 1)}
        hub_topo = GraphTopology.species_hub(tc, 1)
        hub_spec = ProblemSpec(hub_topo, kern, {}, {}, 0.6)
        chain_spec = ProblemSpec(GraphTopology.chain(tc), kern, {}, {}, 0.6)
        hub_pots = DualPotentials.ones_for(hub_spec)
        chain_pots = DualPotentials.ones_for(chain_spec)
        for j in range(tc):
            u = np.exp(rng.uniform(-1, 1, n))
            hub_pots.factors[("node", j)] = [ScaledArray.from_values(u)]
            chain_pots.factors[("node", j)] = [ScaledArray.from_values(u)]
        hub_eng = refreshed(hub_spec, hub_pots)
        chain_eng = refreshed(chain_spec, chain_pots)
        for j in range(tc):
            assert_maxnorm_close(hub_eng.marginal(j, hub_pots),
                                 chain_eng.marginal(j, chain_pots),
                                 1e-12, "hub vs chain marginal %d" % j)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(9)
        for trial in range(25):
            spec = random_hub_spec(rng)
            pots = random_potentials(spec, rng, zero_rate=0.1 if trial % 4 == 0 else 0.0)
            eng = make_engine(spec)
            eng.refresh(pots)
            den = DenseEngine(spec)
            hub = spec.topology.hub
            for j in range(hub + 1):
                assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-10,
                                     "hub marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.project(pots, e), 1e-10,
                                     "hub bimarginal %r trial %d" % (e, trial))

    def test_species_rows_sum_to_time_marginal(self):
        rng = np.random.default_rng(10)
        spec = random_hub_spec(rng, time_nodes=3, n_states=4, species=3)
        pots = random_potentials(spec, rng)
        hub = spec.topology.hub
        eng = refreshed(spec, pots)
        for j in range(3):
            p = eng.bimarginal((hub, j), pots)
            cols = ScaledArray(p.m.sum(axis=0), p.log_scale)
            assert_maxnorm_close(cols, eng.marginal(j, pots), 1e-12,
                                 "species additivity %d" % j)

    def test_species_masses_consistent_across_times(self):
        rng = np.random.default_rng(11)
        spec = random_hub_spec(rng, time_nodes=4, n_states=3, species=2)
        pots = random_potentials(spec, rng)
        hub = spec.topology.hub
        eng = refreshed(spec, pots)
        ref = eng.marginal(hub, pots).value()
        for j in range(4):
            p = eng.bimarginal((hub, j), pots)
            rows = ScaledArray(p.m.sum(axis=1), p.log_scale)
            assert_maxnorm_close(rows, ref, 1e-12, "species mass at %d" % j)


class TestMessageReuse:
    """Incremental forward recomputation equals a rebuild from scratch."""

    @pytest.mark.parametrize("family", ["chain", "od", "hub"])
    def test_incremental_matches_full(self, family):
        rng = np.random.default_rng(12)
        if family == "chain":
            spec = random_chain_spec(rng, n_nodes=5, sizes=[3] * 5)
            touch = 2
        elif family == "od":
            spec = random_od_spec(rng, n_nodes=5, n_states=3)
            touch = 2
        else:
            spec = random_hub_spec(rng, time_nodes=4, n_states=3, species=2)
            touch = 1
        pots = random_potentials(spec, rng)
        eng = make_engine(spec)
        eng.refresh(pots)
        # change one node potential, push forward incrementally from it
        pots.factors[("node", touch)] = [ScaledArray.from_values(
            np.exp(rng.uniform(-1, 1, spec.node_sizes[touch])))]
        hi = spec.topology.hub
        last = (hi if hi is not None else spec.topology.node_count) - 1
        for j in range(touch, last):
            eng.push_forward(j, pots)
        eng.rebuild_backward(pots)
        fresh = make_engine(spec)
        fresh.refresh(pots)
        for j in range(last + 1):
            assert_maxnorm_close(eng.marginal(j, pots), fresh.marginal(j, pots), 1e-12,
                                 "%s incremental marginal %d" % (family, j))


class TestUpdateOrder:
    """An engine's sweep order names every node and every edge exactly once."""

    @pytest.mark.parametrize("family", ["chain", "od", "hub", "general", "path_chords"])
    def test_order_covers_every_block_once(self, family):
        rng = np.random.default_rng(50)
        for _ in range(10):
            if family == "chain":
                spec = random_chain_spec(rng, with_edge_fn=True)
            elif family == "hub":
                spec = random_hub_spec(rng)
            elif family == "od":
                spec = random_od_spec(rng)
            else:
                # "general" is not path-plus-chord: its closing edge runs high to low
                n = int(rng.integers(4, 7))
                edges = path_chord_edges(rng, n) if family == "path_chords" \
                    else cycle_with_chord(n)
                spec = random_general_spec(rng, edges, [2] * n)
            topo = spec.topology
            order = make_engine(spec).order
            expected = ([("node", j) for j in range(topo.node_count)]
                        + [("edge", e) for e in topo.edges])
            assert sorted(s for s in order if s[0] != "push") == sorted(expected)
            pushes = [v for kind, v in order if kind == "push"]
            if family == "general":
                assert pushes == []
                continue
            # each forward push follows every update at its node, before the next node
            path, chords = topo.path_chords
            assert pushes == list(path[:-1])
            if family == "hub":
                assert pushes == [topo.hub] + list(topo.time_nodes[:-1])
            pos = {step: i for i, step in enumerate(order)}
            for v, w in zip(path, path[1:]):
                assert pos[("node", v)] < pos[("edge", (v, w))] < pos[("push", v)] \
                    < pos[("node", w)]
            # a chord (path[0], b) is updated at node b, first of its blocks
            for a, b in chords:
                before = path[path.index(b) - 1]
                assert pos[("push", before)] < pos[("edge", (a, b))] < pos[("node", b)]


class TestSeparableKernel:
    """A grid kernel applied per axis equals its n x n Kronecker product."""

    @pytest.mark.parametrize("sizes", [(3, 4), (2, 3, 2)])
    def test_products_match_full_matrix(self, sizes):
        # random, nonsymmetric axis kernels tell message.K from message.K^T
        rng = np.random.default_rng(70)
        axes = [build_kernel(rng.uniform(0.0, 2.0, (s, s)), 0.7) for s in sizes]
        sep = SeparableKernel(axes)
        n = int(np.prod(sizes))
        full = np.ones((1, 1))
        for k in axes:
            full = np.kron(full, k.m)
        assert sep.shape == (n, n)
        assert sep.log_scale == pytest.approx(sum(k.log_scale for k in axes), rel=1e-15)
        np.testing.assert_array_equal(sep.full(), full)
        m = rng.uniform(0.0, 1.0, (3, n))
        np.testing.assert_allclose(sep.apply(m), m @ full, rtol=1e-12)
        np.testing.assert_allclose(sep.apply(m, transpose=True), m @ full.T, rtol=1e-12)
        x = rng.uniform(0.0, 1.0, (n, n))
        np.testing.assert_allclose(sep.times(x.copy()), x * full, rtol=1e-12)

    def test_axis_kernels_must_be_square(self):
        with pytest.raises(InvalidInput):
            SeparableKernel([EdgeKernel.ones((2, 2)), EdgeKernel.ones((2, 3))])


class TestSeparableProjections:
    """Every projection on a grid MFG with separable kernels equals the same
    instance with the dense kernel, at 1e-12.  A dense reference ``b`` gives
    its projections by the full contraction, ``project``."""

    def check_all(self, a, b, pots, context):
        def reference(kind, where):
            if isinstance(b, DenseEngine):
                return b.project(pots, (where,) if kind == "node" else where)
            return b.projection((kind, where), pots)

        for j in range(a.spec.topology.node_count):
            assert_maxnorm_close(a.w_node(j, pots), b.w_node(j, pots), 1e-12,
                                 "%s w_node %d" % (context, j))
            assert_maxnorm_close(a.marginal(j, pots), reference("node", j), 1e-12,
                                 "%s marginal %d" % (context, j))
        for e in a.spec.topology.edges:
            assert_maxnorm_close(a.w_edge(e, pots), b.w_edge(e, pots), 1e-12,
                                 "%s w_edge %r" % (context, e))
            assert_maxnorm_close(a.bimarginal(e, pots), reference("edge", e), 1e-12,
                                 "%s bimarginal %r" % (context, e))

    @pytest.mark.parametrize("sizes", [(3, 4), (4, 2), (2, 3, 2)])
    @pytest.mark.parametrize("path_edge_cost", [False, True])
    def test_matches_dense_kernel(self, sizes, path_edge_cost):
        rng = np.random.default_rng(71)
        for trial in range(3):
            sep, dense = grid_mfg_specs(rng, sizes, path_edge_cost=path_edge_cost)
            pots = random_potentials(sep, rng)
            self.check_all(refreshed(sep, pots), refreshed(dense, pots), pots,
                           "%r trial %d" % (sizes, trial))

    @pytest.mark.parametrize("sizes", [(2, 2), (2, 1, 2)])
    def test_dense_oracle_on_tiny_instance(self, sizes):
        rng = np.random.default_rng(72)
        sep, dense = grid_mfg_specs(rng, sizes, steps=3, path_edge_cost=True)
        pots = random_potentials(sep, rng)
        eng = refreshed(sep, pots)
        assert isinstance(eng, ChainEngine)
        self.check_all(eng, DenseEngine(sep), pots, "oracle on separable kernels")
        self.check_all(eng, DenseEngine(dense), pots, "oracle on the dense kernel")
