"""Projection tests: structured recursions against the dense reference."""

import numpy as np
import pytest

from gtop import (ChainEngine, DenseEngine, DualPotentials, Equality, GraphTopology,
                  ProblemSpec, ScaledArray, SizeBoundExceeded, TopologyMismatch,
                  Zero, build_kernel, make_engine)

from _support import (as_general, assert_maxnorm_close, random_chain_spec,
                      random_hub_spec, random_od_spec, random_potentials)


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
        pots.nodes[0] = [ScaledArray.from_values([0.3, 0.7])]
        pots.nodes[1] = [ScaledArray.from_values([0.6, 0.4])]
        den = DenseEngine(spec)
        t = den.tensor(pots)
        np.testing.assert_allclose(t.value(), [[0.18, 0.12], [0.42, 0.28]], rtol=1e-14)
        np.testing.assert_allclose(den.project(pots, (0,)).value(), [0.3, 0.7], rtol=1e-14)
        np.testing.assert_allclose(den.project(pots, (1,)).value(), [0.6, 0.4], rtol=1e-14)

    def test_size_budget(self):
        topo = GraphTopology.chain(8)
        kernels = {(j, j + 1): build_kernel(np.zeros((6, 6)), 1.0) for j in range(7)}
        spec = ProblemSpec(topo, kernels, {}, {}, 1.0)
        with pytest.raises(SizeBoundExceeded):
            DenseEngine(spec)

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
        pots.nodes[2] = [ScaledArray(np.zeros(2), 0.0)]
        np.testing.assert_array_equal(refreshed(spec, pots).bimarginal((0, 1), pots).value(),
                                      np.zeros((2, 2)))

    def test_point_mass_matches_oracle(self):
        rng = np.random.default_rng(1)
        spec = random_chain_spec(rng, n_nodes=4, sizes=[3, 3, 3, 3])
        pots = random_potentials(spec, rng)
        pots.nodes[0] = [ScaledArray.from_values([1.0, 0.0, 0.0])]
        eng = refreshed(spec, pots)
        den = DenseEngine(spec)
        for j in range(4):
            assert_maxnorm_close(eng.marginal(j, pots),
                                 den.marginal(j, pots), 1e-12, "point-mass marginal")

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
                assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, pots), 1e-10,
                                     "chain marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.bimarginal(e, pots), 1e-10,
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
        spec = random_od_spec(rng, n_nodes=5, n_states=3)
        pots = random_potentials(spec, rng)
        eng = refreshed(spec, pots)
        np.testing.assert_array_equal(eng.fwd[0].value(), np.eye(3))
        np.testing.assert_array_equal(eng.bwd[4].value(), np.ones((3, 3)))
        # one step from the seeds: the kernels, scaled by the node-0 potential
        # on the left and by the chord factor and node-4 potential on the right
        u0 = pots.node_value(0).value()
        u4 = pots.node_value(4).value()
        chord = spec.kernels[(0, 4)].as_scaled().value() * pots.edge_value((0, 4)).value()
        k01 = spec.kernels[(0, 1)].as_scaled().value()
        k34 = spec.kernels[(3, 4)].as_scaled().value()
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
                assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, pots), 1e-10,
                                     "od marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.bimarginal(e, pots), 1e-10,
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
            assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, pots), 1e-11,
                                 "od endpoint marginal %d" % j)

    def test_topology_guard(self):
        rng = np.random.default_rng(7)
        spec = as_general(random_chain_spec(rng))
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
            hub_pots.nodes[j] = [ScaledArray.from_values(u)]
            chain_pots.nodes[j] = [ScaledArray.from_values(u)]
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
                assert_maxnorm_close(eng.marginal(j, pots), den.marginal(j, pots), 1e-10,
                                     "hub marginal %d trial %d" % (j, trial))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.bimarginal(e, pots), 1e-10,
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
        pots.nodes[touch] = [ScaledArray.from_values(
            np.exp(rng.uniform(-1, 1, spec.node_sizes[touch])))]
        hi = spec.topology.hub if spec.topology.kind == "species_hub" else None
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

    @pytest.mark.parametrize("family", ["chain", "od", "hub", "general"])
    def test_order_covers_every_block_once(self, family):
        rng = np.random.default_rng(50)
        for _ in range(10):
            if family == "chain":
                spec = random_chain_spec(rng, with_edge_fn=True)
            elif family == "hub":
                spec = random_hub_spec(rng)
            else:
                spec = random_od_spec(rng)
                if family == "general":
                    spec = as_general(spec)
            topo = spec.topology
            order = make_engine(spec).order
            expected = ([("node", j) for j in range(topo.node_count)]
                        + [("edge", e) for e in topo.edges])
            assert sorted(s for s in order if s[0] != "push") == sorted(expected)
            pushes = [j for kind, j in order if kind == "push"]
            if family == "general":
                assert pushes == []
                continue
            # each forward push follows every update at its node, before the next node
            T = len(topo.time_nodes)
            assert pushes == list(range(T - 1))
            pos = {step: i for i, step in enumerate(order)}
            for j in range(T - 1):
                assert pos[("node", j)] < pos[("edge", (j, j + 1))] < pos[("push", j)] \
                    < pos[("node", j + 1)]
                if topo.hub is not None:
                    assert pos[("edge", (topo.hub, j))] < pos[("push", j)]
