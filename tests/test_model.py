"""Core model tests: scaled storage, kernels, mass, and the dual objective."""

import math
import warnings

import numpy as np
import pytest

from gtop import (CompositeFunction, DualPotentials, Equality, GraphTopology,
                  InvalidInput, ProblemSpec, ScaledArray, Zero, build_kernel,
                  dual_objective, total_mass)
from gtop.projections import DenseEngine

from _support import random_chain_spec, random_potentials


def all_ones_chain(n_nodes=3, n=2, epsilon=1.0):
    topo = GraphTopology.chain(n_nodes)
    kernels = {(j, j + 1): build_kernel(np.zeros((n, n)), epsilon)
               for j in range(n_nodes - 1)}
    return ProblemSpec(topo, kernels, {}, {}, epsilon)


class TestScaledArray:
    def test_renormalize_preserves_value(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = np.exp(rng.uniform(-40, 40, rng.integers(1, 9)))
            arr = ScaledArray(vals.copy(), rng.uniform(-300, 300))
            before = arr.log_value().copy()
            arr.renormalize()
            after = arr.log_value()
            np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)
            assert np.max(np.abs(arr.m)) <= 2.0 ** 512
            assert np.max(np.abs(arr.m)) >= 2.0 ** -512

    def test_zero_array(self):
        arr = ScaledArray(np.zeros(3), 123.0)
        arr.renormalize()
        assert arr.total() == 0.0
        assert arr.log_total() == -math.inf

    def test_extreme_scale_roundtrip(self):
        arr = ScaledArray.from_values([1e-200, 1e-210])
        assert arr.total() > 0
        np.testing.assert_allclose(arr.value(), [1e-200, 1e-210], rtol=1e-12)


class TestBuildKernel:
    def test_zero_costs_give_unit_kernel(self):
        k = build_kernel(np.zeros((2, 2)), 1.0)
        np.testing.assert_array_equal(k.m, np.ones((2, 2)))
        assert k.log_scale == 0.0

    def test_infinite_costs_give_exact_zeros(self):
        c = np.array([[0.0, np.inf], [np.inf, 0.0]])
        k = build_kernel(c, 0.3)
        np.testing.assert_array_equal(k.m, np.eye(2))
        np.testing.assert_array_equal(k.support, np.eye(2, dtype=bool))

    def test_direct_exponentiation(self):
        k = build_kernel(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(k.m * np.exp(k.log_scale),
                                   [[1.0, np.exp(-1)], [np.exp(-1), 1.0]], rtol=1e-15)

    def test_max_mantissa_is_one(self):
        rng = np.random.default_rng(1)
        for eps in (0.01, 0.5, 2.0):
            c = rng.uniform(-3, 25, (4, 5))
            if eps == 0.01:
                # a cost spread near 28 at eps = 0.01 underflows some entries and warns
                with pytest.warns(RuntimeWarning, match="underflow"):
                    k = build_kernel(c, eps)
            else:
                k = build_kernel(c, eps)
            assert np.max(k.m) == 1.0

    def test_cost_roundtrip(self):
        # Exact recovery holds while the cost spread stays inside the double
        # exponent range, i.e. (max - min) / epsilon below roughly 700.
        rng = np.random.default_rng(2)
        for eps, spread in ((0.01, 6.0), (0.05, 20.0), (1.0, 500.0)):
            c = rng.uniform(0, spread, (4, 4))
            c[0, 1] = np.inf
            k = build_kernel(c, eps)
            back = k.cost(eps)
            finite = np.isfinite(c)
            np.testing.assert_allclose(back[finite], c[finite], rtol=1e-12)
            assert back[0, 1] == np.inf

    def test_cost_beyond_exponent_range_truncates_to_forbidden(self):
        c = np.array([[0.0, 7450.0]])
        with pytest.warns(RuntimeWarning, match="1 finite-cost kernel entries underflow"):
            k = build_kernel(c, 0.01)
        assert k.m[0, 1] == 0.0
        assert k.cost(0.01)[0, 1] == np.inf

    def test_underflow_warning_threshold(self):
        # exp(-x) is a nonzero subnormal up to x ~ 745.1 and zero beyond
        eps = 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = build_kernel(np.array([[0.0, 740.0 * eps, np.inf]]), eps)
        assert k.m[0, 1] > 0.0
        with pytest.warns(RuntimeWarning, match=r"^2 finite-cost .* epsilon=0\.01"):
            k = build_kernel(np.array([[0.0, 746.0 * eps, 800.0 * eps, np.inf]]), eps)
        assert k.m[0, 1] == k.m[0, 2] == k.m[0, 3] == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            build_kernel(np.zeros((2, 2)), 0.0)
        with pytest.raises(InvalidInput):
            build_kernel(np.zeros((2, 2)), np.inf)
        with pytest.raises(InvalidInput):
            build_kernel(np.array([[0.0, -np.inf]]), 1.0)


class TestTopology:
    def test_chain_shape(self):
        topo = GraphTopology.chain(4)
        assert topo.edges == ((0, 1), (1, 2), (2, 3))

    def test_od_chord(self):
        topo = GraphTopology.od_cycle(5)
        assert topo.chord == (0, 4)
        assert (0, 4) in topo.edges

    def test_hub_edges(self):
        topo = GraphTopology.species_hub(3, 2)
        assert topo.hub == 3
        assert set(topo.hub_edges) == {(3, 0), (3, 1), (3, 2)}
        assert topo.time_nodes == (0, 1, 2)

    def test_general_size_cap(self):
        with pytest.raises(InvalidInput):
            GraphTopology.general(7, [(j, j + 1) for j in range(6)])

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidInput):
            GraphTopology.general(4, [(0, 1), (2, 3)])


class TestTotalMass:
    def test_all_ones_counts_paths(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        assert total_mass(pots, spec) == pytest.approx(8.0, rel=1e-14)

    def test_zero_potential_annihilates(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        pots.nodes[1] = [ScaledArray(np.zeros(2), 0.0)]
        assert total_mass(pots, spec) == 0.0

    def test_matches_dense_sum(self):
        rng = np.random.default_rng(3)
        spec = random_chain_spec(rng, n_nodes=3, sizes=[3, 3, 3])
        pots = random_potentials(spec, rng)
        dense = DenseEngine(spec).tensor(pots).total()
        assert total_mass(pots, spec) == pytest.approx(dense, rel=1e-12)

    def test_identical_across_nodes(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            spec = random_chain_spec(rng, with_edge_fn=bool(trial % 2))
            pots = random_potentials(spec, rng, zero_rate=0.1 if trial % 3 == 0 else 0.0)
            from gtop import make_engine
            eng = make_engine(spec)
            eng.refresh(pots)
            masses = [eng.marginal(j, pots).total()
                      for j in range(spec.topology.node_count)]
            ref = masses[0]
            for m in masses[1:]:
                assert m == pytest.approx(ref, rel=1e-12, abs=1e-300)


class TestDualObjective:
    def test_all_zero_functions(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        assert dual_objective(pots, spec) == pytest.approx(-8.0, rel=1e-14)

    def test_equality_term_vanishes_at_unit_potential(self):
        topo = GraphTopology.chain(2)
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {0: Equality([0.5, 0.5])}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        assert dual_objective(pots, spec) == pytest.approx(-4.0, rel=1e-14)

    def test_matches_termwise_oracle(self):
        rng = np.random.default_rng(5)
        n = 3
        topo = GraphTopology.chain(3)
        kernels = {(0, 1): build_kernel(rng.uniform(0, 1, (n, n)), 0.7),
                   (1, 2): build_kernel(rng.uniform(0, 1, (n, n)), 0.7)}
        mu0 = rng.uniform(0.1, 1, n)
        mu2 = rng.uniform(0.1, 1, n)
        spec = ProblemSpec(topo, kernels, {0: Equality(mu0), 2: Equality(mu2)}, {}, 0.7)
        pots = random_potentials(spec, rng)
        pots.nodes[1] = [ScaledArray.ones(n)]  # the free node keeps a unit factor
        # independent evaluation, straight from the closed forms
        mass = DenseEngine(spec).tensor(pots).total()
        lam0 = 0.7 * pots.nodes[0][0].log_value()
        lam2 = 0.7 * pots.nodes[2][0].log_value()
        expected = -0.7 * mass - float(np.dot(-lam0, mu0)) - float(np.dot(-lam2, mu2))
        got = dual_objective(pots, spec)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_infeasible_multiplier_gives_minus_inf(self):
        topo = GraphTopology.chain(2)
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {0: Zero()}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        pots.nodes[0] = [ScaledArray.from_values([2.0, 1.0])]  # multiplier off zero
        assert dual_objective(pots, spec) == -math.inf


class TestProblemSpecValidation:
    def test_kernel_shape_mismatch(self):
        topo = GraphTopology.chain(2)
        with pytest.raises(InvalidInput):
            ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 3)), 1.0)},
                        {0: Equality([1.0, 1.0, 1.0])}, {}, 1.0)

    def test_edge_cost_placement_on_od(self):
        topo = GraphTopology.od_cycle(3)
        kernels = {(0, 1): build_kernel(np.zeros((2, 2)), 1.0),
                   (1, 2): build_kernel(np.zeros((2, 2)), 1.0)}
        with pytest.raises(InvalidInput):
            ProblemSpec(topo, kernels, {},
                        {(0, 1): Equality(np.ones((2, 2)))}, 1.0)

    def test_hub_node_must_be_free(self):
        topo = GraphTopology.species_hub(2, 2)
        kernels = {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)}
        with pytest.raises(InvalidInput):
            ProblemSpec(topo, kernels, {topo.hub: Equality([1.0, 1.0])}, {}, 1.0)

    def test_composite_potentials_get_one_factor_each(self):
        topo = GraphTopology.chain(2)
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {1: CompositeFunction([Equality([1.0, 1.0]),
                                                  Zero()])}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        assert len(pots.nodes[1]) == 2
