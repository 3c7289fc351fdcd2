"""Core model tests: scaled storage, kernels, mass, and the dual objective."""

import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from gtop import (Blockwise, Box, CompositeFunction, DualPotentials, EdgeKernel, Equality,
                  GraphTopology, InvalidInput, NumericalFailure, ProblemSpec, ScaledArray,
                  SeparableKernel, Zero, build_kernel, dual_objective, make_engine, solve)
from gtop import model

from _support import (assert_maxnorm_close, dense_tensor, masked_kernel, random_chain_spec,
                      random_potentials)


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_mantissa_fails_loudly(self, bad):
        arr = ScaledArray(np.array([0.5, bad]), 0.0)
        with pytest.raises(NumericalFailure,
                           match="^non-finite mantissa encountered during renormalization$"):
            arr.renormalize()

    def test_kept_log_is_read_only(self):
        arr = ScaledArray(np.array([0.5, 0.0, 1.0]), 3.0)
        lv = arr.log_value()
        assert arr.log_value() is lv
        assert not lv.flags.writeable
        with pytest.raises(ValueError):
            lv[0] = 0.0

    def test_rescaling_drops_kept_log(self):
        arr = ScaledArray(np.array([4.0, 0.0, 1.0]), -2.0)
        stale = arr.log_value()
        assert arr.renormalize() > 0
        lv = arr.log_value()
        assert lv is not stale
        with np.errstate(divide="ignore"):
            assert lv.tobytes() == (np.log(arr.m) + arr.log_scale).tobytes()

    def test_zero_array(self):
        arr = ScaledArray(np.zeros(3), 123.0)
        arr.renormalize()
        assert arr.total() == 0.0

    def test_extreme_scale_roundtrip(self):
        arr = ScaledArray.from_values([1e-200, 1e-210])
        assert arr.total() > 0
        np.testing.assert_allclose(arr.value(), [1e-200, 1e-210], rtol=1e-12)

    def test_renormalize_matches_the_magnitude_peak_rule(self):
        # a nonnegative mantissa's largest entry is its largest magnitude
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = np.exp(rng.uniform(-40, 40, rng.integers(1, 9)))
            m[rng.uniform(size=m.size) < 0.3] = 0.0
            ls = rng.uniform(-300, 300)
            arr = ScaledArray(m.copy(), ls)
            shift = arr.renormalize()
            peak = float(np.max(np.abs(m)))
            if peak in (0.0, 1.0):
                continue
            assert shift == abs(math.log(peak))
            assert arr.m.tobytes() == (m / peak).tobytes()
            assert arr.log_scale == ls + math.log(peak)

    def test_negative_raw_weights_fail_as_invalid_input(self):
        # outside input is scaled by its largest magnitude, so an all-negative
        # vector reaches the weight check instead of failing in math.log
        arr = ScaledArray.from_values([-2.0, -0.5])
        assert arr.log_scale == math.log(2.0)
        with pytest.raises(InvalidInput, match="nonnegative"):
            Equality(np.ones(2)).solve_inclusion(np.array([-2.0, -0.5]), 1.0)


class TestBuildKernel:
    def test_zero_costs_give_unit_kernel(self):
        k = build_kernel(np.zeros((2, 2)), 1.0)
        np.testing.assert_array_equal(k.m, np.ones((2, 2)))
        assert k.log_scale == 0.0

    def test_infinite_costs_give_exact_zeros(self):
        c = np.array([[0.0, np.inf], [np.inf, 0.0]])
        k = build_kernel(c, 0.3)
        np.testing.assert_array_equal(k.m, np.eye(2))
        np.testing.assert_array_equal(k.m > 0, np.eye(2, dtype=bool))

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
            back = -eps * k.log_value()
            finite = np.isfinite(c)
            np.testing.assert_allclose(back[finite], c[finite], rtol=1e-12)
            assert back[0, 1] == np.inf

    def test_cost_beyond_exponent_range_truncates_to_forbidden(self):
        c = np.array([[0.0, 7450.0]])
        with pytest.warns(RuntimeWarning, match="1 finite-cost kernel entries underflow"):
            k = build_kernel(c, 0.01)
        assert k.m[0, 1] == 0.0
        assert (-0.01 * k.log_value())[0, 1] == np.inf

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
        with pytest.raises(InvalidInput):
            build_kernel(np.array([[0.0, np.nan], [np.inf, 1.0]]), 1.0)
        with pytest.raises(InvalidInput):
            build_kernel(np.array([[np.nan, -np.inf]]), 1.0)

    @staticmethod
    def _random_cost(rng, case):
        shape = {"row": (1, 9), "column": (9, 1)}.get(case, (int(rng.integers(2, 12)),
                                                                int(rng.integers(2, 12))))
        # spreads up to 3000 * epsilon, so some entries underflow
        cost = rng.uniform(-5.0, 25.0, shape) * rng.choice([0.01, 1.0, 100.0])
        if case in ("some_inf", "row", "column", "view"):
            cost[rng.uniform(size=shape) < 0.4] = np.inf
        if case == "all_inf":
            cost[:] = np.inf
        if case == "integer":
            cost = rng.integers(-50, 2000, shape)
        if case == "view":
            cost = np.tile(cost, (1, 2))[:, ::2].T
        return cost

    COST_CASES = ["finite", "some_inf", "all_inf", "row", "column", "integer", "view"]

    @pytest.mark.parametrize("case", COST_CASES)
    def test_matches_masked_formula(self, case):
        rng = np.random.default_rng(self.COST_CASES.index(case))
        for _ in range(30):
            cost = self._random_cost(rng, case)
            eps = float(rng.choice([0.01, 0.3, 2.0]))
            ref_m, ref_ls, ref_lost = masked_kernel(cost, eps)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                k = build_kernel(cost, eps)
            lost = [int(str(w.message).split()[0]) for w in seen
                    if issubclass(w.category, RuntimeWarning)]
            assert lost == ([ref_lost] if ref_lost else [])
            assert k.m.flags.c_contiguous and k.m.dtype == np.float64
            assert k.m.shape == ref_m.shape and k.m.tobytes() == ref_m.tobytes()
            assert k.log_scale == ref_ls

    @pytest.mark.parametrize("inf_rate", [0.0, 0.3, "int64"])
    def test_peak_memory_is_one_matrix(self, inf_rate):
        n = 600
        rng = np.random.default_rng(3)
        if inf_rate == "int64":
            cost = rng.integers(0, 30, (n, n), dtype=np.int64)
        else:
            cost = rng.uniform(0.0, 2.0, (n, n))
            cost[rng.uniform(size=cost.shape) < inf_rate] = np.inf
        tracemalloc.start()
        try:
            k = build_kernel(cost, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.m.shape == (n, n)
        assert peak <= 1.3 * n * n * 8, "peak %.2f n^2 doubles" % (peak / (n * n * 8))


class TestEdgeKernel:
    def test_is_a_scaled_array(self):
        k = EdgeKernel(np.array([[1.0, 0.0]]), -2.0)
        assert isinstance(k, ScaledArray)
        np.testing.assert_array_equal(k.value(), [[np.exp(-2.0), 0.0]])
        assert type(EdgeKernel.ones((2, 3))) is EdgeKernel

    @pytest.mark.parametrize("mantissa", [[1.0, 2.0], [[1.0, -1.0]], [[0.5, np.nan]],
                                          [[np.inf, 1.0]]],
                             ids=["1d", "negative", "nan", "inf"])
    def test_rejects_bad_mantissa(self, mantissa):
        with pytest.raises(InvalidInput):
            EdgeKernel(np.array(mantissa))

    def test_empty_mantissa(self):
        assert EdgeKernel(np.zeros((0, 3))).shape == (0, 3)


def symmetric_kernel(n, epsilon=0.05):
    """``exp(-(x_i - x_j)^2 / epsilon)`` on n grid points: exactly symmetric."""
    x = (np.arange(n) + 0.5) / n
    return build_kernel((x[:, None] - x[None, :]) ** 2, epsilon)


def symmetric_chain(n=600, nodes=4, epsilon=0.05):
    """A chain on one symmetric kernel of side n: Gaussian ends, a capped corridor."""
    x = (np.arange(n) + 0.5) / n
    ends = [np.exp(-(x - c) ** 2 / 0.005) for c in (0.25, 0.75)]
    cap = np.where(np.abs(x - 0.5) < 0.15, 2.0 / n, np.inf)
    functions = {j: Box(0.0, cap) for j in range(1, nodes - 1)}
    functions[0], functions[nodes - 1] = (Equality(e / e.sum()) for e in ends)
    kernel = symmetric_kernel(n, epsilon)
    return ProblemSpec(GraphTopology.chain(nodes), {(j, j + 1): kernel for j in range(nodes - 1)},
                       functions, {}, epsilon)


def scipy_openblas_ilp64():
    """Whether numpy reports a scipy-openblas built with 64-bit integers."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (blas.get("name") == "scipy-openblas"
            and "USE64BITINT" in str(blas.get("openblas configuration")))


class TestSymmetricApply:
    """``EdgeKernel.apply`` takes BLAS dsymv for a one-row message times a large,
    exactly symmetric kernel, and matmul for everything else."""

    @pytest.fixture
    def dsymv_calls(self, monkeypatch):
        handle = model._dsymv()
        if handle is None:
            pytest.skip("numpy bundles no ILP64 scipy-openblas with dsymv")
        calls = []

        def counted(*args):
            calls.append(args[2])
            return handle(*args)

        monkeypatch.setattr(model, "_dsymv", lambda: counted)
        return calls

    def test_handle_loads_with_numpys_ilp64_openblas(self):
        if not scipy_openblas_ilp64():
            pytest.skip("numpy's BLAS is not scipy-openblas built with USE64BITINT")
        assert model._dsymv() is not None

    @pytest.mark.parametrize("transpose", [False, True])
    def test_fast_apply_is_matmul_at_roundoff(self, dsymv_calls, transpose):
        k = symmetric_kernel(600)
        m = np.random.default_rng(0).uniform(0.0, 1.0, (1, 600))
        out = k.apply(m, transpose)
        assert dsymv_calls == [600]
        assert out.shape == (1, 600)
        err = np.max(np.abs(out - m @ (k.m.T if transpose else k.m)))
        assert err <= 1e-14 * np.max(np.abs(out))

    @pytest.mark.parametrize("case", ["one_ulp_off", "two_rows", "side_511", "separable"])
    def test_every_other_case_is_matmul_bit_for_bit(self, dsymv_calls, monkeypatch, case):
        rng = np.random.default_rng(1)
        k = symmetric_kernel(511 if case == "side_511" else 600)
        rows = 2 if case == "two_rows" else 1
        if case == "one_ulp_off":
            mantissa = k.m.copy()
            mantissa[3, 7] = np.nextafter(mantissa[3, 7], 0.0)
            k = EdgeKernel(mantissa, k.log_scale)
        elif case == "separable":
            k = SeparableKernel([symmetric_kernel(24), symmetric_kernel(25)])
        m = rng.uniform(0.0, 1.0, (rows, k.shape[0]))
        outs = [k.apply(m, transpose) for transpose in (False, True)]
        assert dsymv_calls == []
        monkeypatch.setattr(model, "_dsymv", lambda: None)
        for transpose, out in zip((False, True), outs):
            assert out.tobytes() == k.apply(m, transpose).tobytes()
            if case != "separable":
                assert out.tobytes() == (m @ (k.m.T if transpose else k.m)).tobytes()

    def test_both_paths_solve_alike(self, dsymv_calls, monkeypatch):
        reports, margs = [], []
        for _ in range(2):
            spec = symmetric_chain()
            pots, report = solve(spec)
            engine = make_engine(spec)
            engine.refresh(pots)
            reports.append(report)
            margs.append([engine.marginal(j, pots) for j in range(4)])
            monkeypatch.setattr(model, "_dsymv", lambda: None)
        assert dsymv_calls
        fast, plain = reports
        assert fast.termination == plain.termination == "converged"
        assert fast.sweeps == plain.sweeps
        tries = [[(sweep, kept) for sweep, _, kept in r.extrapolations] for r in reports]
        assert tries[0] == tries[1] and tries[0]
        np.testing.assert_allclose(fast.dual_values, plain.dual_values, rtol=1e-12, atol=0)
        for a, b in zip(*margs):
            assert_maxnorm_close(a, b, 1e-12)

    def test_kernel_outlives_no_solve(self, dsymv_calls):
        spec = symmetric_chain()
        solve(spec)
        assert dsymv_calls
        mantissa = weakref.ref(spec.kernels[(0, 1)].m)
        del spec
        gc.collect()
        assert mantissa() is None

    def test_symmetry_is_checked_once_per_kernel(self, dsymv_calls, monkeypatch):
        spec = symmetric_chain()
        kernel = spec.kernels[(0, 1)]
        checks = []
        array_equal = np.array_equal

        def counted(a, b, *args, **kwargs):
            checks.append(a is kernel.m)
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counted)
        pots, _ = solve(spec)
        make_engine(spec).refresh(pots)
        output = make_engine(spec)
        output.refresh(pots)
        [output.marginal(j, pots).value() for j in range(4)]
        assert checks.count(True) == 1


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
        assert {e for e in topo.edges if topo.hub in e} == {(3, 0), (3, 1), (3, 2)}
        assert topo.time_nodes == (0, 1, 2)

    def test_path_chords_per_kind(self):
        assert GraphTopology.chain(4).path_chords == ((0, 1, 2, 3), ())
        assert GraphTopology.od_cycle(4).path_chords == ((0, 1, 2, 3), ((0, 3),))
        assert GraphTopology.species_hub(3, 2).path_chords == ((3, 0, 1, 2),
                                                              ((3, 1), (3, 2)))
        general = GraphTopology.general(4, [(0, 2), (0, 1), (1, 2), (2, 3)])
        assert general.path_chords == ((0, 1, 2, 3), ((0, 2),))
        assert GraphTopology.general(4, [(0, 1), (1, 2), (2, 3), (1, 3)]).path_chords is None

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_structure_follows_from_edges(self, n):
        for built in (GraphTopology.chain(n), GraphTopology.od_cycle(n)):
            general = GraphTopology.general(n, built.edges)
            assert general.path_chords == built.path_chords
            assert general.time_nodes == built.time_nodes
            assert general.chord == built.chord

    @pytest.mark.parametrize("build", [lambda: GraphTopology.species_hub(1, 2),
                                       lambda: GraphTopology.species_hub(3, 0),
                                       lambda: GraphTopology.od_cycle(2)],
                             ids=["hub_one_time_node", "hub_no_species", "cycle_two_nodes"])
    def test_count_checks(self, build):
        with pytest.raises(InvalidInput):
            build()

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidInput):
            GraphTopology.general(4, [(0, 1), (2, 3)])

    @pytest.mark.parametrize("n, edges, message", [
        (1, [], r"a graph needs at least two nodes, got 1"),
        (2, [(0, 2)], r"edge \(0, 2\) references a missing node")], ids=["one_node", "no_node_2"])
    def test_missing_nodes_named(self, n, edges, message):
        with pytest.raises(InvalidInput, match="^%s$" % message):
            GraphTopology.general(n, edges)

    @pytest.mark.parametrize("build, message", [
        (lambda: GraphTopology(3, [(0, 1.5), (1, 2)]), r"edge end must be an integer, got 1\.5"),
        (lambda: GraphTopology(3.7, [(0, 1), (1, 2)]), r"node count must be an integer, got 3\.7"),
        (lambda: GraphTopology(2, [(0, True)]), r"edge end must be an integer, got True"),
        (lambda: GraphTopology(3, [(0, 1), (1, 2)], hub="2", species_count=2),
         r"hub must be an integer, got '2'"),
        (lambda: GraphTopology(3, [(0, 1), (1, 2)], hub=2, species_count=2.0),
         r"species must be an integer, got 2\.0"),
        (lambda: GraphTopology.chain(3.0), r"node count must be an integer, got 3\.0"),
        (lambda: GraphTopology.od_cycle("4"), r"node count must be an integer, got '4'"),
        (lambda: GraphTopology.species_hub(2.5, 2), r"time node count must be an integer"),
    ], ids=["float_edge_end", "float_node_count", "bool_edge_end", "string_hub",
            "float_species_count", "float_chain", "string_cycle", "float_hub"])
    def test_ids_must_be_integers(self, build, message):
        with pytest.raises(InvalidInput, match="^%s" % message):
            build()

    def test_numpy_integer_ids_are_accepted(self):
        topo = GraphTopology(np.int64(3), [(np.int32(0), np.uint8(1)), (1, np.int64(2))])
        assert topo.node_count == 3 and topo.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in topo.edges for v in e)


def refreshed(spec, pots):
    """An engine whose messages are current for ``pots``."""
    eng = make_engine(spec)
    eng.refresh(pots)
    return eng


class TestTotalMass:
    def test_all_ones_counts_paths(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        assert refreshed(spec, pots).marginal(0, pots).total() == pytest.approx(8.0, rel=1e-14)

    def test_zero_potential_annihilates(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        pots.factors[("node", 1)] = [ScaledArray(np.zeros(2), 0.0)]
        assert refreshed(spec, pots).marginal(0, pots).total() == 0.0

    def test_matches_dense_sum(self):
        rng = np.random.default_rng(3)
        spec = random_chain_spec(rng, n_nodes=3, sizes=[3, 3, 3])
        pots = random_potentials(spec, rng)
        dense = dense_tensor(spec, pots).total()
        assert refreshed(spec, pots).marginal(0, pots).total() == pytest.approx(dense, rel=1e-12)

    def test_identical_across_nodes(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            spec = random_chain_spec(rng, with_edge_fn=bool(trial % 2))
            pots = random_potentials(spec, rng, zero_rate=0.1 if trial % 3 == 0 else 0.0)
            eng = refreshed(spec, pots)
            masses = [eng.marginal(j, pots).total()
                      for j in range(spec.topology.node_count)]
            ref = masses[0]
            for m in masses[1:]:
                assert m == pytest.approx(ref, rel=1e-12, abs=1e-300)


class TestDualObjective:
    def test_all_zero_functions(self):
        spec = all_ones_chain(3, 2)
        pots = DualPotentials.ones_for(spec)
        eng = refreshed(spec, pots)
        assert dual_objective(pots, spec, eng) == pytest.approx(-8.0, rel=1e-14)

    def test_equality_term_vanishes_at_unit_potential(self):
        topo = GraphTopology.chain(2)
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {0: Equality([0.5, 0.5])}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        eng = refreshed(spec, pots)
        assert dual_objective(pots, spec, eng) == pytest.approx(-4.0, rel=1e-14)

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
        # independent evaluation, straight from the closed forms
        mass = dense_tensor(spec, pots).total()
        lam0 = 0.7 * pots.factors[("node", 0)][0].log_value()
        lam2 = 0.7 * pots.factors[("node", 2)][0].log_value()
        expected = -0.7 * mass - float(np.dot(-lam0, mu0)) - float(np.dot(-lam2, mu2))
        got = dual_objective(pots, spec, refreshed(spec, pots))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_infeasible_multiplier_gives_minus_inf(self):
        topo = GraphTopology.chain(2)
        # A multiplier s > 0 where the upper bound is +inf; a linear cost,
        # which pins its multiplier, is a constant of the spec, not a block.
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {0: Box(0.0, [np.inf, 1.0])}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        pots.factors[("node", 0)] = [ScaledArray.from_values([0.5, 1.0])]
        assert dual_objective(pots, spec, refreshed(spec, pots)) == -math.inf


class TestProblemSpecValidation:
    def test_kernel_shape_mismatch(self):
        topo = GraphTopology.chain(2)
        with pytest.raises(InvalidInput):
            ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 3)), 1.0)},
                        {0: Equality([1.0, 1.0, 1.0])}, {}, 1.0)

    def test_kernel_of_the_wrong_shape_is_named(self):
        # node sizes come from the first two axes; a third axis is left over
        with pytest.raises(InvalidInput, match=r"kernel on edge \(0, 1\) has shape "
                                               r"\(2, 2, 2\), expected \(2, 2\)"):
            ProblemSpec(GraphTopology.chain(2), {(0, 1): ScaledArray.ones((2, 2, 2))})

    def test_node_with_no_kernel_to_size_it_is_named(self):
        with pytest.raises(InvalidInput, match=r"cannot infer sizes for nodes \[2\]"):
            ProblemSpec(GraphTopology.chain(3), {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)})

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        with pytest.raises(InvalidInput, match="^epsilon must be a positive finite scalar$"):
            ProblemSpec(GraphTopology.chain(2), {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                        {}, {}, epsilon)

    def test_functions_off_the_graph_are_named(self):
        topo = GraphTopology.chain(3)
        kernels = {e: build_kernel(np.zeros((2, 2)), 1.0) for e in topo.edges}
        with pytest.raises(InvalidInput, match="^node function given for missing node 3$"):
            ProblemSpec(topo, kernels, {3: Zero()}, {}, 1.0)
        with pytest.raises(InvalidInput, match=r"^edge function given for non-edge \(0, 2\)$"):
            ProblemSpec(topo, kernels, {}, {(0, 2): Zero()}, 1.0)

    @pytest.mark.parametrize("key", ["0", 1.5, 1.0, None])
    def test_node_function_keys_must_be_integers(self, key):
        topo = GraphTopology.chain(2)
        kernels = {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)}
        with pytest.raises(InvalidInput, match="^node function key must be an integer, got %s$"
                           % re.escape(repr(key))):
            ProblemSpec(topo, kernels, {key: Equality([0.5, 0.5])}, {}, 1.0)
        spec = ProblemSpec(topo, kernels, {np.int64(1): Equality([0.5, 0.5])}, {}, 1.0)
        assert list(spec.blocks) == [("node", 1)]

    def test_composite_potentials_get_one_factor_each(self):
        topo = GraphTopology.chain(2)
        spec = ProblemSpec(topo, {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)},
                           {1: CompositeFunction([Equality([1.0, 1.0]),
                                                  Box(0.0, [1.0, np.inf])])}, {}, 1.0)
        pots = DualPotentials.ones_for(spec)
        assert len(pots.factors[("node", 1)]) == 2

    def test_zero_costs_make_no_block(self):
        # A zero cost, alone or stacked, gets no factor; it is still size-checked.
        topo = GraphTopology.chain(3)
        kernels = {e: build_kernel(np.zeros((2, 2)), 1.0) for e in topo.edges}
        node_box, edge_box = Box(0.0, [1.0, np.inf]), Box(0.0, np.full(4, 2.0))
        spec = ProblemSpec(topo, kernels, {0: Zero(), 1: CompositeFunction([Zero(), node_box])},
                           {(0, 1): Zero(), (1, 2): CompositeFunction([edge_box, Zero()])}, 1.0)
        assert spec.blocks == {("node", 1): (node_box,), ("edge", (1, 2)): (edge_box,)}
        zero_of_three = Blockwise(3, [(np.arange(3), Zero())])
        with pytest.raises(InvalidInput, match="node 0: function expects 3 entries"):
            ProblemSpec(topo, kernels, {0: zero_of_three}, {}, 1.0)
