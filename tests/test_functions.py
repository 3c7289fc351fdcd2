"""Catalog tests: conjugate values, subgradients, and inclusion solves.

Scalar roots are checked against an independent in-test bisection oracle,
and conjugates against numerical biconjugation on fine grids.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gtop import (Blockwise, Box, CompositeFunction, Congestion, Equality,
                  Infeasible, InvalidInput, Linear, NumericalFailure, QuadraticDistance,
                  ScaledArray, Zero, functions, stack_rows)

from _support import inclusion_residual, masked_log_u_to_scaled


def bisect_oracle(f, lo, hi, iters=200):
    """Plain scalar bisection for an increasing function, to near machine width."""
    flo = f(lo)
    fhi = f(hi)
    assert flo <= 0 <= fhi, "oracle bracket invalid: f(%g)=%g f(%g)=%g" % (lo, flo, hi, fhi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_u(fn, w, eps):
    out = fn.solve_inclusion(ScaledArray.from_values(np.asarray(w, dtype=float)), eps)
    return out.value()


class TestConjugateValues:
    def test_box_upper_side(self):
        assert Box(0.0, 1.0).conjugate([2.0]) == pytest.approx(2.0)

    def test_box_piecewise(self):
        fn = Box(np.array([0.5, 0.0]), np.array([2.0, 1.0]))
        assert fn.conjugate([-1.0, 3.0]) == pytest.approx(-0.5 + 3.0)
        assert fn.conjugate([0.0, 0.0]) == 0.0

    def test_congestion_continuous_at_kink(self):
        fn = Congestion([1.0])
        at_kink = 1.0 * 1.0 - 2.0 * math.sqrt(1.0) + 1.0
        assert at_kink == 0.0
        assert fn.conjugate([1.0]) == 0.0
        assert fn.conjugate([1.0 + 1e-9]) == pytest.approx(0.0, abs=1e-15)
        assert fn.conjugate([1.0 - 1e-9]) == 0.0

    def test_equality_at_zero(self):
        assert Equality([0.3, 0.7]).conjugate([0.0, 0.0]) == 0.0

    def test_quadratic_closed_form(self):
        fn = QuadraticDistance(0.5, [1.0])
        s = 0.8
        assert fn.conjugate([s]) == pytest.approx(s * 1.0 + s * s / (4 * 0.5))

    def test_linear_indicator(self):
        fn = Linear([1.0, 2.0])
        assert fn.conjugate([1.0, 2.0]) == 0.0
        assert fn.conjugate([1.0, 2.5]) == math.inf

    def test_zero_indicator(self):
        assert Zero().conjugate([0.0, 0.0]) == 0.0
        assert Zero().conjugate([0.1]) == math.inf

    def test_eliminated_state_contributes_nothing(self):
        # s=+inf is the multiplier of an eliminated state; a zero target or a
        # zero capacity absorbs it.
        assert Equality([0.0, 1.0]).conjugate([np.inf, 0.5]) == pytest.approx(0.5)
        assert Box(0.0, np.array([0.0, 2.0])).conjugate([np.inf, 0.0]) == 0.0

    @pytest.mark.parametrize("fn", [QuadraticDistance(1.0, [0.2, 0.3]),
                                    QuadraticDistance(2.0, [0.2, 0.3], exponent=3.0),
                                    Congestion([1.0, 2.0])], ids=repr)
    def test_infinite_multiplier_past_the_domain_costs_inf(self, fn):
        assert fn.conjugate([0.1, math.inf]) == math.inf

    def test_distance_conjugate_is_inf_at_minus_inf_too(self):
        assert QuadraticDistance(1.0, [0.2, 0.3]).conjugate([-math.inf, 0.0]) == math.inf

    def test_congestion_conjugate_is_flat_below_its_kink(self):
        # s <= 1 / capacity gives a zero flow and costs nothing, s = -inf included
        assert Congestion([1.0, 2.0]).conjugate([-math.inf, 0.5]) == 0.0


class TestBiconjugation:
    """f** computed by brute sup over a fine grid must reproduce f."""

    def _fstar_on_grid(self, fn, s_grid):
        return np.array([fn.conjugate([s]) for s in s_grid])

    def _biconjugate(self, fn, x, s_grid, fstar=None):
        if fstar is None:
            fstar = self._fstar_on_grid(fn, s_grid)
        finite = np.isfinite(fstar)
        return np.max(s_grid[finite] * x - fstar[finite])

    def test_zero(self):
        s = np.linspace(-5, 5, 1001)
        for x in np.linspace(0, 3, 7):
            assert self._biconjugate(Zero(), x, s) == pytest.approx(0.0, abs=1e-12)

    def test_equality(self):
        fn = Equality([0.8])
        s = np.linspace(-10, 10, 2001)
        assert self._biconjugate(fn, 0.8, s) == pytest.approx(0.0, abs=1e-12)

    def test_box(self):
        fn = Box(0.25, 1.5)
        s = np.linspace(-20, 20, 4001)
        for x in np.linspace(0.25, 1.5, 9):
            assert self._biconjugate(fn, x, s) == pytest.approx(0.0, abs=1e-9)

    def test_linear(self):
        fn = Linear([1.3])
        s = np.array([1.3])
        for x in np.linspace(0, 2, 5):
            assert self._biconjugate(fn, x, s) == pytest.approx(1.3 * x, abs=1e-12)

    def test_quadratic(self):
        fn = QuadraticDistance(0.5, [0.7])
        s = np.linspace(-6, 6, 240001)
        fstar = 0.7 * s + s * s / (4 * 0.5)
        for x in np.linspace(0.0, 2.0, 11):
            got = np.max(s * x - fstar)
            assert got == pytest.approx(0.5 * (x - 0.7) ** 2, abs=1e-6)

    def test_congestion(self):
        beta = 1.4
        fn = Congestion([beta])
        s = np.concatenate([np.linspace(-2, 2, 40001),
                            np.geomspace(2, 4000 / beta, 200001)])
        fstar = self._fstar_on_grid(fn, s)
        for x in np.linspace(0.0, 0.95 * beta, 12):
            got = self._biconjugate(fn, x, s, fstar)
            assert got == pytest.approx(x / (beta - x), abs=1e-6)


class TestLogUToScaled:
    def test_all_neg_inf_gives_zeros(self):
        u = ScaledArray.from_log(np.full(6, -np.inf), (2, 3))
        assert u.shape == (2, 3) and u.log_scale == 0.0
        np.testing.assert_array_equal(u.m, np.zeros((2, 3)))

    def test_empty(self):
        u = ScaledArray.from_log(np.zeros(0), (0,))
        assert u.shape == (0,) and u.log_scale == 0.0

    def test_matches_masked_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            log_u = rng.uniform(-800.0, 800.0, int(rng.integers(1, 30)))
            log_u[rng.uniform(size=log_u.shape) < 0.4] = -np.inf
            u = ScaledArray.from_log(log_u, log_u.shape)
            ref = masked_log_u_to_scaled(log_u, log_u.shape)
            assert u.m.tobytes() == ref.m.tobytes() and u.log_scale == ref.log_scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_pos_inf_raises(self, bad):
        with pytest.raises(NumericalFailure, match="1 NaN or \\+inf"):
            ScaledArray.from_log(np.array([0.0, -np.inf, bad]), (3,))


class TestSolveInclusion:
    def test_equality_is_classic_scaling(self):
        u = solve_u(Equality([2.0, 3.0]), [1.0, 1.0], 1.0)
        np.testing.assert_allclose(u, [2.0, 3.0], rtol=1e-15)

    def test_equality_zero_target_eliminates(self):
        u = solve_u(Equality([0.0, 3.0]), [0.0, 1.5], 1.0)
        assert u[0] == 0.0
        assert u[1] == pytest.approx(2.0, rel=1e-14)

    def test_equality_starved_state_raises(self):
        with pytest.raises(Infeasible):
            solve_u(Equality([1.0]), [0.0], 1.0)

    def test_box_cap_and_slackness(self):
        u = solve_u(Box(0.0, np.array([1.0])), [4.0], 0.7)
        assert u[0] == pytest.approx(0.25, rel=1e-14)
        # active: u*w equals the cap and the multiplier is positive (u < 1)
        assert u[0] * 4.0 == pytest.approx(1.0, rel=1e-14)
        u = solve_u(Box(0.0, np.array([8.0])), [4.0], 0.7)
        assert u[0] == 1.0

    def test_box_lower_bound(self):
        u = solve_u(Box(np.array([2.0]), np.array([5.0])), [1.0], 1.0)
        assert u[0] * 1.0 == pytest.approx(2.0, rel=1e-14)

    def test_box_slack_at_zero_weight(self):
        u = solve_u(Box(0.0, np.array([2.0])), [0.0], 1.0)
        assert u[0] == 1.0

    def test_box_zero_capacity_eliminates(self):
        u = solve_u(Box(0.0, np.array([0.0, 1.0])), [3.0, 3.0], 1.0)
        assert u[0] == 0.0

    def test_linear_ignores_weights(self):
        fn = Linear([1.0, 2.0])
        u1 = solve_u(fn, [5.0, 0.1], 0.5)
        u2 = solve_u(fn, [0.0, 9.0], 0.5)
        np.testing.assert_allclose(u1, np.exp(-np.array([1.0, 2.0]) / 0.5), rtol=1e-14)
        np.testing.assert_allclose(u1, u2, rtol=1e-14)

    def test_zero_gives_unit(self):
        np.testing.assert_array_equal(solve_u(Zero(), [3.0, 0.0], 1.0), [1.0, 1.0])

    @pytest.mark.parametrize("w", [[1.0, np.nan], [1.0, -0.5], [np.inf, 1.0]],
                             ids=["nan", "negative", "inf"])
    def test_raw_weights_are_checked(self, w):
        # Engine weights are ScaledArrays, finite and nonnegative by
        # construction; a raw list is outside input and is scanned.
        for fn in (Box(0.0, 1.0), Equality([0.5, 0.5]), Zero()):
            with pytest.raises(InvalidInput, match="finite and nonnegative"):
                fn.solve_inclusion(w, 1.0)

    def test_raw_weights_give_the_scaled_weights_factor(self):
        w = [0.2, 0.0, 0.5, 0.3]
        for fn in (Box(0.0, 0.4), Equality([0.1, 0.0, 0.6, 0.3]), QuadraticDistance(0.5, 0.2),
                   Congestion(0.4), Linear([0.1, 0.2, 0.3, 0.4]), Zero()):
            raw = fn.solve_inclusion(w, 0.7)
            scaled = fn.solve_inclusion(ScaledArray.from_values(w), 0.7)
            assert raw.m.tobytes() == scaled.m.tobytes(), fn
            assert raw.log_scale == scaled.log_scale, fn

    def test_quadratic_against_bisection_oracle(self):
        # u * w = y - eps*log(u)/(2*sigma), here u = -ln(u)
        fn = QuadraticDistance(0.5, [0.0])
        u = solve_u(fn, [1.0], 1.0)
        oracle = bisect_oracle(lambda t: t + math.log(t), 1e-8, 1.0)
        assert u[0] == pytest.approx(oracle, abs=1e-12)
        assert u[0] == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_congestion_against_bisection_oracle(self):
        # u = 1 - 1/sqrt(-ln u) on (0, exp(-1))
        fn = Congestion([1.0])
        u = solve_u(fn, [1.0], 1.0)
        oracle = bisect_oracle(lambda t: t - 1.0 + 1.0 / math.sqrt(-math.log(t)),
                               1e-12, math.exp(-1.0) - 1e-12)
        assert u[0] == pytest.approx(oracle, abs=1e-12)
        assert round(u[0], 4) == pytest.approx(0.2054, abs=2e-4)

    def test_congestion_slack_at_zero_weight(self):
        u = solve_u(Congestion([2.0]), [0.0], 1.0)
        assert u[0] == 1.0

    def test_quadratic_zero_weight_closed_form(self):
        fn = QuadraticDistance(0.8, [0.6])
        u = solve_u(fn, [0.0], 0.5)
        assert u[0] == pytest.approx(math.exp(2 * 0.8 * 0.6 / 0.5), rel=1e-10)

    def test_extreme_weight_scales(self):
        # magnitudes far outside double range, passed via the scaled carrier
        w = ScaledArray(np.array([1.0, 0.5]), -1500.0)
        u = Equality([1.0, 2.0]).solve_inclusion(w, 1.0)
        lv = u.log_value()
        np.testing.assert_allclose(lv, [1500.0, 1500.0 + math.log(4.0)], rtol=0, atol=1e-9)

    def test_bimarginal_matrix_shapes(self):
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = ScaledArray.from_values(np.ones((2, 2)))
        u = Equality(target).solve_inclusion(w, 1.0)
        np.testing.assert_allclose(u.value(), target, atol=1e-15)

    def test_bimarginal_zero_gives_ones(self):
        w = ScaledArray.from_values(np.full((2, 3), 0.7))
        u = Zero().solve_inclusion(w, 1.0)
        np.testing.assert_array_equal(u.value(), np.ones((2, 3)))

    def test_bimarginal_linear_is_kernel(self):
        c = np.array([[0.0, 1.0], [2.0, 0.5]])
        w = ScaledArray.from_values(np.full((2, 2), 3.3))
        u = Linear(c).solve_inclusion(w, 0.5)
        np.testing.assert_allclose(u.value(), np.exp(-c / 0.5), rtol=1e-14)


class TestInclusionResiduals:
    """The solved update must sit inside the conjugate subdifferential."""

    CASES = [
        (Equality(np.array([0.5, 2.0, 0.0])), 3),
        (Box(0.0, np.array([0.4, 2.0, np.inf])), 3),
        (Box(np.array([0.1, 0.0, 0.2]), np.array([0.4, 2.0, np.inf])), 3),
        (Linear(np.array([0.3, -0.2])), 2),
        (QuadraticDistance(0.7, np.array([0.2, 1.5])), 2),
        (QuadraticDistance(0.7, np.array([0.2, 1.5]), exponent=3.0), 2),
        (Congestion(np.array([0.8, 1.6])), 2),
    ]

    @pytest.mark.parametrize("fn,n", CASES, ids=lambda c: repr(c))
    def test_residual_small(self, fn, n):
        rng = np.random.default_rng(hash(repr(fn)) % 2 ** 31)
        for eps in (0.1, 1.0):
            for _ in range(20):
                w = ScaledArray.from_values(np.exp(rng.uniform(-3, 3, n)))
                u = fn.solve_inclusion(w, eps)
                res = inclusion_residual(fn, u, w, eps)
                assert np.max(res) <= 1e-10

    def test_monotone_stationarity_map(self):
        # u -> u*w - grad f*(-eps log u) must be nondecreasing: root unique
        rng = np.random.default_rng(11)
        fns = [QuadraticDistance(0.5, [0.7]), QuadraticDistance(2.0, [0.1], exponent=4.0),
               Congestion([1.2])]
        for fn in fns:
            for _ in range(10):
                w = float(np.exp(rng.uniform(-2, 2)))
                eps = float(rng.uniform(0.2, 2.0))
                us = np.geomspace(1e-6, 0.999 if isinstance(fn, Congestion) else 50.0, 400)
                s = -eps * np.log(us)
                lower, upper = fn.conjugate_subgradient(s)
                vals = us * w - 0.5 * (lower + upper)
                assert np.all(np.diff(vals) >= -1e-9 * np.maximum(1, np.abs(vals[:-1])))


def oracle_log_root(fn, log_w, epsilon):
    """log u solving one entry's stationarity, by doubling a bracket and bisecting."""
    def g(ell):
        with np.errstate(over="ignore"):
            grow = float(np.exp(ell + log_w))
        return grow - float(fn.conjugate_subgradient(np.array([-epsilon * ell]))[0][0])

    lo, hi = -1.0, 1.0
    while g(lo) > 0:
        lo *= 2.0
    while g(hi) < 0:
        hi *= 2.0
    return bisect_oracle(g, lo, hi)


def entry_residual(fn, ell, log_w, epsilon):
    """inclusion_residual of one entry given in log space (beyond one mantissa's range)."""
    u = ScaledArray(np.ones(1), ell)
    w = ScaledArray(np.ones(1), log_w) if np.isfinite(log_w) else ScaledArray(np.zeros(1))
    return float(inclusion_residual(fn, u, w, epsilon)[0])


class TestNewtonUpdate:
    """The Newton update against per-entry bisection across extreme inputs."""

    N = 24

    def _case(self, kind, rng):
        n = self.N
        if kind == "congestion":
            cap = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            return Congestion(cap), [Congestion(cap[i:i + 1]) for i in range(n)], cap
        weight = float(np.exp(rng.uniform(-2.0, 2.0)))
        third = n // 3
        anchor = np.concatenate([-np.exp(rng.uniform(-4, 1, third)), np.zeros(third),
                                 np.exp(rng.uniform(-4, 1, n - 2 * third))])
        rng.shuffle(anchor)
        return (QuadraticDistance(weight, anchor, kind),
                [QuadraticDistance(weight, anchor[i:i + 1], kind) for i in range(n)],
                np.abs(anchor))

    @pytest.mark.parametrize("eps", [1e-3, 1.0])
    @pytest.mark.parametrize("kind", [1.5, 2.0, 3.0, "congestion"])
    def test_residual_no_worse_than_bisection(self, kind, eps, monkeypatch):
        if kind in (2.0, "congestion"):
            # convex cases: monotone Newton needs only a few evaluations
            monkeypatch.setattr(functions, "_MAX_NEWTON_STEPS", 12)
        rng = np.random.default_rng(7 if kind == "congestion" else int(10 * kind))
        fn, singles, scale = self._case(kind, rng)
        log_w = rng.uniform(-700.0, 700.0, self.N)
        log_w[:6] = rng.uniform(-5.0, 5.0, 6)
        log_w[6:9] = -np.inf
        ell = fn._solve_log(log_w, eps)
        assert np.all(np.isfinite(ell))
        ulps = 4 * np.finfo(float).eps
        for i, single in enumerate(singles):
            ref = oracle_log_root(single, log_w[i], eps)
            got = entry_residual(single, ell[i], log_w[i], eps)
            # Newton stops within a few ulps of max(|l|, 1); the bisected root
            # moved that far bounds the residual it may leave, plus a few ulps
            # of the terms that cancel in the residual.
            step = ulps * max(abs(ref), 1.0)
            bound = max(entry_residual(single, ref + d, log_w[i], eps) for d in (-step, 0.0, step))
            p = math.exp(min(ell[i] + log_w[i], 700.0)) if np.isfinite(log_w[i]) else 0.0
            assert got <= bound + ulps * (scale[i] + p), (i, log_w[i], ell[i], ref, got, bound)

    def test_public_update_matches_oracle(self):
        rng = np.random.default_rng(5)
        w = np.exp(rng.uniform(-30.0, 30.0, 12))
        for fn in (QuadraticDistance(0.3, rng.uniform(-1, 1, 12)),
                   QuadraticDistance(0.3, rng.uniform(-1, 1, 12), exponent=3.0),
                   Congestion(np.exp(rng.uniform(-3, 3, 12)))):
            u = fn.solve_inclusion(ScaledArray.from_values(w), 0.05)
            log_u = u.log_value()
            for i in range(12):
                single = (Congestion(fn.capacity[i:i + 1]) if isinstance(fn, Congestion)
                          else QuadraticDistance(0.3, fn.anchor[i:i + 1], fn.exponent))
                ref = oracle_log_root(single, math.log(w[i]), 0.05)
                assert log_u[i] == pytest.approx(ref, rel=1e-13, abs=1e-13)

    # p = 2 solves in closed form, so p = 3 stands for the distance here.
    @pytest.mark.parametrize("fn", [QuadraticDistance(0.5, [0.3, 1.0], exponent=3.0),
                                    Congestion([0.4, 2.0])], ids=repr)
    def test_iteration_cap_raises_with_context(self, fn, monkeypatch):
        monkeypatch.setattr(functions, "_MAX_NEWTON_STEPS", 1)
        w = ScaledArray.from_values([2.0, 0.7])
        with pytest.raises(NumericalFailure) as err:
            fn.solve_inclusion(w, 0.1)
        msg = str(err.value)
        assert repr(fn) in msg
        assert "1 Newton steps" in msg and "log-weight range" in msg


def decimal_quadratic_root(log_w, y, c, start):
    """l solving ``exp(l + log_w) = y - c*l`` to 50 digits (``y / c`` where
    ``log_w`` is -inf).  The left side minus the right is convex and
    increasing, so Newton's method converges to the one root from any start;
    a start near it saves steps."""
    with localcontext() as ctx:
        ctx.prec = 50
        y = Decimal(y)
        if log_w == -math.inf:
            return y / c
        lw = Decimal(log_w)
        ell = Decimal(start)
        for _ in range(200):
            e = (ell + lw).exp()
            step = (e - y + c * ell) / (e + c)
            ell -= step
            if abs(step) <= Decimal("1e-40") * max(abs(ell), 1):
                return ell
    raise AssertionError("decimal Newton did not converge at log_w=%r, y=%r" % (log_w, y))


class TestQuadraticClosedForm:
    """p = 2 solves ``u*w = y - c*l`` through the Wright omega function."""

    @pytest.mark.parametrize("eps", [1e-3, 1.0])
    def test_matches_50_digit_roots(self, eps):
        rng = np.random.default_rng(31 if eps < 1 else 32)
        n = 48
        for weight in np.exp([-2.0, -0.5, 0.7, 2.0]):
            third = n // 3
            anchor = np.concatenate([-np.exp(rng.uniform(-4, 1, third)), np.zeros(third),
                                     np.exp(rng.uniform(-4, 1, n - 2 * third))])
            rng.shuffle(anchor)
            c = eps / (2.0 * weight)
            log_w = rng.uniform(-700.0, 700.0, n)
            log_w[:8] = rng.uniform(-5.0, 5.0, 8)
            log_w[8:11] = -np.inf
            # omega's argument log w - log c + y/c across its piecewise starts
            log_w[11:24] = rng.uniform(-4.0, 4.0, 13) + math.log(c) - anchor[11:24] / c
            ell = QuadraticDistance(weight, anchor)._solve_log(log_w, eps)
            c_dec = Decimal(eps) / (2 * Decimal(float(weight)))
            for i in range(n):
                ref = decimal_quadratic_root(float(log_w[i]), float(anchor[i]), c_dec,
                                             float(ell[i]))
                bound = 4 * np.finfo(float).eps * max(abs(float(ref)), 1.0)
                assert abs(float(Decimal(float(ell[i])) - ref)) <= bound, \
                    (weight, log_w[i], anchor[i], ell[i], ref)

    def test_never_iterates(self, monkeypatch):
        def no_newton(*args):
            raise AssertionError("Newton iteration called")

        monkeypatch.setattr(functions, "_newton_log", no_newton)
        rng = np.random.default_rng(33)
        anchor = rng.uniform(-1.0, 1.0, 10)
        w = ScaledArray.from_values(np.exp(rng.uniform(-20.0, 20.0, 10)))
        fn = QuadraticDistance(0.7, anchor)
        u = fn.solve_inclusion(w, 0.3)
        assert np.max(inclusion_residual(fn, u, w, 0.3)) <= 1e-10
        with pytest.raises(AssertionError, match="Newton"):
            QuadraticDistance(0.7, anchor, exponent=3.0).solve_inclusion(w, 0.3)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, 1.0, 0.5])
    def test_exponent_must_be_finite_and_exceed_one(self, exponent):
        with pytest.raises(InvalidInput, match="exponent"):
            QuadraticDistance(1.0, [0.0], exponent)


def decimal_congestion_root(log_w, b, eps, start):
    """l solving ``exp(l + log_w) = b - sqrt(b / (-eps*l))`` to 50 digits (0, the
    slack factor, where ``log_w`` is -inf).  On l < 0 the left side minus the
    right is convex and increasing, so Newton's method from a start near the
    root converges to it."""
    if log_w == -math.inf:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        lw, b, eps, ell = Decimal(log_w), Decimal(b), Decimal(eps), Decimal(start)
        for _ in range(200):
            e = (ell + lw).exp()
            r = (b / (-eps * ell)).sqrt()
            step = (e - b + r) / (e - r / (2 * ell))
            ell -= step
            if abs(step) <= Decimal("1e-40") * max(abs(ell), 1):
                return ell
    raise AssertionError("decimal Newton did not converge at log_w=%r, b=%r" % (log_w, b))


class TestWideRanges:
    """The p = 2 distance and congestion updates against 50-digit roots over
    ε in [1e-6, 1e3], log w in [-700, 700] with some -inf, capacities in
    [1e-8, 1e8], and distance weights and anchor magnitudes in [1e-6, 1e6]:
    every root within 4 ulps of max(|l|, 1) (README, numerical notes)."""

    BLOCKS, N = 48, 8

    def draws(self, rng):
        for k in range(self.BLOCKS):
            eps = math.exp(rng.uniform(math.log(1e-6), math.log(1e3)))
            log_w = rng.uniform(-700.0, 700.0, self.N) if k % 2 else rng.uniform(-40, 40, self.N)
            log_w[rng.uniform(size=self.N) < 0.1] = -np.inf
            yield eps, log_w

    @staticmethod
    def assert_within_4_ulps(ell, ref, context):
        bound = 4 * np.finfo(float).eps * max(abs(float(ref)), 1.0)
        assert abs(float(Decimal(float(ell)) - ref)) <= bound, (context, ell, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_quadratic(self, seed):
        rng = np.random.default_rng(40 + seed)
        for eps, log_w in self.draws(rng):
            weight = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            anchor = (np.exp(rng.uniform(math.log(1e-6), math.log(1e6), self.N))
                      * rng.choice([-1.0, 0.0, 1.0], self.N))
            ell = QuadraticDistance(weight, anchor)._solve_log(log_w, eps)
            c = Decimal(eps) / (2 * Decimal(weight))
            for i in range(self.N):
                ref = decimal_quadratic_root(float(log_w[i]), float(anchor[i]), c, float(ell[i]))
                self.assert_within_4_ulps(ell[i], ref, (eps, weight, anchor[i], log_w[i]))

    def test_quadratic_roots_near_zero_under_large_log_weights(self):
        # c = ε / (2 weight) up to 5e8 puts roots l in [-3, 3] at log w up
        # to about 21, where rounding log w + l alone can cost 8 ulps of 1.
        rng = np.random.default_rng(44)
        for _ in range(self.BLOCKS):
            weight = math.exp(rng.uniform(math.log(1e-6), math.log(1e-3)))
            eps = math.exp(rng.uniform(0.0, math.log(1e3)))
            c = eps / (2.0 * weight)
            anchor = rng.uniform(-1e6, 1e6, self.N)
            root = rng.uniform(-3.0, 3.0, self.N)
            log_w = np.log(np.maximum(anchor - c * root, 1e-300)) - root
            ell = QuadraticDistance(weight, anchor)._solve_log(log_w, eps)
            c_dec = Decimal(eps) / (2 * Decimal(weight))
            for i in range(self.N):
                ref = decimal_quadratic_root(float(log_w[i]), float(anchor[i]), c_dec,
                                             float(ell[i]))
                self.assert_within_4_ulps(ell[i], ref, (eps, weight, anchor[i], log_w[i]))

    @pytest.mark.parametrize("seed", range(4))
    def test_congestion(self, seed):
        rng = np.random.default_rng(50 + seed)
        for eps, log_w in self.draws(rng):
            cap = np.exp(rng.uniform(math.log(1e-8), math.log(1e8), self.N))
            ell = Congestion(cap)._solve_log(log_w, eps)
            for i in range(self.N):
                ref = decimal_congestion_root(float(log_w[i]), float(cap[i]), eps, float(ell[i]))
                self.assert_within_4_ulps(ell[i], ref, (eps, cap[i], log_w[i]))

    def test_congestion_block_that_once_stalled(self):
        # ROADMAP item 17's repro class: capacities from 2.5e-8 to 1e7 in one
        # block.  The safeguarded iteration of `_newton_log` left one entry of
        # this block unconverged after 100 steps.
        cap = np.array([2.5e-8, 1e7, 0.2276, 1.375e-4, 2.877e-7])
        log_w = np.array([16.88, 19.47, 17.68, 21.29, 17.29])
        ell = Congestion(cap)._solve_log(log_w, 0.27)
        for i in range(cap.size):
            ref = decimal_congestion_root(float(log_w[i]), float(cap[i]), 0.27, float(ell[i]))
            self.assert_within_4_ulps(ell[i], ref, (cap[i], log_w[i]))


class TestSubgradients:
    def test_box_cases(self):
        fn = Box(0.0, np.array([2.0]))
        lower, upper = fn.conjugate_subgradient([1.0])
        assert lower[0] == upper[0] == 2.0
        lower, upper = fn.conjugate_subgradient([0.0])
        assert (lower[0], upper[0]) == (0.0, 2.0)
        lower, upper = fn.conjugate_subgradient([-1.0])
        assert lower[0] == upper[0] == 0.0

    def test_quadratic_gradient(self):
        fn = QuadraticDistance(0.5, [0.3])
        lower, _ = fn.conjugate_subgradient([0.8])
        assert lower[0] == pytest.approx(0.3 + 0.8 / (2 * 0.5))

    def test_congestion_kink_matches_both_sides(self):
        fn = Congestion([2.0])
        kink = 1.0 / 2.0
        lower, upper = fn.conjugate_subgradient([kink])
        assert lower[0] == upper[0] == 0.0
        below, _ = fn.conjugate_subgradient([kink - 1e-12])
        above, _ = fn.conjugate_subgradient([kink + 1e-12])
        assert below[0] == 0.0
        assert above[0] == pytest.approx(0.0, abs=1e-5)

    def test_outside_domain_is_empty(self):
        lower, upper = Zero().conjugate_subgradient([2.0])
        assert lower[0] > upper[0]
        assert inclusion_residual(Zero(), ScaledArray.from_values([0.5]),
                                  ScaledArray.from_values([1.0]), 1.0)[0] == math.inf


class TestBlockwiseAndComposite:
    def test_blockwise_partition_checked(self):
        with pytest.raises(InvalidInput):
            Blockwise(4, [(np.array([0, 1]), Zero())])
        with pytest.raises(InvalidInput):
            Blockwise(3, [(np.array([0, 1]), Zero()), (np.array([1, 2]), Zero())])

    @pytest.mark.parametrize("size, idx", [
        (3, [0, 0, 1, 2]),
        (4, np.array([True, True, False, False])),
        (2, [0.7, 1.2]),
        (2, np.array([0.0, 1.0])),
        (2, ["0", "1"]),
    ], ids=["repeat_in_a_block", "boolean_mask", "floats", "integral_floats", "strings"])
    def test_blockwise_indices_must_be_distinct_integers(self, size, idx):
        with pytest.raises(InvalidInput, match="blockwise"):
            Blockwise(size, [(idx, Box(0.0, 1.0))])

    def test_blockwise_accepts_integer_arrays_and_skips_empty_blocks(self):
        fn = Blockwise(3, [(np.array([2, 0], dtype=np.uint8), Zero()), ([], Zero()),
                           (np.array([[1]], dtype=np.int32), Box(0.0, 1.0))])
        assert [idx.tolist() for idx, _ in fn.blocks] == [[2, 0], [1]]

    def test_blockwise_dispatch(self):
        fn = Blockwise(4, [(np.array([0, 1]), Equality([1.0, 2.0])),
                           (np.array([2, 3]), Box(0.0, np.array([0.5, 0.5])))])
        u = solve_u(fn, [1.0, 1.0, 4.0, 0.1], 1.0)
        np.testing.assert_allclose(u[:2], [1.0, 2.0], rtol=1e-14)
        assert u[2] == pytest.approx(0.125, rel=1e-14)
        assert u[3] == 1.0

    def test_stack_rows_layout(self):
        fn = stack_rows([Equality([1.0, 2.0]), None], 2)
        w = ScaledArray.from_values(np.ones((2, 2)))
        u = fn.solve_inclusion(w, 1.0)
        np.testing.assert_allclose(u.value(), [[1.0, 2.0], [1.0, 1.0]], rtol=1e-14)

    def test_composite_cyclic_solves_match_combined(self):
        # stacked equality+box (slack cap): cycling the two sub-updates to a
        # fixed point must reproduce the single combined update
        rng = np.random.default_rng(23)
        mu = rng.uniform(0.2, 1.0, 4)
        cap = mu + rng.uniform(0.1, 0.5, 4)
        w = ScaledArray.from_values(np.exp(rng.uniform(-1, 1, 4)))
        eq, box = Equality(mu), Box(0.0, cap)
        u_eq = ScaledArray.from_values(np.ones(4))
        u_box = ScaledArray.from_values(np.ones(4))
        from gtop.model import smul
        for _ in range(60):
            u_eq = eq.solve_inclusion(smul(w, u_box), 1.0)
            u_box = box.solve_inclusion(smul(w, u_eq), 1.0)
        combined = eq.solve_inclusion(w, 1.0)  # cap slack: equality rules
        got = smul(u_eq, u_box)
        np.testing.assert_allclose(got.value(), combined.value(), rtol=1e-10)
        # both sub-inclusions hold at the fixed point
        assert np.max(inclusion_residual(eq, u_eq, smul(w, u_box), 1.0)) <= 1e-10
        assert np.max(inclusion_residual(box, u_box, smul(w, u_eq), 1.0)) <= 1e-10

    def test_composite_requires_parts(self):
        with pytest.raises(InvalidInput):
            CompositeFunction([])

    def test_nested_composite_stacks_its_parts(self):
        eq, box, zero = Equality([1.0, 2.0]), Box(0.0, 3.0), Zero()
        fn = CompositeFunction([CompositeFunction([eq, zero]), box])
        assert fn.parts == [eq, zero, box]

    def test_blockwise_rejects_a_composite_block(self):
        with pytest.raises(InvalidInput, match="blockwise block 1 is a composite"):
            Blockwise(3, [([0], Zero()), ([1, 2], CompositeFunction([Zero()]))])

    def test_scaling(self):
        assert Linear([2.0]).scaled(0.5).cost[0] == 1.0
        assert QuadraticDistance(1.0, [0.0]).scaled(0.25).weight == 0.25
        with pytest.raises(InvalidInput):
            Congestion([1.0]).scaled(0.5)


class TestWeightMark:
    """``ignores_weight`` marks the entries whose update is the same for any weight."""

    @pytest.mark.parametrize("fn", [
        Zero(),
        Linear([0.3, -1.0, 2.0]),
        Box(0.0, [0.0, np.inf, np.inf]),
        Box(0.0, np.inf),
        Box([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        Blockwise(3, [([0], Box(0.0, [0.0])), ([1], Zero()), ([2], Linear([1.5]))]),
    ], ids=repr)
    def test_marked_entries_give_the_same_bits_for_any_weight(self, fn):
        assert fn.ignores_weight
        rng = np.random.default_rng(61)
        first = fn.solve_inclusion(ScaledArray.from_values(np.ones(3)), 0.7)
        for _ in range(20):
            w = np.exp(rng.uniform(-30.0, 30.0, 3))
            w[rng.uniform(size=3) < 0.3] = 0.0
            u = fn.solve_inclusion(ScaledArray.from_values(w), 0.7)
            assert u.m.tobytes() == first.m.tobytes() and u.log_scale == first.log_scale

    @pytest.mark.parametrize("fn", [
        Box(0.0, [1.0, np.inf, 0.0]),
        Box([0.5, 0.0, 0.0], [np.inf, np.inf, 0.0]),
        Box(0.0, 2.0),
        Equality([0.2, 0.3, 0.5]),
        QuadraticDistance(1.0, [0.2, 0.3, 0.5]),
        QuadraticDistance(1.0, [0.2, 0.3, 0.5], exponent=3.0),
        Congestion([1.0, 2.0, 3.0]),
        Blockwise(3, [([0, 1], Box(0.0, [0.0, np.inf])), ([2], Equality([1.0]))]),
    ], ids=repr)
    def test_unmarked_entries(self, fn):
        assert not fn.ignores_weight

    def test_stack_rows_of_marked_rows_is_marked(self):
        assert stack_rows([Box(0.0, [0.0, np.inf]), None, Linear([1.0, 2.0])], 2).ignores_weight
        assert not stack_rows([None, QuadraticDistance(1.0, [0.1, 0.2])], 2).ignores_weight

    def test_mark_is_not_computed_at_construction(self):
        box = Box(0.0, [0.0, np.inf])
        fn = Blockwise(2, [([0, 1], box)])
        assert "ignores_weight" not in vars(box) and "ignores_weight" not in vars(fn)
        assert fn.ignores_weight and vars(box)["ignores_weight"] is True

    def test_blockwise_solves_each_block_on_its_entries(self):
        # A mixed blockwise cost keeps no state: each update solves every
        # block, marked or not, against the weight on its entries.
        rng = np.random.default_rng(62)
        blocks = [([0, 1], Box(0.0, [0.0, np.inf])), ([2, 3], Linear([0.4, 1.0])),
                  ([4, 5], Equality([0.3, 0.6])), ([6, 7], QuadraticDistance(1.0, [0.2, 0.1])),
                  ([8], Zero())]
        fn = Blockwise(9, blocks)
        for eps in (0.7, 0.7, 0.3, 0.7):
            log_w = rng.uniform(-3.0, 3.0, 9)
            expected = np.empty(9)
            for idx, part in blocks:
                expected[idx] = part._solve_log(log_w[idx], eps)
            got = fn._solve_log(log_w, eps)
            assert got.tobytes() == expected.tobytes()

    def test_restricted_blockwise_keeps_the_factor_one_elsewhere(self):
        # The spec splits a mixed blockwise cost: its marked blocks give a
        # constant, the others remain to update; off its blocks, a restricted
        # cost gives the factor 1, adds 0 to the conjugate, allows any
        # multiplier and bounds no entry.
        marked = [([0, 1], Box(0.0, [0.0, np.inf])), ([4], Linear([0.4]))]
        weighted = [([2, 3], Equality([0.3, 0.6])), ([5, 6], QuadraticDistance(1.0, [0.2, 0.1]))]
        fn = Blockwise(7, marked + weighted)
        rest = fn.restricted(lambda part: not part.ignores_weight)
        fixed = fn.restricted(lambda part: part.ignores_weight)
        assert fixed.ignores_weight and not rest.ignores_weight and rest.hard
        assert [idx.tolist() for idx, _ in rest.blocks] == [[2, 3], [5, 6]]
        np.testing.assert_array_equal(fixed.fixed_factor((7,), 0.5).log_value(),
                                      [-np.inf, 0.0, 0.0, 0.0, -0.8, 0.0, 0.0])
        log_w = np.log([0.5, 2.0, 0.7, 1.3, 3.0, 0.4, 0.9])
        out = rest._solve_log(log_w, 0.5)
        assert same_bits(out[[0, 1, 4]], np.zeros(3))
        assert same_bits(out, np.where(np.isin(np.arange(7), [0, 1, 4]), 0.0,
                                       fn._solve_log(log_w, 0.5)))
        s = np.array([0.0, 0.0, 0.1, -0.2, 0.0, 0.3, 0.1])
        assert rest.conjugate(s) == (Equality([0.3, 0.6]).conjugate(s[2:4])
                                     + QuadraticDistance(1.0, [0.2, 0.1]).conjugate(s[5:]))
        lower, upper = rest.conjugate_subgradient(s)
        assert np.all(lower[[0, 1, 4]] == -np.inf) and np.all(upper[[0, 1, 4]] == np.inf)
        lo, hi = rest.entry_bounds(7)
        assert lo.tolist() == [0.0, 0.0, 0.3, 0.6, 0.0, 0.0, 0.0]
        assert hi.tolist() == [np.inf, np.inf, 0.3, 0.6, np.inf, np.inf, np.inf]

    @pytest.mark.parametrize("size", [2.9, 2.0, True, "2", np.float64(2.0)], ids=repr)
    def test_blockwise_size_must_be_an_integer(self, size):
        with pytest.raises(InvalidInput, match="blockwise size must be an integer"):
            Blockwise(size, [([0, 1], Zero())])

    @pytest.mark.parametrize("size", [np.int64(2), np.uint8(2), 2], ids=repr)
    def test_blockwise_size_may_be_a_numpy_integer(self, size):
        fn = Blockwise(size, [([0, 1], Zero())])
        assert fn.size == 2 and type(fn.size) is int


class TestSizesCheckedAtConstruction:
    def test_box_lower_bound_must_be_finite(self):
        with pytest.raises(InvalidInput, match="^box lower bounds must be finite$"):
            Box(np.array([0.0, math.inf]), math.inf)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_distance_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(InvalidInput, match="^distance weight must be positive and finite$"):
            QuadraticDistance(weight, [0.5, 0.5])

    def test_blockwise_checks_each_block_against_its_indices(self):
        with pytest.raises(InvalidInput, match="blockwise block 0"):
            Blockwise(4, [([0, 1], Box(0.0, [1.0, 2.0, 3.0])), ([2, 3], Zero())])
        with pytest.raises(InvalidInput):
            Blockwise(4, [([0, 1], Zero()), ([2, 3], Linear([1.0]))])
        Blockwise(4, [([0, 1], Box(0.0, 1.0)), ([2, 3], Congestion(2.0))])

    @pytest.mark.parametrize("fn", [Box(0.0, []), Congestion([]), Box(0.0, [1.0]),
                                    Congestion([[1.0]])], ids=repr)
    def test_only_a_scalar_parameter_fits_any_size(self, fn):
        with pytest.raises(InvalidInput):
            fn.validate_size(3)
        Box(0.0, 1.0).validate_size(3)
        Congestion(1.0).validate_size(3)

    @pytest.mark.parametrize("lower", [[], [1.0, 2.0]])
    def test_box_bounds_that_do_not_broadcast(self, lower):
        with pytest.raises(InvalidInput, match="do not broadcast"):
            Box(lower, [1.0, 2.0, 3.0])
        Box([0.5], [1.0, 2.0, 3.0]).validate_size(3)

    def test_empty_box_and_congestion_fail_the_problem_spec(self):
        from gtop import GraphTopology, ProblemSpec, build_kernel
        kernels = {(0, 1): build_kernel(np.zeros((2, 2)), 1.0)}
        for fn in (Box(0.0, []), Congestion([])):
            with pytest.raises(InvalidInput):
                ProblemSpec(GraphTopology.chain(2), kernels, {0: fn}, {}, 1.0)


def general_box_conjugate(box, s):
    """The box conjugate by its general formula, with the bound masks
    computed on each call."""
    s = np.asarray(s, dtype=float).ravel()
    lo, hi = box.lower.ravel(), box.upper.ravel()
    with np.errstate(invalid="ignore"):
        up = np.where(hi == 0.0, 0.0, s * hi)
        dn = np.where(lo == 0.0, 0.0, s * lo)
    terms = np.where(s > box._atol, up, np.where(s < -box._atol, dn, 0.0))
    return float(np.sum(terms))


def random_catalog_entry(rng, n):
    """A random catalog entry on n entries, with scalar or vector box bounds."""
    kind = rng.integers(9)
    if kind == 0:
        return Box(0.0, np.where(rng.uniform(size=n) < 0.5, np.inf, 0.0))
    if kind == 1:
        return Box(0.0, np.inf if rng.uniform() < 0.5 else 0.0)
    if kind == 2:
        lower = rng.uniform(0.0, 0.2, n) * (rng.uniform(size=n) < 0.5)
        upper = lower + np.where(rng.uniform(size=n) < 0.3, np.inf, rng.uniform(0.0, 1.0, n))
        return Box(lower, upper)
    if kind == 3:
        return Box(rng.uniform(0.0, 0.1), rng.uniform(0.2, 1.0))
    if kind == 4:
        return Equality(rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8))
    if kind == 5:
        return Linear(rng.normal(size=n))
    if kind == 6:
        return QuadraticDistance(rng.uniform(0.1, 2.0), rng.normal(size=n),
                                 exponent=2.0 if rng.uniform() < 0.7 else 3.0)
    if kind == 7:
        return Congestion(rng.uniform(0.5, 2.0, n))
    return Zero()


def random_blockwise(rng, contiguous):
    """Blockwise over a random partition of 1..40 entries, in consecutive
    runs or in shuffled, possibly reversed index blocks."""
    size = int(rng.integers(1, 41))
    order = np.arange(size) if contiguous else rng.permutation(size)
    cuts = np.sort(rng.choice(np.arange(1, size), size=min(size - 1, int(rng.integers(0, 5))),
                              replace=False)) if size > 1 else []
    blocks = [(idx if contiguous or rng.uniform() < 0.7 else idx[::-1],
               random_catalog_entry(rng, idx.size)) for idx in np.split(order, cuts)]
    return Blockwise(size, blocks)


def same_bits(a, b):
    if isinstance(a, tuple):
        return all(same_bits(x, y) for x, y in zip(a, b))
    if a is None or b is None:
        return a is b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBlockwiseViews:
    """Slice views and the fast conjugate and update paths give the bits of
    the index-array formulas."""

    @staticmethod
    def by_index(fn, s, log_w, p, eps):
        """Conjugate, update, residual and subgradient of ``fn`` with every
        block read and written through its index array."""
        total = 0.0
        for idx, part in fn.blocks:
            c = part.conjugate(s[idx])
            total = math.inf if c == math.inf or total == math.inf else total + c
        out, lower, upper = np.empty(fn.size), np.empty(fn.size), np.empty(fn.size)
        residuals = []
        for idx, part in fn.blocks:
            out[idx] = part._solve_log(log_w[idx], eps)
            lower[idx], upper[idx] = part.conjugate_subgradient(s[idx])
            residuals.append(part.feasibility_residual(p[idx]))
        found = [r for r in residuals if r is not None]
        return total, out, max(found) if found else None, (lower, upper)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_random_blockwise_matches_index_arrays_bit_for_bit(self, contiguous):
        rng = np.random.default_rng(181 + contiguous)
        for _ in range(300):
            fn = random_blockwise(rng, contiguous)
            if contiguous:
                assert all(isinstance(sel, slice) for sel, _ in fn._views)
            n = fn.size
            s = rng.normal(0.0, 1.0, n) * np.where(rng.uniform(size=n) < 0.3, 1e-12, 1.0)
            log_w = rng.uniform(-5.0, 5.0, n)
            log_w[rng.uniform(size=n) < 0.1] = -np.inf
            p = rng.uniform(0.0, 1.0, n)
            eps = float(rng.uniform(0.1, 1.0))
            try:
                expected = self.by_index(fn, s, log_w, p, eps)
            except Infeasible:
                with pytest.raises(Infeasible):
                    fn._solve_log(log_w, eps)
                continue
            got = (fn.conjugate(s), fn._solve_log(log_w, eps), fn.feasibility_residual(p),
                   fn.conjugate_subgradient(s))
            assert same_bits(got, expected)

    def test_stack_rows_reads_slices(self):
        fn = stack_rows([Box(0.0, [0.0, np.inf]), None, Linear([1.0, 2.0])], 2)
        assert [sel for sel, _ in fn._views] == [slice(0, 2), slice(2, 4), slice(4, 6)]
        np.testing.assert_array_equal(fn.blocks[2][0], [4, 5])

    @pytest.mark.parametrize("upper", [np.inf, 0.0, [np.inf, 0.0, np.inf, 0.0, np.inf, np.inf]],
                             ids=repr)
    def test_indicator_conjugate_matches_the_general_formula(self, upper):
        box = Box(0.0, upper)
        assert box.ignores_weight
        atol = box._atol
        values = [-np.inf, np.inf, np.nan, atol, -atol, np.nextafter(atol, 1.0),
                  np.nextafter(-atol, -1.0), np.nextafter(atol, 0.0), 0.0, -0.0, 2.0, -3.0]
        rng = np.random.default_rng(183)
        for _ in range(500):
            s = rng.choice(values, size=6)
            assert repr(box.conjugate(s)) == repr(general_box_conjugate(box, s))
        if np.ndim(upper) == 0:
            assert box.conjugate(np.zeros(0)) == general_box_conjugate(box, np.zeros(0)) == 0.0

    @pytest.mark.parametrize("box", [Box(0.0, [1.0, np.inf, 0.0, 2.0, np.inf, 0.5]),
                                     Box([0.5, 0.0, 0.0, 0.1, 0.2, 0.0], np.inf),
                                     Box(0.2, 0.7)], ids=repr)
    def test_general_box_conjugate_keeps_its_bits(self, box):
        assert not box.ignores_weight
        rng = np.random.default_rng(184)
        values = [-np.inf, np.inf, box._atol, -box._atol, 0.0, 2.0, -3.0, 0.25]
        for _ in range(500):
            s = rng.choice(values, size=6)
            with np.errstate(invalid="ignore"):  # +inf and -inf terms sum to NaN
                assert repr(box.conjugate(s)) == repr(general_box_conjugate(box, s))

    def test_quadratic_update_without_zero_weights_keeps_its_bits(self):
        # The update where no weight is 0 equals the gathered update of the
        # same entries next to a zero weight.
        rng = np.random.default_rng(185)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            anchor = rng.normal(0.0, 1.0, n)
            log_w = rng.uniform(-40.0, 40.0, n)
            weight, eps = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.01, 1.0))
            alone = QuadraticDistance(weight, anchor)._solve_log(log_w, eps)
            padded = QuadraticDistance(weight, np.append(anchor, 0.5))._solve_log(
                np.append(log_w, -np.inf), eps)
            assert alone.tobytes() == padded[:n].tobytes()

    def test_blockwise_hard_only_through_weighted_blocks(self):
        indicator = Box(0.0, [0.0, np.inf])
        assert not stack_rows([indicator, None, Linear([1.0, 2.0]),
                               QuadraticDistance(0.1, [0.2, 0.3])], 2).hard
        assert stack_rows([indicator, Box(0.0, [0.1, np.inf])], 2).hard
        assert stack_rows([indicator, Equality([0.1, 0.2])], 2).hard
        assert indicator.hard


class TestMassBounds:
    """Bounds each catalog entry puts on the total of its marginal: its entry
    bounds, summed."""

    @pytest.mark.parametrize("fn, bounds", [
        (Equality([0.2, 0.3]), (0.5, 0.5)),
        (Box([0.1, 0.2], [1.0, 2.0]), (pytest.approx(0.3), 3.0)),
        (Box(0.1, 0.5), (pytest.approx(0.2), 1.0)),
        (Box(0.0, [1.0, np.inf]), (0.0, np.inf)),
        (Congestion([1.0, 2.0]), (0.0, 3.0)),
        (Congestion(1.5), (0.0, 3.0)),
        (Linear([1.0, -2.0]), (0.0, np.inf)),
        (QuadraticDistance(1.0, [0.1, 0.2]), (0.0, np.inf)),
        (Zero(), (0.0, np.inf)),
        (Blockwise(2, [([0], Equality([0.4])), ([1], Box(0.1, 0.3))]), (0.5, 0.7)),
        (Blockwise(2, [([0], Equality([0.4])), ([1], Linear([1.0]))]), (0.4, np.inf)),
    ], ids=repr)
    def test_mass_bounds(self, fn, bounds):
        lo, hi = fn.entry_bounds(2)
        assert (float(np.sum(lo)), float(np.sum(hi))) == bounds

    @pytest.mark.parametrize("fn, lo, hi", [
        (Equality([0.2, 0.3]), [0.2, 0.3], [0.2, 0.3]),
        (Box(0.1, 0.5), [0.1, 0.1], [0.5, 0.5]),
        (Box(0.0, [1.0, np.inf]), [0.0, 0.0], [1.0, np.inf]),
        (Congestion(1.5), [0.0, 0.0], [1.5, 1.5]),
        (Linear([1.0, -2.0]), [0.0, 0.0], [np.inf, np.inf]),
        (Blockwise(2, [([1], Equality([0.4])), ([0], Box(0.1, 0.3))]), [0.1, 0.4], [0.3, 0.4]),
        (Blockwise(2, [([0, 1], Congestion([1.0, 2.0]))]), [0.0, 0.0], [1.0, 2.0]),
    ], ids=repr)
    def test_entry_bounds(self, fn, lo, hi):
        bounds = fn.entry_bounds(2)
        assert [b.shape for b in bounds] == [(2,), (2,)]
        assert [b.tolist() for b in bounds] == [lo, hi]


class TestLogFactorBounds:
    """``log_factor_bounds`` holds every factor an update returns for a positive weight."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_updates_stay_within_the_bounds(self, seed):
        rng = np.random.default_rng(seed)
        fn = random_blockwise(rng, contiguous=bool(seed % 2))
        eps = rng.uniform(0.05, 1.0)
        lo, hi = fn.log_factor_bounds(eps)
        for _ in range(5):
            w = np.exp(rng.uniform(-8.0, 8.0, fn.size))
            log_u = fn.solve_inclusion(ScaledArray.from_values(w), eps).log_value()
            # log_value() reads back an exact 0 to within a few ulps
            assert np.all(lo - 1e-15 <= log_u) and np.all(log_u <= hi + 1e-15)

    def test_box_congestion_and_unbounded_entries(self):
        lo, hi = Box([0.0, 0.0, 0.2, 0.2], [1.0, np.inf, 1.0, np.inf]).log_factor_bounds(0.5)
        np.testing.assert_array_equal(lo, [-np.inf, 0.0, -np.inf, 0.0])
        np.testing.assert_array_equal(hi, [0.0, 0.0, np.inf, np.inf])
        lo, hi = Congestion([1.0, 4.0]).log_factor_bounds(0.5)
        assert lo == -math.inf
        np.testing.assert_array_equal(hi, [-2.0, -0.5])
        for fn in (Equality([0.5]), QuadraticDistance(1.0, [0.1]), Linear([1.0]), Zero()):
            assert fn.log_factor_bounds(0.5) == (-math.inf, math.inf)


class TestOneUpdatePerKind:
    """An equality is the box [t, t] and a zero cost the linear cost c = 0:
    each takes the other's update, subgradient and bounds, bit for bit."""

    @staticmethod
    def weights(rng, n):
        w = np.exp(rng.uniform(-30.0, 30.0, n))
        w[rng.uniform(size=n) < 0.3] = 0.0
        return w

    @pytest.mark.parametrize("seed", range(12))
    def test_equality_is_the_box_of_its_target(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        t = rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) < 0.6)
        w = self.weights(rng, n)
        w[(t > 0) & (w == 0.0)] = 1.0  # no starved entry
        eq, box = Equality(t), Box(t, t)
        eps = rng.uniform(0.05, 2.0)
        u_eq = eq.solve_inclusion(w, eps)
        u_box = box.solve_inclusion(w, eps)
        assert same_bits(u_eq.m, u_box.m) and same_bits(u_eq.log_scale, u_box.log_scale)
        s = rng.normal(size=n) * np.where(rng.uniform(size=n) < 0.3, 1e-12, 1.0)
        assert same_bits(eq.conjugate_subgradient(s), box.conjugate_subgradient(s))
        assert same_bits(eq.entry_bounds(n), box.entry_bounds(n))
        lo, hi = eq.log_factor_bounds(eps)
        assert same_bits((lo, hi), box.log_factor_bounds(eps))
        log_u = u_eq.log_value().ravel()
        assert same_bits(np.clip(log_u, lo, hi), log_u)

    def test_equality_and_box_raise_alike_where_no_mass_can_arrive(self):
        t = np.array([0.0, 0.5, 0.2])
        w = np.array([1.0, 0.0, 2.0])
        for fn in (Equality(t), Box(t, t)):
            with pytest.raises(Infeasible, match=r"needs mass at entries \[1\] where no plan"):
                fn.solve_inclusion(w, 1.0)
        with pytest.raises(Infeasible, match=r"^Equality\(mass=0\.7\) needs mass"):
            Equality(t).solve_inclusion(w, 1.0)

    def test_a_scalar_equality_is_still_one_entry(self):
        with pytest.raises(InvalidInput, match="expects 1 entries, marginal has 3"):
            Equality(0.5).validate_size(3)
        Box(0.5, 0.5).validate_size(3)

    def test_an_all_zero_equality_reads_its_weight(self):
        assert not Equality(np.zeros(3)).ignores_weight
        assert Box(np.zeros(3), np.zeros(3)).ignores_weight

    @pytest.mark.parametrize("s", [0.0, 1e-9, -1e-9, 1e-7, -1e-7, math.nan])
    def test_zero_is_the_linear_cost_of_zero(self, s):
        zero, lin = Zero(), Linear(0.0)
        v = np.array([s, 0.0, s])
        assert same_bits(zero.conjugate(v), lin.conjugate(v))
        assert same_bits(zero.conjugate_subgradient(v), lin.conjugate_subgradient(v))
        log_w = np.log(np.array([1e-300, 1.0, 1e300]))
        assert same_bits(zero._solve_log(log_w, 0.5), lin._solve_log(log_w, 0.5))
        assert zero.conjugate(v) == (0.0 if abs(s) <= 1e-8 else math.inf)
        assert np.all(zero._solve_log(log_w, 0.5) == 0.0)

    def test_zero_stays_shape_agnostic_and_unscaled(self):
        zero = Zero()
        zero.validate_size(7)
        assert zero.scaled(3.0) is zero and repr(zero) == "Zero()"
        with pytest.raises(InvalidInput):
            Linear(0.0).validate_size(7)

    @pytest.mark.parametrize("seed", range(6))
    def test_p2_update_is_the_closed_form_entry_by_entry(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        fn = QuadraticDistance(rng.uniform(0.1, 5.0), rng.uniform(-1.0, 2.0, n))
        eps = rng.uniform(0.01, 1.0)
        log_w = rng.uniform(-40.0, 40.0, n)
        full = fn._solve_log(log_w, eps)
        assert same_bits(full, functions._quadratic_log(fn.anchor, log_w, 2.0 * fn.weight, eps))
        zero = rng.uniform(size=n) < 0.4
        part = fn._solve_log(np.where(zero, -np.inf, log_w), eps)
        assert same_bits(part[~zero], full[~zero])
        # where w = 0 the root is where the right side vanishes: l = y / c
        assert same_bits(part[zero], 2.0 * fn.weight * fn.anchor[zero] / eps)
