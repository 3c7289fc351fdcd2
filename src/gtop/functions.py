"""Separable convex costs on marginals: conjugates, subgradients, updates.

Each catalog entry knows three things about itself: the value of its Fenchel
conjugate, the (interval-valued) derivative of that conjugate, and how to
solve the scalar stationarity condition

    0 in -u * w + d(conjugate)(-epsilon * log u)

entrywise for ``u >= 0`` given a nonnegative weight vector ``w``.  All solves
run in log space so extreme weight magnitudes cost nothing in accuracy.

Equality, box, linear and zero costs solve in closed form.  The distance and
congestion updates solve ``exp(l + log w) = phi(l)`` in ``l = log u`` by a
safeguarded Newton iteration: it starts at a closed-form point right of the
root, keeps a closed-form bracket, and stops once no entry moves by more
than a few ulps of ``max(|l|, 1)``.  For the quadratic distance and for
congestion the iteration descends monotonically and needs a handful of
evaluations; other distance exponents fall back to bisection inside the
bracket whenever a Newton step would leave it.
"""

import math

import numpy as np

from .errors import Infeasible, InvalidInput, NumericalFailure
from .model import ScaledArray

_MAX_NEWTON_STEPS = 100
# Newton stops once no entry moves by more than a few ulps of max(|l|, 1).
_ULPS = 4.0 * np.finfo(float).eps


class SubgradientBand:
    """Entrywise interval ``[lower, upper]``; lower > upper encodes the empty set."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)

    @property
    def empty(self):
        return self.lower > self.upper

    def distance(self, p):
        """Distance from ``p`` to the interval, entrywise (inf where empty)."""
        p = np.asarray(p, dtype=float)
        return np.maximum(np.maximum(self.lower - p, p - self.upper), 0.0)


def _log_u_to_scaled(log_u, shape):
    finite = np.isfinite(log_u)
    if not finite.any():
        return ScaledArray(np.zeros(shape), 0.0)
    peak = float(np.max(log_u[finite]))
    m = np.exp(log_u - peak)
    m[~finite] = 0.0
    return ScaledArray(m.reshape(shape), peak)


def _newton_log(phi, log_w, lo, hi, fn):
    """Root in ``[lo, hi]`` of ``g(l) = exp(l + log_w) - phi(l)``, entrywise.

    ``phi(l)`` returns the decreasing right-hand side and its derivative, so
    ``g`` increases; the caller guarantees ``g(lo) <= 0 <= g(hi)``.  The
    iteration starts at ``hi`` and takes the smaller of two Newton iterates:
    one on ``g`` and one on ``h(l) = l + log_w - log phi(l)``, which stays
    almost linear where the exponential dominates.  Where ``g`` is convex
    (both forms are then convex), every iterate stays right of the root and
    the descent is monotone.  Otherwise a step that leaves the bracket, or
    starts from an infinite derivative, is replaced by bisection.  The
    bracket shrinks with every evaluation of ``g``.
    """
    x = hi
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NEWTON_STEPS):
            f, df = phi(x)
            t = x + log_w
            e = np.exp(t)
            g = e - f
            lo = np.where(g < 0, x, lo)
            hi = np.where(g > 0, x, hi)
            step = np.fmax(g / (e - df), (t - np.log(f)) * f / (f - df))
            new = x - step
            new = np.where((new >= lo) & (new <= hi) & (df > -np.inf), new, 0.5 * (lo + hi))
            done = np.abs(new - x) <= _ULPS * np.maximum(np.abs(x), 1.0)
            x = new
            if done.all():
                return x
    raise NumericalFailure("%r: the update did not converge in %d Newton steps at %d of %d "
                           "entries; log-weight range [%g, %g]"
                           % (fn, _MAX_NEWTON_STEPS, int(np.count_nonzero(~done)), x.size,
                              float(np.min(log_w)), float(np.max(log_w))))


class MarginalFunction:
    """Base class; instances are immutable and shape-agnostic (flattened math)."""

    is_zero = False
    # Hard constraints report a feasibility residual; soft costs never do.
    hard = False

    def conjugate(self, s):
        raise NotImplementedError

    def conjugate_subgradient(self, s):
        raise NotImplementedError

    def solve_inclusion(self, w, epsilon):
        """Coordinate update: the ``u`` solving the stationarity inclusion."""
        if not isinstance(w, ScaledArray):
            w = ScaledArray.from_values(w)
        if not np.all(np.isfinite(w.m)) or np.any(w.m < 0):
            raise InvalidInput("projection weights must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            log_w = w.log_value().ravel()
        log_u = self._solve_log(log_w, float(epsilon))
        return _log_u_to_scaled(log_u, w.m.shape)

    def _solve_log(self, log_w, epsilon):
        raise NotImplementedError

    def feasibility_residual(self, p):
        """Normalized violation of the hard constraint, or None if soft."""
        return None

    def scaled(self, factor):
        """The function multiplied by a positive scalar."""
        raise NotImplementedError

    def validate_size(self, n, where=""):
        expect = self._expected_size()
        if expect is not None and expect != n:
            raise InvalidInput("%s: function expects %d entries, marginal has %d"
                               % (where or "function", expect, n))

    def _expected_size(self):
        return None


def inclusion_residual(fn, u, w, epsilon):
    """Entrywise distance of ``u * w`` from the conjugate subdifferential."""
    p = (u.m * w.m).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero entry stays zero even where the scale overflows (0 * inf)
        p = np.where(p == 0.0, 0.0, p * np.exp(u.log_scale + w.log_scale))
    with np.errstate(divide="ignore"):
        s = -epsilon * u.log_value().ravel()
    return fn.conjugate_subgradient(s).distance(p)


class Zero(MarginalFunction):
    """The identically zero cost; pins its multiplier at zero.

    Membership of the conjugate domain is tested with a small absolute
    tolerance because multipliers recovered from mantissa storage carry
    roundoff of order 1e-16 per rescaling.
    """

    is_zero = True
    _atol = 1e-8

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        return 0.0 if np.all(np.abs(s) <= self._atol) else math.inf

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        at_zero = np.abs(s) <= self._atol
        return SubgradientBand(np.where(at_zero, -np.inf, np.inf),
                               np.where(at_zero, np.inf, -np.inf))

    def _solve_log(self, log_w, epsilon):
        return np.zeros_like(log_w)

    def scaled(self, factor):
        return self

    def __repr__(self):
        return "Zero()"


class Equality(MarginalFunction):
    """Hard equality with a fixed nonnegative target."""

    hard = True

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        if not np.all(np.isfinite(self.target)) or np.any(self.target < 0):
            raise InvalidInput("equality target must be finite and nonnegative")

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        t = self.target.ravel()
        with np.errstate(invalid="ignore"):
            terms = np.where(t == 0.0, 0.0, s * t)
        return float(np.sum(terms))

    def conjugate_subgradient(self, s):
        t = np.broadcast_to(self.target.ravel(), np.asarray(s).ravel().shape)
        return SubgradientBand(t, t)

    def _solve_log(self, log_w, epsilon):
        t = self.target.ravel()
        out = np.full(log_w.shape, -np.inf)
        pos = t > 0
        starved = pos & np.isneginf(log_w)
        if starved.any():
            raise Infeasible("equality target is positive at entries %s where no plan "
                             "mass can arrive" % (np.flatnonzero(starved)[:8].tolist(),))
        out[pos] = np.log(t[pos]) - log_w[pos]
        return out

    def feasibility_residual(self, p):
        t = self.target.ravel()
        return float(np.abs(p.ravel() - t).sum() / max(np.abs(t).sum(), 1.0))

    def scaled(self, factor):
        return self

    def _expected_size(self):
        return self.target.size

    def __repr__(self):
        return "Equality(mass=%.6g)" % float(self.target.sum())


class Box(MarginalFunction):
    """Elementwise bounds ``lower <= x <= upper`` (upper may be infinite)."""

    hard = True

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        lower, upper = np.broadcast_arrays(lower, upper)
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if np.any(self.lower < 0) or np.any(np.isnan(self.lower)):
            raise InvalidInput("box lower bounds must be nonnegative")
        if np.any(self.upper < self.lower) or np.any(np.isnan(self.upper)):
            raise InvalidInput("box bounds must satisfy lower <= upper")
        if np.any(np.isinf(self.lower)):
            raise InvalidInput("box lower bounds must be finite")
        # Logs of the bounds, fixed for every update: -inf at 0, +inf at inf.
        with np.errstate(divide="ignore"):
            self._log_lower = np.log(self.lower).ravel()
            self._log_upper = np.log(self.upper).ravel()

    # Multipliers recovered from mantissa storage wobble by ~1e-16 around
    # exact zero; the kink at s = 0 is resolved with a small tolerance.
    _atol = 1e-9

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        lo = self.lower.ravel()
        hi = self.upper.ravel()
        pos = s > self._atol
        neg = s < -self._atol
        with np.errstate(invalid="ignore"):
            up = np.where(hi == 0.0, 0.0, s * hi)
            dn = np.where(lo == 0.0, 0.0, s * lo)
        terms = np.where(pos, up, np.where(neg, dn, 0.0))
        return float(np.sum(terms))

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        lo = np.broadcast_to(self.lower.ravel(), s.shape)
        hi = np.broadcast_to(self.upper.ravel(), s.shape)
        pos = s > self._atol
        neg = s < -self._atol
        lower = np.where(pos, hi, lo)
        upper = np.where(neg, lo, hi)
        return SubgradientBand(lower, upper)

    def _solve_log(self, log_w, epsilon):
        lo = self.lower.ravel()
        hi = self.upper.ravel()
        w_zero = np.isneginf(log_w)
        starved = w_zero & (lo > 0)
        if starved.any():
            raise Infeasible("box lower bound is positive at entries %s where no plan "
                             "mass can arrive" % (np.flatnonzero(starved)[:8].tolist(),))
        with np.errstate(invalid="ignore"):
            out = np.minimum(np.maximum(self._log_lower - log_w, 0.0), self._log_upper - log_w)
        out = np.where(w_zero, 0.0, out)
        out = np.where(hi == 0.0, -np.inf, out)
        return out

    def feasibility_residual(self, p):
        p = p.ravel()
        over = np.maximum(p - self.upper.ravel(), 0.0)
        under = np.maximum(self.lower.ravel() - p, 0.0)
        return float((over.sum() + under.sum()) / max(np.abs(p).sum(), 1.0))

    def scaled(self, factor):
        return self

    def _expected_size(self):
        return self.lower.size if self.lower.size > 1 else None

    def __repr__(self):
        return "Box(n=%d)" % self.lower.size


class Linear(MarginalFunction):
    """Linear cost ``<c, x>``; forces the multiplier to equal ``c``."""

    def __init__(self, cost):
        self.cost = np.asarray(cost, dtype=float)
        if not np.all(np.isfinite(self.cost)):
            raise InvalidInput("linear cost vector must be finite")

    def _tol(self):
        return 1e-8 * (1.0 + float(np.max(np.abs(self.cost), initial=0.0)))

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        if np.all(np.abs(s - self.cost.ravel()) <= self._tol()):
            return 0.0
        return math.inf

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        at = np.abs(s - self.cost.ravel()) <= self._tol()
        return SubgradientBand(np.where(at, -np.inf, np.inf),
                               np.where(at, np.inf, -np.inf))

    def _solve_log(self, log_w, epsilon):
        return np.broadcast_to(-self.cost.ravel() / epsilon, log_w.shape).copy()

    def scaled(self, factor):
        return Linear(self.cost * float(factor))

    def _expected_size(self):
        return self.cost.size

    def __repr__(self):
        return "Linear(n=%d)" % self.cost.size


class QuadraticDistance(MarginalFunction):
    """Weighted p-norm distance ``weight * ||x - anchor||_p^p`` (default p = 2)."""

    def __init__(self, weight, anchor, exponent=2.0):
        self.weight = float(weight)
        self.anchor = np.asarray(anchor, dtype=float)
        self.exponent = float(exponent)
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise InvalidInput("distance weight must be positive and finite")
        if self.exponent <= 1.0:
            raise InvalidInput("distance exponent must exceed 1")
        if not np.all(np.isfinite(self.anchor)):
            raise InvalidInput("distance anchor must be finite")

    def _dual_exponent(self):
        p = self.exponent
        return p / (p - 1.0)

    def _grad_conj(self, s):
        # d/ds of <s, y> + ||s||_q^q / (q * (weight*p)^(q-1))
        q = self._dual_exponent()
        a = (self.weight * self.exponent) ** (q - 1.0)
        return self.anchor.ravel() + np.sign(s) * np.abs(s) ** (q - 1.0) / a

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        if np.any(np.isinf(s)):
            return math.inf
        q = self._dual_exponent()
        a = (self.weight * self.exponent) ** (q - 1.0)
        return float(np.dot(s, self.anchor.ravel()) + np.sum(np.abs(s) ** q) / (q * a))

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        g = self._grad_conj(s)
        return SubgradientBand(g, g)

    def _solve_log(self, log_w, epsilon):
        # u*w = y - sign(l) |eps*l|^r / a with r = q - 1; the right side
        # vanishes at l_a, which is therefore the root wherever w = 0.
        y = np.broadcast_to(self.anchor.ravel(), log_w.shape)
        r = self._dual_exponent() - 1.0
        a = (self.weight * self.exponent) ** r
        out = np.sign(y) * (a * np.abs(y)) ** (1.0 / r) / epsilon
        pos = ~np.isneginf(log_w)
        if not pos.any():
            return out
        yp = y[pos]
        lwp = log_w[pos]
        # g(hi) >= 0: there u*w >= 0 >= the right side, or u*w = y while the
        # right side is at most y (l >= 0), or u*w >= y >= the right side
        # (l = 0 >= log y - log w).  g(lo) <= 0: u*w <= 1 <= the right side.
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = np.minimum(out[pos], np.fmax(np.log(yp) - lwp, 0.0))
        lo = np.minimum(-(a * (np.abs(yp) + 1.0)) ** (1.0 / r) / epsilon, -lwp)
        c = epsilon / a
        if r == 1.0:
            def phi(ell):
                return yp - c * ell, -c
        else:
            def phi(ell):
                s = np.abs(epsilon * ell)
                return yp - np.sign(ell) * s ** r / a, -r * c * s ** (r - 1.0)

            # phi is not smooth at l = 0, so 0 becomes an end of the bracket.
            # On the side of 0 where the root lies, |phi(l) - y| alone
            # outgrows |g(0)| beyond |l| = t, which closes the bracket there.
            with np.errstate(over="ignore"):
                g0 = np.exp(lwp) - yp
                t = (a * np.abs(g0)) ** (1.0 / r) / epsilon
            lo = np.where(g0 > 0, np.maximum(lo, -t), np.maximum(lo, 0.0))
            hi = np.where(g0 > 0, np.minimum(hi, 0.0), np.minimum(hi, t))

        out[pos] = _newton_log(phi, lwp, lo, hi, self)
        return out

    def scaled(self, factor):
        return QuadraticDistance(self.weight * float(factor), self.anchor, self.exponent)

    def _expected_size(self):
        return self.anchor.size

    def __repr__(self):
        return "QuadraticDistance(weight=%.6g, p=%g)" % (self.weight, self.exponent)


class Congestion(MarginalFunction):
    """Congestion cost ``x / (capacity - x)`` on ``[0, capacity)``, elementwise."""

    def __init__(self, capacity):
        self.capacity = np.asarray(capacity, dtype=float)
        if not np.all(np.isfinite(self.capacity)) or np.any(self.capacity <= 0):
            raise InvalidInput("congestion capacities must be positive and finite")

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        b = np.broadcast_to(self.capacity.ravel(), s.shape)
        kink = 1.0 / b
        active = s > kink
        if np.any(np.isinf(s) & active):
            return math.inf
        sb = np.where(active, s * b, 1.0)
        terms = np.where(active, sb - 2.0 * np.sqrt(sb) + 1.0, 0.0)
        return float(np.sum(terms))

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        b = np.broadcast_to(self.capacity.ravel(), s.shape)
        active = s > 1.0 / b
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(active, b - np.sqrt(np.where(active, b / s, 1.0)), 0.0)
        return SubgradientBand(slope, slope)

    def _solve_log(self, log_w, epsilon):
        # u*w = b - sqrt(b / (-eps*l)) on l < -1/(eps*b); slack (u = 1) where w = 0.
        b = np.broadcast_to(self.capacity.ravel(), log_w.shape)
        out = np.zeros(log_w.shape)
        pos = ~np.isneginf(log_w)
        if not pos.any():
            return out
        bp = b[pos]
        lwp = log_w[pos]
        c = np.sqrt(bp / epsilon)
        # g(hi) >= 0: the right side is at most 0 at -1/(eps*b) and below b
        # everywhere.  g(lo) <= 0: u*w <= b/2 <= the right side.
        hi = np.minimum(-1.0 / (epsilon * bp), np.log(bp) - lwp)
        lo = np.minimum(-4.0 / (epsilon * bp), np.log(0.5 * bp) - lwp)

        def phi(ell):
            root = c / np.sqrt(-ell)
            return bp - root, 0.5 * root / ell

        out[pos] = _newton_log(phi, lwp, lo, hi, self)
        return out

    def scaled(self, factor):
        if float(factor) == 1.0:
            return self
        raise InvalidInput("congestion costs cannot be rescaled; fold the factor into capacities")

    def _expected_size(self):
        return self.capacity.size if self.capacity.size > 1 else None

    def __repr__(self):
        return "Congestion(n=%d)" % self.capacity.size


class Blockwise(MarginalFunction):
    """Different catalog entries on disjoint index blocks of one flattened argument."""

    def __init__(self, size, blocks):
        self.size = int(size)
        self.blocks = []
        cover = np.zeros(self.size, dtype=bool)
        for idx, fn in blocks:
            idx = np.asarray(idx, dtype=int).ravel()
            if idx.size == 0:
                continue
            if np.any(idx < 0) or np.any(idx >= self.size) or cover[idx].any():
                raise InvalidInput("blockwise indices must partition 0..%d" % (self.size - 1))
            cover[idx] = True
            self.blocks.append((idx, fn))
        if not cover.all():
            raise InvalidInput("blockwise blocks must cover every entry")

    @property
    def is_zero(self):
        return all(fn.is_zero for _, fn in self.blocks)

    @property
    def hard(self):
        return any(fn.hard for _, fn in self.blocks)

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        total = 0.0
        for idx, fn in self.blocks:
            c = fn.conjugate(s[idx])
            if c == math.inf:
                return math.inf
            total += c
        return total

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        lower = np.empty(self.size)
        upper = np.empty(self.size)
        for idx, fn in self.blocks:
            band = fn.conjugate_subgradient(s[idx])
            lower[idx] = band.lower
            upper[idx] = band.upper
        return SubgradientBand(lower, upper)

    def _solve_log(self, log_w, epsilon):
        out = np.empty(log_w.shape)
        for idx, fn in self.blocks:
            out[idx] = fn._solve_log(log_w[idx], epsilon)
        return out

    def feasibility_residual(self, p):
        p = p.ravel()
        worst = None
        for idx, fn in self.blocks:
            r = fn.feasibility_residual(p[idx])
            if r is not None:
                worst = r if worst is None else max(worst, r)
        return worst

    def scaled(self, factor):
        return Blockwise(self.size, [(idx, fn.scaled(factor)) for idx, fn in self.blocks])

    def _expected_size(self):
        return self.size

    def __repr__(self):
        return "Blockwise(size=%d, blocks=%d)" % (self.size, len(self.blocks))


def stack_rows(row_functions, n_cols):
    """Blockwise over matrix rows, for per-species costs on a species-by-state bimarginal."""
    n_rows = len(row_functions)
    blocks = []
    for r, fn in enumerate(row_functions):
        blocks.append((r * n_cols + np.arange(n_cols), fn if fn is not None else Zero()))
    return Blockwise(n_rows * n_cols, blocks)


class CompositeFunction:
    """Several costs stacked on one node or edge, each with its own factor."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise InvalidInput("a composite needs at least one part")

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.parts)

    def scaled(self, factor):
        return CompositeFunction([p.scaled(factor) for p in self.parts])

    def __repr__(self):
        return "CompositeFunction(%r)" % (self.parts,)
