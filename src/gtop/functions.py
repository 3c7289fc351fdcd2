"""Separable convex costs on marginals: conjugates, subgradients, updates.

Each catalog entry knows three things about itself: the value of its Fenchel
conjugate, the (interval-valued) derivative of that conjugate, and how to
solve the scalar stationarity condition

    0 in -u * w + d(conjugate)(-epsilon * log u)

entrywise for ``u >= 0`` given a nonnegative weight vector ``w``.  All solves
run in log space so extreme weight magnitudes cost nothing in accuracy.  Each
also bounds each entry of its marginal (``entry_bounds``) for the presolve, and
the log factors its update can return (``log_factor_bounds``) for the
solver's mixed tries.

Two updates serve four costs in closed form: an equality is the box [t, t]
and a zero cost the linear cost with c = 0.  The quadratic distance with
p = 2 goes through the Wright omega function in a fixed number of array
passes: a closed-form start and three Newton steps (``_quadratic_log``).
Congestion runs its own Newton loop on ``exp(l + log w) = phi(l)`` in
``l = log u``, which is convex: from a closed-form start right of the root
it descends monotonically, one Newton form per step, until no entry moves
by more than a few ulps of ``max(|l|, 1)``.  Both evaluate ``w e^l`` with
the rounding of ``l + log w`` carried to first order, so a large ``log w``
costs no accuracy in ``l``.  The other distance exponents run a safeguarded
Newton iteration that keeps a closed-form bracket and bisects inside it
whenever a Newton step would leave it (``_newton_log``).

Some updates ignore the weight: a linear cost gives ``exp(-c / epsilon)``
(1 for a zero cost), and a box with lower bounds 0 and upper bounds 0 or
+inf (an indicator of a support: an obstacle) 1 on the support and 0 off
it.  ``ignores_weight``, derived from the data when first read, marks them
and a blockwise cost made only of them; ``fixed_factor`` is their factor.
``ProblemSpec`` makes it a constant of the plan, as it does for the marked
blocks of a blockwise cost (``Blockwise.restricted``), never a coordinate.
"""

import functools
import math

import numpy as np

from .errors import Infeasible, InvalidInput, NumericalFailure
from .model import ScaledArray, integer

_MAX_NEWTON_STEPS = 100
# Newton stops once no entry moves by more than a few ulps of max(|l|, 1).
_ULPS = 4.0 * np.finfo(float).eps


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
    raise _no_convergence(fn, done, log_w)


def _no_convergence(fn, done, log_w):
    pos = log_w != -np.inf
    return NumericalFailure("%r: the update did not converge in %d Newton steps at %d of %d "
                            "entries; log-weight range [%g, %g]"
                            % (fn, _MAX_NEWTON_STEPS, int(np.count_nonzero(~done & pos)),
                               int(np.count_nonzero(pos)), float(np.min(log_w[pos])),
                               float(np.max(log_w[pos]))))


def _quadratic_log(y, log_w, a, epsilon):
    """Root ``l`` of ``w e^l = y - c l``, ``c = epsilon / a``, entrywise: ``y / c``
    where ``w = 0``, else ``l = z - log w + log c`` with ``z = log omega(x)``,
    ``x = log w - log c + y/c`` and Wright's omega, ``omega + log omega = x``
    (Lawrence, Corless and Jeffrey, "Algorithm 917", ACM TOMS 38(3), 2012).

    Winitzki's ``omega ~ s (1 - log(1 + s) / (2 + s))``, ``s = log(1 + e^x)``
    (ICCSA 2003, LNCS 2667), puts ``z`` within 0.02 of the root for every x
    (checked on a dense grid; exact at both ends).  Each Newton step on the
    convex ``e^z + z - x`` leaves at most about half the square of the error
    before it: two leave below 3e-9, and one on ``w e^l - y + c l``, with the
    rounding of ``log w + l`` carried to first order, leaves rounding.
    """
    yc = a * y / epsilon
    c = epsilon / a
    with np.errstate(divide="ignore", invalid="ignore"):
        v = log_w - math.log(c)
        x = v + yc
        s = np.logaddexp(0.0, x)
        # The floor keeps z finite below x = -690, where the first step is exact.
        z = np.log(np.maximum(s * (1.0 - np.log1p(s) / (2.0 + s)), 1e-300))
        for _ in range(2):
            e = np.exp(z)
            z = z - (e + z - x) / (e + 1.0)
        ell = z - v
        t = ell + log_w
        e = np.exp(t)
        e = e + e * ((log_w - t) + ell)
        ell = ell - (e - y + c * ell) / (e + c)
    return np.where(log_w == -np.inf, yc, ell)


class MarginalFunction:
    """Base class; instances are immutable, shape-agnostic (flattened math), stateless."""

    # Hard constraints report a feasibility residual; soft costs never do.
    hard = False
    # Whether the update gives the same factor whatever the weight.
    ignores_weight = False

    def conjugate(self, s):
        raise NotImplementedError

    def conjugate_subgradient(self, s):
        """Entrywise interval ``(lower, upper)`` of the conjugate's subdifferential
        at ``s``; lower > upper encodes the empty set."""
        raise NotImplementedError

    def solve_inclusion(self, w, epsilon):
        """Coordinate update: the ``u`` solving the stationarity inclusion.

        Raw weights are checked to be finite and nonnegative; a
        :class:`ScaledArray` weight is taken as an engine's, which are."""
        if not isinstance(w, ScaledArray):
            values = np.asarray(w, dtype=float)
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise InvalidInput("projection weights must be finite and nonnegative")
            w = ScaledArray.from_values(values)
        log_w = w.log_value().ravel()
        log_u = self._solve_log(log_w, float(epsilon))
        return ScaledArray.from_log(log_u, w.m.shape)

    def _solve_log(self, log_w, epsilon):
        raise NotImplementedError

    def fixed_factor(self, shape, epsilon):
        """The factor, of ``shape``, that a cost that ``ignores_weight`` gives."""
        log_u = self._solve_log(np.zeros(math.prod(shape)), float(epsilon))
        return ScaledArray.from_log(log_u, shape)

    def log_factor_bounds(self, epsilon):
        """Entrywise bounds ``(lo, hi)`` on the log of any factor the update
        returns for a positive weight.  Past them the conjugate is flat or
        infinite, so moving a factor there only lowers the dual."""
        return -math.inf, math.inf

    def feasibility_residual(self, p):
        """Normalized violation of the hard constraint, or None if soft."""
        return None

    def entry_bounds(self, n):
        """Bounds ``(lo, hi)``, each of shape ``(n,)``, that the cost puts on
        every entry of an n-entry marginal; a soft cost allows any
        nonnegative entry."""
        return np.zeros(n), np.full(n, math.inf)

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


class Box(MarginalFunction):
    """Elementwise bounds ``lower <= x <= upper`` (upper may be infinite)."""

    hard = True

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape:
            try:
                lower, upper = np.broadcast_arrays(lower, upper)
            except ValueError:
                raise InvalidInput("box bounds of shapes %r and %r do not broadcast"
                                   % (lower.shape, upper.shape)) from None
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if not (self.lower >= 0).all():  # a NaN fails every comparison
            raise InvalidInput("box lower bounds must be nonnegative")
        if not (self.upper >= self.lower).all():
            raise InvalidInput("box bounds must satisfy lower <= upper")
        if not (self.lower < math.inf).all():
            raise InvalidInput("box lower bounds must be finite")
        self._derive()

    def _derive(self):
        # Logs of the bounds, fixed for every update: -inf at 0, +inf at inf.
        with np.errstate(divide="ignore"):
            self._log_lower = np.log(self.lower).ravel()
            self._log_upper = np.log(self.upper).ravel()
        self._lower_pos = (self.lower > 0).ravel()
        self._upper_zero = (self.upper == 0).ravel()
        self._upper_inf = (self.upper == math.inf).ravel()

    # Multipliers recovered from mantissa storage wobble by ~1e-16 around
    # exact zero; the kink at s = 0 is resolved with a small tolerance.
    _atol = 1e-9

    @functools.cached_property
    def ignores_weight(self):
        """An indicator box: lower bounds 0, upper bounds 0 or +inf."""
        return not self._lower_pos.any() and bool((self._upper_zero | self._upper_inf).all())

    def fixed_factor(self, shape, epsilon):
        return ScaledArray(np.where(self._upper_zero, 0.0, np.ones(shape).ravel()).reshape(shape))

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        pos = s > self._atol
        neg = s < -self._atol
        with np.errstate(invalid="ignore"):
            up = np.where(self._upper_zero, 0.0, s * self.upper.ravel())
            dn = np.where(self._lower_pos, s * self.lower.ravel(), 0.0)
        terms = np.where(pos, up, np.where(neg, dn, 0.0))
        return float(np.sum(terms))

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        lo, hi = self.lower.ravel(), self.upper.ravel()
        return np.where(s > self._atol, hi, lo), np.where(s < -self._atol, lo, hi)

    def _solve_log(self, log_w, epsilon):
        w_zero = np.isneginf(log_w)
        starved = w_zero & self._lower_pos
        if starved.any():
            raise Infeasible("%r needs mass at entries %s where no plan mass can arrive"
                             % (self, np.flatnonzero(starved)[:8].tolist()))
        with np.errstate(invalid="ignore"):
            out = np.minimum(np.maximum(self._log_lower - log_w, 0.0), self._log_upper - log_w)
        out = np.where(w_zero, 0.0, out)
        out = np.where(self._upper_zero, -np.inf, out)
        return out

    def log_factor_bounds(self, epsilon):
        # The update's log factor is at most 0 where lower = 0 and at least
        # 0 where upper = +inf.
        return (np.where(self._upper_inf, 0.0, -np.inf),
                np.where(self._lower_pos, np.inf, 0.0))

    def feasibility_residual(self, p):
        p = p.ravel()
        over = np.maximum(p - self.upper.ravel(), 0.0)
        under = np.maximum(self.lower.ravel() - p, 0.0)
        return float((over.sum() + under.sum()) / max(np.abs(p).sum(), 1.0))

    def entry_bounds(self, n):
        return np.broadcast_to(self.lower.ravel(), n), np.broadcast_to(self.upper.ravel(), n)

    def scaled(self, factor):
        return self

    def _expected_size(self):
        return self.lower.size if self.lower.ndim else None

    def __repr__(self):
        return "Box(n=%d)" % self.lower.size


class Equality(Box):
    """Hard equality with a fixed nonnegative target: the box ``[t, t]``, with
    an exact conjugate ``<s, t>`` (no kink tolerance) and a residual relative
    to the target.  An all-zero target is solved every sweep, like any other."""

    ignores_weight = False

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        if not ((self.target >= 0) & (self.target < math.inf)).all():  # NaN fails too
            raise InvalidInput("equality target must be finite and nonnegative")
        # Box.__init__'s checks would only repeat this one, at twice its cost.
        self.lower = self.upper = self.target
        self._derive()

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        t = self.target.ravel()
        with np.errstate(invalid="ignore"):
            terms = np.where(t == 0.0, 0.0, s * t)
        return float(np.sum(terms))

    def feasibility_residual(self, p):
        t = self.target.ravel()
        return float(np.abs(p.ravel() - t).sum() / max(np.abs(t).sum(), 1.0))

    def _expected_size(self):
        return self.target.size

    def __repr__(self):
        return "Equality(mass=%.6g)" % float(self.target.sum())


class Linear(MarginalFunction):
    """Linear cost ``<c, x>``; forces the multiplier to equal ``c``."""

    ignores_weight = True

    def __init__(self, cost):
        self.cost = np.asarray(cost, dtype=float)
        if not np.all(np.isfinite(self.cost)):
            raise InvalidInput("linear cost vector must be finite")
        self._tol = 1e-8 * (1.0 + float(np.max(np.abs(self.cost), initial=0.0)))

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        return 0.0 if (np.abs(s - self.cost.ravel()) <= self._tol).all() else math.inf

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        at = np.abs(s - self.cost.ravel()) <= self._tol
        return np.where(at, -np.inf, np.inf), np.where(at, np.inf, -np.inf)

    def _solve_log(self, log_w, epsilon):
        return np.broadcast_to(-self.cost.ravel() / epsilon, log_w.shape).copy()

    def scaled(self, factor):
        return Linear(self.cost * float(factor))

    def _expected_size(self):
        return self.cost.size

    def __repr__(self):
        return "Linear(n=%d)" % self.cost.size


class Zero(Linear):
    """The identically zero cost: the linear cost with ``c = 0``, which pins
    its multiplier at zero within the linear cost's tolerance."""

    def __init__(self):
        super().__init__(0.0)

    def scaled(self, factor):
        return self

    def _expected_size(self):
        return None

    def __repr__(self):
        return "Zero()"


class QuadraticDistance(MarginalFunction):
    """Weighted p-norm distance ``weight * ||x - anchor||_p^p`` (default p = 2)."""

    def __init__(self, weight, anchor, exponent=2.0):
        self.weight = float(weight)
        self.anchor = np.asarray(anchor, dtype=float)
        self.exponent = float(exponent)
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise InvalidInput("distance weight must be positive and finite")
        if not 1.0 < self.exponent < math.inf:
            raise InvalidInput("distance exponent must be finite and exceed 1, got %r"
                               % (exponent,))
        if not np.all(np.isfinite(self.anchor)):
            raise InvalidInput("distance anchor must be finite")

    def _dual_exponent(self):
        p = self.exponent
        return p / (p - 1.0)

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        if self.exponent == 2.0:
            value = float(s.dot(self.anchor.ravel())) + float(s.dot(s)) / (4.0 * self.weight)
        else:
            q = self._dual_exponent()
            a = (self.weight * self.exponent) ** (q - 1.0)
            value = (float(np.dot(s, self.anchor.ravel()))
                     + float(np.sum(np.abs(s) ** q)) / (q * a))
        if not math.isfinite(value) and np.isinf(s).any():
            return math.inf
        return value

    def conjugate_subgradient(self, s):
        # d/ds of <s, y> + ||s||_q^q / (q * (weight*p)^(q-1))
        s = np.asarray(s, dtype=float).ravel()
        q = self._dual_exponent()
        a = (self.weight * self.exponent) ** (q - 1.0)
        g = self.anchor.ravel() + np.sign(s) * np.abs(s) ** (q - 1.0) / a
        return g, g

    def _solve_log(self, log_w, epsilon):
        if self.exponent == 2.0:
            return _quadratic_log(self.anchor.ravel(), log_w, 2.0 * self.weight, epsilon)
        # u*w = y - sign(l) |eps*l|^r / a with r = q - 1; the right side
        # vanishes at l_a, which is therefore the root wherever w = 0.
        y = np.broadcast_to(self.anchor.ravel(), log_w.shape)
        r = self._dual_exponent() - 1.0
        a = (self.weight * self.exponent) ** r
        c = epsilon / a
        pos = ~np.isneginf(log_w)
        out = np.sign(y) * (a * np.abs(y)) ** (1.0 / r) / epsilon
        yp = y[pos]
        lwp = log_w[pos]
        # g(hi) >= 0: there u*w >= 0 >= the right side, or u*w = y while the
        # right side is at most y (l >= 0), or u*w >= y >= the right side
        # (l = 0 >= log y - log w).  g(lo) <= 0: u*w <= 1 <= the right side.
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = np.minimum(out[pos], np.fmax(np.log(yp) - lwp, 0.0))
        lo = np.minimum(-(a * (np.abs(yp) + 1.0)) ** (1.0 / r) / epsilon, -lwp)

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
        # Read by every update, conjugate and subgradient; they broadcast.
        self._b = self.capacity.ravel()
        self._inv_b = 1.0 / self._b
        self._log_b = np.log(self._b)

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        active = s > self._inv_b
        if np.any(np.isinf(s) & active):
            return math.inf
        sb = np.where(active, s * self._b, 1.0)
        terms = np.where(active, sb - 2.0 * np.sqrt(sb) + 1.0, 0.0)
        return float(np.sum(terms))

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        b = self._b
        active = s > self._inv_b
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(active, b - np.sqrt(np.where(active, b / s, 1.0)), 0.0)
        return slope, slope

    def _solve_log(self, log_w, epsilon):
        # In m = -l, u*w = w e^-m = b - r with r = sqrt(b / (eps*m)), on
        # m > 1/(eps*b); slack (u = 1) where w = 0.  g = w e^-m + r - b is
        # convex and increasing in l, and the start is right of the root
        # (below it in m), so Newton descends to the root monotonically.
        b, q = self._b, self._b / epsilon
        lw = np.maximum(log_w, -1e300)  # w = 0 keeps e = 0 and no NaN
        m = np.maximum(self._inv_b / epsilon, lw - self._log_b)
        # A root below m + 2 has r >= r(m + 2), so w e^-m <= b - r(m + 2).
        trial = m + 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.maximum(m, np.fmin(trial, lw - np.log(b - np.sqrt(q / trial))))
        tol = _ULPS * np.maximum(m, 1.0)  # m only grows from here
        for _ in range(_MAX_NEWTON_STEPS):
            t = lw - m
            e = np.exp(t)
            r = np.sqrt(q / m)
            # (lw - t) - m is what t rounded off; e carries it to first order.
            step = (e * ((lw - t) - m) + e + r - b) / (e + 0.5 * r / m)
            m = m + step
            if (step <= tol).all():
                return np.where(log_w == -np.inf, 0.0, -m)
        raise _no_convergence(self, step <= tol, log_w)

    def log_factor_bounds(self, epsilon):
        # s = -eps * l must pass the kink 1 / b for u * w to be positive.
        return -math.inf, -1.0 / (epsilon * self.capacity.ravel())

    def entry_bounds(self, n):
        return np.zeros(n), np.broadcast_to(self._b, n)

    def scaled(self, factor):
        if float(factor) == 1.0:
            return self
        raise InvalidInput("congestion costs cannot be rescaled; fold the factor into capacities")

    def _expected_size(self):
        return self.capacity.size if self.capacity.ndim else None

    def __repr__(self):
        return "Congestion(n=%d)" % self.capacity.size


class Blockwise(MarginalFunction):
    """Different catalog entries on disjoint index blocks of one flattened argument.

    Blocks of increasing consecutive indices (all of :func:`stack_rows`) are
    accessed through slice views.  Blocks that ignore their weight are soft.
    """

    def __init__(self, size, blocks):
        self.size = integer(size, "blockwise size")
        self.blocks = []
        self._views = []
        cover = np.zeros(self.size, dtype=bool)
        for idx, fn in blocks:
            idx = np.asarray(idx).ravel()
            if idx.size == 0:
                continue
            if idx.dtype.kind not in "iu":
                raise InvalidInput("blockwise indices must be integers, not %s" % idx.dtype)
            contiguous = bool((np.diff(idx) == 1).all())
            if (np.any(idx < 0) or np.any(idx >= self.size) or cover[idx].any()
                    or not contiguous and np.unique(idx).size < idx.size):
                raise InvalidInput("blockwise indices must partition 0..%d" % (self.size - 1))
            if isinstance(fn, CompositeFunction):
                raise InvalidInput("blockwise block %d is a composite" % len(self.blocks))
            fn.validate_size(idx.size, where="blockwise block %d" % len(self.blocks))
            cover[idx] = True
            self.blocks.append((idx, fn))
            self._views.append((slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else idx, fn))
        if not cover.all():
            raise InvalidInput("blockwise blocks must cover every entry")

    def restricted(self, keep):
        """The cost of its blocks whose function passes ``keep``; elsewhere the factor is 1."""
        out = object.__new__(Blockwise)
        out.size = self.size
        out.blocks = [(idx, fn) for idx, fn in self.blocks if keep(fn)]
        out._views = [(sel, fn) for sel, fn in self._views if keep(fn)]
        return out

    @functools.cached_property
    def ignores_weight(self):
        return all(fn.ignores_weight for _, fn in self.blocks)

    @functools.cached_property
    def hard(self):
        return any(fn.hard and not fn.ignores_weight for _, fn in self.blocks)

    def conjugate(self, s):
        s = np.asarray(s, dtype=float).ravel()
        total = 0.0
        for sel, fn in self._views:
            c = fn.conjugate(s[sel])
            if c == math.inf:
                return math.inf
            total += c
        return total

    def conjugate_subgradient(self, s):
        s = np.asarray(s, dtype=float).ravel()
        lower = np.full(self.size, -math.inf)
        upper = np.full(self.size, math.inf)
        for sel, fn in self._views:
            lower[sel], upper[sel] = fn.conjugate_subgradient(s[sel])
        return lower, upper

    def _solve_log(self, log_w, epsilon):
        out = np.zeros(log_w.shape)
        for sel, fn in self._views:
            out[sel] = fn._solve_log(log_w[sel], epsilon)
        return out

    def log_factor_bounds(self, epsilon):
        lo, hi = np.full(self.size, -math.inf), np.full(self.size, math.inf)
        for sel, fn in self._views:
            lo[sel], hi[sel] = fn.log_factor_bounds(epsilon)
        return lo, hi

    def feasibility_residual(self, p):
        p = p.ravel()
        found = [fn.feasibility_residual(p[sel]) for sel, fn in self._views]
        return max((r for r in found if r is not None), default=None)

    def entry_bounds(self, n):
        lo, hi = np.zeros(self.size), np.full(self.size, math.inf)
        for (idx, fn), (sel, _) in zip(self.blocks, self._views):
            lo[sel], hi[sel] = fn.entry_bounds(idx.size)
        return lo, hi

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
        # A nested composite stacks its parts here, each with its own factor.
        self.parts = [q for p in parts for q in getattr(p, "parts", (p,))]
        if not self.parts:
            raise InvalidInput("a composite needs at least one part")

    def validate_size(self, n, where=""):
        for p in self.parts:
            p.validate_size(n, where)

    def scaled(self, factor):
        return CompositeFunction([p.scaled(factor) for p in self.parts])

    def __repr__(self):
        return "CompositeFunction(%r)" % (self.parts,)
