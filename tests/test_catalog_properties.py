"""Property tests of the catalog's coordinate updates, one per catalog entry.

Draws: epsilon in [1e-3, 10], log weights in [-33, 33], 1 to 6 entries, and
every magnitude of a cost's parameters in [1e-3, 1e3] (signed where the
cost allows a sign, or 0 where it allows 0); distance exponents in [1.2, 4]
besides 2.  Each update either raises ``NumericalFailure`` naming its cost,
or returns a factor u that meets the stationarity inclusion within ``TOL``
in log u.  At an entry with l = log u, it meets it at u itself
(``inclusion_residual`` is 0), or a root lies between l - d and l + d,
d = ``TOL`` * max(|l|, 1).  The inclusion's side is monotone in l, so a
root lies there when the plan u * w reaches the lower end of the
conjugate's subdifferential at l + d and stays below its upper end at
l - d.  One scaled array spans about exp(745) (README, "Numerical notes"):
an entry whose mantissa is subnormal or 0 may miss both, but then its own
log factor lies more than 708 below the factor's largest.
"""

import math

import numpy as np
import pytest

from gtop import (Blockwise, Box, Congestion, Equality, Linear, NumericalFailure,
                  QuadraticDistance, ScaledArray, Zero)

from _support import inclusion_residual

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TOL = 1e-13
SETTINGS = hypothesis.settings(derandomize=True, max_examples=100, deadline=None,
                               database=None)

epsilons = st.floats(math.log(1e-3), math.log(10.0)).map(math.exp)
magnitudes = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x), st.just(0.0))
sizes = st.integers(1, 6)


def entries(n, values):
    return st.lists(values, min_size=n, max_size=n).map(np.array)


def boxes(n):
    """Lower bounds 0 or a magnitude; upper bounds 0 (lower 0), lower plus a
    magnitude, lower itself, or +inf."""
    def build(pairs):
        lower = np.array([lo for lo, _ in pairs])
        upper = np.array([lo if kind == "same" else math.inf if kind == "inf"
                          else 0.0 if kind == "zero" and lo == 0.0 else lo + gap
                          for lo, (kind, gap) in pairs])
        return Box(lower, upper)

    kinds = st.tuples(st.sampled_from(["zero", "gap", "same", "inf"]), magnitudes)
    return st.lists(st.tuples(st.one_of(st.just(0.0), magnitudes), kinds),
                    min_size=n, max_size=n).map(build)


def equalities(n):
    return entries(n, st.one_of(st.just(0.0), magnitudes)).map(Equality)


def linears(n):
    return entries(n, signed).map(Linear)


def distances(n):
    exponents = st.one_of(st.just(2.0), st.floats(1.2, 4.0))
    return st.builds(QuadraticDistance, magnitudes, entries(n, signed), exponents)


def congestions(n):
    return entries(n, magnitudes).map(Congestion)


def zeros(n):
    return st.just(Zero())


def blockwise(n):
    """Two blocks, each a draw of another catalog entry, split at ``k``; a
    second block of no entries is skipped."""
    def parts(k):
        makers = [boxes, equalities, linears, distances, congestions]
        first, second = (st.sampled_from(makers).flatmap(lambda m, size=size: m(size))
                         for size in (k, n - k))
        return st.tuples(first, second).map(
            lambda fs: Blockwise(n, [(np.arange(k), fs[0]), (np.arange(k, n), fs[1])]))

    return st.integers(1, n).flatmap(parts)


def case(costs):
    """``(cost, log weights, epsilon)`` for the cost strategy ``costs(n)``."""
    return sizes.flatmap(lambda n: st.tuples(costs(n), entries(n, st.floats(-33.0, 33.0)),
                                             epsilons))


def plan_meets(fn, ell, log_w, epsilon, side):
    """Where the plan at log factors ``ell`` reaches the lower end of the
    subdifferential (``side`` "lower") or stays below its upper end ("upper")."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(ell + log_w)
        lower, upper = fn.conjugate_subgradient(-epsilon * ell)
    return p >= lower if side == "lower" else p <= upper


def check_update(fn, log_w, epsilon):
    hypothesis.note({k: v for k, v in vars(fn).items() if not k.startswith("_")})
    w = ScaledArray.from_log(log_w, log_w.shape)
    try:
        u = fn.solve_inclusion(w, epsilon)
    except NumericalFailure as exc:
        assert repr(fn) in str(exc)
        return
    ell = u.log_value().ravel()
    d = TOL * np.maximum(np.abs(ell), 1.0)
    with np.errstate(invalid="ignore"):
        met = inclusion_residual(fn, u, w, epsilon) <= 0.0
        above = plan_meets(fn, ell + d, log_w, epsilon, "lower")
        below = plan_meets(fn, ell - d, log_w, epsilon, "upper")
    normal = u.m.ravel() >= np.finfo(float).tiny
    missed = np.flatnonzero(normal & ~met & ~(above & below))
    assert missed.size == 0, "%r misses its inclusion at entries %s" % (fn, missed)
    lost = ~normal & ~met
    if lost.any():
        own = fn._solve_log(log_w, epsilon)
        assert np.all(own[lost] < np.max(own) - 708.0), "%r loses entries %s" % (
            fn, np.flatnonzero(lost))


@pytest.mark.parametrize("costs", [boxes, equalities, linears, zeros, distances, congestions,
                                   blockwise], ids=lambda f: f.__name__)
def test_update_meets_its_inclusion(costs):
    @SETTINGS
    @hypothesis.given(case(costs))
    def check(drawn):
        check_update(*drawn)

    check()

