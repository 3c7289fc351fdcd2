"""Routed engines against the dense ground truth on seeded random problems.

``random_problem`` draws a path plus chords from node 0, or a species hub,
with costs from the whole catalog.  Every seed of a fixed range counts,
whatever its outcome: the routed and the dense solve must end alike
(converged, ``Infeasible``, or stopped at the sweep budget), and converged
duals must agree.
"""

import collections

import numpy as np
import pytest

from gtop import DenseEngine, GtopError, SolverConfig, make_engine, solve

from _support import assert_maxnorm_close, random_potentials, random_problem, solve_dense

SEEDS = range(32)
BUDGET = 500


def outcome(solver, spec):
    """``(termination, dual)``, or the name of the error the solve raised."""
    try:
        _, report = solver(spec, SolverConfig(max_sweeps=BUDGET))
    except GtopError as exc:
        return type(exc).__name__, None
    return report.termination, report.dual_objective


def test_routed_and_dense_solves_end_alike():
    seen = collections.Counter()
    for seed in SEEDS:
        spec = random_problem(np.random.default_rng(seed))
        (routed, dual), (dense, dense_dual) = outcome(solve, spec), outcome(solve_dense, spec)
        assert routed == dense, "seed %d: routed %s, dense %s" % (seed, routed, dense)
        if routed == "converged":
            assert dual == pytest.approx(dense_dual, rel=1e-10), "seed %d" % seed
        seen[routed] += 1
    # About 1 seed in 100 stops at the budget; none of these does.
    assert seen == {"converged": 28, "Infeasible": 4}


def test_every_projection_is_the_dense_contraction():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        spec = random_problem(rng)
        pots = random_potentials(spec, rng, zero_rate=0.1)
        routed, den = make_engine(spec), DenseEngine(spec)
        routed.refresh(pots)
        for eng in (routed, den):
            for j in range(spec.topology.node_count):
                assert_maxnorm_close(eng.marginal(j, pots), den.project(pots, (j,)), 1e-12,
                                     "seed %d %s marginal %d" % (seed, type(eng).__name__, j))
            for e in spec.topology.edges:
                assert_maxnorm_close(eng.bimarginal(e, pots), den.project(pots, e), 1e-12,
                                     "seed %d %s bimarginal %r" % (seed, type(eng).__name__, e))
