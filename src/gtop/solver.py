"""Cyclic exact maximization of the dual, one node or edge block at a time.

Every update solves its block's stationarity inclusion exactly, so the dual
objective never decreases.  Each sweep walks the engine's fixed update
order (``engine.order``), which the projection structure makes cheap: the
path engine updates the blocks at each path node and pushes the forward
message past it, the dense engine updates every node and then every edge.
A backward rebuild closes the sweep so end-of-sweep projections are current.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, InvalidInput, VerificationFailure
from .model import DualPotentials, RescaleLog, _parts, dual_objective, smul
from .projections import DenseEngine, make_engine

# Relative drop of the dual objective tolerated as roundoff before a
# verified solve fails or a report warns.
_MONOTONE_SLACK = 1e-9


@dataclass
class SolverConfig:
    feasibility_tol: float = 1e-8
    potential_tol: float = 1e-9
    max_sweeps: int = 10000
    verify: bool = False
    oracle_check: bool = False
    callback: object = None
    log_potential_bound: float = 1e5

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.potential_tol <= 0:
            raise InvalidInput("tolerances must be positive")
        if self.max_sweeps < 1:
            raise InvalidInput("max_sweeps must be at least 1")


@dataclass
class SolveReport:
    termination: str = ""
    sweeps: int = 0
    dual_values: list = field(default_factory=list)
    max_residuals: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    rescale_events: int = 0
    warnings: list = field(default_factory=list)
    feasible: bool = False

    @property
    def dual_objective(self):
        return self.dual_values[-1] if self.dual_values else -math.inf

    @property
    def max_residual(self):
        return max(self.residuals.values(), default=0.0)


def residual_map(potentials, spec, engine):
    """Feasibility residual per cost block, from current projections.

    Hard blocks (equality, box) report their violation; soft costs report
    zero without a projection.  A node or edge is projected at most once,
    however many hard parts it stacks; stacked parts get keys ``key#k``.
    """
    out = {}
    for (kind, where), fn in spec.blocks.items():
        key = "node:%d" % where if kind == "node" else "edge:%d-%d" % where
        parts = _parts(fn)
        p = None
        for k, part in enumerate(parts):
            if part.is_zero:
                continue
            name = key if len(parts) == 1 else "%s#%d" % (key, k)
            if not part.hard:
                out[name] = 0.0
                continue
            if p is None:
                project = engine.marginal if kind == "node" else engine.bimarginal
                p = project(where, potentials).value()
            out[name] = part.feasibility_residual(p)
    return out


def residuals(potentials, spec):
    """Standalone feasibility report; rebuilds projections from scratch."""
    engine = make_engine(spec)
    engine.refresh(potentials)
    return residual_map(potentials, spec, engine)


class _Verifier:
    """Optional per-update checks: dual monotonicity, dense cross-validation."""

    def __init__(self, spec, config):
        self.spec = spec
        self.last = None
        self.oracle = None
        if config.oracle_check:
            self.oracle = DenseEngine(spec)

    def check_update(self, pots, label):
        d = dual_objective(pots, self.spec)
        if self.last is not None and math.isfinite(self.last):
            if d < self.last - _MONOTONE_SLACK * max(1.0, abs(self.last)):
                raise VerificationFailure(
                    "dual objective dropped from %.17g to %.17g at %s" % (self.last, d, label))
        self.last = d

    def check_projections(self, pots, engine, sweep):
        if self.oracle is None:
            return
        for kind, where in self.spec.blocks:
            name = "marginal" if kind == "node" else "bimarginal"
            a = getattr(engine, name)(where, pots)
            b = getattr(self.oracle, name)(where, pots)
            _assert_scaled_close(a, b, 1e-8, "%s %r at sweep %d" % (name, where, sweep))


def _assert_scaled_close(a, b, rtol, label):
    av, bv = a.value(), b.value()
    scale = max(float(np.max(np.abs(bv))), 1e-300)
    err = float(np.max(np.abs(av - bv))) / scale
    if not err <= rtol:
        raise VerificationFailure("projection mismatch (%.3g relative) for %s" % (err, label))


class _Updater:
    """One sweep of block updates, tracking change size and verifying if asked."""

    def __init__(self, spec, pots, verifier, sweep_no):
        self.spec = spec
        self.pots = pots
        self.verifier = verifier
        self.sweep_no = sweep_no
        self.max_change = 0.0

    @staticmethod
    def _log_change(old, new):
        lo, ln = old.log_value(), new.log_value()
        both = np.isfinite(lo) & np.isfinite(ln)
        if np.any(np.isfinite(lo) != np.isfinite(ln)):
            return math.inf
        if not both.any():
            return 0.0
        return float(np.max(np.abs(lo[both] - ln[both])))

    def sweep(self, engine):
        """Walk ``engine.order``, then rebuild the backward messages.

        A node or edge step computes its projection weight once and updates
        each stacked part against it times the other parts' factors; steps
        on zero costs are skipped.
        """
        pots = self.pots
        for kind, where in engine.order:
            if kind == "push":
                engine.push_forward(where, pots)
                continue
            fn = self.spec.blocks.get((kind, where))
            if fn is None or fn.is_zero:
                continue
            w = (engine.w_node if kind == "node" else engine.w_edge)(where, pots)
            factors = (pots.nodes if kind == "node" else pots.edges)[where]
            label = "%s %r" % (kind, where)
            for k, part in enumerate(_parts(fn)):
                if not part.is_zero:
                    self._apply(factors, k, part, w, label)
        engine.rebuild_backward(pots)

    def _apply(self, factors, k, part, w, label):
        if len(factors) > 1:
            others = [factors[i] for i in range(len(factors)) if i != k]
            w_eff = smul(w, *others)
        else:
            w_eff = w
        try:
            new = part.solve_inclusion(w_eff, self.spec.epsilon)
        except Infeasible as exc:
            raise Infeasible("%s, sweep %d: %s" % (label, self.sweep_no, exc)) from exc
        self.max_change = max(self.max_change, self._log_change(factors[k], new))
        factors[k] = new
        if self.verifier is not None:
            self.verifier.check_update(self.pots, label)


def _sanity_checks(spec):
    masses = [("%s %r" % block, float(np.sum(part.target)))
              for block, fn in spec.blocks.items() for part in _parts(fn)
              if getattr(part, "target", None) is not None]
    if len(masses) > 1:
        ref_where, ref = masses[0]
        for where, m in masses[1:]:
            if abs(m - ref) > 1e-9 * max(1.0, abs(ref)):
                raise Infeasible("equality targets carry different masses: %s has %.12g, "
                                 "%s has %.12g" % (ref_where, ref, where, m))


def solve(spec, config=None, initial=None):
    """Run the coordinate ascent to convergence.

    Returns the final potentials together with a :class:`SolveReport`.
    Termination requires every hard constraint residual at or below the
    feasibility tolerance and the largest relative potential change of the
    sweep at or below the potential tolerance.  An :class:`Infeasible`
    raised by an update carries the partial report as ``exc.report``: the
    sweeps begun, the per-sweep history, and the residuals of the
    potentials as they stood when the update failed.
    """
    config = config or SolverConfig()
    _sanity_checks(spec)
    rescale = RescaleLog()
    engine = make_engine(spec, rescale)
    pots = initial.copy() if initial is not None else DualPotentials.ones_for(spec)
    verifier = _Verifier(spec, config) if (config.verify or config.oracle_check) else None

    report = SolveReport()
    t0 = time.perf_counter()
    engine.rebuild_backward(pots)
    warned_divergence = False
    warned_dual = False
    sweep = 0
    for sweep in range(1, config.max_sweeps + 1):
        upd = _Updater(spec, pots, verifier if config.verify else None, sweep)
        try:
            upd.sweep(engine)
        except Infeasible as exc:
            report.sweeps = sweep
            report.residuals = residuals(pots, spec)
            report.wall_time_s = time.perf_counter() - t0
            report.rescale_events = rescale.events
            report.termination = "infeasible"
            exc.report = report
            raise
        res = residual_map(pots, spec, engine)
        max_res = max(res.values(), default=0.0)
        dual = dual_objective(pots, spec, engine)
        report.dual_values.append(dual)
        report.max_residuals.append(max_res)
        if verifier is not None and config.oracle_check:
            verifier.check_projections(pots, engine, sweep)
        if not warned_dual and len(report.dual_values) >= 2:
            prev = report.dual_values[-2]
            if math.isfinite(prev) and dual < prev - _MONOTONE_SLACK * max(1.0, abs(prev)):
                report.warnings.append("dual objective decreased at sweep %d" % sweep)
                warned_dual = True
        if not warned_divergence and pots.max_abs_log() > config.log_potential_bound:
            report.warnings.append("dual iterates exceed log bound %g; the dual may not "
                                   "attain its supremum" % config.log_potential_bound)
            warned_divergence = True
        if config.callback is not None:
            config.callback(sweep, dual, max_res)
        if max_res <= config.feasibility_tol and upd.max_change <= config.potential_tol:
            report.termination = "converged"
            break
    if not report.termination:
        report.termination = "max_sweeps"
    report.sweeps = sweep
    report.residuals = residual_map(pots, spec, engine)
    report.feasible = report.max_residual <= config.feasibility_tol
    report.wall_time_s = time.perf_counter() - t0
    report.rescale_events = rescale.events
    if any(not math.isfinite(d) for d in report.dual_values):
        report.warnings.append("dual objective was -inf at some sweeps "
                               "(multiplier outside a conjugate domain)")
    return pots, report
