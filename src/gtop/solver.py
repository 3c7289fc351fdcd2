"""Cyclic exact maximization of the dual, one node or edge block at a time.

Every update solves its block's stationarity inclusion exactly, so the dual
objective never decreases.  Sweeps follow the message flow of the path
engine: backward messages are prepared once, then each sweep walks the
path forward, updating blocks and pushing forward messages as it goes, and
closes with a backward rebuild so end-of-sweep projections are current.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, InvalidInput, VerificationFailure
from .model import GENERAL, DualPotentials, RescaleLog, _parts, dual_objective, smul
from .projections import DenseEngine, make_engine


@dataclass
class SolverConfig:
    feasibility_tol: float = 1e-8
    potential_tol: float = 1e-9
    max_sweeps: int = 10000
    renorm_threshold: float = 200.0
    verify: bool = False
    oracle_check: bool = False
    callback: object = None
    log_potential_bound: float = 1e5
    monotone_slack: float = 1e-9

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


@dataclass(frozen=True)
class Schedule:
    """Ordered update targets: ("node", j, k) and ("edge", e, k) entries."""

    targets: tuple

    @classmethod
    def default_for(cls, spec):
        targets = []
        for j in range(spec.topology.node_count):
            fn = spec.node_fn(j)
            if fn.is_zero:
                continue
            for k in range(len(_parts(fn))):
                targets.append(("node", j, k))
        for e in spec.functional_edges:
            for k in range(len(_parts(spec.edge_fn(e)))):
                targets.append(("edge", e, k))
        return cls(tuple(targets))

    def validate(self, spec):
        needed = set(Schedule.default_for(spec).targets)
        have = set(self.targets)
        missing = needed - have
        if missing:
            raise InvalidInput("schedule misses update targets %r" % (sorted(missing),))
        for kind, where, k in have:
            if kind == "node":
                if not (0 <= where < spec.topology.node_count):
                    raise InvalidInput("schedule targets missing node %r" % (where,))
                parts = _parts(spec.node_fn(where))
            elif kind == "edge":
                if tuple(where) not in spec.topology.edges:
                    raise InvalidInput("schedule targets missing edge %r" % (where,))
                parts = _parts(spec.edge_fn(tuple(where)))
            else:
                raise InvalidInput("unknown schedule target kind %r" % (kind,))
            if not (0 <= k < len(parts)):
                raise InvalidInput("schedule part index %d out of range for %s %r"
                                   % (k, kind, where))


def _cost_blocks(spec):
    """(kind, where, key, parts) for every node and functional edge."""
    blocks = [("node", j, "node:%d" % j, _parts(spec.node_fn(j)))
              for j in range(spec.topology.node_count)]
    blocks += [("edge", e, "edge:%d-%d" % e, _parts(spec.edge_fn(e)))
               for e in spec.functional_edges]
    return blocks


def residual_map(potentials, spec, engine):
    """Feasibility residual per cost block, from current projections.

    Hard blocks (equality, box) report their violation; soft costs report
    zero without a projection.  A node or edge is projected at most once,
    however many hard parts it stacks; stacked parts get keys ``key#k``.
    """
    out = {}
    for kind, where, key, parts in _cost_blocks(spec):
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
        self.slack = config.monotone_slack
        self.last = None
        self.oracle = None
        if config.oracle_check:
            self.oracle = DenseEngine(spec)

    def check_update(self, pots, label):
        d = dual_objective(pots, self.spec)
        if self.last is not None and math.isfinite(self.last):
            if d < self.last - self.slack * max(1.0, abs(self.last)):
                raise VerificationFailure(
                    "dual objective dropped from %.17g to %.17g at %s" % (self.last, d, label))
        self.last = d

    def check_projections(self, pots, engine, sweep):
        if self.oracle is None:
            return
        for j in range(self.spec.topology.node_count):
            a = engine.marginal(j, pots)
            b = self.oracle.marginal(j, pots)
            _assert_scaled_close(a, b, 1e-8, "marginal %d at sweep %d" % (j, sweep))
        for e in self.spec.functional_edges:
            a = engine.bimarginal(e, pots)
            b = self.oracle.bimarginal(e, pots)
            _assert_scaled_close(a, b, 1e-8, "bimarginal %r at sweep %d" % (e, sweep))


def _assert_scaled_close(a, b, rtol, label):
    av, bv = a.value(), b.value()
    scale = max(float(np.max(np.abs(bv))), 1e-300)
    err = float(np.max(np.abs(av - bv))) / scale
    if not err <= rtol:
        raise VerificationFailure("projection mismatch (%.3g relative) for %s" % (err, label))


class _Updater:
    """Applies block updates, tracking change size and verifying if asked."""

    def __init__(self, spec, pots, verifier, sweep):
        self.spec = spec
        self.pots = pots
        self.verifier = verifier
        self.sweep = sweep
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

    def _apply(self, factors, k, part, w, epsilon, label):
        if len(factors) > 1:
            others = [factors[i] for i in range(len(factors)) if i != k]
            w_eff = smul(w, *others)
        else:
            w_eff = w
        try:
            new = part.solve_inclusion(w_eff, epsilon)
        except Infeasible as exc:
            raise Infeasible("%s, sweep %d: %s" % (label, self.sweep, exc)) from exc
        self.max_change = max(self.max_change, self._log_change(factors[k], new))
        factors[k] = new
        if self.verifier is not None:
            self.verifier.check_update(self.pots, label)

    def node(self, j, w):
        fn = self.spec.node_fn(j)
        factors = self.pots.nodes[j]
        for k, part in enumerate(_parts(fn)):
            if part.is_zero:
                continue
            self._apply(factors, k, part, w, self.spec.epsilon, "node %d" % j)

    def edge(self, e, w):
        fn = self.spec.edge_fn(e)
        factors = self.pots.edges[e]
        for k, part in enumerate(_parts(fn)):
            if part.is_zero:
                continue
            self._apply(factors, k, part, w, self.spec.epsilon, "edge %r" % (e,))


class _PathDriver:
    """Sweeps the path of a chain, od_cycle or species_hub spec left to right.

    At each path node it updates the carried edge, the node and the path
    edge to the right, then pushes the forward message past the node; one
    backward rebuild closes the sweep.
    """

    def __init__(self, spec):
        self.spec = spec

    def sweep(self, engine, pots, upd):
        spec = self.spec
        for j in range(engine.T):
            e = engine.carried.get(j)
            if e is not None and not spec.edge_fn(e).is_zero:
                upd.edge(e, engine.w_edge(e, pots))
            if not spec.node_fn(j).is_zero:
                upd.node(j, engine.w_node(j, pots))
            if j < engine.T - 1:
                e = (j, j + 1)
                if not spec.edge_fn(e).is_zero:
                    upd.edge(e, engine.w_edge(e, pots))
                engine.push_forward(j, pots)
        engine.rebuild_backward(pots)


class _DenseDriver:
    def __init__(self, spec, schedule=None):
        self.spec = spec
        self.schedule = schedule or Schedule.default_for(spec)
        self.schedule.validate(spec)

    def sweep(self, engine, pots, upd):
        spec = self.spec
        for kind, where, k in self.schedule.targets:
            if kind == "node":
                part = _parts(spec.node_fn(where))[k]
                if part.is_zero:
                    continue
                w = engine.w_node(where, pots)
                upd._apply(pots.nodes[where], k, part, w, spec.epsilon, "node %d" % where)
            else:
                part = _parts(spec.edge_fn(where))[k]
                if part.is_zero:
                    continue
                w = engine.w_edge(where, pots)
                upd._apply(pots.edges[where], k, part, w, spec.epsilon, "edge %r" % (where,))


def _driver_for(spec, schedule):
    if spec.topology.kind == GENERAL:
        return _DenseDriver(spec, schedule)
    if schedule is not None:
        raise InvalidInput("custom schedules are supported only on general topologies; "
                           "structured sweeps have a fixed order")
    return _PathDriver(spec)


def _sanity_checks(spec):
    masses = []
    for j in range(spec.topology.node_count):
        for part in _parts(spec.node_fn(j)):
            target = getattr(part, "target", None)
            if target is not None:
                masses.append(("node %d" % j, float(np.sum(target))))
    for e in spec.functional_edges:
        for part in _parts(spec.edge_fn(e)):
            target = getattr(part, "target", None)
            if target is not None:
                masses.append(("edge %r" % (e,), float(np.sum(target))))
    if len(masses) > 1:
        ref_where, ref = masses[0]
        for where, m in masses[1:]:
            if abs(m - ref) > 1e-9 * max(1.0, abs(ref)):
                raise Infeasible("equality targets carry different masses: %s has %.12g, "
                                 "%s has %.12g" % (ref_where, ref, where, m))


def solve(spec, config=None, schedule=None, initial=None):
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
    rescale = RescaleLog(config.renorm_threshold)
    engine = make_engine(spec, rescale)
    driver = _driver_for(spec, schedule)
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
            driver.sweep(engine, pots, upd)
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
            if math.isfinite(prev) and dual < prev - config.monotone_slack * max(1.0, abs(prev)):
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
