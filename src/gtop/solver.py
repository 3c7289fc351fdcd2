"""Cyclic exact maximization of the dual, one node or edge block at a time.

Every update solves its block's stationarity inclusion exactly, so the dual
objective never decreases.  Each sweep walks the engine's fixed update
order (``engine.order``): the path engine updates the blocks at each path
node and pushes the forward message past it, the dense engine updates every
node and then every edge.  A backward rebuild closes the sweep so
end-of-sweep projections are current.  Only ``spec.blocks`` are coordinates:
a cost whose update ignores its weight is a constant of the spec, which no
sweep, residual, dual term, try or warm start sees.  The updater records
the largest log change and finite |log| of the factors it writes, and the
factors they replace; the engine counts its rescales.

Between exact sweeps the solver may try one safeguarded Anderson-mixed
point (type II; Walker and Ni, SIAM J. Numer. Anal. 49(4), 2011).  A try
is due once the sweeps' largest log changes settle: ``_RATE_RATIOS`` ratios
agree within ``_RATE_SPREAD``, the last, rho, is below 1 and the tail still
projects ``_MIN_SWEEPS_LEFT`` sweeps to the potential tolerance; none is
made while the largest residual stays flat above the feasibility tolerance
(``_stalled``), as on the dual ray of infeasible data.  A sweep
maps the log factors x_j it replaces to outputs g_j, with residuals f_j =
g_j - x_j.  Over the last ``_MIX_DEPTH`` + 1 exact sweeps after the first
the trial is g_k - dG gamma, gamma minimizing |f_k - dF gamma|^2 plus
``_MIX_REGULARIZATION`` times the largest diagonal entry of dF'dF times
|gamma|^2, on the entries finite in every sweep; the others keep g_k, so
-inf stays -inf, and a factor whose outputs did not change stays.  The
trial is clipped to each part's ``log_factor_bounds``, widened to g_k: past
them the conjugate is flat or infinite, so the dual only loses.  As a
safeguard (Zhang, O'Donoghue and Boyd, arXiv 1808.03971) the backward
messages are rebuilt and the dual taken at ``engine.order[0]``.  Outside
``_ROUNDOFF_BAND`` of the sweep's dual the try is kept if the dual rose.  A
late try gains about the square of the potential error, below the dual's
roundoff, so inside the band it is kept if the trapezoid (g'(0) + g'(1)) /
2 of the dual's slope along d = log u_trial - log u_k is positive: g' =
sum_b eps <grad f*_b(s_b) - P_b, d_b> over the moved factors, with s_b =
-eps log u_b, P_b the block's projection and grad f*_b the end of its
conjugate subgradient that the sign of d_b picks, 0 where that end is
infinite (a roundoff-level move in the tolerance band of a linear or box
cost).  g'(1) needs the forward messages pushed at the trial point too.
A rejected try puts back the replaced factors and the message lists.  Only
sweeps after the last try enter the rate, and only exact sweeps the mixing,
the stop decision, the callback, ``dual_values`` and ``max_residuals``.
``extrapolations`` lists each try as ``(sweep, rho, kept)``.  On the
benchmark's seed-0 instances the tries take dense_cycle to 19 sweeps (82
without), chain_steer to 20 (31), mfg_hub to 12 (16) and flow_od to 118
(1644).
"""

import contextlib
import functools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (GtopError, Infeasible, InvalidInput, NumericalFailure, SizeBoundExceeded,
                     VerificationFailure)
from .model import DualPotentials, ScaledArray, dual_objective, smul
from .projections import DenseEngine, make_engine

# Relative change read as roundoff: of the dual, before a verified solve
# fails or a report warns; of the largest residual over the rate window,
# which then stays flat (``_stalled``); of the plan mass between projections.
_MONOTONE_SLACK = 1e-9
# Largest |log| of a dual iterate before a solve warns that the dual may
# not attain its supremum.
_LOG_POTENTIAL_BOUND = 1e5
# The trigger and the mixing of a try, as the module docstring describes them.
_RATE_RATIOS = 3
_RATE_SPREAD = 0.3
_MIN_SWEEPS_LEFT = 4.0
_MIX_DEPTH = 5
_MIX_REGULARIZATION = 1e-12
# Trial and sweep duals closer than this, relative to max(1, |dual|), differ
# by roundoff (blocks disagree on the dual by up to 8 ulps).
_ROUNDOFF_BAND = 16 * np.finfo(float).eps


@dataclass
class SolverConfig:
    feasibility_tol: float = 1e-8
    potential_tol: float = 1e-9
    max_sweeps: int = 10000
    verify: bool = False
    callback: object = None

    def __post_init__(self):
        if not (0 < self.feasibility_tol < math.inf and 0 < self.potential_tol < math.inf):
            raise InvalidInput("tolerances must be finite and positive")
        if isinstance(self.max_sweeps, bool) or not isinstance(self.max_sweeps, numbers.Integral) \
                or self.max_sweeps < 1:
            raise InvalidInput("max_sweeps must be an integer >= 1, got %r" % (self.max_sweeps,))


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
    extrapolations: list = field(default_factory=list)

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
    The constants of the spec hold exactly and are not listed.  Every
    projection carries the one plan mass: a total that differs from the
    first one's beyond roundoff raises ``NumericalFailure`` naming both,
    with the whole map as its ``residuals``.
    """
    out, first, off = {}, None, None
    for (kind, where), parts in spec.blocks.items():
        key = "node:%d" % where if kind == "node" else "edge:%d-%d" % where
        p = None
        for k, part in enumerate(parts):
            if part.hard and p is None:
                p = engine.projection((kind, where), potentials).value()
                mass = (kind, where, float(p.sum()))
                first = first or mass
                if off is None and abs(mass[2] - first[2]) > _MONOTONE_SLACK * max(1.0, first[2]):
                    off = mass
            name = key if len(parts) == 1 else "%s#%d" % (key, k)
            out[name] = part.feasibility_residual(p) if part.hard else 0.0
    if off is not None:
        exc = NumericalFailure("projections disagree on the plan mass: %s %r carries %.12g, "
                               "%s %r carries %.12g" % (*first, *off))
        exc.residuals = out
        raise exc
    return out


class _Verifier:
    """Optional per-update checks: dual monotonicity, dense cross-validation.

    After an update the dual takes its plan mass from the solve engine's
    projection of the block just updated, whose messages the sweep keeps
    current.  The projections of every node and edge, blocks or not, are
    checked each sweep against a dense oracle's full contraction, which
    includes the block's own factor, when the solve engine is not dense (a
    second copy of it would check nothing) and the instance fits the dense
    budget.
    """

    def __init__(self, spec, engine):
        self.spec = spec
        self.engine = engine
        self.last = None
        self.oracle = None
        if not isinstance(engine, DenseEngine):
            try:
                self.oracle = DenseEngine(spec)
            except SizeBoundExceeded:
                pass

    def check_update(self, pots, block):
        d = dual_objective(pots, self.spec, self.engine, block)
        if self.last is not None and math.isfinite(self.last):
            if d < self.last - _MONOTONE_SLACK * max(1.0, abs(self.last)):
                raise VerificationFailure("dual objective dropped from %.17g to %.17g at %s %r"
                                          % (self.last, d, *block))
        self.last = d

    def check_projections(self, pots, engine, sweep):
        if self.oracle is None:
            return
        for kind, where in self.oracle.order:
            keep = (where,) if kind == "node" else where
            a = engine.projection((kind, where), pots).value()
            b = self.oracle.project(pots, keep).value()
            err = float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)
            if not err <= 1e-8:
                raise VerificationFailure("projection mismatch (%.3g relative) for %s %r at "
                                          "sweep %d" % (err, kind, where, sweep))


class _Updater:
    """One sweep of block updates, verified if asked.  It records the largest
    log change (``max_change``), the largest finite |log| of a new factor
    (``max_abs_log``) and, in ``replaced``, each overwrite's (block, part
    index, log of the old factor)."""

    def __init__(self, spec, pots, verifier, sweep_no):
        self.spec = spec
        self.pots = pots
        self.verifier = verifier
        self.sweep_no = sweep_no
        self.max_change = 0.0
        self.max_abs_log = 0.0
        self.replaced = []

    @staticmethod
    def _log_change(old, new):
        """Largest change of a log potential: inf where only one side is -inf,
        nothing where both are (the NaN that fmax skips)."""
        with np.errstate(invalid="ignore"):
            return float(np.fmax.reduce(np.abs(old.log_value() - new.log_value()),
                                        axis=None, initial=0.0))

    def sweep(self, engine):
        """Walk ``engine.order``, then rebuild the backward messages.  A block
        step takes its projection weight once and updates each stacked part
        against it times the block's other factors and its constant.  A
        package error names the step and the sweep."""
        try:
            for block in engine.order:
                kind, where = block
                if kind == "push":
                    engine.push_forward(where, self.pots)
                elif block in self.spec.blocks:
                    w = (engine.w_node if kind == "node" else engine.w_edge)(where, self.pots)
                    for k, part in enumerate(self.spec.blocks[block]):
                        self._apply(self.pots.factors[block], k, part, w, block)
            block = None
            engine.rebuild_backward(self.pots)
        except GtopError as exc:
            where = "" if block is None else "%s %r, " % block
            raise type(exc)("%ssweep %d: %s" % (where, self.sweep_no, exc)) from exc

    def _apply(self, factors, k, part, w, block):
        others = [f for i, f in enumerate(factors) if i != k]
        if block in self.pots.constants:
            others.append(self.pots.constants[block])
        new = part.solve_inclusion(smul(w, *others) if others else w, self.spec.epsilon)
        self.max_change = max(self.max_change, self._log_change(factors[k], new))
        self.max_abs_log = max(self.max_abs_log, new.max_abs_log())
        self.replaced.append((block, k, factors[k].log_value()))
        factors[k] = new
        if self.verifier is not None:
            self.verifier.check_update(self.pots, block)


class _Mixer:
    """The trigger and the proposal of a try (module docstring).  ``pairs``
    holds the inputs and outputs of each exact sweep's replaced factors, as
    references to their cached log arrays: one sweep's outputs are the next
    one's inputs, so nothing is copied."""

    def __init__(self, potential_tol):
        self.tol = potential_tol
        self.changes = []
        self.pairs = []

    def record(self, pots, upd):
        """Record an exact sweep ``upd``; rho if a try is due, else None.
        Sweep 1, whose inputs are the start, enters the rate only."""
        change, replaced = upd.max_change, upd.replaced
        if upd.sweep_no > 1:
            self.pairs = self.pairs[-_MIX_DEPTH:] + [([old for *_, old in replaced], [
                pots.factors[block][k].log_value() for block, k, _ in replaced])]
        self.changes.append(change)
        window = self.changes[-_RATE_RATIOS - 1:]
        if len(window) <= _RATE_RATIOS or not all(0.0 < c < math.inf for c in window):
            return None
        ratios = [b / a for a, b in zip(window, window[1:])]
        rho = ratios[-1]
        if max(ratios) > (1.0 + _RATE_SPREAD) * min(ratios) or not rho < 1.0 \
                or math.log(self.tol / change) / math.log(rho) < _MIN_SWEEPS_LEFT:
            return None
        return rho

    def _rows(self, i, side):
        """Factor ``i``'s raveled inputs (side 0) or outputs (side 1), one row a pair."""
        return np.stack([pair[side][i].ravel() for pair in self.pairs])

    def proposal(self):
        """The mixed log array of each factor the last sweep replaced, or None
        if the residuals did not change.  The Gram matrix of the residuals is
        summed factor by factor, each over its entries finite in every pair."""
        m, last = len(self.pairs), self.pairs[-1][1]
        gram, masks = np.zeros((m, m)), []
        for i in range(len(last)):
            with np.errstate(invalid="ignore"):
                f = self._rows(i, 1) - self._rows(i, 0)
            masks.append(np.all(np.isfinite(f), axis=0))
            gram += f[:, masks[i]] @ f[:, masks[i]].T
        diff = np.diff(np.eye(m), axis=1)
        normal = diff.T @ gram @ diff
        scale = float(np.max(np.diag(normal)))
        if not 0.0 < scale < math.inf:
            return None
        normal += _MIX_REGULARIZATION * scale * np.eye(m - 1)
        gamma = np.linalg.solve(normal, diff.T @ gram[:, -1])
        mixed = []
        for i, (g, mask) in enumerate(zip(last, masks)):
            step = gamma @ np.diff(self._rows(i, 1)[:, mask], axis=0)
            if not np.any(step):
                mixed.append(g)  # its outputs did not change: the factor stays
                continue
            x = g.ravel().copy()
            x[mask] -= step
            mixed.append(x.reshape(g.shape))
        return mixed


@contextlib.contextmanager
def _named(where):
    """Prefix ``where`` to the message of a package error raised inside."""
    try:
        yield
    except GtopError as exc:
        raise type(exc)("%s: %s" % (where, exc)) from exc


def _stalled(residuals, tol):
    """The largest residual stays flat above ``tol``, as along a dual ray."""
    first, last = residuals[-1 - _RATE_RATIOS], residuals[-1]
    return last > tol and abs(last - first) <= _MONOTONE_SLACK * first


def _try_extrapolation(spec, pots, engine, replaced, dual, proposal):
    """Move the factors in ``replaced`` to the log arrays of ``proposal`` and
    keep the move if the dual rose, or inside the roundoff band if its slope
    says so (module docstring); else put back the factors and message lists."""
    slots = [(pots.factors[block], k) for block, k, _ in replaced]
    swept = [fs[k] for fs, k in slots]
    for (fs, k), (block, _, _), log_u in zip(slots, replaced, proposal):
        g = fs[k].log_value()
        if log_u is g:
            continue
        # The part's range, widened to the sweep's output (module docstring).
        lo, hi = spec.blocks[block][k].log_factor_bounds(spec.epsilon)
        log_u = np.clip(log_u.ravel(), np.minimum(lo, g.ravel()), np.maximum(hi, g.ravel()))
        fs[k] = ScaledArray.from_log(log_u, g.shape)
    trial = [fs[k] for fs, k in slots]
    lists = [getattr(engine, name) for name in ("fwd", "bwd") if hasattr(engine, name)]
    saved = [list(msgs) for msgs in lists]

    def install(factors, messages):
        for (fs, k), f in zip(slots, factors):
            fs[k] = f
        for msgs, entries in zip(lists, messages):
            msgs[:] = entries

    engine.rebuild_backward(pots)
    trial_dual = dual_objective(pots, spec, engine, engine.order[0])
    if not abs(trial_dual - dual) <= _ROUNDOFF_BAND * max(1.0, abs(dual)):
        kept = trial_dual > dual
        if not kept:
            install(swept, saved)
        return kept
    moves = [(block, k, _log_diff(t.log_value(), u.log_value()).ravel())
             for (block, k, _), u, t in zip(replaced, swept, trial) if t is not u]
    # The backward messages are current: the forward pushes complete a refresh.
    for kind, where in engine.order:
        if kind == "push":
            engine.push_forward(where, pots)
    slope_at_trial = _dual_slope(spec, pots, engine, moves)
    at_trial = [list(msgs) for msgs in lists]
    install(swept, saved)
    # The trapezoid (g'(0) + g'(1)) / 2 has the sign of the sum.
    kept = _dual_slope(spec, pots, engine, moves) + slope_at_trial > 0.0
    if kept:
        install(trial, at_trial)
    return kept


def _dual_slope(spec, pots, engine, moves):
    """The dual's slope along ``moves``, (block, part index, d) entries, at the
    current factors: sum over them of eps <grad f*(s) - P, d>, where grad f*
    is the subgradient end that the sign of d picks and counts as 0 where it
    is infinite (module docstring).  The engine's messages must be current."""
    eps = spec.epsilon
    projected = {}
    slope = 0.0
    for block, k, d in moves:
        p = projected.get(block)
        if p is None:
            p = projected[block] = engine.projection(block, pots).value().ravel()
        s = -eps * pots.factors[block][k].log_value().ravel()
        lower, upper = spec.blocks[block][k].conjugate_subgradient(s)
        end = np.where(d > 0.0, lower, upper)
        end[~np.isfinite(end)] = 0.0
        slope += eps * float(np.dot(end - p, d))
    return slope


def _log_diff(a, b):
    """``a - b`` for two log arrays, 0 where either side is -inf."""
    with np.errstate(invalid="ignore"):
        diff = a - b
    diff[~np.isfinite(diff)] = 0.0
    return diff


def _sanity_checks(spec):
    """Presolve, with a relative slack of 1e-9.  The stacked parts of a block
    and its constant's zeros bound every entry of its projection, so these
    must meet, or the block and the entry are named.  Every marginal carries
    the one plan mass, so the summed bounds must meet, or two blocks are named."""
    lo, hi = (0.0, None), (math.inf, None)
    for block in {**spec.blocks, **spec.constants}:
        shape = spec.block_shape(block)
        n = math.prod(shape)
        bounds = [part.entry_bounds(n) for part in spec.blocks.get(block, ())]
        if block in spec.constants:
            bounds.append((np.zeros(n), np.where(spec.constants[block].m.ravel() > 0, np.inf, 0)))
        lows, highs = zip(*bounds)
        a, b = functools.reduce(np.maximum, lows), functools.reduce(np.minimum, highs)
        crossed = np.flatnonzero(a > b + 1e-9 * np.maximum(1.0, np.abs(b))) if bounds[1:] else ()
        if len(crossed):
            i = int(crossed[0])
            raise Infeasible("%s %r has no feasible value at entry %r: its parts need at least "
                             "%.12g there and allow at most %.12g"
                             % (*block, divmod(i, shape[1]) if len(shape) == 2 else i, a[i], b[i]))
        a, b = float(np.sum(a)), float(np.sum(b))
        if a > lo[0]:
            lo = (a, block)
        if b < hi[0]:
            hi = (b, block)
    if lo[0] - hi[0] > 1e-9 * max(1.0, abs(hi[0])):
        raise Infeasible("the plan mass has no feasible value: %s %r needs at least %.12g, "
                         "%s %r allows at most %.12g" % (*lo[1], lo[0], *hi[1], hi[0]))


def _check_warm_start(spec, initial):
    """``InvalidInput`` naming the first block where ``initial`` differs from
    ``spec.blocks``: factors where there is no block, which no sweep would
    update, or a block's factor count or shapes, which numpy would broadcast."""
    for block in initial.factors:
        if block not in spec.blocks:
            raise InvalidInput("warm start has factors for %r, which is not a block of the "
                               "spec (no cost there, or only constants)" % (block,))
    for block, parts in spec.blocks.items():
        shapes = [f.shape for f in initial.factors.get(block, ())]
        if shapes != [spec.block_shape(block)] * len(parts):
            raise InvalidInput("warm start: %s %r has factors of shapes %r, its cost needs %d "
                               "of shape %r" % (*block, shapes, len(parts),
                                                spec.block_shape(block)))


def solve(spec, config=None, initial=None):
    """Run the coordinate ascent to convergence.

    Returns the final potentials together with a :class:`SolveReport`.
    Termination requires every hard constraint residual at or below the
    feasibility tolerance and the largest relative potential change of the
    sweep at or below the potential tolerance; a solve that stops at
    ``max_sweeps`` short of feasibility warns with its worst block.  Between
    sweeps the solver may try an Anderson-mixed point (module docstring).
    ``initial``, a warm start, must be keyed and shaped like ``spec.blocks``
    (``InvalidInput`` otherwise).  Every projection comes from the one engine
    built here.  A package error raised once sweep 1 has begun carries the
    partial report as ``exc.report`` (termination "infeasible" or "error"):
    the sweeps begun, their history and rescales, and the residuals as the
    failure left them, if the engine still refreshes.
    """
    config = config or SolverConfig()
    _sanity_checks(spec)
    pots = DualPotentials.ones_for(spec)
    if initial is not None:
        _check_warm_start(spec, initial)
        pots.factors = {b: [f.copy() for f in fs] for b, fs in initial.factors.items()}
    engine = make_engine(spec)
    verifier = _Verifier(spec, engine) if config.verify else None

    report = SolveReport()
    t0 = time.perf_counter()
    engine.rebuild_backward(pots)
    try:
        done, res = _ascend(spec, config, engine, pots, verifier, report)
    except GtopError as exc:
        # The count is read first: this refresh's rescales are not the solve's.
        report.rescale_events = engine.rescale_events
        report.termination = "infeasible" if isinstance(exc, Infeasible) else "error"
        try:
            engine.refresh(pots)
            report.residuals = residual_map(pots, spec, engine)
        except GtopError as again:
            report.residuals = getattr(again, "residuals", {})
        report.wall_time_s = time.perf_counter() - t0
        exc.report = report
        raise
    report.termination = "converged" if done else "max_sweeps"
    report.residuals, report.rescale_events = res, engine.rescale_events
    report.wall_time_s = time.perf_counter() - t0
    report.feasible = report.max_residual <= config.feasibility_tol
    if not done and not report.feasible:
        worst = max(res, key=res.get)
        report.warnings.append("stopped at max_sweeps with residual %.6g at %s, above "
                               "feasibility_tol %g" % (res[worst], worst, config.feasibility_tol))
    if any(not math.isfinite(d) for d in report.dual_values):
        report.warnings.append("dual objective was -inf at some sweeps "
                               "(multiplier outside a conjugate domain)")
    return pots, report


def _ascend(spec, config, engine, pots, verifier, report):
    """The sweeps and tries of :func:`solve`, recorded in ``report``; ``(done, residuals)``."""
    warned_divergence = warned_dual = False
    mixer = _Mixer(config.potential_tol)
    for sweep in range(1, config.max_sweeps + 1):
        report.sweeps = sweep
        upd = _Updater(spec, pots, verifier, sweep)
        upd.sweep(engine)
        with _named("sweep %d" % sweep):
            res = residual_map(pots, spec, engine)
            dual = dual_objective(pots, spec, engine)
        max_res = max(res.values(), default=0.0)
        report.dual_values.append(dual)
        report.max_residuals.append(max_res)
        if verifier is not None:
            verifier.check_projections(pots, engine, sweep)
        if not warned_dual and len(report.dual_values) >= 2:
            prev = report.dual_values[-2]
            if math.isfinite(prev) and dual < prev - _MONOTONE_SLACK * max(1.0, abs(prev)):
                report.warnings.append("dual objective decreased at sweep %d" % sweep)
                warned_dual = True
        if not warned_divergence and upd.max_abs_log > _LOG_POTENTIAL_BOUND:
            report.warnings.append("dual iterates exceed log bound %g at sweep %d; the dual "
                                   "may not attain its supremum" % (_LOG_POTENTIAL_BOUND, sweep))
            warned_divergence = True
        if config.callback is not None:
            config.callback(sweep, dual, max_res)
        if max_res <= config.feasibility_tol and upd.max_change <= config.potential_tol:
            return True, res
        rho = mixer.record(pots, upd)
        # A try is decided by the dual, which must be finite for that.
        if (rho is not None and sweep < config.max_sweeps and dual > -math.inf
                and not _stalled(report.max_residuals, config.feasibility_tol)):
            mixer.changes = []
            proposal = mixer.proposal()
            if proposal is not None:
                with _named("sweep %d, try" % sweep):
                    kept = _try_extrapolation(spec, pots, engine, upd.replaced, dual, proposal)
                report.extrapolations.append((sweep, rho, kept))
    return False, res
