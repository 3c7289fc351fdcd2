"""Outside-in spans around the calls into gtop's layers.

The tracer rebinds public functions and methods of ``gtop`` to timing
wrappers and puts the originals back on ``uninstall``; nothing under
``src/gtop`` changes.  Each span records its duration with ``perf_counter``
and charges it to the span that was open when it started (its parent), so a
span's self time is its duration minus the time of its children.  Totals per
span name are kept in memory; full span records only when asked for.

cProfile is not used: it inflates the many small calls of the message
passes by an order of magnitude or more.
"""

import inspect
import sys
import time

from gtop import builders, cli, functions, model, projections, solver

LAYERS = {"builders": builders, "cli": cli, "functions": functions, "model": model,
          "projections": projections, "solver": solver}

# Module-level functions, rebound wherever a gtop module refers to them.
FUNCTIONS = (
    "builders.build_flow_problem",
    "builders.build_mfg_problem",
    "cli.parse_config",
    "cli.run",
    "model.build_kernel",
    "model.dual_objective",
    "solver.residual_map",
    "solver.solve",
)

ENGINE_METHODS = ("rebuild_backward", "push_forward", "w_node", "w_edge",
                  "marginal", "bimarginal", "refresh")

RESIDUAL_MAP = "solver.residual_map"


def _classes_defining(module, attr):
    """Classes of ``module`` that define ``attr`` themselves (not by inheritance)."""
    return [cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and attr in cls.__dict__]


def _gtop_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "gtop" or name.startswith("gtop."))]


class Tracer:
    """Span recorder; ``install`` wraps the layer boundaries, ``uninstall`` restores them."""

    def __init__(self, keep_spans=False):
        self.stack = []
        self.totals = {}
        self.counters = {}
        self.spans = [] if keep_spans else None
        self._next_id = 1
        self._patches = []
        self._residual_depth = 0

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Forget totals, counters and kept spans (between solves)."""
        self.totals = {}
        self.counters = {}
        if self.spans is not None:
            self.spans = []

    def _wrap(self, name, fn, by_class=False):
        """Timing wrapper; a call nested directly in a span of the same name is not a new span.

        ``by_class`` appends the class of the first argument to the span name.
        """
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][4] == name:
                return fn(*args, **kwargs)
            key = "%s.%s" % (name, type(args[0]).__name__) if by_class else name
            parent = stack[-1][0] if stack else 0
            frame = [tracer._next_id, key, 0.0, 0.0, name, parent]
            tracer._next_id += 1
            stack.append(frame)
            frame[2] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer._close(frame, t1)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, t1):
        span_id, key, t0, child, _, parent = frame
        dur = t1 - t0
        own = dur - child
        tot = self.totals.get(key)
        if tot is None:
            tot = self.totals[key] = [0.0, 0.0, 0]
        tot[0] += dur
        tot[1] += own
        tot[2] += 1
        if self.stack:
            self.stack[-1][3] += dur
        if self.spans is not None:
            self.spans.append((span_id, parent, key, t0, t1, own))

    def _count_residual(self, fn):
        """Counts, per projection checked inside residual_map, whether its block is hard."""
        tracer = self

        def counted(*args, **kwargs):
            top = tracer._residual_depth == 0
            tracer._residual_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._residual_depth -= 1
            if top and tracer.stack and tracer.stack[-1][1] == RESIDUAL_MAP:
                c = tracer.counters
                c["projections"] = c.get("projections", 0) + 1
                if out is not None:
                    c["useful"] = c.get("useful", 0) + 1
            return out

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _gtop_modules()
        for name in FUNCTIONS:
            mod_name, attr = name.split(".")
            orig = getattr(LAYERS[mod_name], attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)
        for method in ENGINE_METHODS:
            for cls in _classes_defining(projections, method):
                self._patch(cls, method, self._wrap("projections." + method,
                                                    cls.__dict__[method]))
        for cls in _classes_defining(solver, "sweep"):
            self._patch(cls, "sweep", self._wrap("solver.sweep", cls.__dict__["sweep"]))
        for cls in _classes_defining(functions, "solve_inclusion"):
            self._patch(cls, "solve_inclusion",
                        self._wrap("functions.solve_inclusion",
                                   cls.__dict__["solve_inclusion"], by_class=True))
        for cls in _classes_defining(functions, "conjugate"):
            self._patch(cls, "conjugate", self._wrap("functions.conjugate",
                                                     cls.__dict__["conjugate"]))
        for cls in _classes_defining(functions, "feasibility_residual"):
            self._patch(cls, "feasibility_residual",
                        self._count_residual(cls.__dict__["feasibility_residual"]))
        self._patch(model.ScaledArray, "renormalize",
                    self._wrap("model.renormalize", model.ScaledArray.__dict__["renormalize"]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def total(self, key):
        """(seconds, self seconds, calls) of every span named ``key``."""
        s, own, calls = self.totals.get(key, (0.0, 0.0, 0))
        return s, own, calls

    def prefixed(self, prefix):
        """Summed (seconds, self seconds, calls) over span names starting with ``prefix``."""
        s = own = 0.0
        calls = 0
        for key, (ks, kown, kcalls) in self.totals.items():
            if key.startswith(prefix):
                s += ks
                own += kown
                calls += kcalls
        return s, own, calls

    def useful_ratio(self):
        """Share of residual_map's projections whose block reports a residual."""
        done = self.counters.get("projections", 0)
        return self.counters.get("useful", 0) / done if done else 0.0
