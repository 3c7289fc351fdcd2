"""The four benchmark workloads: seeded inputs, set-up, one solve, result checks.

Each workload turns a seed into inputs (seed 0 is the canonical instance,
other seeds perturb demands or densities by at most ``PERTURB`` relative),
builds a solvable problem from them (the timed set-up), runs one solve and
its output step, and checks the result.  Every call into ``gtop`` goes
through a module attribute looked up at call time, so the tracer in
``spans.py`` sees it.
"""

import copy
import dataclasses
import json
import os
import time

import numpy as np

from gtop import builders, cli, functions, model, projections, solver

PERTURB = 0.02
TOL = 1e-9
DUAL_RTOL = 1e-8

# Dual objective of the seed-0 full-size instances, recorded at the commit
# that introduced this benchmark.
REFERENCE_DUAL = {
    "flow_od": 100.59109985146816,
    "chain_steer": -2.5727573693009913,
    "mfg_hub": -1.1677226209686804,
    "dense_cycle": -0.70858674610952299,
}


def _jitter(rng, shape):
    """Relative perturbation factor: all ones for the canonical instance."""
    if rng is None:
        return np.ones(shape)
    return 1.0 + PERTURB * rng.uniform(-1.0, 1.0, shape)


class Outcome:
    """One solve: its timings, the solver's report and the CLI exit status.

    ``output_samples`` holds the output step after the solve and any
    repeats of it on the same solution.
    """

    def __init__(self, solve_s, output_s, report, status=0):
        self.solve_s = solve_s
        self.output_s = output_s
        self.output_samples = [output_s]
        self.report = report
        self.status = status


class SolveCapture:
    """Wraps ``gtop.solver.solve`` to time each call and keep its result.

    ``cli.run`` imports ``solve`` at call time, so rebinding the module
    attribute reaches the solve inside the CLI path as well.  With ``replay``
    set, the wrapper returns the last result without solving, so that the
    output step of ``cli.run`` can be timed again on the same solution.
    """

    def __init__(self):
        self.elapsed = None
        self.result = None
        self.replay = False
        self._orig = None

    def install(self):
        self._orig = orig = solver.solve

        def timed_solve(*args, **kwargs):
            t0 = time.perf_counter()
            if not self.replay:
                self.result = orig(*args, **kwargs)
            self.elapsed = time.perf_counter() - t0
            return self.result

        solver.solve = timed_solve

    def uninstall(self):
        solver.solve = self._orig
        self._orig = None


class Workload:
    """Base class; subclasses generate inputs and define set-up, output and checks."""

    name = ""

    def __init__(self, seed, work_dir, smoke=False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.out_dir = os.path.join(work_dir, "out")
        os.makedirs(work_dir, exist_ok=True)
        self.generate(None if seed == 0 else np.random.default_rng(seed))

    def generate(self, rng):
        raise NotImplementedError

    def setup(self):
        """Generated inputs to a solvable problem; this is what ``setup_s`` times."""
        raise NotImplementedError

    def run(self, problem, capture, max_sweeps=None):
        """One solve plus its output step, with ``capture`` installed."""
        raise NotImplementedError

    def output(self, problem, capture):
        """Seconds of the output step, repeated on the last solution."""
        raise NotImplementedError

    def check(self, problem, outcome):
        """Failed-check messages for one finished solve (empty when correct)."""
        report = outcome.report
        fails = [] if outcome.status == 0 else ["cli.run returned %d" % outcome.status]
        if report.termination != "converged":
            fails.append("termination %r" % report.termination)
        if not report.max_residual <= TOL:
            fails.append("max residual %.3g above %.1g" % (report.max_residual, TOL))
        if self.seed == 0 and not self.smoke:
            ref = REFERENCE_DUAL[self.name]
            err = abs(report.dual_objective - ref) / max(abs(ref), 1e-300)
            if not err <= DUAL_RTOL:
                fails.append("dual objective %.17g is %.3g off the reference %.17g"
                             % (report.dual_objective, err, ref))
        return fails + self.check_outputs(problem, outcome)

    def check_outputs(self, problem, outcome):
        return []

    def read_csv(self, name):
        return np.loadtxt(os.path.join(self.out_dir, name), delimiter=",", ndmin=2)


class _CliWorkload(Workload):
    """Inputs written as a JSON config, driven through ``cli.parse_config`` and ``cli.run``."""

    def config(self):
        raise NotImplementedError

    def generate(self, rng):
        self.make_inputs(rng)
        body = self.config()
        body["epsilon"] = self.epsilon
        body["solver"] = {"feasibility_tol": TOL, "potential_tol": TOL, "max_sweeps": 10000}
        body["output"] = {"directory": self.out_dir}
        self.config_path = os.path.join(self.work_dir, "%s.json" % self.name)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)

    def setup(self):
        return cli.parse_config(self.config_path)

    def run(self, problem, capture, max_sweeps=None):
        if max_sweeps is not None:
            problem = copy.copy(problem)
            problem.solver_config = dataclasses.replace(problem.solver_config,
                                                        max_sweeps=max_sweeps)
        t0 = time.perf_counter()
        status = cli.run(problem)
        total = time.perf_counter() - t0
        return Outcome(capture.elapsed, total - capture.elapsed, capture.result[1], status)

    def output(self, problem, capture):
        capture.replay = True
        try:
            t0 = time.perf_counter()
            cli.run(problem)
            total = time.perf_counter() - t0
        finally:
            capture.replay = False
        return total - capture.elapsed


class FlowOD(_CliWorkload):
    """Acceptance-6 flow: ring of 10 nodes with 2 chords, uniform OD demand, congestion."""

    name = "flow_od"

    def make_inputs(self, rng):
        n_nodes, horizon = (4, 4) if self.smoke else (10, 8)
        self.epsilon = 1.0 if self.smoke else 0.1
        pairs = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
        if not self.smoke:
            pairs += [(0, 5), (2, 7)]
        self.nodes = list(range(n_nodes))
        self.edges = [(a, b) for u, v in pairs for a, b in ((u, v), (v, u))]
        self.horizon = horizon
        self.od = 0.3 * _jitter(rng, (n_nodes, n_nodes))

    def config(self):
        return {"problem": {
            "kind": "flow",
            "nodes": self.nodes,
            "edges": [{"from": a, "to": b, "capacity": 1.0, "length": 1.0}
                      for a, b in self.edges],
            "sources": self.nodes,
            "sinks": self.nodes,
            "horizon": self.horizon,
            "constraint": {"od": self.od.tolist()},
        }}

    def check_outputs(self, problem, outcome):
        fails = []
        util = self.read_csv("utilization.csv")
        if not np.max(util) <= 1.0:
            fails.append("edge utilization %.17g above 1" % np.max(util))
        chord = problem.spec.topology.chord
        coupling = self.read_csv("bimarg_%d_%d.csv" % chord)
        demand = builders.embed_od_matrix(problem.flow_net, self.od)
        err = np.abs(coupling - demand).sum() / demand.sum()
        if not err <= 1e-6:
            fails.append("OD coupling off the demand by %.3g relative" % err)
        return fails


def _bump(points, cx, cy, s, mass):
    d = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2
    v = np.exp(-d / (2 * s * s))
    return v / v.sum() * mass


class MfgHub(_CliWorkload):
    """Acceptance-7 steering: 4 species on a grid with zones, obstacle and checkpoint."""

    name = "mfg_hub"

    def make_inputs(self, rng):
        side, steps = (4, 4) if self.smoke else (20, 9)
        self.epsilon = 0.2 if self.smoke else 0.05
        self.side, self.steps, self.species = side, steps, 4
        xy = builders.grid_points((side, side), (0.0, 3.0, 0.0, 3.0))
        centers = [(0.6, 2.4), (2.4, 2.4), (0.6, 0.6), (2.4, 0.6)]
        self.initials = []
        for cx, cy in centers:
            mu = _bump(xy, cx, cy, 0.35, 1.0) * _jitter(rng, xy.shape[0])
            self.initials.append(mu / mu.sum() / self.species)
        self.upper = xy[:, 1] > 1.5
        self.obstacle = (np.abs(xy[:, 0] - 1.5) < 0.45) & (np.abs(xy[:, 1] - 1.5) < 0.45)
        self.c3 = np.where(xy[:, 0] > 1.5, 1.0, 0.0)
        n = xy.shape[0]
        self.mu4_target = np.full(n, 1.0 / self.species / n)
        checkpoint = _bump(xy, 1.5, 2.6, 0.5, 1.0)
        self.checkpoint = checkpoint / checkpoint.sum()
        self.uniform_end = np.full(n, 1.0 / n)

    def config(self):
        rows = [
            {"type": "box", "lower": 0.0, "upper": np.where(self.upper, np.inf, 0.0).tolist()},
            None,
            {"type": "linear", "cost": self.c3.tolist()},
            {"type": "quadratic", "weight": 0.1, "anchor": self.mu4_target.tolist()},
        ]
        species = []
        for mu, row in zip(self.initials, rows):
            sp = {"initial": mu.tolist()}
            if row is not None:
                sp["running"] = row
                sp["terminal"] = row
            species.append(sp)
        obstacle = {"type": "box", "lower": 0.0,
                    "upper": np.where(self.obstacle, 0.0, np.inf).tolist()}
        total_running = {str(j): obstacle for j in range(1, self.steps)}
        if self.smoke:
            total_running["2"] = {"type": "composite", "parts": [
                obstacle, {"type": "quadratic", "weight": 3.0,
                           "anchor": self.uniform_end.tolist()}]}
        else:
            total_running["4"] = {"type": "composite", "parts": [
                obstacle, {"type": "quadratic", "weight": 3.0,
                           "anchor": self.checkpoint.tolist()}]}
        return {"problem": {
            "kind": "mfg",
            "grid": {"shape": [self.side, self.side], "extent": [0.0, 3.0, 0.0, 3.0]},
            "steps": self.steps,
            "species": species,
            "total_running": total_running,
            "total_terminal": {"type": "quadratic", "weight": 3.0,
                               "anchor": self.uniform_end.tolist()},
        }}

    def check_outputs(self, problem, outcome):
        fails = []
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.loads(fh.read(), parse_constant=_reject_constant)
        if summary.get("termination") != "converged" \
                or summary.get("sweeps") != outcome.report.sweeps:
            fails.append("summary.json disagrees with the solve report")
        tables = {}
        for name in sorted(os.listdir(self.out_dir)):
            if name.endswith(".csv"):
                if name == "dual_trace.csv":
                    tables[name] = np.loadtxt(os.path.join(self.out_dir, name),
                                              delimiter=",", skiprows=1, ndmin=2)
                else:
                    tables[name] = self.read_csv(name)
                if not np.all(np.isfinite(tables[name])):
                    fails.append("%s holds non-finite values" % name)
        target = np.array([mu.sum() for mu in self.initials])
        hub = problem.spec.topology.hub
        for j in range(self.steps + 1):
            rows = tables["bimarg_%d_%d.csv" % (hub, j)].sum(axis=1)
            err = float(np.max(np.abs(rows - target)))
            if not err <= 1e-8:
                fails.append("species mass at time %d off by %.3g" % (j, err))
        return fails


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


class _LibraryWorkload(Workload):
    """Inputs kept in memory, solved through ``gtop.solver.solve``.

    The output step is the library counterpart of the CLI's: a projection
    refresh and every node marginal written as CSV.
    """

    def run(self, problem, capture, max_sweeps=None):
        config = solver.SolverConfig(feasibility_tol=TOL, potential_tol=TOL,
                                     max_sweeps=max_sweeps or 10000)
        _, report = solver.solve(problem, config)
        return Outcome(capture.elapsed, self.output(problem, capture), report)

    def output(self, problem, capture):
        pots = capture.result[0]
        t0 = time.perf_counter()
        engine = projections.make_engine(problem)
        engine.refresh(pots)
        rows = np.stack([engine.marginal(j, pots).value()
                         for j in range(problem.topology.node_count)])
        os.makedirs(self.out_dir, exist_ok=True)
        np.savetxt(os.path.join(self.out_dir, "marginals.csv"), rows, delimiter=",",
                   fmt="%.17g")
        return time.perf_counter() - t0


def _equality_error(p, target):
    return float(np.abs(p - target).sum() / max(np.abs(target).sum(), 1.0))


class ChainSteer(_LibraryWorkload):
    """1-D density steering on a path: 1000 grid points, 50 times, a capped corridor."""

    name = "chain_steer"

    def generate(self, rng):
        n, self.T = (60, 6) if self.smoke else (1000, 50)
        self.epsilon = 0.05 if self.smoke else 0.01
        self.x = (np.arange(n) + 0.5) / n
        start = np.exp(-(self.x - 0.25) ** 2 / (2 * 0.05 ** 2)) * _jitter(rng, n)
        end = np.exp(-(self.x - 0.75) ** 2 / (2 * 0.05 ** 2)) * _jitter(rng, n)
        self.start = start / start.sum()
        self.end = end / end.sum()
        self.cap = np.where(np.abs(self.x - 0.5) < 0.15, 2.0 / n, np.inf)

    def setup(self):
        x = self.x
        kernel = model.build_kernel((x[:, None] - x[None, :]) ** 2, self.epsilon)
        T = self.T
        box = functions.Box(0.0, self.cap)
        uniform = np.full(x.size, 1.0 / x.size)
        nodes = {j: box for j in range(1, T - 1)}
        nodes[T // 2] = functions.CompositeFunction(
            [box, functions.QuadraticDistance(0.5, uniform)])
        nodes[0] = functions.Equality(self.start)
        nodes[T - 1] = functions.Equality(self.end)
        return model.ProblemSpec(model.GraphTopology.chain(T),
                                 {(j, j + 1): kernel for j in range(T - 1)},
                                 nodes, {}, self.epsilon)

    def check_outputs(self, problem, outcome):
        marg = self.read_csv("marginals.csv")
        fails = []
        for j, target in ((0, self.start), (self.T - 1, self.end)):
            err = _equality_error(marg[j], target)
            if not err <= TOL:
                fails.append("endpoint marginal %d off by %.3g" % (j, err))
        return fails


class DenseCycle(_LibraryWorkload):
    """Six-node cycle plus a chord on the dense engine, mixed node costs."""

    name = "dense_cycle"
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]

    def generate(self, rng):
        size = 3 if self.smoke else 6
        self.epsilon = 0.5
        base = np.random.default_rng(20260808)
        plan = base.uniform(0.5, 1.5, (size,) * 6) * _jitter(rng, (size,) * 6)
        plan /= plan.sum()
        self.margs = [plan.sum(axis=tuple(a for a in range(6) if a != j)) for j in range(6)]
        self.costs = {e: base.uniform(0.0, 1.0, (size, size)) * _jitter(rng, (size, size))
                      for e in self.edges}

    def setup(self):
        kernels = {e: model.build_kernel(c, self.epsilon) for e, c in self.costs.items()}
        m = self.margs
        nodes = {
            0: functions.Equality(m[0]),
            2: functions.QuadraticDistance(1.0, m[2]),
            3: functions.Box(0.0, 1.2 * m[3]),
            4: functions.Congestion(4.0 * m[4]),
            5: functions.Equality(m[5]),
        }
        return model.ProblemSpec(model.GraphTopology.general(6, self.edges), kernels,
                                 nodes, {}, self.epsilon)

    def check_outputs(self, problem, outcome):
        marg = self.read_csv("marginals.csv")
        fails = []
        for j in (0, 5):
            err = _equality_error(marg[j], self.margs[j])
            if not err <= TOL:
                fails.append("equality marginal %d off by %.3g" % (j, err))
        over = float(np.max(marg[3] - 1.2 * self.margs[3]))
        if not over <= TOL:
            fails.append("box on node 3 exceeded by %.3g" % over)
        return fails


WORKLOADS = {cls.name: cls for cls in (FlowOD, ChainSteer, MfgHub, DenseCycle)}
