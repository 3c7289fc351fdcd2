"""Batch front end: JSON run configurations in, CSV/JSON results out.

The configuration schema is documented in the repository README.  Top level
keys: "problem" (with "kind" one of "flow", "mfg", "raw"), "epsilon",
"solver", "output".  Matrices may be written inline as row-major nested
arrays or referenced as {"csv": "relative/path.csv"}.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import builders as bld
from . import functions as fx
from . import model as md
from . import solver
from .errors import ConfigError, GtopError
from .projections import DENSE_ENTRY_BUDGET, make_engine


class RunConfig:
    """Validated run description: one problem, solver knobs, output plan."""

    def __init__(self, spec, solver_config, out_dir, emit, flow_net=None, label="run"):
        self.spec = spec
        self.solver_config = solver_config
        self.out_dir = out_dir
        self.emit = emit
        self.flow_net = flow_net
        self.label = label


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


def _expect_map(obj, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    return obj


def _number(obj, path, positive=False):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, "expected a number")
    v = float(obj)
    if positive and not v > 0:
        _fail(path, "must be positive")
    return v


def _load_matrix(obj, path, base_dir):
    if isinstance(obj, dict):
        ref = obj.get("csv")
        if ref is None:
            _fail(path, "matrix objects need a \"csv\" file reference")
        fname = os.path.join(base_dir, ref)
        if not os.path.exists(fname):
            _fail(path, "csv file %r not found" % ref)
        data = np.loadtxt(fname, delimiter=",", ndmin=2)
        return data
    if isinstance(obj, list):
        try:
            arr = np.array(obj, dtype=float)
        except (TypeError, ValueError):
            _fail(path, "could not read a numeric array")
        return arr
    _fail(path, "expected an inline array or a csv reference")


def _parse_bound(obj, path):
    if obj is None or obj == "inf":
        return math.inf
    if isinstance(obj, str):
        _fail(path, "bounds must be numbers, arrays, or \"inf\"")
    return obj


def function_from_config(obj, path, base_dir):
    """Build a catalog function from its JSON form."""
    obj = _expect_map(obj, path)
    kind = obj.get("type")
    if kind == "zero":
        return fx.Zero()
    if kind == "equality":
        target = _load_matrix(obj.get("target"), path + ".target", base_dir)
        return fx.Equality(target)
    if kind == "box":
        lower = obj.get("lower", 0.0)
        upper = _parse_bound(obj.get("upper"), path + ".upper")
        lower = _load_matrix(lower, path + ".lower", base_dir) if isinstance(lower, (list, dict)) else lower
        upper = _load_matrix(upper, path + ".upper", base_dir) if isinstance(upper, (list, dict)) else upper
        if np.any(np.asarray(lower, dtype=float) < 0):
            _fail(path + ".lower", "must be nonnegative")
        return fx.Box(lower, upper)
    if kind == "linear":
        return fx.Linear(_load_matrix(obj.get("cost"), path + ".cost", base_dir))
    if kind == "quadratic":
        weight = _number(obj.get("weight", 1.0), path + ".weight", positive=True)
        anchor = _load_matrix(obj.get("anchor"), path + ".anchor", base_dir)
        exponent = _number(obj.get("exponent", 2.0), path + ".exponent", positive=True)
        return fx.QuadraticDistance(weight, anchor, exponent)
    if kind == "congestion":
        cap = _load_matrix(obj.get("capacity"), path + ".capacity", base_dir)
        if np.any(np.asarray(cap, dtype=float) <= 0):
            _fail(path + ".capacity", "must be positive")
        return fx.Congestion(cap)
    if kind == "blockwise":
        blocks = obj.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            _fail(path + ".blocks", "expected a nonempty list")
        size = obj.get("size")
        if not isinstance(size, int):
            _fail(path + ".size", "expected an integer total size")
        parsed = []
        for i, blk in enumerate(blocks):
            blk = _expect_map(blk, "%s.blocks[%d]" % (path, i))
            idx = blk.get("indices")
            if not isinstance(idx, list):
                _fail("%s.blocks[%d].indices" % (path, i), "expected an index list")
            fn = function_from_config(blk.get("function"), "%s.blocks[%d].function" % (path, i),
                                      base_dir)
            parsed.append((np.asarray(idx, dtype=int), fn))
        return fx.Blockwise(size, parsed)
    if kind == "composite":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            _fail(path + ".parts", "expected a nonempty list")
        return fx.CompositeFunction([
            function_from_config(p, "%s.parts[%d]" % (path, i), base_dir)
            for i, p in enumerate(parts)])
    _fail(path + ".type", "unknown function type %r" % (kind,))


def _parse_flow(problem, epsilon, path, base_dir):
    nodes = problem.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        _fail(path + ".nodes", "expected a nonempty list")
    edges_cfg = problem.get("edges")
    if not isinstance(edges_cfg, list) or not edges_cfg:
        _fail(path + ".edges", "expected a nonempty list")
    edges = []
    for i, e in enumerate(edges_cfg):
        e = _expect_map(e, "%s.edges[%d]" % (path, i))
        if "from" not in e or "to" not in e:
            _fail("%s.edges[%d]" % (path, i), "edges need \"from\" and \"to\"")
        cap = e.get("capacity", math.inf)
        if cap != math.inf:
            cap = _number(cap, "%s.edges[%d].capacity" % (path, i))
            if cap <= 0:
                _fail("%s.edges[%d].capacity" % (path, i), "must be positive")
        length = _number(e.get("length", 1.0), "%s.edges[%d].length" % (path, i), positive=True)
        edges.append(bld.FlowEdge(e["from"], e["to"], length, cap))
    horizon = problem.get("horizon")
    if not isinstance(horizon, int) or horizon < 2:
        _fail(path + ".horizon", "expected an integer of at least 2")
    net = bld.FlowNetwork(nodes, edges, problem.get("sources", []), problem.get("sinks", []),
                          horizon)

    constraint = _expect_map(problem.get("constraint"), path + ".constraint")
    od = None
    terminals = None
    if "od" in constraint:
        od = _load_matrix(constraint["od"], path + ".constraint.od", base_dir)
    elif "initial" in constraint and "final" in constraint:
        terminals = (_load_matrix(constraint["initial"], path + ".constraint.initial", base_dir),
                     _load_matrix(constraint["final"], path + ".constraint.final", base_dir))
    else:
        _fail(path + ".constraint", "need either \"od\" or \"initial\"/\"final\"")

    cost_kind = problem.get("edge_cost", "congestion")
    if cost_kind == "congestion":
        caps = net.capacities()
        if not np.all(np.isfinite(caps)):
            _fail(path + ".edges", "congestion edge costs need finite capacities everywhere")
        edge_cost = None
    elif cost_kind == "zero":
        edge_cost = fx.Zero()
    else:
        _fail(path + ".edge_cost", "unknown edge cost kind %r" % (cost_kind,))

    spec = bld.build_flow_problem(net, od=od, terminals=terminals, edge_cost=edge_cost,
                                  epsilon=epsilon)
    return spec, net


def _parse_mfg(problem, epsilon, path, base_dir):
    if "grid" in problem and isinstance(problem["grid"], dict):
        g = problem["grid"]
        grid = bld.grid_points(g.get("shape", []), g.get("extent", []))
    else:
        grid = _load_matrix(problem.get("grid"), path + ".grid", base_dir)
    steps = problem.get("steps")
    if not isinstance(steps, int) or steps < 1:
        _fail(path + ".steps", "expected a positive integer")
    species_cfg = problem.get("species")
    if not isinstance(species_cfg, list) or not species_cfg:
        _fail(path + ".species", "expected a nonempty list")
    initials = []
    running_rows = []
    terminal_rows = []
    for i, sp in enumerate(species_cfg):
        sp = _expect_map(sp, "%s.species[%d]" % (path, i))
        initials.append(_load_matrix(sp.get("initial"), "%s.species[%d].initial" % (path, i),
                                     base_dir).ravel())
        run = sp.get("running")
        running_rows.append(None if run is None else
                            function_from_config(run, "%s.species[%d].running" % (path, i),
                                                 base_dir))
        term = sp.get("terminal")
        terminal_rows.append(None if term is None else
                             function_from_config(term, "%s.species[%d].terminal" % (path, i),
                                                  base_dir))
    total_running = {}
    for key, fn_cfg in _expect_map(problem.get("total_running", {}),
                                   path + ".total_running").items():
        try:
            j = int(key)
        except ValueError:
            _fail(path + ".total_running", "keys must be time indices, got %r" % (key,))
        total_running[j] = function_from_config(fn_cfg, "%s.total_running[%s]" % (path, key),
                                                base_dir)
    total_terminal = problem.get("total_terminal")
    if total_terminal is not None:
        total_terminal = function_from_config(total_terminal, path + ".total_terminal", base_dir)

    cost_cfg = problem.get("cost", {"mode": "squared_distance"})
    cost_cfg = _expect_map(cost_cfg, path + ".cost")
    cost_matrix = None
    scale = _number(cost_cfg.get("scale", 1.0), path + ".cost.scale", positive=True)
    if cost_cfg.get("mode", "squared_distance") == "matrix":
        cost_matrix = _load_matrix(cost_cfg.get("values"), path + ".cost.values", base_dir)
    elif cost_cfg.get("mode", "squared_distance") != "squared_distance":
        _fail(path + ".cost.mode", "unknown mode %r" % (cost_cfg.get("mode"),))

    running = {j: list(running_rows) for j in range(1, steps)} if any(
        fn is not None for fn in running_rows) else {}
    setup = bld.MFGSetup(
        grid=grid, n_steps=steps, initial_densities=initials,
        dt=problem.get("dt"), epsilon=epsilon, cost_scale=scale, cost_matrix=cost_matrix,
        total_running=total_running, total_terminal=total_terminal,
        species_running=running,
        species_terminal=(list(terminal_rows)
                          if any(fn is not None for fn in terminal_rows) else None),
    )
    return bld.build_mfg_problem(setup), None


def _parse_raw(problem, epsilon, path, base_dir):
    topo_cfg = _expect_map(problem.get("topology"), path + ".topology")
    kind = topo_cfg.get("class")
    sizes = topo_cfg.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        _fail(path + ".topology.sizes", "expected a nonempty list of node sizes")
    n = len(sizes)
    if kind == "chain":
        topo = md.GraphTopology.chain(n)
    elif kind == "od_cycle":
        topo = md.GraphTopology.od_cycle(n)
    elif kind == "hub":
        species = topo_cfg.get("species")
        if not isinstance(species, int) or species < 1:
            _fail(path + ".topology.species", "expected a positive species count")
        topo = md.GraphTopology.species_hub(n - 1, species)
        if sizes[-1] != species:
            _fail(path + ".topology.sizes", "last size must equal the species count")
    elif kind == "general":
        edges = topo_cfg.get("edges")
        if not isinstance(edges, list) or not edges:
            _fail(path + ".topology.edges", "expected an edge list")
        topo = md.GraphTopology.general(n, [tuple(e) for e in edges])
    else:
        _fail(path + ".topology.class", "unknown topology class %r" % (kind,))

    kernels = {}
    for i, k in enumerate(problem.get("kernels", [])):
        k = _expect_map(k, "%s.kernels[%d]" % (path, i))
        edge = tuple(k.get("edge", ()))
        if len(edge) != 2:
            _fail("%s.kernels[%d].edge" % (path, i), "expected a node pair")
        cost = _load_matrix(k.get("cost"), "%s.kernels[%d].cost" % (path, i), base_dir)
        kernels[edge] = md.build_kernel(cost, epsilon)
    for e in topo.edges:
        if e not in kernels:
            kernels[e] = md.EdgeKernel.ones((sizes[e[0]], sizes[e[1]]))

    node_functions = {}
    for key, cfg in _expect_map(problem.get("node_functions", {}),
                                path + ".node_functions").items():
        node_functions[int(key)] = function_from_config(
            cfg, "%s.node_functions[%s]" % (path, key), base_dir)
    edge_functions = {}
    for key, cfg in _expect_map(problem.get("edge_functions", {}),
                                path + ".edge_functions").items():
        parts = key.split("-")
        if len(parts) != 2:
            _fail(path + ".edge_functions", "edge keys look like \"0-1\", got %r" % (key,))
        edge = (int(parts[0]), int(parts[1]))
        edge_functions[edge] = function_from_config(
            cfg, "%s.edge_functions[%s]" % (path, key), base_dir)
    spec = md.ProblemSpec(topo, kernels, node_functions, edge_functions, epsilon)
    return spec, None


def parse_config(config_path):
    """Read and validate a JSON run configuration."""
    if not os.path.exists(config_path):
        raise ConfigError("config file %r not found" % (config_path,))
    base_dir = os.path.dirname(os.path.abspath(config_path))
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % (exc,)) from exc

    raw = _expect_map(raw, "config")
    problem = _expect_map(raw.get("problem"), "problem")
    epsilon = _number(raw.get("epsilon", 0.05), "epsilon", positive=True)

    kind = problem.get("kind")
    flow_net = None
    if kind == "flow":
        spec, flow_net = _parse_flow(problem, epsilon, "problem", base_dir)
    elif kind == "mfg":
        spec, _ = _parse_mfg(problem, epsilon, "problem", base_dir)
    elif kind == "raw":
        spec, _ = _parse_raw(problem, epsilon, "problem", base_dir)
    else:
        _fail("problem.kind", "expected one of \"flow\", \"mfg\", \"raw\", got %r" % (kind,))

    solver_cfg = _expect_map(raw.get("solver", {}), "solver")
    kwargs = {}
    if "feasibility_tol" in solver_cfg:
        kwargs["feasibility_tol"] = _number(solver_cfg["feasibility_tol"],
                                            "solver.feasibility_tol", positive=True)
    if "potential_tol" in solver_cfg:
        kwargs["potential_tol"] = _number(solver_cfg["potential_tol"],
                                          "solver.potential_tol", positive=True)
    if "max_sweeps" in solver_cfg:
        ms = solver_cfg["max_sweeps"]
        if not isinstance(ms, int) or ms < 1:
            _fail("solver.max_sweeps", "expected a positive integer")
        kwargs["max_sweeps"] = ms
    if solver_cfg.get("verify"):
        kwargs["verify"] = True
    config = solver.SolverConfig(**kwargs)

    out_cfg = _expect_map(raw.get("output", {}), "output")
    out_dir = out_cfg.get("directory", "gtop_out")
    emit = {
        "marginals": bool(out_cfg.get("marginals", True)),
        "bimarginals": bool(out_cfg.get("bimarginals", True)),
        "dual_trace": bool(out_cfg.get("dual_trace", True)),
        "summary": bool(out_cfg.get("summary", True)),
    }
    label = raw.get("label", os.path.splitext(os.path.basename(config_path))[0])
    return RunConfig(spec, config, out_dir, emit, flow_net=flow_net, label=label)


def _write_matrix(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")


def _json_finite(obj):
    """``obj`` with every non-finite float spelled "inf", "-inf" or "nan" (strict JSON)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _json_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_finite(v) for v in obj]
    return obj


def run(run_config):
    """Solve the configured problem and write result files; returns exit status."""
    spec = run_config.spec
    os.makedirs(run_config.out_dir, exist_ok=True)

    pots = None
    report = None
    failure = None
    try:
        pots, report = solver.solve(spec, run_config.solver_config)
    except GtopError as exc:
        failure = exc
        report = getattr(exc, "report", None)

    summary = {
        "label": run_config.label,
        "epsilon": spec.epsilon,
        "termination": "error" if failure is not None else report.termination,
    }
    if failure is not None:
        summary["error"] = str(failure)
    if report is not None:
        summary.update({
            "sweeps": report.sweeps,
            "feasible": report.feasible,
            "dual_objective": report.dual_objective,
            "max_residual": report.max_residual,
            "residuals": report.residuals,
            "rescale_events": report.rescale_events,
            "warnings": report.warnings,
            "wall_time_s": report.wall_time_s,
        })

    if failure is None:
        engine = make_engine(spec)
        engine.refresh(pots)
        topo = spec.topology
        time_nodes = topo.time_nodes
        if run_config.emit["marginals"]:
            rows = [engine.marginal(j, pots).value() for j in time_nodes]
            _write_matrix(os.path.join(run_config.out_dir, "marginals.csv"), np.stack(rows))
            if run_config.flow_net is not None:
                util = [bld.edge_utilization(run_config.flow_net, r) for r in rows]
                _write_matrix(os.path.join(run_config.out_dir, "utilization.csv"),
                              np.stack(util))
        if run_config.emit["bimarginals"]:
            for e in topo.edges:
                p = engine.bimarginal(e, pots).value()
                name = "bimarg_%d_%d.csv" % e
                _write_matrix(os.path.join(run_config.out_dir, name), p)
        if run_config.emit["dual_trace"]:
            with open(os.path.join(run_config.out_dir, "dual_trace.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write("sweep,dual_objective,max_residual\n")
                for i, (d, r) in enumerate(zip(report.dual_values, report.max_residuals), 1):
                    fh.write("%d,%.17g,%.17g\n" % (i, d, r))
        if topo.kind == md.SPECIES_HUB:
            _write_matrix(os.path.join(run_config.out_dir, "species_masses.csv"),
                          engine.marginal(topo.hub, pots).value())

    if run_config.emit["summary"]:
        with open(os.path.join(run_config.out_dir, "summary.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_json_finite(summary), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return 0 if failure is None else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gtop",
                                     description="Structured transport-plan solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    solve_p = sub.add_parser("solve", help="solve a configured problem")
    solve_p.add_argument("--config", required=True, help="path to a JSON run configuration")
    solve_p.add_argument("--tol", type=float, default=None,
                         help="override the feasibility tolerance")
    solve_p.add_argument("--max-sweeps", type=int, default=None,
                         help="override the sweep budget")
    solve_p.add_argument("--output", default=None, help="override the output directory")
    solve_p.add_argument("--verify", action="store_true",
                         help="enable per-update dual checks and dense cross-checks "
                              "on small instances")
    args = parser.parse_args(argv)

    if args.command == "solve":
        if args.tol is not None and args.tol <= 0:
            parser.error("--tol must be positive")
        if args.max_sweeps is not None and args.max_sweeps < 1:
            parser.error("--max-sweeps must be at least 1")
        try:
            run_config = parse_config(args.config)
        except ConfigError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.tol is not None:
            run_config.solver_config.feasibility_tol = args.tol
        if args.max_sweeps is not None:
            run_config.solver_config.max_sweeps = args.max_sweeps
        if args.output is not None:
            run_config.out_dir = args.output
        if args.verify:
            run_config.solver_config.verify = True
            if math.prod(run_config.spec.node_sizes) <= DENSE_ENTRY_BUDGET:
                run_config.solver_config.oracle_check = True
        return run(run_config)
    return 2


if __name__ == "__main__":
    sys.exit(main())
