"""Batch front end: JSON run configurations in, CSV/NPY/JSON results out.

The configuration schema is documented in the repository README.  Top level
keys: "problem" (with "kind" one of "flow", "mfg", "raw"), "epsilon",
"solver", "output", "label"; a key that an object does not accept is an
error.  Matrices may be written inline as row-major nested arrays or
referenced as {"csv": "relative/path.csv"}.
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
from .errors import ConfigError, GtopError, InvalidInput
from .projections import make_engine


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


def _expect_map(obj, path, keys=None):
    """A JSON object holding no key outside ``keys`` (None: any key)."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if keys is not None and key not in keys:
            _fail(key if path == "config" else "%s.%s" % (path, key),
                  "unknown key; expected one of %s" % ", ".join(sorted(keys)))
    return obj


def _variant(obj, path, tag, table, message):
    """``obj[tag]``, a key of ``table``; ``obj`` holds ``tag`` and the keys
    that ``table`` lists for it (for any variant while the tag names none)."""
    kind = _expect_map(obj, path).get(tag)
    keys = table.get(kind) if isinstance(kind, str) else None
    _expect_map(obj, path, (tag,) + tuple(set().union(*table.values()) if keys is None else keys))
    if keys is None:
        _fail("%s.%s" % (path, tag), message % (kind,))
    return kind


def _number(obj, path, positive=False, finite=False):
    """A JSON number; a positive one must also be finite."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, "expected a number")
    v = float(obj)
    if (finite or positive) and not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and not v > 0:
        _fail(path, "must be positive")
    return v


def _integer(obj, path, minimum):
    """A JSON integer of at least ``minimum``; booleans and floats are errors."""
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        _fail(path, "expected an integer of at least %d" % minimum)
    return obj


def _integer_list(obj, path, minimum):
    if not isinstance(obj, list):
        _fail(path, "expected a list of integers")
    return [_integer(v, "%s[%d]" % (path, i), minimum) for i, v in enumerate(obj)]


def _integer_key(key, path):
    """A map key naming a node or a time index, such as "3"."""
    try:
        return int(key)
    except ValueError:
        _fail(path, "expected integer keys, got %r" % (key,))


def _node_pair(obj, path):
    pair = _integer_list(obj, path, 0)
    if len(pair) != 2:
        _fail(path, "expected a node pair")
    return tuple(pair)


def _string(obj, path):
    if not isinstance(obj, str):
        _fail(path, "expected a string")
    return obj


def _name(obj, path):
    """A node name: a JSON string or integer."""
    if not isinstance(obj, (str, int)) or isinstance(obj, bool):
        _fail(path, "expected a node name (a string or an integer)")
    return obj


def _name_list(obj, path):
    if not isinstance(obj, list):
        _fail(path, "expected a list of node names")
    return [_name(v, "%s[%d]" % (path, i)) for i, v in enumerate(obj)]


def _load_matrix(obj, path, base_dir):
    if isinstance(obj, dict):
        ref = _expect_map(obj, path, ("csv",)).get("csv")
        if ref is None:
            _fail(path, "matrix objects need a \"csv\" file reference")
        fname = os.path.join(base_dir, ref)
        if not os.path.exists(fname):
            _fail(path, "csv file %r not found" % ref)
        try:
            return np.loadtxt(fname, delimiter=",", ndmin=2)
        except ValueError as exc:
            _fail(path, "csv file %r: %s" % (ref, exc))
    if isinstance(obj, list):
        try:
            return np.array(obj, dtype=float)
        except (TypeError, ValueError):
            _fail(path, "could not read a numeric array")
    _fail(path, "expected an inline array or a csv reference")


def _bound(obj, path, base_dir):
    """A box bound: a number, an inline array or a csv reference."""
    if isinstance(obj, (list, dict)):
        return _load_matrix(obj, path, base_dir)
    return _number(obj, path)


def _flag(cfg, key, default, path):
    """A boolean option; any other JSON value is an error, never a truth test."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        _fail(path, "expected true or false")
    return value


# The keys of a function object besides "type", by type.
_FUNCTION_KEYS = {"zero": (), "equality": ("target",), "box": ("lower", "upper"),
                  "linear": ("cost",), "quadratic": ("weight", "anchor", "exponent"),
                  "congestion": ("capacity",), "blockwise": ("size", "blocks"),
                  "composite": ("parts",)}


def function_from_config(obj, path, base_dir):
    """Build a catalog function from its JSON form."""
    kind = _variant(obj, path, "type", _FUNCTION_KEYS, "unknown function type %r")
    if kind == "zero":
        return fx.Zero()
    if kind == "equality":
        target = _load_matrix(obj.get("target"), path + ".target", base_dir)
        return fx.Equality(target)
    if kind == "box":
        lower = _bound(obj.get("lower", 0.0), path + ".lower", base_dir)
        upper = obj.get("upper")
        if upper is None or upper == "inf":
            upper = math.inf
        else:
            upper = _bound(upper, path + ".upper", base_dir)
        if np.any(lower < 0):
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
        size = _integer(obj.get("size"), path + ".size", 1)
        parsed = []
        for i, blk in enumerate(blocks):
            blk = _expect_map(blk, "%s.blocks[%d]" % (path, i), ("indices", "function"))
            idx = _integer_list(blk.get("indices"), "%s.blocks[%d].indices" % (path, i), 0)
            fn = function_from_config(blk.get("function"), "%s.blocks[%d].function" % (path, i),
                                      base_dir)
            parsed.append((np.asarray(idx, dtype=int), fn))
        try:
            return fx.Blockwise(size, parsed)
        except InvalidInput as exc:
            _fail(path, str(exc))
    if kind == "composite":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            _fail(path + ".parts", "expected a nonempty list")
        return fx.CompositeFunction([
            function_from_config(p, "%s.parts[%d]" % (path, i), base_dir)
            for i, p in enumerate(parts)])


def _parse_flow(problem, epsilon, path, base_dir):
    nodes = _name_list(problem.get("nodes"), path + ".nodes")
    if not nodes:
        _fail(path + ".nodes", "expected a nonempty list")
    edges_cfg = problem.get("edges")
    if not isinstance(edges_cfg, list) or not edges_cfg:
        _fail(path + ".edges", "expected a nonempty list")
    edges = []
    for i, e in enumerate(edges_cfg):
        where = "%s.edges[%d]" % (path, i)
        e = _expect_map(e, where, ("from", "to", "capacity", "length"))
        cap = e.get("capacity", math.inf)
        if cap != math.inf:
            cap = _number(cap, where + ".capacity", positive=True)
        if _number(e.get("length", 1.0), where + ".length") != 1:
            _fail(where + ".length", "must be 1: every edge takes one time step")
        edges.append(bld.FlowEdge(_name(e.get("from"), where + ".from"),
                                  _name(e.get("to"), where + ".to"), capacity=cap))
    horizon = _integer(problem.get("horizon"), path + ".horizon", 2)
    net = bld.FlowNetwork(nodes, edges, _name_list(problem.get("sources", []), path + ".sources"),
                          _name_list(problem.get("sinks", []), path + ".sinks"), horizon)

    constraint = _expect_map(problem.get("constraint"), path + ".constraint",
                             ("od", "initial", "final"))
    od = terminals = None
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
    g = problem.get("grid")
    if isinstance(g, dict) and "csv" not in g:
        _expect_map(g, path + ".grid", ("shape", "extent"))
        extent = g.get("extent", [])
        if not isinstance(extent, list):
            _fail(path + ".grid.extent", "expected a list of numbers")
        grid = bld.grid_points(_integer_list(g.get("shape"), path + ".grid.shape", 1),
                               [_number(v, "%s.grid.extent[%d]" % (path, i), finite=True)
                                for i, v in enumerate(extent)])
    else:
        grid = _load_matrix(g, path + ".grid", base_dir)
    steps = _integer(problem.get("steps"), path + ".steps", 1)
    species_cfg = problem.get("species")
    if not isinstance(species_cfg, list) or not species_cfg:
        _fail(path + ".species", "expected a nonempty list")
    initials, running_rows, terminal_rows = [], [], []
    for i, sp in enumerate(species_cfg):
        sp = _expect_map(sp, "%s.species[%d]" % (path, i), ("initial", "running", "terminal"))
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
        j = _integer_key(key, path + ".total_running")
        if not 1 <= j < steps:
            _fail("%s.total_running[%s]" % (path, key),
                  "expected an interior time index 1 .. %d" % (steps - 1))
        total_running[j] = function_from_config(fn_cfg, "%s.total_running[%s]" % (path, key),
                                                base_dir)
    total_terminal = problem.get("total_terminal")
    if total_terminal is not None:
        total_terminal = function_from_config(total_terminal, path + ".total_terminal", base_dir)

    cost_cfg = problem.get("cost", {"mode": "squared_distance"})
    cost_cfg = _expect_map(cost_cfg, path + ".cost", ("mode", "scale", "values"))
    cost_matrix = None
    scale = _number(cost_cfg.get("scale", 1.0), path + ".cost.scale", positive=True)
    if cost_cfg.get("mode", "squared_distance") == "matrix":
        cost_matrix = _load_matrix(cost_cfg.get("values"), path + ".cost.values", base_dir)
    elif cost_cfg.get("mode", "squared_distance") != "squared_distance":
        _fail(path + ".cost.mode", "unknown mode %r" % (cost_cfg.get("mode"),))

    dt = problem.get("dt")
    if dt is not None:
        dt = _number(dt, path + ".dt", positive=True)
    running = {j: list(running_rows) for j in range(1, steps)} if any(
        fn is not None for fn in running_rows) else {}
    setup = bld.MFGSetup(
        grid=grid, n_steps=steps, initial_densities=initials,
        dt=dt, epsilon=epsilon, cost_scale=scale, cost_matrix=cost_matrix,
        total_running=total_running, total_terminal=total_terminal,
        species_running=running,
        species_terminal=(list(terminal_rows)
                          if any(fn is not None for fn in terminal_rows) else None),
    )
    return bld.build_mfg_problem(setup), None


def _parse_raw(problem, epsilon, path, base_dir):
    topo_cfg = _expect_map(problem.get("topology"), path + ".topology",
                           ("class", "sizes", "edges", "species"))
    kind = topo_cfg.get("class")
    sizes = _integer_list(topo_cfg.get("sizes"), path + ".topology.sizes", 1)
    if not sizes:
        _fail(path + ".topology.sizes", "expected a nonempty list of node sizes")
    n = len(sizes)
    if kind == "chain":
        topo = md.GraphTopology.chain(n)
    elif kind == "od_cycle":
        topo = md.GraphTopology.od_cycle(n)
    elif kind == "hub":
        species = _integer(topo_cfg.get("species"), path + ".topology.species", 1)
        topo = md.GraphTopology.species_hub(n - 1, species)
        if sizes[-1] != species:
            _fail(path + ".topology.sizes", "last size must equal the species count")
    elif kind == "general":
        edges = topo_cfg.get("edges")
        if not isinstance(edges, list) or not edges:
            _fail(path + ".topology.edges", "expected an edge list")
        topo = md.GraphTopology.general(n, [
            _node_pair(e, "%s.topology.edges[%d]" % (path, i)) for i, e in enumerate(edges)])
    else:
        _fail(path + ".topology.class", "unknown topology class %r" % (kind,))

    kernels = {}
    if not isinstance(problem.get("kernels", []), list):
        _fail(path + ".kernels", "expected a list")
    for i, k in enumerate(problem.get("kernels", [])):
        k = _expect_map(k, "%s.kernels[%d]" % (path, i), ("edge", "cost"))
        edge = _node_pair(k.get("edge"), "%s.kernels[%d].edge" % (path, i))
        cost = _load_matrix(k.get("cost"), "%s.kernels[%d].cost" % (path, i), base_dir)
        kernels[edge] = md.build_kernel(cost, epsilon)
    for e in topo.edges:
        if e not in kernels:
            kernels[e] = md.EdgeKernel.ones((sizes[e[0]], sizes[e[1]]))

    node_functions = {}
    for key, cfg in _expect_map(problem.get("node_functions", {}),
                                path + ".node_functions").items():
        node_functions[_integer_key(key, path + ".node_functions")] = function_from_config(
            cfg, "%s.node_functions[%s]" % (path, key), base_dir)
    edge_functions = {}
    for key, cfg in _expect_map(problem.get("edge_functions", {}),
                                path + ".edge_functions").items():
        parts = key.split("-")
        if len(parts) != 2:
            _fail(path + ".edge_functions", "edge keys look like \"0-1\", got %r" % (key,))
        edge = tuple(_integer_key(p, path + ".edge_functions") for p in parts)
        edge_functions[edge] = function_from_config(
            cfg, "%s.edge_functions[%s]" % (path, key), base_dir)
    spec = md.ProblemSpec(topo, kernels, node_functions, edge_functions, epsilon)
    return spec, None


# The keys of a problem object besides "kind", by kind.
_PROBLEM_KEYS = {
    "flow": ("nodes", "edges", "sources", "sinks", "horizon", "constraint", "edge_cost"),
    "mfg": ("grid", "steps", "dt", "species", "total_running", "total_terminal", "cost"),
    "raw": ("topology", "kernels", "node_functions", "edge_functions"),
}


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

    raw = _expect_map(raw, "config", ("problem", "epsilon", "solver", "output", "label"))
    problem = _expect_map(raw.get("problem"), "problem")
    epsilon = _number(raw.get("epsilon", 0.05), "epsilon", positive=True)
    kind = _variant(problem, "problem", "kind", _PROBLEM_KEYS,
                    "expected one of \"flow\", \"mfg\", \"raw\", got %r")
    parse = {"flow": _parse_flow, "mfg": _parse_mfg, "raw": _parse_raw}[kind]
    spec, flow_net = parse(problem, epsilon, "problem", base_dir)

    solver_cfg = _expect_map(raw.get("solver", {}), "solver",
                             ("feasibility_tol", "potential_tol", "max_sweeps", "verify"))
    kwargs = {}
    if "feasibility_tol" in solver_cfg:
        kwargs["feasibility_tol"] = _number(solver_cfg["feasibility_tol"],
                                            "solver.feasibility_tol", positive=True)
    if "potential_tol" in solver_cfg:
        kwargs["potential_tol"] = _number(solver_cfg["potential_tol"],
                                          "solver.potential_tol", positive=True)
    if "max_sweeps" in solver_cfg:
        kwargs["max_sweeps"] = _integer(solver_cfg["max_sweeps"], "solver.max_sweeps", 1)
    kwargs["verify"] = _flag(solver_cfg, "verify", False, "solver.verify")
    config = solver.SolverConfig(**kwargs)

    files = ("marginals", "bimarginals", "dual_trace", "summary")
    out_cfg = _expect_map(raw.get("output", {}), "output", ("directory",) + files)
    out_dir = _string(out_cfg.get("directory", "gtop_out"), "output.directory")
    emit = {key: _flag(out_cfg, key, True, "output." + key) for key in files}
    label = _string(raw.get("label", os.path.splitext(os.path.basename(config_path))[0]),
                    "label")
    return RunConfig(spec, config, out_dir, emit, flow_net=flow_net, label=label)


def _fresh(path):
    """``path`` with any old file removed: on ext4 a file truncated and written
    again is flushed to disk when closed, which made reruns slow and uneven."""
    if os.path.lexists(path):
        os.remove(path)
    return path


def _write_csv(path, *blocks):
    """Each block, a vector or a matrix, as "%.17g" CSV lines; widths may differ."""
    with open(_fresh(path), "wb") as fh:
        for block in blocks:
            np.savetxt(fh, np.atleast_2d(block), delimiter=",", fmt="%.17g")


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
    """Solve the configured problem and write result files; returns the exit
    status, 1 when the solve failed or stopped at ``max_sweeps`` unconverged."""
    spec = run_config.spec
    os.makedirs(run_config.out_dir, exist_ok=True)

    pots = report = failure = None
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
            "extrapolations": {"tried": len(report.extrapolations),
                               "accepted": sum(kept for _, _, kept in report.extrapolations)},
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
            _write_csv(os.path.join(run_config.out_dir, "marginals.csv"), *rows)
            if run_config.flow_net is not None:
                util = [bld.edge_utilization(run_config.flow_net, r) for r in rows]
                _write_csv(os.path.join(run_config.out_dir, "utilization.csv"), *util)
            if topo.hub is not None:
                _write_csv(os.path.join(run_config.out_dir, "species_masses.csv"),
                           engine.marginal(topo.hub, pots).value())
        if run_config.emit["bimarginals"]:
            # The n_t x n_{t+1} time-step plans are the bulk of the output.
            # Binary .npy keeps every bit and skips the per-value text
            # formatting that dominates writing them as CSV.
            steps = set(zip(time_nodes, time_nodes[1:]))
            for e in topo.edges:
                p = engine.bimarginal(e, pots).value()
                name = os.path.join(run_config.out_dir, "bimarg_%d_%d" % e)
                if e in steps:
                    np.save(_fresh(name + ".npy"), p)
                else:
                    _write_csv(name + ".csv", p)
        if run_config.emit["dual_trace"]:
            with open(_fresh(os.path.join(run_config.out_dir, "dual_trace.csv")), "w",
                      encoding="utf-8") as fh:
                fh.write("sweep,dual_objective,max_residual\n")
                for i, (d, r) in enumerate(zip(report.dual_values, report.max_residuals), 1):
                    fh.write("%d,%.17g,%.17g\n" % (i, d, r))

    if run_config.emit["summary"]:
        with open(_fresh(os.path.join(run_config.out_dir, "summary.json")), "w",
                  encoding="utf-8") as fh:
            json.dump(_json_finite(summary), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return 0 if failure is None and report.termination == "converged" else 1


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
        if args.tol is not None and not 0 < args.tol < math.inf:
            parser.error("--tol must be finite and positive")
        if args.max_sweeps is not None and args.max_sweeps < 1:
            parser.error("--max-sweeps must be at least 1")
        try:
            run_config = parse_config(args.config)
        except GtopError as exc:
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
        return run(run_config)
    return 2


if __name__ == "__main__":
    sys.exit(main())
