"""Batch front end: JSON run configurations in, CSV/NPY/JSON results out.

The configuration schema, documented in the repository README, is held here
as data: one table per config object maps each key to its reader and
default, and so decides the keys the object accepts, what a missing key
reads as and the config path that an error names.  An object whose keys
depend on a tag (a problem's kind, a function's type, a raw topology's
class, an mfg cost's mode) has one table per variant.
"""

import argparse
import contextlib
import dataclasses
import functools
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


@dataclasses.dataclass
class RunConfig:
    """Validated run description: one problem, solver knobs, output plan."""

    spec: md.ProblemSpec
    solver_config: solver.SolverConfig
    out_dir: str
    emit: dict
    flow_net: bld.FlowNetwork = None
    label: str = "run"


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


@contextlib.contextmanager
def _blame(path):
    """Report the model's ``InvalidInput`` in the block as a config error at ``path``."""
    try:
        yield
    except InvalidInput as exc:
        _fail(path, exc)


def _at(path, key):
    return key if path == "config" else "%s.%s" % (path, key)


def _expect_map(obj, path, keys=None):
    """A JSON object holding no key outside ``keys`` (None: any key)."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if keys is not None and key not in keys:
            _fail(_at(path, key), "unknown key; expected one of %s" % ", ".join(sorted(keys)))
    return obj


# A table maps each key of a config object to (reader, default).  A reader
# takes (value, path, base_dir).  A missing key reads its default, or is left
# out when its default is _ABSENT.
_ABSENT = object()


def _read(obj, path, table, base_dir, tag=None):
    """The values of ``obj`` by ``table``; ``obj`` holds no other key but ``tag``."""
    _expect_map(obj, path, (*table, tag) if tag else table)
    return {key: reader(obj.get(key, default), _at(path, key), base_dir)
            for key, (reader, default) in table.items() if key in obj or default is not _ABSENT}


def _object(table, build=dict):
    """A reader of a JSON object: ``build`` of its values by ``table``."""
    def read(obj, path, base_dir):
        values = _read(obj, path, table, base_dir)
        with _blame(path):
            return build(**values)
    return read


def _variant(obj, path, base_dir, tag, variants, message, *args, default=None):
    """``make(*args, **values)``, where ``variants[obj[tag]]`` is ``(make, table)``
    and ``values`` are ``obj`` read by ``table``; an absent tag reads ``default``.
    While the tag names no variant, ``obj`` may hold any variant's keys until
    the tag is rejected."""
    kind = _expect_map(obj, path).get(tag, default)
    variant = variants.get(kind) if isinstance(kind, str) else None
    if variant is None:
        _expect_map(obj, path, {tag, *(key for _, table in variants.values() for key in table)})
        _fail(_at(path, tag), message % (kind,))
    values = _read(obj, path, variant[1], base_dir, tag)
    with _blame(path):
        return variant[0](*args, **values)


def _tagged(tag, variants, message, default=None):
    """A reader of a JSON object whose ``tag`` names its variant (``_variant``)."""
    return lambda obj, path, base_dir: _variant(obj, path, base_dir, tag, variants, message,
                                                default=default)


def _any(obj, path, base_dir):
    """The value as it is, for the problem, which ``parse_config`` reads."""
    return obj


def _number(obj, path, base_dir=None, positive=False, finite=False):
    """A JSON number, as a float."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, "expected a number")
    try:
        obj = float(obj)
    except OverflowError:  # an integer beyond the float range
        obj = math.inf if obj > 0 else -math.inf
    if finite and not math.isfinite(obj):
        _fail(path, "must be finite")
    if positive and not obj > 0:
        _fail(path, "must be positive")
    return obj


def _integer(obj, path, base_dir=None, minimum=0):
    """A JSON integer of at least ``minimum``; booleans and floats are errors."""
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        _fail(path, "expected an integer of at least %d" % minimum)
    return obj


def _typed(what, *types):
    """A reader of a JSON value of one of ``types``; a boolean is one only of bool."""
    def read(obj, path, base_dir=None):
        if not isinstance(obj, types) or isinstance(obj, bool) and bool not in types:
            _fail(path, "expected " + what)
        return obj
    return read


def _list(item, what, empty=None):
    """A reader of a JSON list, ``what`` in errors, whose entries ``item`` reads;
    ``empty`` names the error of an empty list (None: it may be empty)."""
    def read(obj, path, base_dir):
        if not isinstance(obj, list):
            _fail(path, "expected " + what)
        if empty and not obj:
            _fail(path, "expected " + empty)
        return [item(v, "%s[%d]" % (path, i), base_dir) for i, v in enumerate(obj)]
    return read


def _choice(*options, message):
    """A reader of one of ``options``; ``message`` % value names any other value."""
    def read(obj, path, base_dir):
        if obj not in options:
            _fail(path, message % (obj,))
        return obj
    return read


def _optional(read):
    """``read``, or None for a JSON null."""
    return lambda obj, path, base_dir: None if obj is None else read(obj, path, base_dir)


_positive = functools.partial(_number, positive=True, finite=True)
_count = functools.partial(_integer, minimum=1)
_string = _typed("a string", str)
_name = _typed("a node name (a string or an integer)", str, int)
_flag = _typed("true or false", bool)  # never a truth test
_integers = _list(_integer, "a list of integers")
_NONEMPTY = "a nonempty list"


def _node_pair(obj, path, base_dir=None):
    pair = _integers(obj, path, base_dir)
    if len(pair) != 2:
        _fail(path, "expected a node pair")
    return tuple(pair)


_CSV = {"csv": (_string, None)}


def _matrix(obj, path, base_dir):
    """An inline array or a csv file reference, as floats."""
    if isinstance(obj, dict):
        ref = _read(obj, path, _CSV, base_dir)["csv"]
        fname = os.path.join(base_dir, ref)
        if not os.path.exists(fname):
            _fail(path, "csv file %r not found" % ref)
        try:
            return np.loadtxt(fname, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            _fail(path, "csv file %r: %s" % (ref, exc))
    if isinstance(obj, list):
        try:
            return np.array(obj, dtype=float)
        except (TypeError, ValueError, OverflowError):
            _fail(path, "could not read a numeric array")
    _fail(path, "expected an inline array or a csv reference")


def _bound(obj, path, base_dir):
    """A box bound: a number, a matrix, or +inf for null or "inf"."""
    if obj is None or obj == "inf":
        return math.inf
    return _matrix(obj, path, base_dir) if isinstance(obj, (list, dict)) else _number(obj, path)


def function_from_config(obj, path, base_dir):
    """Build a catalog function from its JSON form; its constructor's
    ``InvalidInput`` is a config error at ``path``."""
    return _variant(obj, path, base_dir, "type", _FUNCTIONS, "unknown function type %r")


_BLOCK = {"indices": (_integers, None), "function": (function_from_config, None)}

# The function catalog: type -> (constructor, table of its arguments).
_FUNCTIONS = {
    "zero": (fx.Zero, {}),
    "equality": (fx.Equality, {"target": (_matrix, None)}),
    "box": (fx.Box, {"lower": (_bound, 0.0), "upper": (_bound, None)}),
    "linear": (fx.Linear, {"cost": (_matrix, None)}),
    "quadratic": (fx.QuadraticDistance, {"weight": (_positive, 1.0), "anchor": (_matrix, None),
                                         "exponent": (_positive, 2.0)}),
    "congestion": (fx.Congestion, {"capacity": (_matrix, None)}),
    "blockwise": (fx.Blockwise, {
        "size": (_count, None),
        "blocks": (_list(_object(_BLOCK, lambda indices, function: (indices, function)),
                         _NONEMPTY, _NONEMPTY), None)}),
    "composite": (fx.CompositeFunction, {
        "parts": (_list(function_from_config, _NONEMPTY, _NONEMPTY), None)}),
}


def _integer_key(key, path):
    """A map key naming a node or a time index, such as "3"."""
    try:
        return int(key)
    except ValueError:
        _fail(path, "expected integer keys, got %r" % (key,))


def _edge_key(key, path):
    """A map key naming an edge, such as "0-1"."""
    parts = key.split("-")
    if len(parts) != 2:
        _fail(path, "edge keys look like \"0-1\", got %r" % (key,))
    return tuple(_integer_key(p, path) for p in parts)


def _function_map(key_of, noun):
    """A reader of a map from node, edge or time index (``key_of`` reads each
    key) to a function; two keys naming one index are an error.  An entry or
    a composite's part equal to an earlier entry or part is that one's
    function, which the spec then resolves once."""
    def read(obj, path, base_dir):
        found, built = {}, []

        def function(cfg, at, base_dir):
            fn = next((f for c, f in built if c == cfg), None)
            if fn is None:
                fn = _variant(cfg, at, base_dir, "type", catalog, "unknown function type %r")
                built.append((cfg, fn))
            return fn

        catalog = dict(_FUNCTIONS, composite=(fx.CompositeFunction, {
            "parts": (_list(function, _NONEMPTY, _NONEMPTY), None)}))
        for key, cfg in _expect_map(obj, path).items():
            index = key_of(key, path)
            if index in found:
                _fail("%s[%s]" % (path, key), "%s %s is given twice" % (noun, index))
            found[index] = function(cfg, "%s[%s]" % (path, key), base_dir)
        return found
    return read


def _unit_length(obj, path, base_dir=None):
    if _number(obj, path) != 1:
        _fail(path, "must be 1: every edge takes one time step")
    return obj


def _constraint(od=None, initial=None, final=None):
    """The constraint arguments of ``build_flow_problem``: od or terminals."""
    if od is None:
        if initial is None or final is None:
            raise InvalidInput("need either \"od\" or \"initial\"/\"final\"")
        return {"terminals": (initial, final)}
    for key, value in (("initial", initial), ("final", final)):
        if value is not None:
            _fail("problem.constraint." + key, "not read with \"od\"; give od or initial/final")
    return {"od": od}


def _flow(epsilon, base_dir, nodes, edges, sources, sinks, horizon, constraint, edge_cost):
    net = bld.FlowNetwork(nodes, edges, sources, sinks, horizon)
    if edge_cost == "congestion" and not np.all(np.isfinite(net.capacities())):
        _fail("problem.edges", "congestion edge costs need finite capacities everywhere")
    edge_cost = None if edge_cost == "congestion" else fx.Zero()
    return bld.build_flow_problem(net, **constraint, edge_cost=edge_cost, epsilon=epsilon), net


def _mfg(epsilon, base_dir, grid, steps, dt, species, total_running, total_terminal, cost):
    for j in total_running:
        if not 1 <= j < steps:
            _fail("problem.total_running[%d]" % j,
                  "expected an interior time index 1 .. %d" % (steps - 1))
    cost_matrix = cost.get("values")
    if cost_matrix is not None:
        with _blame("problem.cost.values"):
            cost_matrix = bld.check_cost_matrix(cost_matrix, len(grid))
    running, terminal = ([sp[key] for sp in species] for key in ("running", "terminal"))
    setup = bld.MFGSetup(
        grid=grid, n_steps=steps, initial_densities=[sp["initial"].ravel() for sp in species],
        dt=dt, epsilon=epsilon, cost_scale=cost["scale"], cost_matrix=cost_matrix,
        total_running=total_running, total_terminal=total_terminal,
        species_running=({j: list(running) for j in range(1, steps)}
                         if any(fn is not None for fn in running) else {}),
        species_terminal=terminal if any(fn is not None for fn in terminal) else None)
    return bld.build_mfg_problem(setup), None


def _topology(make):
    """A maker of ``(topology, sizes)``: ``make`` of the node count and the rest."""
    return lambda sizes, **rest: (make(len(sizes), **rest), sizes)


def _hub(sizes, species):
    topo = md.GraphTopology.species_hub(len(sizes) - 1, species)
    if sizes[-1] != species:
        _fail("problem.topology.sizes", "last size must equal the species count")
    return topo, sizes


def _raw(epsilon, base_dir, topology, kernels, node_functions, edge_functions):
    topo, sizes = topology
    by_edge = {}
    for i, k in enumerate(kernels):
        if k["edge"] in by_edge:
            _fail("problem.kernels[%d].edge" % i, "edge %r has a kernel already" % (k["edge"],))
        with _blame("problem.kernels[%d].cost" % i):
            by_edge[k["edge"]] = md.build_kernel(k["cost"], epsilon)
    for a, b in topo.edges:
        by_edge.setdefault((a, b), md.EdgeKernel.ones((sizes[a], sizes[b])))
    spec = md.ProblemSpec(topo, by_edge, node_functions, edge_functions, epsilon)
    if spec.node_sizes != sizes:
        _fail("problem.topology.sizes", "the kernels give the node sizes %s"
              % (spec.node_sizes,))
    return spec, None


_FLOW_EDGE = {"from": (_name, None), "to": (_name, None),
              "capacity": (functools.partial(_number, positive=True), math.inf),  # inf: none
              "length": (_unit_length, 1.0)}
_CONSTRAINT = {"od": (_matrix, _ABSENT), "initial": (_matrix, _ABSENT),
               "final": (_matrix, _ABSENT)}
_GRID = {"shape": (_list(_count, "a list of integers"), None),
         "extent": (_list(functools.partial(_number, finite=True), "a list of numbers"), [])}


def _grid(obj, path, base_dir):
    """Grid points: a matrix, or ``{"shape", "extent"}`` for a box's cell centres."""
    if isinstance(obj, dict) and "csv" not in obj:
        return _object(_GRID, bld.grid_points)(obj, path, base_dir)
    return _matrix(obj, path, base_dir)


_SPECIES = {"initial": (_matrix, None), "running": (_optional(function_from_config), None),
            "terminal": (_optional(function_from_config), None)}
# The mfg cost modes: mode -> (maker, table of the cost's other keys).
_MFG_COSTS = {"squared_distance": (dict, {"scale": (_positive, 1.0)}),
              "matrix": (dict, {"scale": (_positive, 1.0), "values": (_matrix, None)})}
_sizes = _list(_count, "a list of integers", "a nonempty list of node sizes")
# The raw topology classes: class -> (maker of (topology, sizes), table).
_TOPOLOGIES = {
    "chain": (_topology(md.GraphTopology.chain), {"sizes": (_sizes, None)}),
    "od_cycle": (_topology(md.GraphTopology.od_cycle), {"sizes": (_sizes, None)}),
    "hub": (_hub, {"sizes": (_sizes, None), "species": (_count, None)}),
    "general": (_topology(md.GraphTopology.general),
                {"sizes": (_sizes, None),
                 "edges": (_list(_node_pair, "an edge list", "an edge list"), None)}),
}
_KERNEL = {"edge": (_node_pair, None), "cost": (_matrix, None)}

# The problem kinds: kind -> (builder, table of the problem's other keys).
_PROBLEMS = {
    "flow": (_flow, {
        "nodes": (_list(_name, "a list of node names", _NONEMPTY), None),
        "edges": (_list(_object(_FLOW_EDGE, lambda **e: bld.FlowEdge(
            e["from"], e["to"], capacity=e["capacity"])), _NONEMPTY, _NONEMPTY), None),
        "sources": (_list(_name, "a list of node names"), []),
        "sinks": (_list(_name, "a list of node names"), []),
        "horizon": (functools.partial(_integer, minimum=2), None),
        "constraint": (_object(_CONSTRAINT, _constraint), None),
        "edge_cost": (_choice("congestion", "zero", message="unknown edge cost kind %r"),
                      "congestion")}),
    "mfg": (_mfg, {
        "grid": (_grid, None), "steps": (_count, None), "dt": (_optional(_positive), None),
        "species": (_list(_object(_SPECIES), _NONEMPTY, _NONEMPTY), None),
        "total_running": (_function_map(_integer_key, "time index"), {}),
        "total_terminal": (_optional(function_from_config), None),
        "cost": (_tagged("mode", _MFG_COSTS, "unknown mode %r", "squared_distance"), {})}),
    "raw": (_raw, {
        "topology": (_tagged("class", _TOPOLOGIES, "unknown topology class %r"), None),
        "kernels": (_list(_object(_KERNEL), "a list"), []),
        "node_functions": (_function_map(_integer_key, "node"), {}),
        "edge_functions": (_function_map(_edge_key, "edge"), {})}),
}
_SOLVER = {"feasibility_tol": (_positive, _ABSENT), "potential_tol": (_positive, _ABSENT),
           "max_sweeps": (_count, _ABSENT), "verify": (_flag, False)}
_OUTPUT = {"directory": (_string, "gtop_out"), "marginals": (_flag, True),
           "bimarginals": (_flag, True), "dual_trace": (_flag, True), "summary": (_flag, True)}
_TOP = {"problem": (_any, None), "epsilon": (_positive, 0.05),
        "solver": (_object(_SOLVER, solver.SolverConfig), {}), "output": (_object(_OUTPUT), {}),
        "label": (_string, _ABSENT)}


def parse_config(config_path):
    """Read and validate a JSON run configuration; each value it rejects, the
    model's included, raises ``ConfigError`` naming its config path."""
    if not os.path.exists(config_path):
        raise ConfigError("config file %r not found" % (config_path,))
    base_dir = os.path.dirname(os.path.abspath(config_path))
    with open(config_path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % (exc,)) from exc

    top = _read(raw, "config", _TOP, base_dir)
    spec, flow_net = _variant(top["problem"], "problem", base_dir, "kind", _PROBLEMS,
                              "expected one of \"flow\", \"mfg\", \"raw\", got %r",
                              top["epsilon"], base_dir)
    output = top["output"]
    label = top.get("label", os.path.splitext(os.path.basename(config_path))[0])
    return RunConfig(spec, top["solver"], output.pop("directory"), output, flow_net, label)


def _fresh(path):
    """``path`` with any old file removed: on ext4 a file truncated and written
    again is flushed to disk when closed, which made reruns slow and uneven."""
    if os.path.lexists(path):
        os.remove(path)
    return path


def _write_csv(path, *blocks):
    """Each block, a vector or a matrix, as "%.17g" CSV lines, the bytes of
    ``np.savetxt``; widths may differ.  One ``%`` formats a whole block."""
    with open(_fresh(path), "w", encoding="ascii") as fh:
        for block in blocks:
            rows, cols = np.atleast_2d(block).shape
            fh.write((",".join(["%.17g"] * cols) + "\n") * rows % tuple(np.ravel(block).tolist()))


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
    try:
        os.makedirs(run_config.out_dir, exist_ok=True)
    except OSError as exc:
        _fail("output.directory", exc)

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
            # formatting that dominates writing them as CSV.  Each plan is
            # scaled in place, over the fresh mantissa the engine hands over.
            steps = set(zip(time_nodes, time_nodes[1:]))
            for e in topo.edges:
                p = engine.bimarginal(e, pots)
                p = p.value(out=p.m)
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
    args = parser.parse_args(argv)  # "solve" is the only command

    if args.tol is not None and not 0 < args.tol < math.inf:
        parser.error("--tol must be finite and positive")
    if args.max_sweeps is not None and args.max_sweeps < 1:
        parser.error("--max-sweeps must be at least 1")
    try:
        run_config = parse_config(args.config)
        if args.tol is not None:
            run_config.solver_config.feasibility_tol = args.tol
        if args.max_sweeps is not None:
            run_config.solver_config.max_sweeps = args.max_sweeps
        if args.output is not None:
            run_config.out_dir = args.output
        if args.verify:
            run_config.solver_config.verify = True
        return run(run_config)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
