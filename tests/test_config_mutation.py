"""Config mutation: every field of the flow and mfg smoke configs and of two
raw configs, set to each of a fixed set of wrong or odd values, either fails
with a ``GtopError`` or runs to an exit status of 0, 1 or 2.  Exit status 1
is also what a solve that ran out of its sweep budget returns; such a case
counts as "max_sweeps", a solve that ran to its end.

The smoke configs come from ``perfbench/workloads.py``.  The raw configs are
a path-plus-chord graph whose nodes differ in size, stacking an equality, a
composite, a blockwise cost and an edge box, and a species hub.  Lists are
followed to their first three items.  Each case runs ``parse_config`` and then
``cli.run`` with a budget of 3 sweeps, inside the test's own directory, so
that a mutated output directory lands there too.

Key mutations rename each key of each object of the same configs, the maps
keyed by node or time index aside, by dropping its last character, and add
one stray key per object: every such config exits 2 with an error at the
path of that key.
"""

import json
import math
import os

import pytest

from gtop import GtopError, cli

from _support import load_workloads

VALUES = (None, "x", [], {}, -1, 0, 1.5, True, math.nan, math.inf, [[1]], {"a": 1}, [None],
          [1.0, 2.0], {"type": "composite", "parts": [{"type": "zero"}]})
LIST_ITEMS = 3

RAW = {
    "raw_path_chord": {
        "topology": {"class": "general", "sizes": [2, 3, 2], "edges": [[0, 1], [1, 2], [0, 2]]},
        "kernels": [{"edge": [0, 1], "cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]},
                    {"edge": [0, 2], "cost": [[0.0, 1.0], [1.0, 0.0]]}],
        "node_functions": {
            "0": {"type": "equality", "target": [0.6, 0.4]},
            "1": {"type": "composite", "parts": [
                {"type": "box", "upper": [0.5, 0.5, 0.5]},
                {"type": "quadratic", "weight": 1.0, "anchor": [0.3, 0.3, 0.4]}]},
            "2": {"type": "blockwise", "size": 2, "blocks": [
                {"indices": [0], "function": {"type": "box", "lower": 0.0, "upper": [0.7]}},
                {"indices": [1], "function": {"type": "linear", "cost": [0.1]}}]}},
        "edge_functions": {"0-1": {"type": "box", "upper": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]}},
    },
    "raw_hub": {
        "topology": {"class": "hub", "sizes": [2, 2, 2], "species": 2},
        "kernels": [{"edge": [0, 1], "cost": [[0.0, 1.0], [1.0, 0.0]]}],
        "node_functions": {"0": {"type": "equality", "target": [0.5, 0.5]},
                           "1": {"type": "quadratic", "anchor": [0.7, 0.3]},
                           "2": {"type": "equality", "target": [0.4, 0.6]}},
        "edge_functions": {"2-1": {"type": "congestion", "capacity": [[1.0, 1.0], [1.0, 1.0]]}},
    },
}


def field_paths(node, prefix=()):
    """Every path of keys and list indices below ``node``, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node[:LIST_ITEMS]))
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutated_json(config, path, value):
    """``config`` as JSON text with the field at ``path`` set to ``value``."""
    node = config
    for key in path[:-1]:
        node = node[key]
    old, node[path[-1]] = node[path[-1]], value
    try:
        return json.dumps(config)
    finally:
        node[path[-1]] = old


def outcome(config_path):
    """``GtopError``, "max_sweeps" or the exit status of one case; anything else
    propagates."""
    try:
        run_config = cli.parse_config(config_path)
        run_config.solver_config.max_sweeps = 3
        status = cli.run(run_config)
    except GtopError:
        return "GtopError"
    if status == 1 and run_config.emit["summary"]:
        with open(os.path.join(run_config.out_dir, "summary.json"), encoding="utf-8") as fh:
            if json.load(fh)["termination"] == "max_sweeps":
                return "max_sweeps"
    return status


def base_config(name, tmp_path):
    """The unmutated config of ``name``, writing its results to "out"."""
    if name in RAW:
        problem = dict(json.loads(json.dumps(RAW[name])), kind="raw")
        return {"problem": problem, "epsilon": 0.5, "output": {"directory": "out"}}
    workload = load_workloads().WORKLOADS[name](0, str(tmp_path / "smoke"), smoke=True)
    with open(workload.config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["output"]["directory"] = "out"
    return config


@pytest.mark.parametrize("name", ["flow_od", "mfg_hub", *RAW])
def test_every_mutated_field_fails_cleanly(name, tmp_path, monkeypatch):
    config = base_config(name, tmp_path)
    monkeypatch.chdir(tmp_path)
    seen = []
    for path in field_paths(config):
        for value in VALUES:
            (tmp_path / "case.json").write_text(mutated_json(config, path, value))
            seen.append(outcome("case.json"))
            assert seen[-1] in ("GtopError", "max_sweeps", 0, 1, 2), (path, value, seen[-1])
    # some case solves to the end: converged (0) or out of sweeps
    assert len(seen) > 500 and "GtopError" in seen and {0, "max_sweeps"} & set(seen)


# Maps keyed by node or time index: any integer key is allowed there.
FREE_KEYS = ("node_functions", "edge_functions", "total_running")


def fixed_key_objects(node, path=()):
    """``(path, object)`` for ``node`` and every JSON object below it whose
    keys are a fixed set, not a map keyed by node or time index."""
    if isinstance(node, dict):
        if not path or path[-1] not in FREE_KEYS:
            yield path, node
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node[:LIST_ITEMS]))
    else:
        return
    for key, child in items:
        yield from fixed_key_objects(child, path + (key,))


def shown(path):
    """``path`` the way the CLI names it, such as problem.edges[0].from or
    problem.node_functions[1].upper."""
    out = ""
    for i, key in enumerate(path):
        if isinstance(key, int) or (i and path[i - 1] in FREE_KEYS):
            out += "[%s]" % key
        else:
            out += "." + key if out else key
    return out


@pytest.mark.parametrize("name", ["flow_od", "mfg_hub", *RAW])
def test_every_misspelled_or_stray_key_is_named(name, tmp_path, monkeypatch, capsys):
    # Each key of each object with its last character dropped, then one
    # stray key per object: exit status 2, and the message starts with the
    # path of that key.
    config = base_config(name, tmp_path)
    monkeypatch.chdir(tmp_path)
    cases = 0
    for path, obj in fixed_key_objects(config):
        saved = dict(obj)
        for old, new in [(key, key[:-1]) for key in saved] + [(None, "stray")]:
            obj.clear()
            obj.update((new if k == old else k, v) for k, v in saved.items())
            if old is None:
                obj[new] = 1
            (tmp_path / "case.json").write_text(json.dumps(config))
            obj.clear()
            obj.update(saved)
            status = cli.main(["solve", "--config", "case.json"])
            err = capsys.readouterr().err
            assert status == 2 and err.startswith("error: %s: " % shown(path + (new,))), \
                (path, old, new, status, err)
            cases += 1
    assert cases > 30
