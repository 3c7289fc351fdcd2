"""Config mutation: every field of the flow and mfg smoke configs, set to
each of a fixed set of wrong or odd values, either fails with a
``GtopError`` or runs to an exit status of 0, 1 or 2.

The smoke configs come from ``perfbench/workloads.py``.  Lists are followed
to their first three items.  Each case runs ``parse_config`` and then
``cli.run`` with a budget of 3 sweeps, inside the test's own directory, so
that a mutated output directory lands there too.
"""

import json
import math

import pytest

from gtop import GtopError, cli

from _support import load_workloads

VALUES = (None, "x", [], {}, -1, 0, 1.5, True, math.nan, math.inf, [[1]], {"a": 1}, [None],
          [1.0, 2.0])
LIST_ITEMS = 3


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
    """``GtopError`` or the exit status of one case; anything else propagates."""
    try:
        run_config = cli.parse_config(config_path)
        run_config.solver_config.max_sweeps = 3
        return cli.run(run_config)
    except GtopError:
        return "GtopError"


@pytest.mark.parametrize("name", ["flow_od", "mfg_hub"])
def test_every_mutated_field_fails_cleanly(name, tmp_path, monkeypatch):
    workload = load_workloads().WORKLOADS[name](0, str(tmp_path / "smoke"), smoke=True)
    with open(workload.config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["output"]["directory"] = "out"
    monkeypatch.chdir(tmp_path)
    seen = []
    for path in field_paths(config):
        for value in VALUES:
            (tmp_path / "case.json").write_text(mutated_json(config, path, value))
            seen.append(outcome("case.json"))
            assert seen[-1] in ("GtopError", 0, 1, 2), (path, value, seen[-1])
    assert len(seen) > 500 and {"GtopError", 0} <= set(seen)
