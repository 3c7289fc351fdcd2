"""Tests of the benchmark itself, on reduced instances that solve in well under a second."""

import inspect
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gtop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Metric names the benchmark promises: every end-to-end metric and every
# per-layer metric (the failure ratio is the result's failed / attempted).
END_TO_END = ["solve_s", "sweeps", "sweep_ms", "setup_s", "output_s", "peak_rss_mb"]
PER_LAYER = [
    "projections.%s.%s" % (span, kind)
    for span in ("rebuild_backward", "push_forward", "w_node", "w_edge", "marginal",
                 "bimarginal", "refresh")
    for kind in ("s", "calls")
] + [
    "functions.solve_inclusion.s", "functions.solve_inclusion.calls",
] + [
    "functions.solve_inclusion.%s.%s" % (cls, kind)
    for cls in ("Equality", "Box", "Blockwise", "QuadraticDistance", "Congestion")
    for kind in ("s", "calls")
] + [
    "functions.conjugate.s", "functions.conjugate.calls",
    "model.dual_objective.s", "model.dual_objective.calls",
    "model.renormalize.s", "model.renormalize.calls",
    "solver.residual_map.s", "solver.residual_map.calls",
    "solver.residual_map.useful_ratio",
    "solver.sweep.self_s", "solver.solve.self_s",
    "builders.build_flow_problem.s", "builders.build_mfg_problem.s",
    "model.build_kernel.s", "cli.parse_config.s",
    "cli.run.self_s", "trace.overhead",
]


def _solve(workload, problem):
    capture = workloads.SolveCapture()
    capture.install()
    try:
        return workload.run(problem, capture)
    finally:
        capture.uninstall()


def _bindings():
    """Every attribute of every gtop module and of every class defined in one."""
    out = {}
    for mod in spans._gtop_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__:
                for key, value in vars(cls).items():
                    out[(mod.__name__, cls.__name__, key)] = value
    return out


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in run.WORKLOAD_NAMES if name != "flow_od"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(run.END_TO_END) == sorted(END_TO_END)
    assert sorted(run.PER_LAYER) == sorted(PER_LAYER)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_reported_and_checks_pass(name, tmp_path):
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        result = run.Run(name, 3, 0.01, smoke=True, work_root=str(tmp_path),
                         log=lambda line: None).measure(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(expected)
    assert not os.listdir(str(tmp_path))


def test_failed_check_is_counted_and_run_continues(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.ChainSteer, "check_outputs",
                        lambda self, problem, outcome: ["forced failure"])
    result = run.Run("chain_steer", 0, 0.01, smoke=True, work_root=str(tmp_path),
                     log=lambda line: None).measure(1)
    assert result["attempted"] == result["failed"] == 2
    assert not result["correct"]


def test_checks_reject_a_corrupted_output(tmp_path):
    wl = workloads.MfgHub(0, str(tmp_path), smoke=True)
    problem = wl.setup()
    outcome = _solve(wl, problem)
    assert wl.check(problem, outcome) == []
    path = os.path.join(wl.out_dir, "bimarg_%d_1.csv" % problem.spec.topology.hub)
    table = wl.read_csv(os.path.basename(path))
    table[0] *= 1.001
    np.savetxt(path, table, delimiter=",", fmt="%.17g")
    assert wl.check(problem, outcome) == ["species mass at time 1 off by %.3g"
                                          % (table[0].sum() - wl.initials[0].sum())]


def test_wrappers_restore_the_original_functions(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert gtop.solver.residual_map is not before[("gtop.solver", "residual_map")]
        assert gtop.projections.ChainEngine.w_node is not \
            before[("gtop.projections", "ChainEngine", "w_node")]
        wl = workloads.ChainSteer(0, str(tmp_path), smoke=True)
        _solve(wl, wl.setup())
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.total("solver.solve")[2] == 1


@pytest.mark.parametrize("name", ["flow_od", "mfg_hub", "dense_cycle"])
def test_self_times_add_up_and_traced_solve_is_identical(name, tmp_path):
    wl = workloads.WORKLOADS[name](0, str(tmp_path), smoke=True)
    problem = wl.setup()
    plain = _solve(wl, problem)
    tracer = spans.Tracer(keep_spans=True)
    with tracer:
        traced = _solve(wl, problem)
    assert traced.report.sweeps == plain.report.sweeps
    assert traced.report.dual_objective == plain.report.dual_objective

    records = {r[0]: r for r in tracer.spans}
    children = {}
    for span_id, parent, _, t0, t1, own in tracer.spans:
        assert own >= 0.0
        if parent:
            children.setdefault(parent, []).append(records[span_id])
    assert children
    for parent, kids in children.items():
        _, _, _, p0, p1, p_own = records[parent]
        for kid in kids:
            assert p0 <= kid[3] and kid[4] <= p1
        kid_dur = sum(k[4] - k[3] for k in kids)
        assert sum(k[5] for k in kids) <= kid_dur <= p1 - p0
        assert abs(p_own - ((p1 - p0) - kid_dur)) <= 1e-9
    for key, (s, own, calls) in tracer.totals.items():
        assert 0.0 <= own <= s + 1e-12 and calls >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow_od",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
