"""Sweep counts of the full-size seed-0 benchmark instances, solved in process.

The instances come from ``perfbench/workloads.py``, imported by path so
that this file depends on the benchmark's inputs and nothing else of it.
chain_steer and mfg_hub contract too irregularly for the geometric
extrapolation to try a jump, so their sweeps stay as they were; dense_cycle
settles into a steady rate and is extrapolated.
"""

import importlib.util
import os

import pytest

from gtop import solver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_seed0(workloads, name, work_dir):
    wl = workloads.WORKLOADS[name](0, str(work_dir))
    problem = wl.setup()
    if name == "mfg_hub":
        return solver.solve(problem.spec, problem.solver_config)[1]
    config = solver.SolverConfig(feasibility_tol=workloads.TOL,
                                 potential_tol=workloads.TOL)
    return solver.solve(problem, config)[1]


@pytest.mark.parametrize("name, sweeps", [("chain_steer", 31), ("mfg_hub", 17)])
def test_irregular_instances_never_try(workloads, name, sweeps, tmp_path):
    report = solve_seed0(workloads, name, tmp_path)
    assert report.termination == "converged"
    assert report.sweeps == sweeps
    assert report.extrapolations == []


def test_dense_cycle_is_extrapolated(workloads, tmp_path):
    report = solve_seed0(workloads, "dense_cycle", tmp_path)
    assert report.termination == "converged"
    assert report.sweeps <= 40
    assert any(kept for _, _, kept in report.extrapolations)
    ref = workloads.REFERENCE_DUAL["dense_cycle"]
    assert report.dual_objective == pytest.approx(ref, rel=1e-12)
