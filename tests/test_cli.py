"""CLI tests: config parsing, file outputs, determinism, and flags."""

import json
import math
import os

import numpy as np
import pytest

from gtop import ConfigError
from gtop.cli import main, parse_config, run

from _support import assert_maxnorm_close


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_strict_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity constants."""
    def reject(name):
        raise ValueError("non-standard JSON constant %s" % name)

    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=reject)


def minimal_raw_config(out_dir):
    return {
        "problem": {
            "kind": "raw",
            "topology": {"class": "chain", "sizes": [2, 2]},
            "kernels": [{"edge": [0, 1], "cost": [[0.0, 0.0], [0.0, 0.0]]}],
            "node_functions": {
                "0": {"type": "equality", "target": [0.3, 0.7]},
                "1": {"type": "equality", "target": [0.6, 0.4]},
            },
        },
        "epsilon": 1.0,
        "solver": {"feasibility_tol": 1e-10},
        "output": {"directory": out_dir},
    }


def flow_config(out_dir):
    return {
        "problem": {
            "kind": "flow",
            "nodes": ["A", "B"],
            "edges": [{"from": "A", "to": "B", "capacity": 5.0}],
            "sources": ["A"],
            "sinks": ["B"],
            "horizon": 3,
            "constraint": {"od": [[1.0]]},
        },
        "epsilon": 0.5,
        "output": {"directory": out_dir},
    }


class TestParseConfig:
    def test_minimal_two_marginal(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_raw_config(str(tmp_path / "out"))))
        assert cfg.spec.topology.kind == "chain"
        assert cfg.spec.epsilon == 1.0
        assert cfg.solver_config.feasibility_tol == 1e-10

    def test_flow_becomes_od_cycle(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, flow_config(str(tmp_path / "out"))))
        assert cfg.spec.topology.kind == "od_cycle"
        assert cfg.flow_net is not None

    def test_negative_capacity_named(self, tmp_path):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["edges"][0]["capacity"] = -1.0
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, body))
        assert "problem.edges[0].capacity" in str(err.value)

    def test_unknown_function_type_named(self, tmp_path):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["node_functions"]["0"] = {"type": "mystery"}
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, body))
        assert "node_functions[0].type" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.json"))

    def test_csv_matrix_reference(self, tmp_path):
        np.savetxt(tmp_path / "cost.csv", np.zeros((2, 2)), delimiter=",")
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"][0]["cost"] = {"csv": "cost.csv"}
        cfg = parse_config(write_config(tmp_path, body))
        assert cfg.spec.kernels[(0, 1)].m.shape == (2, 2)

    def test_mfg_config(self, tmp_path):
        body = {
            "problem": {
                "kind": "mfg",
                "grid": {"shape": [2, 2], "extent": [0.0, 1.0, 0.0, 1.0]},
                "steps": 2,
                "species": [
                    {"initial": [0.25, 0.25, 0.25, 0.25]},
                    {"initial": [0.1, 0.2, 0.3, 0.4],
                     "running": {"type": "linear", "cost": [0.0, 0.1, 0.2, 0.3]}},
                ],
                "total_terminal": {"type": "quadratic", "weight": 1.0,
                                   "anchor": [0.5, 0.5, 0.5, 0.5]},
            },
            "epsilon": 0.4,
            "output": {"directory": str(tmp_path / "out")},
        }
        cfg = parse_config(write_config(tmp_path, body))
        assert cfg.spec.topology.kind == "species_hub"
        assert cfg.spec.topology.species_count == 2


class TestRun:
    def test_product_coupling_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, minimal_raw_config(out)))
        assert run(cfg) == 0
        marg = np.loadtxt(os.path.join(out, "marginals.csv"), delimiter=",")
        np.testing.assert_allclose(marg, [[0.3, 0.7], [0.6, 0.4]], atol=1e-9)
        coupling = np.loadtxt(os.path.join(out, "bimarg_0_1.csv"), delimiter=",")
        np.testing.assert_allclose(coupling, np.outer([0.3, 0.7], [0.6, 0.4]),
                                   atol=1e-8)
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["termination"] == "converged"
        trace = open(os.path.join(out, "dual_trace.csv")).read().splitlines()
        assert trace[0] == "sweep,dual_objective,max_residual"
        assert len(trace) == summary["sweeps"] + 1

    def test_rerun_is_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        body = flow_config(out1)
        body["label"] = "same"
        cfg1 = parse_config(write_config(tmp_path, body, "a.json"))
        body["output"]["directory"] = out2
        cfg2 = parse_config(write_config(tmp_path, body, "b.json"))
        assert run(cfg1) == 0
        assert run(cfg2) == 0
        for name in sorted(os.listdir(out1)):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            if name == "summary.json":
                s1 = json.loads(b1)
                s2 = json.loads(b2)
                s1.pop("wall_time_s")
                s2.pop("wall_time_s")
                assert s1 == s2
            else:
                assert b1 == b2, "output %s differs between reruns" % name

    def test_csv_roundtrip_full_precision(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, flow_config(out)))
        run(cfg)
        coupling = np.loadtxt(os.path.join(out, "bimarg_0_2.csv"), delimiter=",")
        from gtop import make_engine, solve
        pots, _ = solve(cfg.spec, cfg.solver_config)
        eng = make_engine(cfg.spec)
        eng.refresh(pots)
        exact = eng.bimarginal(cfg.spec.topology.chord, pots).value()
        np.testing.assert_array_equal(coupling, exact)

    def test_summary_residuals_match_emitted_marginals(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, minimal_raw_config(out)))
        run(cfg)
        summary = json.load(open(os.path.join(out, "summary.json")))
        marg = np.loadtxt(os.path.join(out, "marginals.csv"), delimiter=",")
        for j, target in ((0, [0.3, 0.7]), (1, [0.6, 0.4])):
            recomputed = np.abs(marg[j] - np.array(target)).sum() / 1.0
            assert summary["residuals"]["node:%d" % j] == pytest.approx(recomputed,
                                                                        abs=1e-12)

    def test_utilization_table_for_flow(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, flow_config(out)))
        run(cfg)
        util = np.loadtxt(os.path.join(out, "utilization.csv"), delimiter=",", ndmin=2)
        assert util.shape == (3, 1)
        assert np.all(util <= 1.0)

    def test_infeasible_run_writes_summary_and_fails(self, tmp_path):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["node_functions"]["1"]["target"] = [5.0, 5.0]  # mass mismatch
        cfg = parse_config(write_config(tmp_path, body))
        assert run(cfg) == 1
        summary = json.load(open(os.path.join(str(tmp_path / "out"), "summary.json")))
        assert summary["termination"] == "error"
        assert "mass" in summary["error"]

    def test_infeasible_update_keeps_partial_report(self, tmp_path):
        # state 1 of node 1 is unreachable, so its equality target starves at sweep 1
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"][0]["cost"] = [[0.0, math.inf], [0.0, math.inf]]
        body["problem"]["node_functions"]["0"]["target"] = [0.5, 0.5]
        body["problem"]["node_functions"]["1"]["target"] = [0.5, 0.5]
        cfg = parse_config(write_config(tmp_path, body))
        assert run(cfg) == 1
        summary = read_strict_json(os.path.join(str(tmp_path / "out"), "summary.json"))
        assert summary["termination"] == "error"
        assert "node 1" in summary["error"] and "sweep 1" in summary["error"]
        assert summary["sweeps"] == 1
        assert summary["feasible"] is False
        assert summary["residuals"]["node:0"] == pytest.approx(0.0, abs=1e-15)
        assert summary["residuals"]["node:1"] == pytest.approx(1.0, rel=1e-14)
        assert summary["max_residual"] == pytest.approx(1.0, rel=1e-14)
        assert summary["dual_objective"] == "-inf"  # no sweep completed

    def test_nonfinite_dual_is_written_as_strict_json(self, tmp_path, monkeypatch):
        import gtop.solver
        real_solve = gtop.solver.solve

        def solve_with_infinite_dual(spec, config=None, **kwargs):
            pots, report = real_solve(spec, config, **kwargs)
            report.dual_values[-1] = -math.inf
            return pots, report

        monkeypatch.setattr(gtop.solver, "solve", solve_with_infinite_dual)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", write_config(tmp_path, minimal_raw_config(out))]) == 0
        summary = read_strict_json(os.path.join(out, "summary.json"))
        assert summary["dual_objective"] == "-inf"
        assert summary["termination"] == "converged"


class TestMainEntry:
    def test_solve_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, minimal_raw_config(out))
        assert main(["solve", "--config", path]) == 0
        assert os.path.exists(os.path.join(out, "summary.json"))

    def test_missing_config_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["solve"])
        assert err.value.code == 2

    def test_bad_tol_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, minimal_raw_config(str(tmp_path / "out")))
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", path, "--tol", "-1"])
        assert err.value.code == 2

    def test_tol_override_loosens_termination(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, minimal_raw_config(out))
        assert main(["solve", "--config", path, "--tol", "1e-6"]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["max_residual"] <= 1e-6

    def test_verify_flag_on_small_instance(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, minimal_raw_config(out))
        assert main(["solve", "--config", path, "--verify"]) == 0

    def test_output_override(self, tmp_path):
        other = str(tmp_path / "elsewhere")
        path = write_config(tmp_path, minimal_raw_config(str(tmp_path / "out")))
        assert main(["solve", "--config", path, "--output", other]) == 0
        assert os.path.exists(os.path.join(other, "marginals.csv"))

    def test_config_error_exit_code(self, tmp_path):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kind"] = "nope"
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2


def mfg_config(out_dir):
    return {
        "problem": {
            "kind": "mfg",
            "grid": {"shape": [2, 2], "extent": [0.0, 1.0, 0.0, 1.0]},
            "steps": 2,
            "species": [
                {"initial": [0.25, 0.25, 0.25, 0.25]},
                {"initial": [0.1, 0.2, 0.3, 0.4],
                 "terminal": {"type": "quadratic", "weight": 0.5,
                              "anchor": [0.25, 0.25, 0.25, 0.25]}},
            ],
            "total_terminal": {"type": "quadratic", "weight": 1.0,
                               "anchor": [0.5, 0.5, 0.5, 0.5]},
        },
        "epsilon": 0.4,
        "output": {"directory": out_dir},
    }


class TestMfgRun:
    def test_end_to_end_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, mfg_config(out)))
        assert run(cfg) == 0
        species = np.loadtxt(os.path.join(out, "species_masses.csv"), delimiter=",")
        np.testing.assert_allclose(species, [1.0, 1.0], atol=1e-7)
        marg = np.loadtxt(os.path.join(out, "marginals.csv"), delimiter=",")
        assert marg.shape == (3, 4)
        # hub bimarginals carry the per-species density snapshots
        snap = np.loadtxt(os.path.join(out, "bimarg_3_1.csv"), delimiter=",")
        np.testing.assert_allclose(snap.sum(axis=0), marg[1], rtol=1e-10)

    def test_csv_rows_hold_exact_projections(self, tmp_path):
        # read as text: np.loadtxt turns a one-row file into a vector and so
        # cannot tell a row from a column
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, mfg_config(out)))
        assert run(cfg) == 0
        from gtop import make_engine, solve
        pots, _ = solve(cfg.spec, cfg.solver_config)
        eng = make_engine(cfg.spec)
        eng.refresh(pots)
        topo = cfg.spec.topology
        expected = {
            "species_masses.csv": [eng.marginal(topo.hub, pots).value()],
            "marginals.csv": [eng.marginal(j, pots).value() for j in topo.time_nodes],
        }
        for name, rows in expected.items():
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert [[float(v) for v in line.split(",")] for line in lines] == \
                [row.tolist() for row in rows], name


class TestThreadCap:
    def test_gtop_threads_propagates_before_numpy(self):
        import subprocess
        import sys
        code = ("import os\n"
                "import gtop\n"
                "print(os.environ.get('OMP_NUM_THREADS'),"
                " os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        import gtop
        # the child must import the same gtop, also when only pytest's own
        # pythonpath setting put it on sys.path
        src = os.path.dirname(os.path.dirname(os.path.abspath(gtop.__file__)))
        env = dict(os.environ, GTOP_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OMP_NUM_THREADS", None)
        env.pop("OPENBLAS_NUM_THREADS", None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "2 2"
