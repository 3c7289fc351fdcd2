"""CLI tests: config parsing, file outputs, determinism, and flags."""

import json
import math
import os
import re

import numpy as np
import pytest

from gtop import (ConfigError, DenseEngine, EdgeKernel, Equality, FlowEdge, FlowNetwork,
                  GraphTopology, MFGSetup, ProblemSpec, QuadraticDistance, SolverConfig, Zero,
                  build_flow_problem, build_kernel, build_mfg_problem, grid_points)
from gtop import cli
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
        assert cfg.spec.topology.path_chords == ((0, 1), ())
        assert cfg.spec.epsilon == 1.0
        assert cfg.solver_config.feasibility_tol == 1e-10

    def test_flow_becomes_od_cycle(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, flow_config(str(tmp_path / "out"))))
        assert cfg.spec.topology.chord == (0, 2)
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

    @pytest.mark.parametrize("section,key", [
        ("output", "marginals"), ("output", "bimarginals"), ("output", "dual_trace"),
        ("output", "summary"), ("solver", "verify")])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_boolean_options_must_be_booleans(self, tmp_path, section, key, value):
        body = minimal_raw_config(str(tmp_path / "out"))
        body.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, body))
        assert "%s.%s: expected true or false" % (section, key) in str(err.value)

    def test_boolean_options_read_as_given(self, tmp_path):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["solver"]["verify"] = True
        body["output"].update(marginals=False, bimarginals=True, dual_trace=False)
        cfg = parse_config(write_config(tmp_path, body))
        assert cfg.solver_config.verify is True
        assert cfg.emit == {"marginals": False, "bimarginals": True, "dual_trace": False,
                            "summary": True}

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
        assert cfg.spec.topology.hub == 3
        assert cfg.spec.topology.species_count == 2


class TestRun:
    def test_product_coupling_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, minimal_raw_config(out)))
        assert run(cfg) == 0
        marg = np.loadtxt(os.path.join(out, "marginals.csv"), delimiter=",")
        np.testing.assert_allclose(marg, [[0.3, 0.7], [0.6, 0.4]], atol=1e-9)
        coupling = np.load(os.path.join(out, "bimarg_0_1.npy"))
        np.testing.assert_allclose(coupling, np.outer([0.3, 0.7], [0.6, 0.4]),
                                   atol=1e-8)
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["termination"] == "converged"
        trace = open(os.path.join(out, "dual_trace.csv")).read().splitlines()
        assert trace[0] == "sweep,dual_objective,max_residual"
        assert len(trace) == summary["sweeps"] + 1

    def test_blockwise_with_unordered_indices_solves(self, tmp_path):
        # a block whose indices do not run in increasing order is read
        # through its index array, not a slice
        out = str(tmp_path / "out")
        body = minimal_raw_config(out)
        body["problem"]["kernels"][0]["cost"] = [[0.0, 0.3], [0.5, 0.1]]
        body["problem"]["node_functions"]["1"] = {
            "type": "blockwise", "size": 2,
            "blocks": [{"indices": [1, 0], "function": {"type": "equality",
                                                         "target": [0.4, 0.6]}}]}
        cfg = parse_config(write_config(tmp_path, body))
        assert not isinstance(cfg.spec.blocks[("node", 1)][0]._views[0][0], slice)
        assert run(cfg) == 0
        marg = np.loadtxt(os.path.join(out, "marginals.csv"), delimiter=",")
        np.testing.assert_allclose(marg, [[0.3, 0.7], [0.6, 0.4]], atol=1e-9)

    def test_time_nodes_of_different_sizes_write_rows_of_their_own_length(self, tmp_path):
        out = str(tmp_path / "out")
        body = minimal_raw_config(out)
        body["problem"]["topology"]["sizes"] = [2, 3]
        body["problem"]["kernels"] = []
        body["problem"]["node_functions"]["1"] = {"type": "equality",
                                                  "target": [0.2, 0.3, 0.5]}
        assert run(parse_config(write_config(tmp_path, body))) == 0
        rows = open(os.path.join(out, "marginals.csv")).read().splitlines()
        assert [len(r.split(",")) for r in rows] == [2, 3]
        np.testing.assert_allclose([float(v) for v in rows[1].split(",")], [0.2, 0.3, 0.5],
                                   atol=1e-9)

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

    def test_rerun_replaces_files_instead_of_rewriting_them(self, tmp_path):
        out, kept = tmp_path / "out", tmp_path / "kept"
        cfg = parse_config(write_config(tmp_path, flow_config(str(out))))
        assert run(cfg) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "summary.json"}
        kept.mkdir()
        for p in out.iterdir():
            p.write_bytes(b"stale\n" * 10000)
            os.link(p, kept / p.name)
        assert run(cfg) == 0
        for name, data in first.items():
            assert (out / name).read_bytes() == data
        read_strict_json(str(out / "summary.json"))
        for p in kept.iterdir():
            assert p.read_bytes() == b"stale\n" * 10000, p.name

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

    def test_numerical_failure_keeps_partial_report(self, tmp_path, monkeypatch):
        # The third equality update, node 0 in sweep 2, yields NaN logs.
        exact, calls = Equality._solve_log, []

        def nan_at_the_third(self, log_w, epsilon):
            calls.append(1)
            return exact(self, log_w, epsilon) * (math.nan if len(calls) == 3 else 1.0)

        monkeypatch.setattr(Equality, "_solve_log", nan_at_the_third)
        body = minimal_raw_config(str(tmp_path / "out"))
        assert run(parse_config(write_config(tmp_path, body))) == 1
        summary = read_strict_json(os.path.join(str(tmp_path / "out"), "summary.json"))
        assert summary["termination"] == "error"
        assert summary["error"].startswith("node 0, sweep 2: a coordinate update produced")
        assert summary["sweeps"] == 2 and summary["feasible"] is False
        assert math.isfinite(summary["dual_objective"])
        assert set(summary["residuals"]) == {"node:0", "node:1"}

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

    def test_unconverged_solve_exits_1_with_every_output(self, tmp_path):
        done = str(tmp_path / "done")
        assert main(["solve", "--config", write_config(tmp_path, minimal_raw_config(done))]) == 0
        out = str(tmp_path / "out")
        path = write_config(tmp_path, minimal_raw_config(out))
        assert main(["solve", "--config", path, "--max-sweeps", "1"]) == 1
        summary = read_strict_json(os.path.join(out, "summary.json"))
        assert summary["termination"] == "max_sweeps" and summary["sweeps"] == 1
        assert sorted(os.listdir(out)) == sorted(os.listdir(done))

    def test_config_error_exit_code(self, tmp_path):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kind"] = "nope"
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2

    @pytest.mark.parametrize("text", ["0,0\n0,abc\n", "0,0\n0\n"],
                             ids=["non_numeric", "ragged"])
    def test_malformed_csv_reference_exit_code(self, tmp_path, capsys, text):
        (tmp_path / "cost.csv").write_text(text)
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"][0]["cost"] = {"csv": "cost.csv"}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: problem.kernels[0].cost: csv file 'cost.csv': ")

    def test_non_numeric_box_bound_exit_code(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["node_functions"]["0"] = {"type": "box", "lower": "abc",
                                                  "upper": [1.0, 1.0]}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == \
            "error: problem.node_functions[0].lower: expected a number\n"

    def test_data_the_model_rejects_exit_code(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["topology"] = {"class": "general", "sizes": [2, 2, 2, 2],
                                       "edges": [[0, 1], [2, 3]]}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == "error: problem.topology: graph is not connected\n"

    def test_composite_block_rejected_with_config_path(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["node_functions"]["1"] = {
            "type": "blockwise", "size": 2,
            "blocks": [{"indices": [0, 1],
                        "function": {"type": "composite", "parts": [{"type": "zero"}]}}]}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == \
            "error: problem.node_functions[1]: blockwise block 0 is a composite\n"

    def test_blockwise_repeated_index_rejected_with_config_path(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        problem = body["problem"]
        problem["topology"]["sizes"] = [3, 3]
        problem["kernels"][0]["cost"] = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
        problem["node_functions"] = {
            "0": {"type": "equality", "target": [0.2, 0.3, 0.5]},
            "1": {"type": "blockwise", "size": 3, "blocks": [
                {"indices": [0, 0, 1, 2],
                 "function": {"type": "quadratic", "anchor": [0.1, 0.1, 0.4, 0.4]}}]}}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == \
            "error: problem.node_functions[1]: blockwise indices must partition 0..2\n"

    @pytest.mark.parametrize("kernels", [None, 3, True, {"edge": [0, 1]}])
    def test_kernels_other_than_a_list_exit_code(self, tmp_path, capsys, kernels):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"] = kernels
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == "error: problem.kernels: expected a list\n"

    def test_species_cost_of_the_wrong_length_exit_code(self, tmp_path, capsys):
        body = mfg_config(str(tmp_path / "out"))
        body["problem"]["species"][0]["terminal"] = {"type": "box", "lower": 0.0,
                                                     "upper": [1.0, 2.0]}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == \
            "error: problem: blockwise block 0: function expects 2 entries, marginal has 4\n"


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
    @pytest.mark.parametrize("keys", [["0", "3", "99"], ["3"], ["99"]], ids=repr)
    def test_total_running_outside_the_interior_exit_code(self, tmp_path, capsys, keys):
        # 3 steps: the interior time indices are 1 and 2; 0 is the start
        # and 3 the terminal time, which a running cost would silently miss.
        body = mfg_config(str(tmp_path / "out"))
        body["problem"]["steps"] = 3
        box = {"type": "box", "lower": 0.0, "upper": [0.5, 0.5, 0.5, 0.5]}
        body["problem"]["total_running"] = {"1": box, **{k: box for k in keys}}
        path = write_config(tmp_path, body)
        assert main(["solve", "--config", path]) == 2
        assert capsys.readouterr().err == "error: problem.total_running[%s]: expected an " \
            "interior time index 1 .. 2\n" % keys[0]

    def test_interior_total_running_keys_solve(self, tmp_path):
        out = str(tmp_path / "out")
        body = mfg_config(out)
        body["problem"]["steps"] = 3
        body["problem"]["total_running"] = {
            str(j): {"type": "box", "lower": 0.0, "upper": [0.6, 0.6, 0.6, 0.6]} for j in (1, 2)}
        cfg = parse_config(write_config(tmp_path, body))
        assert set(cfg.spec.blocks) >= {("node", 1), ("node", 2)}
        assert run(cfg) == 0

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


class TestStepPlans:
    @pytest.mark.parametrize("make_config", [flow_config, mfg_config])
    def test_step_plans_are_npy_other_edges_csv(self, tmp_path, make_config):
        out = str(tmp_path / "out")
        cfg = parse_config(write_config(tmp_path, make_config(out)))
        assert run(cfg) == 0
        from gtop import make_engine, solve
        pots, _ = solve(cfg.spec, cfg.solver_config)
        eng = make_engine(cfg.spec)
        eng.refresh(pots)
        topo = cfg.spec.topology
        steps = set(zip(topo.time_nodes, topo.time_nodes[1:]))
        assert steps and len(steps) < len(topo.edges)
        for e in topo.edges:
            exact = eng.bimarginal(e, pots).value()
            npy = os.path.join(out, "bimarg_%d_%d.npy" % e)
            csv = os.path.join(out, "bimarg_%d_%d.csv" % e)
            if e in steps:
                assert not os.path.exists(csv), csv
                saved = np.load(npy)
                assert saved.dtype == np.float64
                assert np.array_equal(saved, exact), e
            else:
                assert not os.path.exists(npy), npy
                assert np.array_equal(np.loadtxt(csv, delimiter=",", ndmin=2), exact), e

    def test_marginals_flag_covers_species_masses(self, tmp_path):
        out = str(tmp_path / "out")
        body = mfg_config(out)
        body["output"]["marginals"] = False
        assert run(parse_config(write_config(tmp_path, body))) == 0
        written = os.listdir(out)
        assert "marginals.csv" not in written and "species_masses.csv" not in written
        assert "bimarg_0_1.npy" in written


def _blockwise_node_0(body, size=2, indices=(0, 1)):
    body["problem"]["node_functions"]["0"] = {
        "type": "blockwise", "size": size,
        "blocks": [{"indices": list(indices), "function": {"type": "zero"}}]}


def _hub_topology(body, species):
    body["problem"]["topology"] = {"class": "hub", "sizes": [2, 2, 1], "species": species}


def _raw(body, **problem):
    body["problem"].update(problem)


class TestConfigTypes:
    """Integers and strings are read as those JSON types, never coerced."""

    @pytest.mark.parametrize("make,edit,path", [
        (minimal_raw_config, lambda b: b["solver"].update(max_sweeps=True), "solver.max_sweeps"),
        (mfg_config, lambda b: b["problem"].update(steps=True), "problem.steps"),
        (mfg_config, lambda b: b["problem"]["grid"].update(shape=[2.7, 2]),
         "problem.grid.shape[0]"),
        (minimal_raw_config, lambda b: _blockwise_node_0(b, size=True),
         "problem.node_functions[0].size"),
        (minimal_raw_config, lambda b: _blockwise_node_0(b, indices=[0.9, 1.7]),
         "problem.node_functions[0].blocks[0].indices[0]"),
        (minimal_raw_config, lambda b: _blockwise_node_0(b, indices=[0, "a"]),
         "problem.node_functions[0].blocks[0].indices[1]"),
        (minimal_raw_config, lambda b: _hub_topology(b, True), "problem.topology.species"),
        (minimal_raw_config,
         lambda b: _raw(b, topology={"class": "chain", "sizes": [2, 2.5]}, kernels=[]),
         "problem.topology.sizes[1]"),
        (minimal_raw_config,
         lambda b: _raw(b, topology={"class": "general", "sizes": [2, 2], "edges": [[0, 1.7]]}),
         "problem.topology.edges[0][1]"),
        (minimal_raw_config,
         lambda b: b["problem"]["kernels"][0].update(edge=[0.0, 1.0]),
         "problem.kernels[0].edge[0]"),
        (minimal_raw_config, lambda b: b["problem"]["node_functions"].update(a={"type": "zero"}),
         "problem.node_functions"),
        (minimal_raw_config, lambda b: _raw(b, edge_functions={"0-x": {"type": "zero"}}),
         "problem.edge_functions"),
        (minimal_raw_config, lambda b: b["output"].update(directory=5), "output.directory"),
        (minimal_raw_config, lambda b: b.update(label=["run"]), "label"),
        (mfg_config, lambda b: b["problem"].update(dt="x"), "problem.dt"),
        (mfg_config, lambda b: b["problem"]["grid"].update(extent=["a", 1, 0, 1]),
         "problem.grid.extent[0]"),
        (mfg_config, lambda b: b["problem"]["grid"].update(extent="0 1 0 1"),
         "problem.grid.extent"),
    ], ids=["max_sweeps_bool", "steps_bool", "grid_shape_float", "blockwise_size_bool",
            "index_float", "index_string", "species_bool", "size_float", "edge_float",
            "kernel_edge_float", "node_key", "edge_key", "directory_number", "label_list",
            "dt_string", "extent_string", "extent_not_list"])
    def test_rejected_with_config_path(self, tmp_path, capsys, make, edit, path):
        body = make(str(tmp_path / "out"))
        edit(body)
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err.startswith("error: %s: expected " % path)

    @pytest.mark.parametrize("edit,message", [
        (lambda p: p.update(dt=-1.0), "problem.dt: must be positive"),
        (lambda p: p.update(dt=0), "problem.dt: must be positive"),
        (lambda p: p.update(dt=math.inf), "problem.dt: must be finite"),
        (lambda p: p["grid"].update(extent=[0.0, math.inf, 0.0, 1.0]),
         "problem.grid.extent[1]: must be finite"),
    ], ids=["dt_negative", "dt_zero", "dt_infinite", "extent_infinite"])
    def test_mfg_values_out_of_range(self, tmp_path, capsys, edit, message):
        # a negative dt would flip the sign of every running cost
        body = mfg_config(str(tmp_path / "out"))
        body["problem"]["species"][0]["running"] = {"type": "linear",
                                                    "cost": [0.0, 1.0, 2.0, 3.0]}
        edit(body["problem"])
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


class TestUnknownKeys:
    """A key the parser does not read is an error at its own path, never ignored."""

    @pytest.mark.parametrize("edit,path,allowed", [
        (lambda b: b["problem"]["node_functions"].update(
            {"1": {"type": "box", "lowr": 0.1, "upper": [1.0, 1.0]}}),
         "problem.node_functions[1].lowr", "lower, type, upper"),
        (lambda b: b["problem"].update(kernals=b["problem"].pop("kernels")),
         "problem.kernals", "edge_functions, kernels, kind, node_functions, topology"),
        (lambda b: b["solver"].update(max_sweep=50), "solver.max_sweep",
         "feasibility_tol, max_sweeps, potential_tol, verify"),
        (lambda b: b["solver"].update(feasibilty_tol=1e-8), "solver.feasibilty_tol",
         "feasibility_tol, max_sweeps, potential_tol, verify"),
        (lambda b: b.update(outptu=b.pop("output")), "outptu",
         "epsilon, label, output, problem, solver"),
        (lambda b: b["problem"]["kernels"][0].update(cost={"cs": "cost.csv"}),
         "problem.kernels[0].cost.cs", "csv"),
        (lambda b: b["problem"]["kernels"][0].update(cost={"csv": "cost.csv", "rows": 2}),
         "problem.kernels[0].cost.rows", "csv"),
    ], ids=["box_lower", "kernels", "max_sweeps", "feasibility_tol", "output", "csv",
            "csv_stray"])
    def test_misspelled_key_exit_code(self, tmp_path, capsys, edit, path, allowed):
        np.savetxt(tmp_path / "cost.csv", np.zeros((2, 2)), delimiter=",")
        body = minimal_raw_config(str(tmp_path / "out"))
        edit(body)
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: %s: unknown key; expected one of %s\n" % (
            path, allowed)

    @pytest.mark.parametrize("make,edit,message", [
        (minimal_raw_config, lambda b: b["problem"]["topology"].update(edges=[[0, 1]]),
         "problem.topology.edges: unknown key; expected one of class, sizes"),
        (minimal_raw_config, lambda b: b["problem"]["topology"].update(species=2),
         "problem.topology.species: unknown key; expected one of class, sizes"),
        (mfg_config, lambda b: b["problem"].update(
            cost={"mode": "squared_distance", "values": [[0.0] * 4] * 4}),
         "problem.cost.values: unknown key; expected one of mode, scale"),
        (mfg_config, lambda b: b["problem"].update(cost={"values": [[0.0] * 4] * 4}),
         "problem.cost.values: unknown key; expected one of mode, scale"),
        (flow_config, lambda b: b["problem"]["constraint"].update(initial=[0.0, 1.0, 0.0]),
         "problem.constraint.initial: not read with \"od\"; give od or initial/final"),
        (flow_config, lambda b: b["problem"]["constraint"].update(
            initial=[0.0, 1.0, 0.0], final=[0.0, 0.0, 1.0]),
         "problem.constraint.initial: not read with \"od\"; give od or initial/final"),
        (flow_config, lambda b: b["problem"]["constraint"].update(final=[0.0, 0.0, 1.0]),
         "problem.constraint.final: not read with \"od\"; give od or initial/final"),
    ], ids=["chain_edges", "chain_species", "squared_distance_values", "no_mode_values",
            "od_initial", "od_terminals", "od_final"])
    def test_a_key_that_the_chosen_variant_does_not_read(self, tmp_path, capsys, make, edit,
                                                         message):
        body = make(str(tmp_path / "out"))
        edit(body)
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("cost", [None, {}, {"scale": 2.0}])
    def test_an_absent_mfg_cost_or_mode_reads_as_squared_distance(self, tmp_path, cost):
        given, named = mfg_config(str(tmp_path / "out")), mfg_config(str(tmp_path / "out"))
        if cost is not None:
            given["problem"]["cost"] = cost
        named["problem"]["cost"] = {"mode": "squared_distance", **(cost or {})}
        kernels = [parse_config(write_config(tmp_path, body, name)).spec.kernels
                   for body, name in ((given, "given.json"), (named, "named.json"))]
        assert kernels[0].keys() == kernels[1].keys()
        for e, k in kernels[0].items():
            np.testing.assert_array_equal(k.full(), kernels[1][e].full())
            assert k.log_scale == kernels[1][e].log_scale

    @pytest.mark.parametrize("kind", [["box"], {"box": 1}, 3, None])
    def test_function_type_other_than_a_string_exit_code(self, tmp_path, capsys, kind):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["node_functions"]["0"]["type"] = kind
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == (
            "error: problem.node_functions[0].type: unknown function type %r\n" % (kind,))


class TestFlowInputs:
    """Flow node names are JSON strings or integers, in lists; every edge has length 1."""

    def test_string_sources_are_not_split(self, tmp_path):
        body = flow_config(str(tmp_path / "out"))
        body["problem"].update(nodes=["A", "B", "AB"], sources="AB")
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, body))
        assert str(err.value).startswith("problem.sources: expected ")

    @pytest.mark.parametrize("edit,path", [
        (lambda b: b["problem"].update(sources="A"), "problem.sources"),
        (lambda b: b["problem"].update(sinks="B"), "problem.sinks"),
        (lambda b: b["problem"].update(nodes="AB"), "problem.nodes"),
        (lambda b: b["problem"].update(nodes=["A", {"name": "B"}]), "problem.nodes[1]"),
        (lambda b: b["problem"].update(nodes=["A", "B", True]), "problem.nodes[2]"),
        (lambda b: b["problem"].update(sinks=[["B"]]), "problem.sinks[0]"),
        (lambda b: b["problem"]["edges"][0].update({"from": {"name": "A"}}),
         "problem.edges[0].from"),
        (lambda b: b["problem"]["edges"][0].pop("to"), "problem.edges[0].to"),
    ], ids=["sources_string", "sinks_string", "nodes_string", "node_object", "node_bool",
            "sink_list", "edge_tail_object", "edge_head_missing"])
    def test_names_rejected_with_config_path(self, tmp_path, capsys, edit, path):
        body = flow_config(str(tmp_path / "out"))
        edit(body)
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err.startswith("error: %s: expected " % path)

    def test_integer_names_accepted(self, tmp_path):
        body = flow_config(str(tmp_path / "out"))
        body["problem"].update(nodes=[0, 1], sources=[0], sinks=[1],
                               edges=[{"from": 0, "to": 1, "capacity": 5.0, "length": 1}])
        assert parse_config(write_config(tmp_path, body)).flow_net.n_states == 3

    @pytest.mark.parametrize("length", [7.0, 0.5, 2])
    def test_edge_length_other_than_one_rejected(self, tmp_path, capsys, length):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["edges"][0]["length"] = length
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err.startswith("error: problem.edges[0].length: must be 1")

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_nonfinite_tol_is_usage_error(self, tmp_path, tol):
        path = write_config(tmp_path, flow_config(str(tmp_path / "out")))
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", path, "--tol", tol])
        assert err.value.code == 2
        assert not os.path.exists(str(tmp_path / "out"))


def read_rows(path):
    """CSV rows as lists of floats, read as text: rows may differ in length."""
    with open(path, encoding="utf-8") as fh:
        return [[float(v) for v in line.split(",")] for line in fh.read().splitlines()]


def assert_outputs_of(out, spec, config=None):
    """The CLI's result files in ``out`` hold a library solve of ``spec``, bit for bit."""
    from gtop import make_engine, solve
    pots, report = solve(spec, config)
    eng = make_engine(spec)
    eng.refresh(pots)
    topo = spec.topology
    assert read_rows(os.path.join(out, "marginals.csv")) == \
        [eng.marginal(j, pots).value().tolist() for j in topo.time_nodes]
    steps = set(zip(topo.time_nodes, topo.time_nodes[1:]))
    for e in topo.edges:
        name = os.path.join(out, "bimarg_%d_%d" % e)
        saved = (np.load(name + ".npy") if e in steps
                 else np.loadtxt(name + ".csv", delimiter=",", ndmin=2))
        assert np.array_equal(saved, eng.bimarginal(e, pots).value()), e
    summary = read_strict_json(os.path.join(out, "summary.json"))
    assert summary["termination"] == report.termination == "converged"
    assert (summary["sweeps"], summary["dual_objective"]) == (report.sweeps,
                                                              report.dual_objective)
    return eng


def line_mfg_config(out_dir, grid):
    """One species on a 3-point line grid."""
    return {
        "problem": {
            "kind": "mfg", "grid": grid, "steps": 2,
            "species": [{"initial": [0.2, 0.3, 0.5]}],
            "total_terminal": {"type": "quadratic", "weight": 1.0, "anchor": [0.3, 0.3, 0.4]},
        },
        "epsilon": 0.4,
        "output": {"directory": out_dir},
    }


class TestLessUsedForms:
    """Config forms that the other tests do not take: each that solves gives
    the outputs of the same problem built with the library, and each error
    exits 2 naming its path."""

    def solve(self, tmp_path, body, name="run.json"):
        assert main(["solve", "--config", write_config(tmp_path, body, name)]) == 0
        return body["output"]["directory"]

    def rejected(self, tmp_path, capsys, body):
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        return capsys.readouterr().err

    def test_flow_terminals(self, tmp_path):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["constraint"] = {"initial": [0.0, 1.0, 0.0], "final": [0.0, 0.0, 1.0]}
        net = FlowNetwork(["A", "B"], [FlowEdge("A", "B", capacity=5.0)], ["A"], ["B"], 3)
        spec = build_flow_problem(net, terminals=(np.array([0.0, 1.0, 0.0]),
                                                  np.array([0.0, 0.0, 1.0])), epsilon=0.5)
        assert_outputs_of(self.solve(tmp_path, body), spec)

    def test_flow_zero_edge_cost(self, tmp_path):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["edge_cost"] = "zero"
        net = FlowNetwork(["A", "B"], [FlowEdge("A", "B", capacity=5.0)], ["A"], ["B"], 3)
        spec = build_flow_problem(net, od=np.array([[1.0]]), edge_cost=Zero(), epsilon=0.5)
        assert_outputs_of(self.solve(tmp_path, body), spec)

    def test_flow_unknown_edge_cost(self, tmp_path, capsys):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["edge_cost"] = "toll"
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.edge_cost: unknown edge cost kind 'toll'\n"

    def test_mfg_cost_matrix(self, tmp_path):
        cost = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        body = mfg_config(str(tmp_path / "out"))
        body["problem"]["cost"] = {"mode": "matrix", "values": cost.tolist(), "scale": 2.0}
        setup = MFGSetup(grid=grid_points([2, 2], [0.0, 1.0, 0.0, 1.0]), n_steps=2,
                         initial_densities=[np.full(4, 0.25), np.array([0.1, 0.2, 0.3, 0.4])],
                         epsilon=0.4, cost_scale=2.0, cost_matrix=cost,
                         total_terminal=QuadraticDistance(1.0, np.full(4, 0.5)),
                         species_terminal=[None, QuadraticDistance(0.5, np.full(4, 0.25))])
        assert_outputs_of(self.solve(tmp_path, body), build_mfg_problem(setup))

    def test_mfg_unknown_cost_mode(self, tmp_path, capsys):
        body = mfg_config(str(tmp_path / "out"))
        body["problem"]["cost"] = {"mode": "manhattan"}
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.cost.mode: unknown mode 'manhattan'\n"

    def test_mfg_grid_csv_equals_the_inline_grid(self, tmp_path):
        (tmp_path / "points.csv").write_text("0\n0.5\n1\n")
        csv_body = line_mfg_config(str(tmp_path / "csv"), {"csv": "points.csv"})
        inline_body = line_mfg_config(str(tmp_path / "inline"), [0.0, 0.5, 1.0])
        by_csv = self.solve(tmp_path, csv_body)
        inline = self.solve(tmp_path, inline_body, name="inline.json")
        assert sorted(os.listdir(by_csv)) == sorted(os.listdir(inline))
        for name in os.listdir(by_csv):
            a, b = (open(os.path.join(d, name), "rb").read() for d in (by_csv, inline))
            if name == "summary.json":
                a, b = ({k: v for k, v in json.loads(x).items()
                         if k not in ("wall_time_s", "label")} for x in (a, b))
            assert a == b, name
        setup = MFGSetup(grid=np.array([0.0, 0.5, 1.0]), n_steps=2,
                         initial_densities=[np.array([0.2, 0.3, 0.5])], epsilon=0.4,
                         total_terminal=QuadraticDistance(1.0, np.array([0.3, 0.3, 0.4])))
        assert_outputs_of(by_csv, build_mfg_problem(setup))

    def test_mfg_grid_csv_missing(self, tmp_path, capsys):
        body = line_mfg_config(str(tmp_path / "out"), {"csv": "points.csv"})
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.grid: csv file 'points.csv' not found\n"

    def test_raw_od_cycle(self, tmp_path):
        c01, c12 = [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]]
        od = [[0.2, 0.1], [0.3, 0.4]]
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"].update(
            topology={"class": "od_cycle", "sizes": [2, 2, 2]},
            kernels=[{"edge": [0, 1], "cost": c01}, {"edge": [1, 2], "cost": c12}],
            node_functions={}, edge_functions={"0-2": {"type": "equality", "target": od}})
        topo = GraphTopology.od_cycle(3)
        kernels = {(0, 1): build_kernel(np.array(c01), 1.0),
                   (1, 2): build_kernel(np.array(c12), 1.0), (0, 2): EdgeKernel.ones((2, 2))}
        spec = ProblemSpec(topo, kernels, {}, {(0, 2): Equality(np.array(od))}, 1.0)
        assert_outputs_of(self.solve(tmp_path, body), spec, SolverConfig(feasibility_tol=1e-10))

    def test_raw_general_graph_on_the_dense_engine(self, tmp_path):
        edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
        cost = [[0.0, 1.0], [1.0, 0.0]]
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"].update(
            topology={"class": "general", "sizes": [2, 2, 2, 2],
                      "edges": [list(e) for e in edges]},
            kernels=[{"edge": [1, 3], "cost": cost}],
            node_functions={"0": {"type": "equality", "target": [0.3, 0.7]},
                            "3": {"type": "equality", "target": [0.6, 0.4]}})
        kernels = {e: EdgeKernel.ones((2, 2)) for e in edges}
        kernels[(1, 3)] = build_kernel(np.array(cost), 1.0)
        spec = ProblemSpec(GraphTopology.general(4, edges), kernels,
                           {0: Equality(np.array([0.3, 0.7])), 3: Equality(np.array([0.6, 0.4]))},
                           {}, 1.0)
        eng = assert_outputs_of(self.solve(tmp_path, body), spec,
                                SolverConfig(feasibility_tol=1e-10))
        assert type(eng) is DenseEngine

    def test_raw_hub_whose_last_size_is_not_the_species_count(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        _hub_topology(body, species=2)
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.topology.sizes: last size must equal the species count\n"

    def test_csv_reference_to_a_missing_file(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"][0]["cost"] = {"csv": "cost.csv"}
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.kernels[0].cost: csv file 'cost.csv' not found\n"

    def test_config_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{")
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: config is not valid JSON: Expecting property " \
            "name enclosed in double quotes: line 1 column 2 (char 1)\n"

    def test_max_sweeps_zero_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, minimal_raw_config(out))
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", path, "--max-sweeps", "0"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "gtop: error: --max-sweeps must be at least 1"
        assert not os.path.exists(out)


def _node_0(fn):
    return lambda b: b["problem"]["node_functions"].update({"0": fn})


class TestRejectedValuesNamePaths:
    """A value the model rejects exits 2 at its config path: a function's at
    the function's own path, anything else at ``problem`` or narrower."""

    def rejected(self, tmp_path, capsys, body):
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (_node_0({"type": "box", "lower": [math.nan, 0.0], "upper": [1.0, 1.0]}),
         "problem.node_functions[0]: box lower bounds must be nonnegative"),
        (_node_0({"type": "box", "lower": [-0.1, 0.0], "upper": [1.0, 1.0]}),
         "problem.node_functions[0]: box lower bounds must be nonnegative"),
        (_node_0({"type": "equality", "target": [-0.3, 1.3]}),
         "problem.node_functions[0]: equality target must be finite and nonnegative"),
        (_node_0({"type": "quadratic", "anchor": [0.5, 0.5], "exponent": 1}),
         "problem.node_functions[0]: distance exponent must be finite and exceed 1, got 1.0"),
        (_node_0({"type": "linear", "cost": [math.inf, 0.0]}),
         "problem.node_functions[0]: linear cost vector must be finite"),
        (_node_0({"type": "congestion", "capacity": [math.nan, 1.0]}),
         "problem.node_functions[0]: congestion capacities must be positive and finite"),
        (_node_0({"type": "congestion", "capacity": [0.0, 1.0]}),
         "problem.node_functions[0]: congestion capacities must be positive and finite"),
        (_node_0({"type": "composite", "parts": [
            {"type": "zero"}, {"type": "linear", "cost": [0.0, math.nan]}]}),
         "problem.node_functions[0].parts[1]: linear cost vector must be finite"),
        (lambda b: _raw(b, edge_functions={"1-0": {"type": "zero"}}),
         "problem: edge function given for non-edge (1, 0)"),
        (lambda b: _raw(b, topology={"class": "od_cycle", "sizes": [2, 2]}),
         "problem.topology: a cycle over the endpoints needs at least 3 nodes"),
        (lambda b: b["problem"]["kernels"][0].update(cost=[[0.0, math.nan], [0.0, 0.0]]),
         "problem.kernels[0].cost: cost entries must be > -inf and not NaN"),
    ], ids=["box_nan_lower", "box_negative_lower", "equality_negative", "exponent_1",
            "linear_inf", "capacity_nan", "capacity_zero", "composite_part", "non_edge",
            "short_cycle", "kernel_nan"])
    def test_raw_chain(self, tmp_path, capsys, edit, message):
        body = minimal_raw_config(str(tmp_path / "out"))
        edit(body)
        assert self.rejected(tmp_path, capsys, body) == "error: %s\n" % message

    def test_mfg_cost_matrix_of_the_wrong_size(self, tmp_path, capsys):
        body = line_mfg_config(str(tmp_path / "out"), {"shape": [3, 3],
                                                       "extent": [0.0, 1.0, 0.0, 1.0]})
        body["problem"]["species"][0]["initial"] = [1.0 / 9] * 9
        body["problem"]["total_terminal"]["anchor"] = [1.0 / 9] * 9
        body["problem"]["cost"] = {"mode": "matrix", "values": np.zeros((8, 8)).tolist()}
        assert self.rejected(tmp_path, capsys, body) == "error: problem.cost.values: cost " \
            "matrix of shape (8, 8), but the grid has 9 points\n"

    def test_flow_edge_to_an_unknown_node(self, tmp_path, capsys):
        body = flow_config(str(tmp_path / "out"))
        body["problem"]["edges"][0]["to"] = "C"
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem: edge 0 references unknown nodes ('A', 'C')\n"

    @pytest.mark.parametrize("directory", ["", "taken/out"], ids=["empty", "under_a_file"])
    def test_output_directory_that_cannot_be_made(self, tmp_path, capsys, monkeypatch,
                                                  directory):
        (tmp_path / "taken").write_text("a file, not a directory\n")
        monkeypatch.chdir(tmp_path)
        err = self.rejected(tmp_path, capsys, minimal_raw_config(directory))
        assert err.startswith("error: output.directory: [Errno ")

    @pytest.mark.parametrize("edit,message", [
        (lambda b: b.update(epsilon=10 ** 400), "epsilon: must be finite"),
        (lambda b: b["problem"]["kernels"][0].update(cost=[[10 ** 400, 0], [0, 0]]),
         "problem.kernels[0].cost: could not read a numeric array"),
        (lambda b: b["problem"]["kernels"][0].update(cost={"csv": "."}),
         "problem.kernels[0].cost: csv file '.': [Errno 21] Is a directory: "),
    ], ids=["huge_integer", "huge_integer_entry", "csv_directory"])
    def test_values_that_cannot_be_read(self, tmp_path, capsys, edit, message):
        body = minimal_raw_config(str(tmp_path / "out"))
        edit(body)
        assert self.rejected(tmp_path, capsys, body).startswith("error: " + message)

    def test_csv_reference_that_is_not_a_string(self, tmp_path, capsys):
        body = minimal_raw_config(str(tmp_path / "out"))
        body["problem"]["kernels"][0]["cost"] = {"csv": 5}
        assert self.rejected(tmp_path, capsys, body) == \
            "error: problem.kernels[0].cost.csv: expected a string\n"


class TestEqualEntriesBuiltOnce:
    """Equal entries of one function map are one catalog object."""

    def chain_of_three(self, out_dir, node_functions):
        body = minimal_raw_config(out_dir)
        flat = [[0.0, 0.0], [0.0, 0.0]]
        _raw(body, topology={"class": "chain", "sizes": [2, 2, 2]},
             kernels=[{"edge": [0, 1], "cost": flat}, {"edge": [1, 2], "cost": flat}],
             node_functions=node_functions)
        return body

    def test_equal_entries_share_one_function(self, tmp_path):
        same = {"type": "quadratic", "weight": 0.5, "anchor": [0.3, 0.7]}
        body = self.chain_of_three(str(tmp_path / "out"), {
            "0": {"type": "equality", "target": [0.3, 0.7]}, "1": same, "2": dict(same)})
        blocks = parse_config(write_config(tmp_path, body)).spec.blocks
        (first,), (second,) = blocks["node", 1], blocks["node", 2]
        assert first is second and isinstance(first, QuadraticDistance)
        assert blocks["node", 0][0] is not first

    def test_an_entry_unlike_the_earlier_ones_fails_at_its_own_path(self, tmp_path, capsys):
        same = {"type": "quadratic", "anchor": [0.3, 0.7]}
        body = self.chain_of_three(str(tmp_path / "out"), {
            "0": same, "1": dict(same), "2": dict(same, exponent=1)})
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: problem.node_functions[2]: distance " \
            "exponent must be finite and exceed 1, got 1.0\n"


class TestNothingSilentlyChanges:
    """Raw and mfg configs that once solved a problem other than the one
    written: two entries for one edge, node or time index, and node sizes
    that the kernels contradict."""

    @pytest.mark.parametrize("make,edit,message", [
        (minimal_raw_config,
         lambda b: b["problem"]["kernels"].append({"edge": [0, 1], "cost": [[0, 1], [1, 0]]}),
         "problem.kernels[1].edge: edge (0, 1) has a kernel already"),
        (minimal_raw_config,
         lambda b: b["problem"]["node_functions"].update(
             {"00": {"type": "equality", "target": [0.5, 0.5]}}),
         "problem.node_functions[00]: node 0 is given twice"),
        (minimal_raw_config,
         lambda b: _raw(b, edge_functions={"0-1": {"type": "zero"}, "00-1": {
             "type": "box", "upper": [[1.0, 1.0], [1.0, 1.0]]}}),
         "problem.edge_functions[00-1]: edge (0, 1) is given twice"),
        (mfg_config,
         lambda b: b["problem"].update(steps=3, total_running={
             "1": {"type": "box", "upper": [1.0] * 4},
             "01": {"type": "box", "upper": [0.5] * 4}}),
         "problem.total_running[01]: time index 1 is given twice"),
        (minimal_raw_config, lambda b: b["problem"]["topology"].update(sizes=[2, 3]),
         "problem.topology.sizes: the kernels give the node sizes [2, 2]"),
    ], ids=["kernel_twice", "node_key_twice", "edge_key_twice", "time_key_twice",
            "sizes_against_kernels"])
    def test_exit_code(self, tmp_path, capsys, make, edit, message):
        body = make(str(tmp_path / "out"))
        edit(body)
        assert main(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_key_list():
    """README's key list: ``{object: [keys]}``, a variant's object named by its
    parent's and its own label, such as "a function, by `type` `box`"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Each object accepts exactly the keys below")
    lines = text[start:].split("\n\n")[1].splitlines()
    objects, parent = {}, None
    for line in lines:
        assert line.startswith(("- ", "  - ")), line
        label, _, keys = line.strip(" -").partition(":")
        if not line.startswith("  "):
            parent = label
        else:
            label = "%s %s" % (parent, label)
        objects[label] = re.findall(r"`([^`]+)`", keys)
    return objects


class TestSchemaDocs:
    """README's key list is the one written copy of the config tables."""

    @staticmethod
    def tables():
        """README's name of each object and the table that reads it; then of
        each object whose keys depend on a tag and its variants."""
        return {
            "top level": cli._TOP, "`solver`": cli._SOLVER, "`output`": cli._OUTPUT,
            "flow `edges[i]`": cli._FLOW_EDGE, "flow `constraint`": cli._CONSTRAINT,
            "mfg `grid` (the object form)": cli._GRID, "mfg `species[i]`": cli._SPECIES,
            "raw `kernels[i]`": cli._KERNEL, "a blockwise `blocks[i]`": cli._BLOCK,
            "a matrix reference": cli._CSV,
        }, {"`problem`, by `kind`": cli._PROBLEMS, "mfg `cost`, by `mode`": cli._MFG_COSTS,
            "raw `topology`, by `class`": cli._TOPOLOGIES,
            "a function, by `type`": cli._FUNCTIONS}

    def test_readme_lists_the_keys_of_every_table(self):
        tables, variants = self.tables()
        expected = {label: list(table) for label, table in tables.items()}
        for label, by_tag in variants.items():
            expected[label] = []
            expected.update(("%s `%s`" % (label, name), list(table))
                            for name, (_, table) in by_tag.items())
        assert readme_key_list() == expected

    def test_every_table_is_named(self):
        named = [*self.tables()[0].values(), *self.tables()[1].values()]
        tables = [value for name, value in vars(cli).items()
                  if name.isupper() and isinstance(value, dict)]
        assert len(tables) == len(named) and all(any(t is n for n in named) for t in tables)


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
