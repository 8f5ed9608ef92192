import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coverage_routing
from conftest import (FAR_TARGET, HUGE_ARC, NO_TARGETS, ROUTE_OVERFLOW,
                      SINGULAR_RATES, TIME_OVERFLOW, singular_rate_document,
                      solve_outputs, too_many_waypoints_document)
from coverage_routing.bundle import LB_FLOOR, evaluate_dual_function
from coverage_routing.cli import main
from coverage_routing.instance import build_index_table, load_instance
import reference_cuts


def run(args):
    return main(args)


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["gen", "--preset", "small", "--seed", "3",
                    "--out", str(a)]) == 0
        assert run(["gen", "--preset", "small", "--seed", "3",
                    "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_small_preset_shape(self, tmp_path):
        out = tmp_path / "s.json"
        run(["gen", "--preset", "small", "--seed", "3", "--out", str(out)])
        inst = load_instance(out)
        assert inst.n == 9
        assert inst.vehicle.coverage_radius == 10.0

    def test_large_preset_shape(self, tmp_path):
        out = tmp_path / "l.json"
        run(["gen", "--preset", "large", "--seed", "1", "--out", str(out)])
        inst = load_instance(out)
        assert inst.n == 15
        assert inst.vehicle.coverage_radius == 20.0

    def test_stdout_mode(self, tmp_path, capsys):
        assert run(["gen", "--waypoints", "3", "--targets", "3",
                    "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["waypoints"]) == 5

    def test_bad_flags(self):
        assert run(["gen", "--seed", "1"]) == 4  # no sizes, no preset

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--deadline-scale", "--coverage-radius",
                                      "--min-coverage"])
    def test_non_finite_parameter_input_error(self, tmp_path, capsys, flag,
                                              value):
        """A NaN or infinite parameter is refused, not written as a
        ``NaN``/``Infinity`` token that ``solve`` then rejects."""
        out = tmp_path / "inst.json"
        assert run(["gen", "--waypoints", "3", "--targets", "3", flag, value,
                    "--out", str(out)]) == 4
        assert not out.exists()
        assert "must be finite" in capsys.readouterr().err


@pytest.fixture
def desk_instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["gen", "--waypoints", "4", "--targets", "5", "--seed", "11",
                "--case", "II", "--coverage-radius", "30",
                "--min-coverage", "0.2", "--out", str(path)]) == 0
    return path


@pytest.fixture
def small_solve(tmp_path):
    """The small preset's seed-3 instance and the result record of ``solve
    --oracle --iter-limit 2 --trace``; the trace sits next to the record."""
    inst, out = tmp_path / "small.json", tmp_path / "small-res.json"
    assert run(["gen", "--preset", "small", "--seed", "3",
                "--out", str(inst)]) == 0
    assert run(["solve", str(inst), "--oracle", "--iter-limit", "2",
                "--trace", str(tmp_path / "small.jsonl"),
                "--out", str(out)]) == 0
    return inst, out


def verify_checks(capsys, *args):
    """Exit code of ``verify args`` and its report's pass flags by name."""
    capsys.readouterr()
    code = run(["verify", *map(str, args)])
    report = json.loads(capsys.readouterr().out)
    return code, {c["name"]: c["pass"] for c in report["constraints"]}


class TestSolveVerify:
    def test_pipeline(self, tmp_path, desk_instance_file, capsys):
        out = tmp_path / "res.json"
        code = run(["solve", str(desk_instance_file), "--oracle",
                    "--out", str(out), "--trace", str(tmp_path / "tr.jsonl")])
        assert code in (0, 2)
        record = json.loads(out.read_text())
        assert record["case"] == "II"
        assert record["dual_bound"] <= record["initial_bound"] + 1e-9
        assert "oracle" in record and "relaxation_at_zero" in record["oracle"]
        assert record["oracle"]["relaxation_at_zero"]["match"] is True
        sol_file = out.with_suffix(out.suffix + ".sol.json")
        assert sol_file.exists()
        capsys.readouterr()
        assert run(["verify", str(desk_instance_file), str(sol_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(c["pass"] for c in report["constraints"])

    def test_result_files_byte_identical(self, tmp_path, desk_instance_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["solve", str(desk_instance_file), "--out", str(a)])
        run(["solve", str(desk_instance_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        sa = a.with_suffix(a.suffix + ".sol.json")
        sb = b.with_suffix(b.suffix + ".sol.json")
        assert sa.read_bytes() == sb.read_bytes()

    def test_iteration_limit_exit_code(self, tmp_path):
        # wide coverage disks and low requirements: the uncapped run needs
        # more than one iteration, so a cap of 1 stops it (exit 2).  A route
        # of the lam = 0 evaluation meets every requirement within the
        # deadline, so trace row 0 starts LB at the largest such route's
        # value, not at the floor, and the capped run's witness verifies
        inst = tmp_path / "i.json"
        run(["gen", "--waypoints", "5", "--targets", "8", "--seed", "1",
             "--case", "I", "--coverage-radius", "40",
             "--min-coverage", "0.01", "--out", str(inst)])
        out = tmp_path / "r.json"
        assert run(["solve", str(inst), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["status"] == "converged" and record["iterations"] >= 2
        out, trace = tmp_path / "r1.json", tmp_path / "r1.jsonl"
        code = run(["solve", str(inst), "--iter-limit", "1",
                    "--trace", str(trace), "--out", str(out)])
        assert code == 2
        record = solve_outputs(out)[0]
        assert record["status"] == "iteration-limit"
        assert record["iterations"] == 1
        table = build_index_table(load_instance(inst))
        value0 = evaluate_dual_function(
            table, np.zeros(len(table.target_ids)), "I")
        lifted = reference_cuts.feasible_bound(value0, table)
        row = json.loads(trace.read_text().splitlines()[0])
        assert row["iteration"] == 0 and row["lb"] == lifted > LB_FLOOR
        assert lifted < row["ub"]
        assert run(["verify", str(inst), str(out) + ".sol.json"]) == 0

    @pytest.mark.parametrize("flags", [
        ["--waypoints", "4", "--targets", "5", "--coverage-radius", "30",
         "--min-coverage", "0.2", "--seed", "11"],
        # a case-II deadline that binds, so the case-II label search runs
        ["--waypoints", "7", "--targets", "10", "--case", "II",
         "--deadline-scale", "0.04", "--min-coverage", "0.01", "--seed", "0"],
        # wide case I: 60 targets and finite duals, many master projections;
        # then two wide instances whose dual runs off below 0
        # (test_bundle.py's unmet and diverging inputs)
        ["--waypoints", "6", "--targets", "60", "--coverage-radius", "20",
         "--min-coverage", "0.01", "--seed", "0"],
        ["--waypoints", "6", "--targets", "60", "--coverage-radius", "20",
         "--min-coverage", "0.1", "--seed", "4"],
        ["--waypoints", "6", "--targets", "60", "--coverage-radius", "20",
         "--min-coverage", "0.01", "--seed", "1"],
    ], ids=["desk-I", "binding-II", "wide-I", "unmet-I", "diverging-I"])
    def test_bounds_ordered_and_finite(self, tmp_path, flags):
        """solve (exit 0 or 2) keeps LB at or below the dual bound, writes
        no NaN or infinite number in the record, the witness or the meta
        file, and its witness verifies."""
        inst, out = tmp_path / "inst.json", tmp_path / "res.json"
        assert run(["gen", *flags, "--out", str(inst)]) == 0
        assert run(["solve", str(inst), "--out", str(out)]) in (0, 2)
        record = solve_outputs(out)[0]
        assert record["lower_bound"] <= record["dual_bound"]
        assert run(["verify", str(inst), str(out) + ".sol.json"]) == 0

    def test_meta_sidecar_holds_the_wall_clock(self, small_solve):
        """``<out>.meta.json`` holds the wall-clock readings, one per trace
        row (iterations + 1), and the record holds none of them."""
        _, out = small_solve
        record, _, meta = solve_outputs(out)
        rows = [json.loads(line) for line in
                (out.parent / "small.jsonl").read_text().splitlines()]
        assert len(rows) == record["iterations"] + 1
        assert meta["per_iteration_wall"] == [r["wall_time"] for r in rows]
        assert set(meta) == {"started", "wall_time_s", "per_iteration_wall"}
        wall_keys = set(meta) | {"wall_time"}
        assert not wall_keys & (set(record) | set(record["witness"]))

    def test_verify_flags_add_their_checks(self, tmp_path, capsys,
                                           small_solve):
        """Each verify flag adds its check to the report.  The small
        witness misses some coverage requirements, so --enforce-coverage
        adds one failing check per such target (exit 1); with every
        requirement lowered to 0 it adds one passing check."""
        inst, out = small_solve
        sol = str(out) + ".sol.json"
        code, base = verify_checks(capsys, inst, sol)
        assert code == 0 and all(base.values())
        for flag, name in (("--check-time-windows", "time-windows"),
                           ("--check-energy", "energy")):
            code, checks = verify_checks(capsys, inst, sol, flag)
            assert code == 0 and checks == {**base, name: True}
        code, checks = verify_checks(capsys, inst, sol, "--enforce-coverage")
        added = checks.keys() - base.keys()
        assert code == 1 and added
        assert all(n.startswith("coverage[") and not checks[n] for n in added)
        doc = json.loads(inst.read_text())
        for target in doc["targets"]:
            target["min_coverage"] = 0.0
        lowered = tmp_path / "lowered.json"
        lowered.write_text(json.dumps(doc))
        code, checks = verify_checks(capsys, lowered, sol,
                                     "--enforce-coverage")
        assert code == 0 and checks == {**base, "coverage-requirement": True}

    def test_oracle_budget_refusal_recorded(self, small_solve):
        """Past the oracle's enumeration limit, --oracle records the refusal
        for both oracle values instead of failing the solve (exit 0)."""
        reason = "9 interior waypoints exceeds the enumeration limit (8)"
        record = json.loads(small_solve[1].read_text())
        assert record["oracle"] == {"relaxation_at_zero": {"error": reason},
                                    "primal_error": reason}

    def test_oracle_unreachable_requirements_recorded(self, tmp_path):
        """Requirements no route meets: the oracle's primal is recorded as
        unreachable, and its relaxation at 0 still matches the solver's."""
        inst, out = tmp_path / "inst.json", tmp_path / "res.json"
        assert run(["gen", "--waypoints", "4", "--targets", "5", "--seed",
                    "1", "--coverage-radius", "20", "--min-coverage", "5",
                    "--out", str(inst)]) == 0
        assert run(["solve", str(inst), "--oracle", "--out", str(out)]) == 0
        block = json.loads(out.read_text())["oracle"]
        assert block["primal_error"] == "coverage requirements unreachable"
        assert block["relaxation_at_zero"]["match"] is True

    def test_infeasible_deadline_exit_code(self, tmp_path, desk_instance_file):
        doc = json.loads(desk_instance_file.read_text())
        doc["deadline"] = 1e-6
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["solve", str(bad), "--case", "II"]) == 3

    def test_tampered_idle_time_fails_verify(self, tmp_path,
                                             desk_instance_file, capsys):
        out = tmp_path / "res.json"
        run(["solve", str(desk_instance_file), "--out", str(out)])
        sol_file = out.with_suffix(out.suffix + ".sol.json")
        doc = json.loads(sol_file.read_text())
        doc["idle_time"] = doc.get("idle_time", 0.0) + 10 * json.loads(
            desk_instance_file.read_text())["deadline"]
        doc["idle_node"] = doc["idle_node"] or doc["nodes"][1]
        sol_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(desk_instance_file), str(sol_file)]) != 0

    def test_tampered_coverage_fails_verify(self, tmp_path,
                                            desk_instance_file, capsys):
        """A witness whose claimed per-target coverage was inflated fails
        verify (exit 1); the untouched witness passes."""
        out = tmp_path / "res.json"
        run(["solve", str(desk_instance_file), "--out", str(out)])
        sol_file = out.with_suffix(out.suffix + ".sol.json")
        assert run(["verify", str(desk_instance_file), str(sol_file)]) == 0
        doc = json.loads(sol_file.read_text())
        doc["per_target_coverage"] = {
            k: 100 * v + 5 for k, v in doc["per_target_coverage"].items()}
        sol_file.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(desk_instance_file), str(sol_file)]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in report["constraints"] if not c["pass"]]
        assert failed == ["coverage-consistency"]

    def test_missing_file_usage_error(self, tmp_path):
        assert run(["verify", str(tmp_path / "no.json"),
                    str(tmp_path / "nope.json")]) == 4
        assert run(["solve", str(tmp_path / "no.json")]) == 4

    def test_unreadable_file_input_error(self, tmp_path, desk_instance_file,
                                         capsys, monkeypatch):
        """A directory, or a file the user may not read, where a document
        should be is an input error (exit 4), not a crash (exit 1)."""
        assert run(["verify", str(desk_instance_file), str(tmp_path)]) == 4
        assert "input error" in capsys.readouterr().err
        assert run(["solve", str(tmp_path)]) == 4

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        assert run(["verify", str(desk_instance_file),
                    str(desk_instance_file)]) == 4
        assert "Permission denied" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, dest", [
        ("--out", "missing/x.json"),
        ("--out", "."),
        ("--out", "meta-dir"),
        ("--out", "sol-dir"),
        ("--solution", "missing/x.sol.json"),
        ("--solution", "."),
        ("--trace", "missing/tr.jsonl"),
    ])
    def test_unwritable_output_fails_before_solve(self, tmp_path, capsys,
                                                  monkeypatch,
                                                  desk_instance_file, flag,
                                                  dest):
        """A destination that cannot be written, including the ``.meta.json``
        and ``.sol.json`` siblings of ``--out``, is an input error (exit 4)
        found before the solve: nothing on stdout, no "solved in" line, and
        no file left behind."""
        (tmp_path / "meta-dir.meta.json").mkdir()
        (tmp_path / "sol-dir.sol.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert run(["solve", str(desk_instance_file), flag, dest]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "input error" in err and "solved in" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_unwritable_verify_out_fails_before_report(
            self, tmp_path, capsys, desk_instance_file):
        """``verify --out`` into a missing directory is an input error (exit
        4) found before the report is printed: nothing on stdout."""
        res = tmp_path / "res.json"
        run(["solve", str(desk_instance_file), "--out", str(res)])
        sol_file = res.with_suffix(res.suffix + ".sol.json")
        capsys.readouterr()
        assert run(["verify", str(desk_instance_file), str(sol_file),
                    "--out", str(tmp_path / "missing" / "x.json")]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "input error" in err

    @pytest.mark.parametrize("kind", sorted(SINGULAR_RATES))
    def test_singular_rate_input_error(self, tmp_path, capsys, kind):
        """A target too close for a finite coverage rate is an input error
        (exit 4) with nothing on stdout, not a record of NaN bounds."""
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(singular_rate_document(
            *SINGULAR_RATES[kind])))
        assert run(["solve", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "too close for a finite coverage rate" in err

    @pytest.mark.parametrize("kind", sorted(ROUTE_OVERFLOW))
    def test_route_coverage_overflow_input_error(self, tmp_path, capsys,
                                                 kind):
        """Finite rates whose route coverage leaves the float range are an
        input error (exit 4) with nothing on stdout, not a record of
        infinite bounds."""
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(singular_rate_document(
            *ROUTE_OVERFLOW[kind][:3])))
        assert run(["solve", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "within the float range" in err

    def test_far_target_solves_without_warning(self, tmp_path, capsys):
        """A target far out of reach of a tiny network is dropped on load,
        and the solve finishes (exit 0) with no numpy warning, which
        filterwarnings = error would raise."""
        path = tmp_path / "far.json"
        path.write_text(json.dumps(singular_rate_document(*FAR_TARGET)))
        assert run(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"

    def test_target_off_a_huge_arc_dropped_and_named(self, tmp_path, capsys):
        """A target 1.4e200 from an arc whose squared length overflows is
        out of reach: the solve names it on stderr as dropped and finishes
        (exit 0), instead of refusing it as too close."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(singular_rate_document(*HUGE_ARC)))
        assert run(["solve", str(path)]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["status"] == "converged"
        assert "removed target 0: uncoverable" in err

    @pytest.mark.parametrize("kind", sorted(TIME_OVERFLOW))
    def test_travel_time_overflow_input_error(self, tmp_path, capsys, kind):
        """Travel times past the float range are an input error (exit 4)
        that names the arc, with nothing on stdout and no numpy warning."""
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(TIME_OVERFLOW[kind]))
        assert run(["solve", str(path)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "arc (0,1) of length" in err

    def test_no_targets_exit_code(self, tmp_path, capsys):
        """With its one target dropped on load, case I converges at row 0
        with finite bounds (exit 0); no route meets the deadline, so case
        II is infeasible (exit 3)."""
        path, out = tmp_path / "none.json", tmp_path / "res.json"
        path.write_text(json.dumps(NO_TARGETS))
        assert run(["solve", str(path), "--case", "I",
                    "--out", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "converged" and record["iterations"] == 0
        assert record["lower_bound"] == record["dual_bound"] == 0.0
        solve_outputs(out)
        assert run(["solve", str(path), "--case", "II"]) == 3
        assert capsys.readouterr().out == ""

    def test_time_limit_exit_code(self, tmp_path):
        # the instance of test_iteration_limit_exit_code does not converge
        # at trace row 0, so a tiny time limit stops it there (exit 2) with
        # the row's evaluated value as its bound
        inst = tmp_path / "i.json"
        run(["gen", "--waypoints", "5", "--targets", "8", "--seed", "1",
             "--case", "I", "--coverage-radius", "40",
             "--min-coverage", "0.01", "--out", str(inst)])
        out = tmp_path / "r.json"
        assert run(["solve", str(inst), "--time-limit", "1e-9",
                    "--out", str(out)]) == 2
        record = json.loads(out.read_text())
        assert record["status"] == "time-limit"
        assert record["iterations"] == 0
        assert record["dual_bound"] == record["initial_bound"]

    def test_oracle_primal_within_dual_bound(self, tmp_path):
        # low requirements that some route meets: the oracle's primal
        # optimum is reported next to the dual bound, and lies below it
        inst = tmp_path / "i.json"
        assert run(["gen", "--waypoints", "4", "--targets", "5", "--seed",
                    "11", "--case", "II", "--coverage-radius", "30",
                    "--min-coverage", "0.01", "--out", str(inst)]) == 0
        out = tmp_path / "r.json"
        assert run(["solve", str(inst), "--oracle", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        block = record["oracle"]
        assert block["primal"] <= record["dual_bound"]
        assert block["bound_gap"] == record["dual_bound"] - block["primal"]
        assert block["weak_duality_ok"] is True

    def test_verify_out_matches_stdout(self, tmp_path, desk_instance_file,
                                       capsys):
        res = tmp_path / "res.json"
        run(["solve", str(desk_instance_file), "--out", str(res)])
        sol_file = res.with_suffix(res.suffix + ".sol.json")
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert run(["verify", str(desk_instance_file), str(sol_file),
                    "--out", str(report)]) == 0
        assert report.read_text() == capsys.readouterr().out

    def test_too_many_waypoints_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(too_many_waypoints_document()))
        assert run(["solve", str(path)]) == 4
        assert "at most 63" in capsys.readouterr().err

    def test_out_of_range_phi_tol_usage_error(self, desk_instance_file,
                                              capsys):
        for flag, value, reason in (
                ("--phi", "2", "must lie strictly inside (0, 1), got 2"),
                ("--phi", "0", "must lie strictly inside (0, 1), got 0"),
                ("--phi", "abc", "invalid float value: 'abc'"),
                ("--tol", "0", "must be positive, got 0"),
                ("--iter-limit", "2.5", "invalid int value: '2.5'")):
            with pytest.raises(SystemExit) as exc:
                run(["solve", str(desk_instance_file), flag, value])
            assert exc.value.code == 4
            err = capsys.readouterr().err
            assert "usage:" in err and f"argument {flag}: {reason}" in err

    def test_bad_limits_usage_error(self, desk_instance_file, capsys):
        """A NaN, zero or negative time limit and an iteration limit below 1
        are usage errors, not a run without a limit or with 0 iterations."""
        for flag, value in (("--time-limit", "nan"), ("--time-limit", "0"),
                            ("--time-limit", "-1"), ("--iter-limit", "0"),
                            ("--iter-limit", "-3")):
            with pytest.raises(SystemExit) as exc:
                run(["solve", str(desk_instance_file), flag, value])
            assert exc.value.code == 4
            err = capsys.readouterr().err
            assert "usage:" in err and f"argument {flag}" in err

    def test_unknown_meta_case_input_error(self, tmp_path,
                                           desk_instance_file, capsys):
        """An unknown case, a coverage radius that is not positive or a
        negative coverage factor is an input error (exit 4)."""
        for block, key, bad, reason in (
                ("meta", "case", "X", "meta.case"),
                ("vehicle", "coverage_radius", 0.0, "radius must be positive"),
                ("vehicle", "coverage_factor", -1.0, "factor nonnegative")):
            doc = json.loads(desk_instance_file.read_text())
            doc[block][key] = bad
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run(["solve", str(path)]) == 4
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("which,doc", [
        ("solution", []),
        ("solution", {"per_target_coverage": [1]}),
        ("solution", {"per_target_coverage": {"first": 1.0}}),
        ("solution", {"nodes": [0, 1.7, 4], "times": ["8", True]}),
        ("solution", {"nodes": [0, 1.7, 4]}),
        ("solution", {"times": ["8", 1.0]}),
        ("solution", {"times": [8.0, True]}),
        ("solution", {"nodes": 4}),
        ("instance", []),
        ("instance", {"waypoints": 7}),
        ("instance", {"targets": [1]}),
        ("instance", {"physics": 5}),
        ("instance", {"vehicle": [30.0]}),
        ("instance", {"meta": "II"}),
        ("instance", b"\xff\xfe{}"),
    ], ids=lambda v: (v if isinstance(v, str) else
                      "not-utf-8" if isinstance(v, bytes) else json.dumps(v)))
    def test_malformed_document_input_error(self, tmp_path,
                                            desk_instance_file, capsys,
                                            which, doc):
        """A document of the wrong shape, or a fractional, string or
        boolean where a node id or time belongs, is an input error (exit 4)
        reported in one line, not a crash or a coerced route.  A ``bytes``
        document is written as it is."""
        docs = {"instance": json.loads(desk_instance_file.read_text()),
                "solution": {"nodes": [0, 1, 4, 5], "times": [8.0, 1.0, 2.0]}}
        docs[which] = {**docs[which], **doc} if isinstance(doc, dict) else doc
        paths = []
        for name in ("instance", "solution"):
            paths.append(tmp_path / f"{name}.json")
            text = docs[name]
            paths[-1].write_bytes(text if isinstance(text, bytes)
                                  else json.dumps(text).encode())
        capsys.readouterr()
        assert run(["verify"] + [str(p) for p in paths]) == 4
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err

    def test_ratio_mode_flag_reported(self, tmp_path, desk_instance_file):
        out = tmp_path / "res.json"
        code = run(["solve", str(desk_instance_file), "--ratio-mode",
                    "per-distance", "--oracle", "--out", str(out)])
        assert code in (0, 2)
        record = json.loads(out.read_text())
        assert record["ratio_mode"] == "per-distance"
        assert "match" in record["oracle"]["relaxation_at_zero"]


class TestPresetPipeline:
    """gen -> solve -> verify holds together on every preset; the bigger
    presets run under iteration caps (exit code 2 still carries a valid
    bound and witness).  No route meets the requirements of ``large`` seed
    3: the first iteration's dual value is already below 0, so the run
    converges within the cap (exit 0)."""

    @pytest.mark.parametrize("preset,case,extra,codes", [
        ("small", "I", [], (0,)),
        ("small", "II", ["--iter-limit", "2"], (0, 2)),
        ("medium", "I", ["--iter-limit", "1"], (0, 2)),
        ("large", "I", ["--iter-limit", "1"], (0,)),
    ])
    def test_preset_pipeline(self, tmp_path, preset, case, extra, codes):
        inst = tmp_path / "inst.json"
        out = tmp_path / "res.json"
        assert run(["gen", "--preset", preset, "--seed", "3", "--case", case,
                    "--out", str(inst)]) == 0
        code = run(["solve", str(inst), "--case", case, "--out", str(out)]
                   + extra)
        assert code in codes
        record = json.loads(out.read_text())
        assert record["dual_bound"] <= record["initial_bound"] + 1e-9
        if preset == "large":
            assert record["status"] == "converged"
            assert record["dual_bound"] < 0.0
        sol = out.with_suffix(out.suffix + ".sol.json")
        assert run(["verify", str(inst), str(sol)]) == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def _solve_capped(inst, *flags):
    """``covroute solve inst [flags]`` in a child under a 4 GiB
    address-space limit, so that a solve that allocates past it fails fast
    with MemoryError instead of exhausting memory."""
    src = str(Path(coverage_routing.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "coverage_routing.cli", "solve", str(inst),
         *flags],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=_limit_address_space)


def test_oversized_case1_table_input_error(tmp_path):
    """30 waypoints pass the 63-waypoint cap, but the case-I table would
    take 368 GiB: solve refuses it before allocating (exit 4)."""
    inst = tmp_path / "inst.json"
    assert run(["gen", "--waypoints", "30", "--targets", "3",
                "--out", str(inst)]) == 0
    proc = _solve_capped(inst)
    assert proc.returncode == 4, proc.stderr
    assert "case I needs a 368.0 GiB table" in proc.stderr


def test_oversized_case2_fill_input_error(tmp_path):
    """Case II fills the same table (without the deadline) before any
    search, under either key order, so 30 case-II waypoints are refused up
    front too (exit 4)."""
    inst = tmp_path / "inst.json"
    assert run(["gen", "--waypoints", "30", "--targets", "3", "--case", "II",
                "--out", str(inst)]) == 0
    for mode in ("slope", "per-distance"):
        proc = _solve_capped(inst, "--ratio-mode", mode)
        assert proc.returncode == 4, proc.stderr
        assert "case II needs a 368.0 GiB table" in proc.stderr
