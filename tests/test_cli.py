import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import coverage_routing
from conftest import too_many_waypoints_document
from coverage_routing.cli import main
from coverage_routing.instance import load_instance


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
        inst = tmp_path / "i.json"
        run(["gen", "--waypoints", "4", "--targets", "5", "--seed", "2",
             "--case", "I", "--coverage-radius", "30",
             "--min-coverage", "3.0", "--out", str(inst)])
        code = run(["solve", str(inst), "--iter-limit", "1",
                    "--out", str(tmp_path / "r.json")])
        assert code == 2

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

    def test_missing_file_usage_error(self, tmp_path):
        assert run(["verify", str(tmp_path / "no.json"),
                    str(tmp_path / "nope.json")]) == 4
        assert run(["solve", str(tmp_path / "no.json")]) == 4

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
        doc = json.loads(desk_instance_file.read_text())
        doc["meta"]["case"] = "X"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["solve", str(bad)]) == 4
        assert "meta.case" in capsys.readouterr().err

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
    bound and witness)."""

    @pytest.mark.parametrize("preset,case,extra,codes", [
        ("small", "I", [], (0,)),
        ("small", "II", ["--iter-limit", "2"], (0, 2)),
        ("medium", "I", ["--iter-limit", "1"], (0, 2)),
        ("large", "I", ["--iter-limit", "1"], (2,)),
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
        sol = out.with_suffix(out.suffix + ".sol.json")
        assert run(["verify", str(inst), str(sol)]) == 0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_oversized_case1_table_input_error(tmp_path):
    """30 waypoints pass the 63-waypoint cap, but the case-I table would
    take 295 GiB: solve refuses it before allocating (exit 4).  The solve
    runs in a child under a 4 GiB address-space limit, so a regression
    fails fast with MemoryError instead of exhausting memory."""
    inst = tmp_path / "inst.json"
    assert run(["gen", "--waypoints", "30", "--targets", "3",
                "--out", str(inst)]) == 0
    src = str(Path(coverage_routing.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "coverage_routing.cli", "solve", str(inst)],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=_limit_address_space)
    assert proc.returncode == 4, proc.stderr
    assert "case I needs a 295.0 GiB table" in proc.stderr
