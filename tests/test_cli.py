"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2spaces.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def unit(i):
    return [str(int(k == i)) for k in range(1, 8)]


class TestSpaceCommands:
    def test_analyze_certified_fixture(self, capsys):
        code, out, _ = run(capsys, "space", "analyze", "--fixture", "monomial-2-3")
        assert code == 0
        assert "ssd verdict: ssd" in out
        assert "ramification: x, 1, x, x, 1, x" in out

    def test_analyze_negative_fixture_reports_stage(self, capsys):
        code, out, _ = run(capsys, "space", "analyze", "--fixture", "not-self-dual", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ssd"]["verdict"] == "not_ssd"
        assert payload["ssd"]["stage"] == "self-dual"
        assert payload["self_dual"] is False

    def test_analyze_json_round_trips_into_check_ssd(self, capsys, tmp_path):
        code, out, _ = run(capsys, "space", "analyze", "--fixture", "deg6", "--json")
        assert code == 0
        path = write(tmp_path, "space.json", json.loads(out))
        code, out, _ = run(capsys, "space", "check-ssd", path)
        assert code == 0
        assert "verdict: ssd" in out

    def test_witt_scales(self, capsys):
        code, out, _ = run(capsys, "space", "witt")
        assert code == 0
        assert "scales: 1 1 1/2 1/6 1/24 1/120 1/720" in out

    def test_standard_basis_found(self, capsys):
        code, out, _ = run(
            capsys, "space", "standard-basis", "--fixture", "monomial-1-3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert len(payload["vectors"]) == 7

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "space", "analyze", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["check-ssd", "witt", "standard-basis"])
    @pytest.mark.parametrize("entry", ["1/0", 1.5, True])
    def test_malformed_number_is_input_error(self, capsys, tmp_path, command, entry):
        path = write(tmp_path, "space.json", {"basis": [[entry]]})
        code, out, err = run(capsys, "space", command, path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["witt", "standard-basis", "check-ssd", "analyze"])
    def test_nine_dimensional_space_is_a_failure(self, capsys, tmp_path, command):
        basis = [[str(int(k == d)) for k in range(d + 1)] for d in range(9)]
        path = write(tmp_path, "nine.json", {"basis": basis})
        code, _, err = run(capsys, "space", command, path)
        assert code == 1
        assert err == "" or (err.startswith("failure: ") and err.count("\n") == 1)
        if command in ("witt", "standard-basis"):
            assert "need dimension 7, got 9" in err

    def test_unknown_fixture_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["space", "analyze", "--fixture", "nope"])
        assert excinfo.value.code == 2


class TestPolyWronskian:
    def test_pair(self, capsys, tmp_path):
        path = write(tmp_path, "polys.json", [["0", "1"], ["0", "0", "1/2"]])
        code, out, _ = run(capsys, "poly", "wronskian", path)
        assert code == 0
        assert out.strip() == "1/2*x^2"

    def test_accepts_space_payload(self, capsys, tmp_path):
        path = write(tmp_path, "polys.json", {"basis": [["0", "1"], ["1"]]})
        code, out, _ = run(capsys, "poly", "wronskian", path, "--json")
        assert code == 0
        assert json.loads(out) == {"wronskian": ["-1"]}

    def test_eight_polynomials(self, capsys, tmp_path):
        degrees = (0, 2, 3, 5, 7, 8, 10, 13)
        path = write(tmp_path, "polys.json", [["0"] * d + ["1"] for d in degrees])
        code, out, _ = run(capsys, "poly", "wronskian", path)
        assert code == 0
        assert out.strip() == "627683696640000000*x^20"

    def test_nine_polynomials_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "polys.json", [["0"] * d + ["1"] for d in range(9)])
        code, out, err = run(capsys, "poly", "wronskian", path)
        assert code == 2 and out == ""
        assert err == "error: the Wronskian takes at most 8 polynomials, got 9\n"

    @pytest.mark.parametrize("entry", ["1/0", 1.5, True])
    def test_malformed_number_is_input_error(self, capsys, tmp_path, entry):
        path = write(tmp_path, "polys.json", [["0", "1"], [entry]])
        code, out, err = run(capsys, "poly", "wronskian", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_string_row_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "polys.json", ["12", "3"])
        code, out, err = run(capsys, "poly", "wronskian", path)
        assert code == 2 and out == ""
        assert err == "error: bad polynomial data: expected a list of coefficients, got '12'\n"


class TestSpinCommands:
    def test_embed_default(self, capsys):
        code, out, _ = run(capsys, "spin", "embed")
        assert code == 0
        assert "on the conic: yes" in out

    def test_embed_rejects_non_isotropic(self, capsys, tmp_path):
        path = write(tmp_path, "triple.json", [unit(1), unit(2), unit(7)])
        code, _, err = run(capsys, "spin", "embed", path)
        assert code == 1
        assert "failure:" in err

    def test_preimages_default_split(self, capsys):
        code, out, _ = run(capsys, "spin", "preimages", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "split"
        assert len(payload["spaces"]) == 2

    def test_preimages_isotropic_vector(self, capsys, tmp_path):
        path = write(tmp_path, "v.json", unit(1))
        code, out, _ = run(capsys, "spin", "preimages", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "isotropic"
        assert len(payload["spaces"]) == 1

    def test_preimage_space_feeds_back_into_embed(self, capsys, tmp_path):
        _, out, _ = run(capsys, "spin", "preimages", "--json")
        payload = json.loads(out)
        path = write(tmp_path, "space0.json", payload["spaces"][0])
        code, out, _ = run(capsys, "spin", "embed", path)
        assert code == 0

    def test_embed_empty_spaces_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "spaces.json", {"spaces": []})
        code, out, err = run(capsys, "spin", "embed", path)
        assert code == 2 and out == ""
        assert err == 'error: expected a non-empty list under "spaces"\n'

    @pytest.mark.parametrize("command", ["preimages", "embed"])
    @pytest.mark.parametrize("entry", [True, 0.1])
    def test_malformed_field_element_is_input_error(self, capsys, tmp_path, command, entry):
        vector = [{"a": entry, "b": 0}] + unit(2)[1:]
        obj = vector if command == "preimages" else [vector, unit(2), unit(3)]
        code, out, err = run(capsys, "spin", command, write(tmp_path, "v.json", obj))
        assert code == 2 and out == ""
        assert err.startswith("error: bad field element") and err.count("\n") == 1


class TestG2Commands:
    def test_threeform_routes_agree(self, capsys):
        code, out, _ = run(capsys, "g2", "threeform", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["routes_agree"] is True
        assert len(payload["values"]) == 35

    def test_threeform_deterministic(self, capsys):
        _, first, _ = run(capsys, "g2", "threeform", "--json")
        _, second, _ = run(capsys, "g2", "threeform", "--json")
        assert first == second

    def test_kernel_of_isotropic_vector(self, capsys):
        code, out, _ = run(capsys, "g2", "kernel", "--json")
        assert code == 0
        assert json.loads(out)["dimension"] == 3

    def test_kernel_of_anisotropic_vector(self, capsys, tmp_path):
        path = write(tmp_path, "v.json", unit(4))
        code, out, _ = run(capsys, "g2", "kernel", path, "--json")
        assert code == 0
        assert json.loads(out)["dimension"] == 1

    def test_flags_default(self, capsys):
        code, out, _ = run(capsys, "g2", "flags")
        assert code == 0
        assert "attached pair: y1 = 1, y2 = 1" in out

    def test_flags_incompatible(self, capsys, tmp_path):
        path = write(tmp_path, "flag.json", [unit(1), unit(2), unit(4)])
        code, out, _ = run(capsys, "g2", "flags", path)
        assert code == 1
        assert "no" in out


class TestBetheCommands:
    def test_reproduce_single_direction(self, capsys):
        code, out, _ = run(capsys, "bethe", "reproduce", "--direction", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload["children"]) == ["1"]
        assert len(payload["children"]["1"]) == 4

    def test_reproduce_direction_out_of_range(self, capsys):
        code, _, err = run(capsys, "bethe", "reproduce", "--direction", "5")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("entry", ["1/0", 1.5, True])
    def test_reproduce_malformed_number_is_input_error(self, capsys, tmp_path, entry):
        seed = {"kind": "G2", "polys": [["1"], ["1"]], "T": [[entry], ["1"]]}
        path = write(tmp_path, "seed.json", seed)
        code, out, err = run(capsys, "bethe", "reproduce", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_population_tree_shape_and_shallow_failure(self, capsys):
        code, out, _ = run(capsys, "bethe", "population", "--depth", "2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["space"] is None
        assert "explore deeper" in payload["space_error"]
        root = payload["population"][0]
        assert root["parent"] is None and root["direction"] is None
        child = payload["population"][1]
        assert child["parent"] == 0 and child["direction"] in (1, 2)

    def test_population_full_depth(self, capsys):
        code, out, _ = run(capsys, "bethe", "population", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 405
        assert payload["degrees"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["weights"]["single_orbit"] is True
        assert payload["weights"]["orbit_size"] == 12

    def test_population_rejects_multiple_roots(self, capsys, tmp_path):
        seed = {"kind": "G2", "polys": [["0", "0", "1"], ["1"]], "T": [["1"], ["1"]]}
        path = write(tmp_path, "seed.json", seed)
        code, _, err = run(capsys, "bethe", "population", path)
        assert code == 1
        assert "multiple roots" in err

    @pytest.mark.parametrize("command", ["population", "reproduce"])
    def test_zero_ramification_flag_is_input_error(self, capsys, command):
        code, out, err = run(capsys, "bethe", command, "--T1", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ramification data must be nonzero" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--depth", "-1"), ("--depth", "-5"), ("--max-nodes", "0"), ("--max-nodes", "-1"),
         ("--max-nodes", "-5")],
    )
    def test_population_bound_below_range_is_input_error(self, capsys, flag, value):
        code, out, err = run(capsys, "bethe", "population", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    def test_population_ramification_flags(self, capsys):
        code, out, _ = run(capsys, "bethe", "population", "--T1", "0,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degrees"] == [0, 2, 3, 5, 7, 8, 10]
        assert payload["weights"]["dominant"] == [1, 0]

    def test_population_node_feeds_reproduce(self, capsys, tmp_path):
        _, out, _ = run(capsys, "bethe", "population", "--depth", "2", "--json")
        node = json.loads(out)["population"][3]
        path = write(tmp_path, "node.json", node["tuple"])
        code, _, _ = run(capsys, "bethe", "reproduce", path)
        assert code == 0

    def test_population_triple_kind(self, capsys, tmp_path):
        seed = {"kind": "C3", "polys": [["1"], ["1"], ["1"]], "T": [["1"], ["1"], ["1"]]}
        path = write(tmp_path, "c3.json", seed)
        code, out, _ = run(capsys, "bethe", "population", path, "--depth", "2", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["size"] > 1
        assert "weights" not in payload


class TestVerifyCommands:
    def test_table1(self, capsys):
        code, out, _ = run(capsys, "verify", "table1")
        assert code == 0
        assert "table identities: 35/35" in out

    def test_table1_corrupt_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "table1", "--corrupt", "2,5,7")
        assert code == 1
        assert "table identities: 34/35" in out
        assert "MISMATCH at (2, 5, 7)" in out

    def test_threeform_corrupt_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "threeform", "--corrupt", "1,4,7")
        assert code == 1
        assert "MISMATCH at (1, 4, 7)" in out

    def test_bad_corrupt_triple(self, capsys):
        code, _, err = run(capsys, "verify", "table1", "--corrupt", "9,9")
        assert code == 2
        assert "error:" in err

    def test_verify_all_is_green(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        assert "12/12 criteria passed" in out
        assert out.count(": PASS") == 12

    @pytest.mark.parametrize(
        "argv, expect",
        [
            pytest.param(["verify", "table1"], "35/35", id="table1"),
            pytest.param(["verify", "threeform"], "35/35", id="threeform"),
            pytest.param(["verify", "all"], "12/12 criteria passed", id="all"),
            pytest.param(
                ["space", "check-ssd", "--fixture", "shifted-2-3"], "verdict: ssd",
                id="check-ssd-shifted-2-3",
            ),
        ],
    )
    def test_checks_run_under_optimized_python(self, argv, expect):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "g2spaces.cli", *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert expect in proc.stdout

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_closed_stdout_is_not_an_internal_error(self, unbuffered):
        # The read end is closed before the command starts, so its first
        # write to standard output fails, however little it prints: at once
        # when unbuffered, at the first flush when buffered.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "g2spaces.cli", "bethe", "reproduce",
                 "--fixture", "monomial-2-3", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=180,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("injected")

        monkeypatch.setattr("g2spaces.cli.cmd_verify_table1", broken)
        code, out, err = run(capsys, "verify", "table1")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: injected\n"


_NINE_DIMENSIONAL = {"basis": [[str(int(k == d)) for k in range(d + 1)] for d in range(9)]}
_BAD_SPACE_FILES = {
    "null": (None, 2),
    "list": ([], 2),
    "dict": ({}, 2),
    "string-basis": ({"basis": "x"}, 2),
    "nested-row": ({"basis": [[["1"]]]}, 2),
    "empty-basis": ({"basis": []}, 1),
    "nine-dimensional": (_NINE_DIMENSIONAL, 1),
}
_BAD_VECTORS = {
    "short": ["1", "0"],
    "null": None,
    "nested": [["1"]] + unit(1)[1:],
    "non-numeric": ["a"] + unit(1)[1:],
    "bad-qext": [{"a": "1"}] + unit(1)[1:],
}
_ZERO_COORDINATE = {"kind": "G2", "polys": [["0"], ["1"]], "T": [["1"], ["1"]]}
_UNKNOWN_KIND = {"kind": "B5", "polys": [["1"], ["1"]], "T": [["1"], ["1"]]}
_NO_FILE = object()


def _malformed_input_cases():
    for command in ("analyze", "witt", "standard-basis", "check-ssd"):
        for name, (obj, code) in _BAD_SPACE_FILES.items():
            yield pytest.param(["space", command], obj, code, id=f"space-{command}-{name}")
    for argv, triple in (
        (["spin", "embed"], True),
        (["spin", "preimages"], False),
        (["g2", "kernel"], False),
        (["g2", "flags"], True),
    ):
        for name, vector in _BAD_VECTORS.items():
            obj = [vector, unit(2), unit(3)] if triple else vector
            yield pytest.param(argv, obj, 2, id="-".join(argv + [name]))
    for command in ("reproduce", "population"):
        yield pytest.param(["bethe", command], _ZERO_COORDINATE, 2, id=f"bethe-{command}-zero")
        yield pytest.param(["bethe", command], _UNKNOWN_KIND, 2, id=f"bethe-{command}-kind")
        yield pytest.param(
            ["bethe", command, "--T1", ""], _NO_FILE, 2, id=f"bethe-{command}-empty-T1"
        )
    yield pytest.param(["poly", "wronskian"], [["1/0"]], 2, id="poly-wronskian-1/0")
    yield pytest.param(["poly", "wronskian"], {"basis_": [["1"]]}, 2, id="poly-wronskian-no-polys")


@pytest.mark.parametrize("argv, obj, code", _malformed_input_cases())
def test_malformed_input_keeps_the_exit_code_contract(capsys, tmp_path, argv, obj, code):
    """Malformed input exits 2 and a degenerate space 1, each with one clean stderr line."""
    if obj is not _NO_FILE:
        argv = argv + [write(tmp_path, "input.json", obj)]
    got, _, err = run(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err and "internal error" not in err
    assert err.count("\n") <= 1
    if code == 2:
        assert err.startswith("error: ")
    if obj is _NO_FILE:
        assert err.startswith("error: bad coefficient list ''")
