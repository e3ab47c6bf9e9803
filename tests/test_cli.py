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
    @pytest.mark.parametrize("entry", ["1/0", 1.5])
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

    def test_nine_polynomials_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "polys.json", [["0"] * d + ["1"] for d in range(9)])
        code, out, err = run(capsys, "poly", "wronskian", path)
        assert code == 2 and out == ""
        assert err == "error: the Wronskian takes at most 8 polynomials, got 9\n"

    @pytest.mark.parametrize("entry", ["1/0", 1.5])
    def test_malformed_number_is_input_error(self, capsys, tmp_path, entry):
        path = write(tmp_path, "polys.json", [["0", "1"], [entry]])
        code, out, err = run(capsys, "poly", "wronskian", path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("entry", ["1/0", 1.5])
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

    @pytest.mark.parametrize("command", ["table1", "threeform", "all"])
    def test_checks_run_under_optimized_python(self, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "g2spaces.cli", "verify", command],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert ("12/12 criteria passed" if command == "all" else "35/35") in proc.stdout

    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("injected")

        monkeypatch.setattr("g2spaces.cli.cmd_verify_table1", broken)
        code, out, err = run(capsys, "verify", "table1")
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: injected\n"

    def test_verify_all_is_green(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        assert "12/12 criteria passed" in out
        assert out.count(": PASS") == 12
