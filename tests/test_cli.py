import json

import pytest

import pmkit as pk
from pmkit.cli import main
from pmkit.serialize import dumps_polymatroid, load_polymatroid

from conftest import collapse_by_minors


@pytest.fixture
def rho_file(tmp_path, example_rho):
    path = tmp_path / "rho.json"
    path.write_text(dumps_polymatroid(example_rho))
    return str(path)


def test_validate_ok(rho_file, capsys):
    assert main(["validate", rho_file]) == 0
    assert "valid 2-element 3-polymatroid" in capsys.readouterr().out


def test_validate_structured_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": ["e"], "k": 1,
                                "ranks": {"": 1, "e": 1}}))
    assert main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotNormalized"


def test_validate_human_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ground": ["e"], "k": 1,
                                "ranks": {"": 1, "e": 1}}))
    assert main(["--human", "validate", str(path)]) == 1
    assert "error [NotNormalized]" in capsys.readouterr().err


def test_missing_file_is_domain_error(capsys):
    assert main(["validate", "/nonexistent/rho.json"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "IO"


def test_usage_error_exit_code(capsys):
    assert main(["compress"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2


def test_minor(rho_file, capsys):
    assert main(["minor", rho_file, "--contract", "e"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ranks"] == {"": 0, "f": 1}


def test_compress(rho_file, capsys):
    assert main(["compress", rho_file, "--element", "e", "--level", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ranks"] == {"": 0, "f": 2}


def test_dual(rho_file, capsys):
    assert main(["dual", rho_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ranks"] == {"": 0, "e": 1, "f": 2, "e,f": 2}


def test_natural_rank_single(rho_file, capsys):
    assert main(["natural-rank", rho_file, "--counts", "1,3"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_natural_rank_grid(rho_file, capsys):
    assert main(["natural-rank", rho_file, "--grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "e,f,rank" and len(lines) == 17


def test_natural_rank_needs_a_mode(rho_file, capsys):
    assert main(["natural-rank", rho_file]) == 2


def test_decompose_canonical(rho_file, capsys):
    assert main(["decompose", rho_file, "--canonical"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2 and data["coloops"] == ["e"]
    assert data["tau"]["ranks"] == {"": 0, "e": 2, "f": 2, "e,f": 3}


def test_decompose_canonical_bytes(rho_file, capsys):
    assert main(["decompose", rho_file, "--canonical"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "n": 2,\n  "tau": {\n    "format": 1,\n    "ground": [\n'
        '      "e",\n      "f"\n    ],\n    "k": 2,\n    "ranks": {\n'
        '      "": 0,\n      "e": 2,\n      "f": 2,\n      "e,f": 3\n'
        '    }\n  },\n  "coloops": [\n    "e"\n  ]\n}\n')


def test_decompose_fixed_level_failure(rho_file, capsys):
    assert main(["decompose", rho_file, "--n", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NotDecomposable"


def test_collapse_check(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(dumps_polymatroid(pk.doubleton(6, 2, 8, 8)))
    assert main(["collapse-check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "element,level,tag"
    assert "e,2,deletion" in lines and "f,6,contraction" in lines


def test_collapse_check_pins_three_elements(tmp_path, capsys):
    # essential bound 2 (f is below it, g a coloop with marginal 5 = k-m)
    rho = pk.RankTable(("e", "f", "g"), 7, (0, 1, 2, 3, 6, 7, 7, 8))
    path = tmp_path / "t.json"
    path.write_text(dumps_polymatroid(rho))
    assert main(["collapse-check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["element,level,tag"] + [
        f"{name},{level},{collapse_by_minors(rho, name, level)}"
        for name in rho.labels for level in range(2, 6)]
    assert [line.split(",")[2] for line in lines[1:]] == (
        ["contraction"] * 8 + ["deletion"] * 4)


def test_class_check(rho_file, capsys):
    assert main(["class-check", rho_file, "--a", "2", "--b", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["in_class"] is False and "witness" in data
    witness = pk.MinorWitness(**{key: tuple(value)
                                 for key, value in data["witness"].items()})
    assert pk.check_witness(load_polymatroid(rho_file), witness)


def test_excluded_check(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(dumps_polymatroid(pk.singleton(3, 8)))
    assert main(["excluded-check", str(path), "--a", "3", "--b", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["excluded_minor"] is True


def test_enumerate_catalog(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    assert main(["enumerate", "--a", "3", "--b", "7", "--k", "8",
                 "--max-elements", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["records"]) == 17  # 3 singleton + 14 doubleton
    tags = [r["tags"] for r in data["records"]]
    assert tags[0] == ["singleton", "Ex^3"]
    assert ["doubleton", "Ex_(6,6)^6"] in tags
    # byte-stable across runs
    again = tmp_path / "catalog2.json"
    main(["enumerate", "--a", "3", "--b", "7", "--k", "8",
          "--max-elements", "2", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_enumerate_has_no_jobs_flag(capsys):
    # the search runs in one process; argparse rejects the old flag
    assert main(["enumerate", "--a", "2", "--b", "4", "--k", "4",
                 "--max-elements", "1", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_enumerate_stamp(tmp_path):
    out = tmp_path / "catalog.json"
    main(["enumerate", "--a", "2", "--b", "4", "--k", "4",
          "--max-elements", "1", "--out", str(out), "--stamp"])
    assert "generated_at" in json.loads(out.read_text())


def test_polytope_lattice(rho_file, capsys):
    assert main(["polytope", rho_file, "--lattice"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "e,f" and len(lines) == 12


def test_polytope_vertices_and_svg(rho_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert main(["polytope", rho_file, "--vertices", "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == "e,f\n2,2\n3,1\n"
    assert svg.read_text().startswith("<svg")


def test_polytope_box_guard(tmp_path, capsys):
    # singleton ranks 16 on six elements: a lattice box of 17^6 points
    path = tmp_path / "big.json"
    path.write_text(dumps_polymatroid(16 * pk.uniform(1, 6)))
    assert main(["polytope", str(path), "--lattice"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TooLarge"


def test_polytope_base_lattice(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(dumps_polymatroid(pk.uniform(1, 2)))
    assert main(["polytope", str(path), "--lattice", "--base"]) == 0
    assert capsys.readouterr().out == "e,f\n0,1\n1,0\n"


def test_verify_paper_suite(capsys):
    # the suite carries faithful checks of published claims that fail
    # re-derivation, so the exit code is 1 with exactly those failures
    code = main(["verify", "--suite", "paper"])
    out = capsys.readouterr().out
    assert code == 1
    failed = {line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL")}
    assert failed == {"6a", "6b", "7b"}
    assert "PASS 1" in out and "PASS 5" in out
    assert "expected: published claim fails re-derivation" in out


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nope"]) == 2


def test_run_suite_unknown_name_raises():
    from pmkit import verify
    from pmkit.errors import UnknownSuite

    with pytest.raises(UnknownSuite):
        verify.run_suite("everything")


def test_verify_json_output(capsys):
    code = main(["verify", "--suite", "paper", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    by_id = {entry["id"]: entry for entry in data}
    assert by_id["1"]["passed"] is True
    assert by_id["6a"]["passed"] is False and by_id["6a"]["expected_failure"]
