"""Exit codes, formats, and file-versus-catalog resolution of the CLI."""

import json
import subprocess
import sys

from conftest import descriptor_obj
from hilb2 import BettiTable, catalog_text
from hilb2 import cli


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_descriptor(tmp_path, obj, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_validate_catalog_name(capsys):
    code, out, _ = run(["validate", "p2"], capsys)
    assert code == 0
    assert "[pass]" in out


def test_validate_unknown_name(capsys):
    code, _, err = run(["validate", "no_such_space"], capsys)
    assert code == 1
    assert "no file or catalog entry" in err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, _, err = run(["validate", str(path)], capsys)
    assert code == 1
    assert "invalid JSON" in err


def test_validate_axiom_violation_exits_two(tmp_path, capsys):
    obj = descriptor_obj(n=2, degrees=[0, 1, 4], compact=False,
                         sq=[{"k": 3, "from": "c1", "to": ["c2"]}])
    code, out, _ = run(["validate", write_descriptor(tmp_path, obj)], capsys)
    assert code == 2
    assert "[fail] instability" in out


def test_noncompact_class_in_degree_2n_exits_two_with_a_report(tmp_path,
                                                                capsys):
    obj = {"name": "two_top", "complex_dimension": 1, "compact": False,
           "classes": [{"name": "1", "degree": 0}, {"name": "a", "degree": 2},
                       {"name": "b", "degree": 2}]}
    path = write_descriptor(tmp_path, obj)
    for argv in (["validate", path], ["check", path],
                 ["betti", path, "--space", "config"],
                 ["betti", path, "--space", "hilb2"]):
        code, out, _ = run(argv, capsys)
        assert code == 2, argv
        assert out.count("[fail] degree-range") == 2, argv


def test_validate_json_flag(capsys):
    code, out, _ = run(["validate", "k3", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] in ("pass", "note") for r in rows)


def test_betti_table_format(capsys):
    code, out, _ = run(["betti", "p2", "--space", "hilb2"], capsys)
    assert code == 0
    assert out.strip() == "1 0 2 0 3 0 2 0 1"


def test_betti_json_format(capsys):
    code, out, _ = run(
        ["betti", "elliptic_y", "--space", "hilb2", "--method", "closed",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed"
    assert payload["dims"]["4"] == 92
    assert payload["top"] == 8


def test_betti_csv_format(capsys):
    code, out, _ = run(["betti", "p1", "--space", "x", "--format", "csv"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dimension"
    assert lines[1:] == ["0,1", "1,0", "2,1"]


def test_betti_method_restricted_to_hilb2(capsys):
    code, _, err = run(["betti", "p2", "--space", "sym2", "--method", "exact"],
                       capsys)
    assert code == 1
    assert "--method" in err


def test_betti_both_agreeing(capsys):
    code, out, _ = run(["betti", "k3", "--space", "hilb2", "--method", "both"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1 0 23 0 276 0 23 0 1"] * 2


def test_betti_both_json_reports_agreement(capsys):
    code, out, _ = run(["betti", "p3", "--space", "hilb2", "--method", "both",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["exact"]["dims"] == payload["closed"]["dims"]


def test_betti_both_disagreement_exits_three(capsys, monkeypatch):
    wrong = BettiTable("hilb2", 8, {0: 1})
    monkeypatch.setattr(cli.betti_mod, "betti_hilb2_closed", lambda d: wrong)
    code, _, err = run(["betti", "k3", "--space", "hilb2", "--method", "both"],
                       capsys)
    assert code == 3
    assert "disagree" in err
    code, out, _ = run(["betti", "k3", "--space", "hilb2", "--method", "both",
                        "--format", "json"], capsys)
    assert code == 3
    assert json.loads(out)["agree"] is False


def test_betti_closed_needs_vanishing_bockstein(capsys):
    code, _, err = run(
        ["betti", "enriques_x", "--space", "hilb2", "--method", "closed"],
        capsys)
    assert code == 2
    assert "Sq^1" in err


def test_betti_caveat_placement_for_noncompact_input(tmp_path, capsys):
    obj = descriptor_obj(n=1, degrees=[0, 1], compact=False)
    path = write_descriptor(tmp_path, obj)
    _, out, err = run(["betti", path, "--space", "x"], capsys)
    assert "caveat" in out and "caveat" not in err
    _, out, err = run(["betti", path, "--space", "x", "--format", "csv"],
                      capsys)
    assert "caveat" in err and "caveat" not in out


def test_kernel_summary_and_degree(capsys):
    code, out, _ = run(["kernel", "p2"], capsys)
    assert code == 0
    assert out.strip() == "0:1 2:1 4:1"
    code, out, _ = run(["kernel", "p2", "--degree", "4"], capsys)
    assert out.strip() == "4: 1"
    code, out, _ = run(["kernel", "p2", "--degree", "3"], capsys)
    assert out.strip() == "3: 0"


def test_kernel_generator_listing(capsys):
    code, out, _ = run(["kernel", "p2", "--generators", "--degree", "4"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "4: 1"
    assert lines[1] == "degree 4: family 1, u=h, j=0: e*h + h2"


def test_integral_output(capsys):
    code, out, _ = run(["integral", "p2", "--space", "sym2"], capsys)
    assert code == 0
    assert out.strip().splitlines() == \
        ["0: Z^1", "2: Z^1", "4: Z^2", "6: Z^1 + (Z/2)^1", "8: Z^1"]


def test_integral_requires_torsion_free_flag(capsys):
    code, _, err = run(["integral", "enriques_x", "--space", "sym2"], capsys)
    assert code == 2
    assert "torsion_free" in err


def test_check_passes_on_catalog(capsys):
    code, out, _ = run(["check", "elliptic_y"], capsys)
    assert code == 0
    assert "[fail]" not in out


def test_check_json(capsys):
    code, out, _ = run(["check", "p1", "--json", "--samples", "32"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {"check", "status", "details"} <= set(rows[0])


def test_check_fails_on_invalid_descriptor(tmp_path, capsys):
    obj = descriptor_obj(n=1, degrees=[0, 0, 2])
    code, out, _ = run(["check", write_descriptor(tmp_path, obj)], capsys)
    assert code == 2
    assert "connectedness" in out


def test_catalog_list_and_show(capsys):
    code, out, _ = run(["catalog", "list"], capsys)
    assert code == 0
    assert out.split() == ["p1", "p2", "p3", "k3", "enriques_x", "elliptic_y"]
    code, out, _ = run(["catalog", "show", "enriques_x"], capsys)
    assert code == 0
    assert "sq1_zero: false" in out
    assert "betti_x: 1 1 12 1 1" in out


def test_catalog_export_round_trip(tmp_path, capsys):
    out_path = tmp_path / "p2.json"
    code, _, _ = run(["catalog", "export", "p2", "-o", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == catalog_text("p2")
    code, _, _ = run(["validate", str(out_path)], capsys)
    assert code == 0


def test_catalog_export_stdout_matches_text(capsys):
    code, out, _ = run(["catalog", "export", "p1"], capsys)
    assert code == 0
    assert out == catalog_text("p1")


def test_catalog_unknown_name(capsys):
    code, _, err = run(["catalog", "show", "mystery"], capsys)
    assert code == 1
    assert "unknown catalog entry" in err


def test_catalog_dir_override(tmp_path, capsys, monkeypatch):
    # a file named like a catalog entry shadows the built-in
    obj = descriptor_obj(n=1, degrees=[0, 2], name="p2")
    (tmp_path / "p2.json").write_text(json.dumps(obj))
    monkeypatch.setenv("HILB2_CATALOG_DIR", str(tmp_path))
    code, out, _ = run(["betti", "p2", "--space", "hilb2"], capsys)
    assert code == 0
    assert out.strip() == "1 0 1 0 1"  # the n = 1 impostor, not the plane


def test_file_beats_catalog_name(tmp_path, capsys, monkeypatch):
    obj = descriptor_obj(n=1, degrees=[0, 2], name="p2")
    path = write_descriptor(tmp_path, obj, name="p2")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["betti", "p2", "--space", "hilb2"], capsys)
    assert code == 0
    assert out.strip() == "1 0 1 0 1"


def test_bad_flags_exit_one(capsys):
    assert run(["betti", "p2", "--space", "nowhere"], capsys)[0] == 1
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["integral", "p2"], capsys)[0] == 1


def test_console_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilb2.cli", "kernel", "enriques_x"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0:1 1:1 2:2 3:2 4:12 5:1"
