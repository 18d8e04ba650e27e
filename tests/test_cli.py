"""Exit codes, formats, and file-versus-catalog resolution of the CLI."""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPEATED_KEYS, descriptor_obj
import hilb2
from hilb2 import (BettiTable, catalog_names, catalog_text, descriptor_to_json,
                   load_descriptor)
from hilb2 import cli
from hilb2.catalog import _projective


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


def test_a_path_with_a_nul_byte_is_an_unknown_name(capsys):
    # argv from a shell cannot hold a NUL, but cli.main is called in-process
    assert run(["validate", "a\0b"], capsys) == (
        1, "", "error: no file or catalog entry named 'a\\x00b'\n")


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


def test_cartan_on_an_absent_pair_exits_two(tmp_path, capsys):
    # t cup u and t cup v are not stored, so they are 0, but their Cartan
    # sums are Sq^1 t cup u = u cup u = top and t cup Sq^1 v = t cup s = top
    obj = descriptor_obj(
        n=2, classes=[{"name": c, "degree": d} for c, d in (
            ("1", 0), ("t", 1), ("u", 2), ("v", 2), ("s", 3), ("top", 4))],
        sq=[{"k": 1, "from": "t", "to": ["u"]}, {"k": 1, "from": "v", "to": ["s"]},
            {"k": 2, "from": "u", "to": ["top"]}, {"k": 2, "from": "v", "to": ["top"]}],
        cup=[{"a": a, "b": b, "result": [r]} for a, b, r in (
            ("t", "t", "u"), ("t", "s", "top"), ("u", "u", "top"), ("v", "v", "top"))])
    assert run(["validate", write_descriptor(tmp_path, obj)], capsys) == (2, (
        "[fail] cartan: Sq^1(t cup u): table gives 0, Cartan sum gives {'top'}\n"
        "[fail] cartan: Sq^1(t cup v): table gives 0, Cartan sum gives {'top'}\n"), "")


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


def test_hostile_files_exit_one_without_a_traceback(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xff"}')
    code, _, err = run(["validate", str(nested)], capsys)
    assert (code, err) == (1, "error: invalid JSON: nested too deeply\n")
    code, _, err = run(["validate", str(latin1)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "is not UTF-8 text" in err


@pytest.mark.parametrize("key", sorted(REPEATED_KEYS))
def test_repeated_key_exits_one(key, tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(REPEATED_KEYS[key])
    for argv in (["validate", str(path)], ["betti", str(path), "--space", "x"]):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (
            1, "", f"error: invalid JSON: repeated key {key!r}\n")


def test_integer_literal_past_the_digit_limit_exits_one(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    huge = "9" * (limit + 1)
    for text in (
            '{"name": "x", "complex_dimension": %s, "compact": true, '
            '"classes": []}' % huge,
            '{"name": "x", "complex_dimension": 1, "compact": true, '
            '"classes": [{"name": "1", "degree": %s}]}' % huge):
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run(["validate", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON: Exceeds the limit")
        assert "Traceback" not in err


def test_directories_exit_one_without_a_traceback(tmp_path, capsys):
    for argv in (["validate", str(tmp_path)],
                 ["catalog", "export", "p2", "-o", str(tmp_path)]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and repr(str(tmp_path)) in err, argv
        assert "Traceback" not in err, argv


def test_compact_class_above_2n_exits_two_with_a_report(tmp_path, capsys):
    obj = descriptor_obj(n=1, degrees=[0, 2, 5])
    code, out, _ = run(["validate", write_descriptor(tmp_path, obj)], capsys)
    assert code == 2
    assert "[fail] degree-range: class 'c2' has degree 5 above 2n = 2" in out


MULTI = {"name": "multi", "complex_dimension": 2, "compact": False,
         "classes": [{"name": "1", "degree": 0}, {"name": "x", "degree": 1},
                     {"name": "alpha", "degree": 2},
                     {"name": "beta", "degree": 2},
                     {"name": "gamma", "degree": 2}],
         "sq": [{"k": 1, "from": "x", "to": ["gamma", "alpha", "beta"]}],
         "cup": [{"a": "x", "b": "x", "result": []}]}
MULTI_REPORT = ("[fail] square-rule: Sq^1 x = {'alpha', 'beta', 'gamma'} "
                "but x cup x = 0\n")


def test_validate_lists_classes_in_basis_order_whatever_the_hash_seed(tmp_path):
    path = write_descriptor(tmp_path, MULTI)
    src = os.path.dirname(os.path.dirname(hilb2.__file__))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        proc = subprocess.run([sys.executable, "-m", "hilb2.cli", "validate", path],
                              capture_output=True, text=True, env=env)
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
    assert outputs[0] == outputs[1] == (2, MULTI_REPORT, "")


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


CAVEAT = "caveat: noncompact input; duality-based checks do not apply\n"
NONCOMPACT = descriptor_obj(n=1, degrees=[0, 1], compact=False)
K3_HILB2 = {"space": "hilb2", "top": 8,
            "dims": {"0": 1, "2": 23, "4": 276, "6": 23, "8": 1},
            "noncompact": False}
NONCOMPACT_HILB2 = {"space": "hilb2", "top": 4, "dims": {"0": 1, "1": 1},
                    "noncompact": True}
WRONG_HILB2 = {"space": "hilb2", "top": 8, "dims": {"0": 1},
               "noncompact": False}


def both_json(exact, closed):
    return json.dumps({"space": "hilb2", "method": "both",
                       "agree": exact == closed,
                       "exact": dict(exact, method="exact"),
                       "closed": dict(closed, method="closed")},
                      indent=2) + "\n"


def run_both(path, fmt, capsys):
    return run(["betti", path, "--space", "hilb2", "--method", "both",
                "--format", fmt], capsys)


# (stdout, stderr) for k3, then for NONCOMPACT; the caveat goes to stdout
# only in table format, and csv prints the exact table once
@pytest.mark.parametrize("fmt,expected", [
    ("table", [("1 0 23 0 276 0 23 0 1\n" * 2, ""),
               (CAVEAT + "1 1 0 0 0\n" * 2, "")]),
    ("json", [(both_json(K3_HILB2, K3_HILB2), ""),
              (both_json(NONCOMPACT_HILB2, NONCOMPACT_HILB2), CAVEAT)]),
    ("csv", [("degree,dimension\n0,1\n1,0\n2,23\n3,0\n4,276\n5,0\n6,23\n"
              "7,0\n8,1\n", ""),
             ("degree,dimension\n0,1\n1,1\n2,0\n3,0\n4,0\n", CAVEAT)]),
], ids=["table", "json", "csv"])
def test_betti_both_agreeing(fmt, expected, tmp_path, capsys):
    paths = ("k3", write_descriptor(tmp_path, NONCOMPACT))
    for path, (out, err) in zip(paths, expected):
        assert run_both(path, fmt, capsys) == (0, out, err), path


def test_betti_both_json_reports_agreement(capsys):
    code, out, _ = run(["betti", "p3", "--space", "hilb2", "--method", "both",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["exact"]["dims"] == payload["closed"]["dims"]


DISAGREE = "closed: 1 0 0 0 0 0 0 0 0\nmethods disagree\n"


@pytest.mark.parametrize("fmt,expected", [
    ("table", [("", "exact:  1 0 23 0 276 0 23 0 1\n" + DISAGREE),
               (CAVEAT, "exact:  1 1 0 0 0\n" + DISAGREE)]),
    ("json", [(both_json(K3_HILB2, WRONG_HILB2), ""),
              (both_json(NONCOMPACT_HILB2, WRONG_HILB2), CAVEAT)]),
    ("csv", [("", "exact:  1 0 23 0 276 0 23 0 1\n" + DISAGREE),
             ("", CAVEAT + "exact:  1 1 0 0 0\n" + DISAGREE)]),
], ids=["table", "json", "csv"])
def test_betti_both_disagreement_exits_three(fmt, expected, tmp_path, capsys,
                                             monkeypatch):
    wrong = BettiTable("hilb2", 8, {0: 1})
    monkeypatch.setattr(hilb2.betti, "betti_hilb2_closed", lambda d: wrong)
    paths = ("k3", write_descriptor(tmp_path, NONCOMPACT))
    for path, (out, err) in zip(paths, expected):
        assert run_both(path, fmt, capsys) == (3, out, err), path


def test_betti_negative_rank_exits_two(capsys, monkeypatch):
    # a kernel larger than the table it maps from
    monkeypatch.setattr(hilb2.kernel, "kernel_dimensions", lambda d: {0: 5})
    assert run(["betti", "p2", "--space", "hilb2"], capsys) == (
        2, "", "error: degree 1: image ranks 0 and -4; kernel dimensions "
               "exceed the ambient table\n")


def test_out_of_memory_exits_one_with_one_line(capsys, monkeypatch):
    def exhausted(d, seed=0):
        raise MemoryError
    monkeypatch.setattr(hilb2.verify, "run_suite", exhausted)
    assert run(["check", "p2"], capsys) == (
        1, "", "error: out of memory: this input needs more memory than is "
               "available\n")


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


def test_integral_flags_must_agree_with_sq1(tmp_path, capsys):
    obj = json.loads(catalog_text("enriques_x"))
    obj["integral"] = {"two_torsion_free": True, "torsion_free": True,
                       "even_degrees_only": True}
    path = write_descriptor(tmp_path, obj)
    code, out, _ = run(["integral", path, "--space", "sym2"], capsys)
    assert code == 2
    assert out.count("[fail] torsion-flags") == 2
    assert "two_torsion_free requires Sq^1 = 0" in out
    assert "rules out classes of odd degree, but 2 are given, the first 't'" in out


def test_check_passes_on_catalog(capsys):
    code, out, _ = run(["check", "elliptic_y"], capsys)
    assert code == 0
    assert "[fail]" not in out


def test_check_json(capsys):
    code, out, _ = run(["check", "p1", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {"check", "status", "details"} <= set(rows[0])


@pytest.mark.parametrize("name", hilb2.catalog_names())
def test_check_prints_the_same_bytes_whatever_the_seed(name, capsys):
    outputs = set()
    for extra in ([], ["--seed", "0"], ["--seed", "3"]):
        code, out, err = run(["check", name, "--json", *extra], capsys)
        assert code == 0 and err == ""
        outputs.add(out)
    assert len(outputs) == 1


def test_check_has_no_samples_flag(capsys):
    code, out, err = run(["check", "p1", "--samples", "32"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments")


def test_cached_parser_keeps_no_flag_between_calls(capsys):
    code, out, _ = run(["kernel", "p2", "--degree", "4"], capsys)
    assert (code, out) == (0, "4: 1\n")
    code, out, _ = run(["kernel", "p2"], capsys)
    assert (code, out) == (0, "0:1 2:1 4:1\n")
    assert cli.build_parser() is cli.build_parser()


def test_check_fails_on_invalid_descriptor(tmp_path, capsys):
    obj = descriptor_obj(n=1, degrees=[0, 0, 2])
    path = write_descriptor(tmp_path, obj)
    code, out, _ = run(["check", path], capsys)
    assert code == 2
    assert "connectedness" in out
    # under --json the failure report is JSON too, the list validate prints
    code, out, _ = run(["check", path, "--json"], capsys)
    assert code == 2
    assert ("connectedness", "fail") in [(e["check"], e["status"])
                                         for e in json.loads(out)]
    assert out == run(["validate", path, "--json"], capsys)[1]


def test_betti_prints_a_failing_report_in_the_format_it_was_asked_for(
        tmp_path, capsys):
    path = write_descriptor(tmp_path, descriptor_obj(n=1, degrees=[0, 0, 2]))
    expected = run(["validate", path, "--json"], capsys)[1]
    code, out, _ = run(["betti", path, "--space", "sym2", "--format", "json"],
                       capsys)
    assert ("connectedness", "fail") in [(e["check"], e["status"])
                                         for e in json.loads(out)]
    assert (code, out) == (2, expected)
    text = run(["check", path], capsys)[1]
    for fmt in ("table", "csv"):
        assert run(["betti", path, "--space", "sym2", "--format", fmt],
                   capsys)[:2] == (2, text)


def test_check_rejects_sq1_into_the_top_degree(tmp_path, capsys):
    # w_1 = v_1 = 0 on a closed complex manifold, so Sq^1: H^3 -> H^4 of
    # a complex surface vanishes
    obj = json.loads(catalog_text("elliptic_y"))
    obj["sq"] = [{"k": 1, "from": "s", "to": ["top"]}]
    code, out, _ = run(["check", write_descriptor(tmp_path, obj)], capsys)
    assert code == 2
    assert out.splitlines()[-1] == (
        "[fail] orientability: Sq^1 s is nonzero, but Sq^1 on H^3 is the "
        "cup product with w_1, which vanishes on a closed complex manifold")


def test_check_rejects_duality_breaking_inputs(tmp_path, capsys):
    # enriques_x with only Sq^1 x1 = s, and p3 without h cup h2, are no
    # closed manifolds: Sq^1 is not self-adjoint, the cup pairing degenerates
    enriques = json.loads(catalog_text("enriques_x"))
    enriques["sq"] = [e for e in enriques["sq"] if e["from"] != "t"]
    p3 = json.loads(catalog_text("p3"))
    p3["cup"] = [e for e in p3["cup"] if (e["a"], e["b"]) != ("h", "h2")]
    for obj, check in ((enriques, "sq1-self-adjoint"), (p3, "cup-pairing")):
        code, out, _ = run(["check", write_descriptor(tmp_path, obj)], capsys)
        assert code == 2
        assert out.splitlines()[-1].startswith(f"[fail] {check}: ")


def test_repeated_cup_result_exits_one(tmp_path, capsys):
    obj = json.loads(catalog_text("p2"))
    obj["cup"][0]["result"] = ["h2", "h2"]
    code, _, err = run(["check", write_descriptor(tmp_path, obj)], capsys)
    assert code == 1
    assert err == "error: cup[0]: repeated result 'h2'\n"


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
    # no environment variable redirects the catalog: a name means the
    # built-in entry, whatever any directory holds
    built_in = catalog_text("p2")
    obj = descriptor_obj(n=1, degrees=[0, 2], name="p2")
    (tmp_path / "p2.json").write_text(json.dumps(obj))
    monkeypatch.setenv("HILB2_CATALOG_DIR", str(tmp_path))
    code, out, _ = run(["betti", "p2", "--space", "hilb2"], capsys)
    assert (code, out) == (0, "1 0 2 0 3 0 2 0 1\n")
    assert catalog_text("p2") == built_in


def test_catalog_name_beats_a_file_of_that_name(tmp_path, capsys, monkeypatch):
    # a file named like a catalog entry is read only by a path such as ./p2
    (tmp_path / "p2").write_text(catalog_text("p1"))
    monkeypatch.chdir(tmp_path)
    assert run(["betti", "p2", "--space", "x"], capsys) == (0, "1 0 1 0 1\n", "")
    assert run(["betti", "./p2", "--space", "x"], capsys) == (0, "1 0 1\n", "")


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entry_loads_from_bytes_and_crlf_files(name, tmp_path, capsys):
    text = catalog_text(name)
    assert load_descriptor(text.encode()) == load_descriptor(text)
    path = tmp_path / f"{name}.json"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    passed = run(["validate", str(path)], capsys)
    assert passed[0] == 0 and passed == run(["validate", name], capsys)
    assert descriptor_to_json(load_descriptor(path.read_bytes())) == text


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


def _many_sq1_faults(count):
    """Noncompact, n = 1: count degree-1 classes with Sq^1 c_i = 1, so its
    report has count degree-shift FAIL lines."""
    names = [f"c{i}" for i in range(count)]
    return {"name": "many", "complex_dimension": 1, "compact": False,
            "classes": [{"name": "1", "degree": 0}]
                       + [{"name": c, "degree": 1} for c in names],
            "sq": [{"k": 1, "from": c, "to": ["1"]} for c in names]}


@pytest.mark.parametrize("argv, first", [
    # the report of a descriptor that fails to load, and a command's output
    (["validate", "many.json"],
     "[fail] degree-shift: Sq^1 c0 contains 1 of degree 0, expected degree 2\n"),
    (["betti", "tall.json", "--space", "x", "--format", "csv"], "degree,dimension\n"),
])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, argv, first):
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # each output is megabytes, far more than a pipe buffers
    write_descriptor(tmp_path, _many_sq1_faults(30_000), "many.json")
    write_descriptor(tmp_path, descriptor_obj(n=100_000, degrees=[0, 200_000]),
                     "tall.json")
    src = os.path.dirname(os.path.dirname(hilb2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.Popen([sys.executable, "-m", "hilb2.cli", *argv],
                            cwd=tmp_path, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == ""


def test_an_adem_plant_on_a_decomposable_class_still_exits_two(tmp_path, capsys):
    # P^6 without Sq^6 h3 = h6 breaks Adem on the product h3 = h h2, which
    # validate reports through the square rule and Cartan
    p6 = json.loads(_projective(6))
    p6["sq"] = [e for e in p6["sq"] if (e["k"], e["from"]) != (6, "h3")]
    assert run(["validate", write_descriptor(tmp_path, p6)], capsys) == (2, (
        "[fail] square-rule: Sq^6 h3 = 0 but h3 cup h3 = {'h6'}\n"
        "[fail] cartan: Sq^6(h cup h2): table gives 0, Cartan sum gives {'h6'}\n"),
        "")
