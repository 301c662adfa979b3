import json
import os
import subprocess
import sys

import pytest

from braidstat import zoo_path
from braidstat.cli import main, parse_program, parse_vector
from braidstat.fock import AnnihilateFree, AnnihilateTwisted, Create, Exchange


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_program():
    assert parse_program("c1;c2;x1;b2") == [Create(1), Create(2), Exchange(1),
                                            AnnihilateTwisted(2)]
    assert parse_program("a3") == [AnnihilateFree(3)]
    with pytest.raises(ValueError, match="bad program step"):
        parse_program("c1;zz")


def test_parse_vector():
    assert parse_vector("").amplitude(()) == 1
    assert parse_vector("1,2").amplitude((1, 2)) == 1


def test_check_fermion3_passes(capsys):
    code, out, _ = run_cli(capsys, "check", str(zoo_path("fermion3")), "--json")
    assert code == 0
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert all(s == "pass" for s in statuses.values()), statuses
    dims = [row["quotient"] for row in report["results"]["sector_dimensions"]]
    assert dims == [1, 3, 3, 1, 0]


def test_check_anyon_reports_failures(capsys):
    code, out, _ = run_cli(capsys, "check", str(zoo_path("anyon_z4")), "--json")
    assert code == 1
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["bicharacter-normalized"] == "fail"
    assert statuses["yang-baxter"] == "pass"
    assert statuses["gram-psd"] == "skipped"
    assert statuses["symmetry"] == "fail"


def test_check_quon_documented_failures(capsys):
    code, out, _ = run_cli(capsys, "check", str(zoo_path("quon_05")), "--json")
    assert code == 1
    report = json.loads(out)
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["symmetry"] == "fail"
    assert statuses["exchange-nullity"] == "fail"
    for name in ("yang-baxter", "infinite-statistics", "twisted-commutators",
                 "gram-hermitian", "gram-psd"):
        assert statuses[name] == "pass"


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2 and "JSON" in err


def test_check_negative_nmax_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "check", str(zoo_path("boson")), "--nmax", "-1")
    assert code == 2 and "sector must be >= 0" in err


def test_gram_command(capsys):
    code, out, _ = run_cli(capsys, "gram", str(zoo_path("fermion3")), "--sector", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["rank"] == 3
    assert report["results"]["full"] == 9

    code, out, _ = run_cli(capsys, "gram", str(zoo_path("boson")), "--sector", "3", "--json")
    report = json.loads(out)
    assert report["results"]["rank"] == 4 and report["results"]["full"] == 8


def test_gram_json_streams_the_matrix(tmp_path, monkeypatch):
    # the report is written row by row, as json.dumps(report, sort_keys=True,
    # indent=2) would write it.  The Gram is integer (entries up to 8! = 40320)
    # and its rank 9 exact, so every byte is pinned, on a copy of boson.json
    # named boson.json, but the roundoff-level minimum eigenvalue and the
    # gram-psd defect, which are held within 1e-12 * max|G| of their values
    # from the complex128 eigvalsh of an earlier release
    import contextlib
    import hashlib
    import shutil
    import tracemalloc
    shutil.copy(zoo_path("boson"), tmp_path / "boson.json")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "gram.json"
    tracemalloc.start()
    try:
        with out.open("w") as stream, contextlib.redirect_stdout(stream):
            assert main(["gram", "boson.json", "--sector", "8", "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * 256 * 256  # the nested lists of the whole matrix took 27 MB
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    report = json.loads(text)
    psd = report["checks"][1]
    assert report["results"]["rank"] == 9 and psd["name"] == "gram-psd" and psd["status"] == "pass"
    scale = 40320
    for got, want in ((report["results"].pop("min_eigenvalue"), -4.559261309601446e-11),
                      (psd["data"].pop("min_eigenvalue"), -4.559261309601446e-11),
                      (psd.pop("defect"), 4.559261309601446e-11)):
        assert abs(got - want) <= 1e-12 * scale
    stripped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(stripped.encode()).hexdigest() \
        == "5c06bf21688ed06021dbb43c508c63d203d497a6c0eab0c3132682d8e7ba8d76"


def test_gram_text_report_prints_the_matrix_on_one_line(capsys):
    code, out, _ = run_cli(capsys, "gram", str(zoo_path("boson")), "--sector", "2")
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("  matrix: "))
    matrix = [[[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]]
    assert line == "  matrix: " + json.dumps(matrix, sort_keys=True)


def test_gram_resource_guard(capsys):
    code, _, err = run_cli(capsys, "gram", str(zoo_path("boson")), "--sector", "17")
    assert code == 2 and "guard" in err
    # 3^10 words pass the word guard; the dense 59049x59049 Gram (about 56 GB)
    # is refused before anything is built
    code, _, err = run_cli(capsys, "gram", str(zoo_path("fermion3")), "--sector", "10")
    assert code == 2 and "guard" in err and "bytes" in err
    # one generator has one word per sector: the guard counts its length
    code, _, err = run_cli(capsys, "gram", str(zoo_path("fermion1")), "--sector", "100000000")
    assert code == 2 and "word length 100000000 exceeds the guard" in err


def test_check_answers_sectors_whose_large_blocks_are_zero(capsys):
    # fermion2's tower to sector 14 has blocks of up to 3,432 rows, all exactly 0
    # from sector 3 on, so none is allocated
    code, out, err = run_cli(capsys, "check", str(zoo_path("fermion2")), "--nmax", "14", "--json")
    assert (code, err) == (0, "")
    dims = json.loads(out)["results"]["sector_dimensions"]
    assert [d["quotient"] for d in dims] == [1, 2, 1] + [0] * 12


def test_apply_command(capsys):
    code, out, _ = run_cli(capsys, "apply", str(zoo_path("fermion2")),
                           "--program", "c1;c2;x1;b2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["vector"] == [{"word": [1], "amplitude": [1.0, 0.0]}]

    code, out, _ = run_cli(capsys, "apply", str(zoo_path("fermion2")),
                           "--program", "c1;a1", "--json")
    report = json.loads(out)
    assert report["results"]["vector"] == [{"word": [], "amplitude": [1.0, 0.0]}]


def test_apply_errors(capsys):
    code, _, err = run_cli(capsys, "apply", str(zoo_path("fermion2")), "--program", "x1")
    assert code == 2 and "out of range" in err
    code, _, err = run_cli(capsys, "apply", str(zoo_path("fermion2")), "--program", "c1;nope")
    assert code == 2


# int() also reads underscores and every Unicode decimal digit: ARABIC-INDIC TWO read 2
@pytest.mark.parametrize("vector, letter", [("1,,2", ""), ("a", "a"), ("1.5", "1.5"), ("٢, 1", "٢"),
                                            ("1_0", "1_0"), ("１", "１"), ("1,+-2", "+-2")])
def test_apply_names_a_vector_letter_that_is_not_an_integer(capsys, vector, letter):
    code, out, err = run_cli(capsys, "apply", str(zoo_path("boson")), "--program", "c1",
                             "--vector", vector)
    assert (code, out) == (2, "")
    assert err == (f"error: bad vector letter {letter!r}; a vector is comma-separated generator "
                   "indices\n")


@pytest.mark.parametrize("vector, word", [(" 2", [2]), ("1,2", [1, 2]), ("+1 , 2\t", [1, 2])])
def test_a_vector_letter_keeps_its_sign_and_spaces(capsys, vector, word):
    code, out, _ = run_cli(capsys, "apply", str(zoo_path("boson")), "--program", "",
                           "--vector", vector, "--json")
    assert code == 0
    assert json.loads(out)["results"]["vector"] == [{"word": word, "amplitude": [1.0, 0.0]}]


@pytest.mark.parametrize("step", ["c٢", "x１", "b1_0", "a1٢"])
def test_a_program_step_is_ascii_digits(capsys, step):
    with pytest.raises(ValueError, match="bad program step"):
        parse_program(step)
    code, out, err = run_cli(capsys, "apply", str(zoo_path("boson")), "--program", f"c1;{step}")
    assert (code, out) == (2, "")
    assert err == f"error: bad program step {step!r}; expected c<i>, a<i>, b<i>, or x<k>\n"


@pytest.mark.parametrize("program, vector, letter", [("c1", "0,7", 0), ("a1", "2,9", 9),
                                                     ("", "9", 9), ("", "-1", -1)])
def test_apply_rejects_letters_the_model_lacks(capsys, program, vector, letter):
    code, out, err = run_cli(capsys, "apply", str(zoo_path("fermion2")),
                             "--program", program, "--vector", vector)
    assert (code, out) == (2, "")
    assert err == f"error: generator index {letter} out of range 1..2\n"


def test_transmute_command(tmp_path, capsys):
    out_file = tmp_path / "target.json"
    code, out, _ = run_cli(capsys, "transmute", str(zoo_path("z2z2_fermion")),
                           "--hom", str(zoo_path("hom_z2z2_to_z2")),
                           "--target-bichar", str(zoo_path("bichar_z2_half")),
                           "--out", str(out_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["target_grades"] == [[1], [1]]
    assert out_file.exists()
    from braidstat import load_model_file
    target = load_model_file(out_file).model
    assert [g.residues for g in target.grades] == [(1,), (1,)]
    assert target.group.orders == (2,)


def test_transmute_failure_witness(tmp_path, capsys):
    out_file = tmp_path / "never.json"
    code, out, _ = run_cli(capsys, "transmute", str(zoo_path("fermion1")),
                           "--hom", str(zoo_path("hom_z2_to_z4")),
                           "--target-bichar", str(zoo_path("bichar_z4_quarter")),
                           "--out", str(out_file), "--json")
    assert code == 1
    report = json.loads(out)
    transport = next(c for c in report["checks"] if c["name"] == "bicharacter-transport")
    assert transport["status"] == "fail"
    assert transport["witness"]["pair"] == [[1], [1]]
    assert not out_file.exists()


def test_transmute_identity_roundtrip(tmp_path, capsys):
    hom_file = tmp_path / "id_hom.json"
    hom_file.write_text(json.dumps({"target": {"orders": [2]}, "images": [[1]]}))
    bichar_file = tmp_path / "eps.json"
    bichar_file.write_text(json.dumps({"Q": [["1/2"]]}))
    out_file = tmp_path / "same.json"
    code, out, _ = run_cli(capsys, "transmute", str(zoo_path("fermion1")),
                           "--hom", str(hom_file), "--target-bichar", str(bichar_file),
                           "--out", str(out_file), "--json")
    assert code == 0
    from braidstat import load_model_file, load_zoo
    emitted = load_model_file(out_file).model
    original = load_zoo("fermion1")
    assert emitted.grades == original.grades
    assert emitted.eps == original.eps


def test_normalize_command(capsys):
    code, out, _ = run_cli(capsys, "normalize", "--expr", "(A (x) B)^")
    assert code == 0 and out.strip() == "B^ (x) A^"
    code, out, _ = run_cli(capsys, "normalize", "--expr", "I (x) (A (x) I)")
    assert out.strip() == "A"
    code, _, err = run_cli(capsys, "normalize", "--expr", "A (x")
    assert code == 2


@pytest.mark.parametrize("expr, normal_form", [
    (" (x) ".join(["A"] * 1500), " (x) ".join(["A"] * 1500)),
    ("A" + "^" * 5000, "A"),
    ("(" * 3000 + "A (x) B" + ")" * 3000 + "^", "B^ (x) A^"),
], ids=["chain-1500", "duals-5000", "parens-3000"])
def test_normalize_command_takes_deep_expressions(capsys, expr, normal_form):
    code, out, err = run_cli(capsys, "normalize", "--expr", expr)
    assert (code, out.strip(), err) == (0, normal_form, "")


def test_reports_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "check", str(zoo_path("fermion2")), "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "gram", str(zoo_path("quon_05")), "--sector", "3", "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_subprocess_exit_codes():
    base = [sys.executable, "-m", "braidstat"]
    ok = subprocess.run(base + ["check", str(zoo_path("fermion1")), "--json"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    fail = subprocess.run(base + ["check", str(zoo_path("anyon_z4")), "--json"],
                          capture_output=True, text=True)
    assert fail.returncode == 1
    err = subprocess.run(base + ["normalize", "--expr", "A (x"],
                         capture_output=True, text=True)
    assert err.returncode == 2


def _write_zoo_copy(tmp_path, name, edit):
    doc = json.loads(zoo_path(name).read_text())
    edit(doc)
    path = tmp_path / f"{name}_edited.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("section", ["group", "bicharacter", "generators", "braid", "cross"])
def test_check_rejects_section_that_is_not_an_object(tmp_path, capsys, section):
    path = _write_zoo_copy(tmp_path, "fermion1", lambda doc: doc.__setitem__(section, [1]))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "Traceback" not in err
    assert f"{section} must be a JSON object" in err


def test_transmute_rejects_hom_target_that_is_not_an_object(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    hom_file.write_text(json.dumps({"target": [2], "images": [[1]]}))
    code, _, err = run_cli(capsys, "transmute", str(zoo_path("fermion1")),
                           "--hom", str(hom_file),
                           "--target-bichar", str(zoo_path("bichar_z2_half")))
    assert code == 2 and "Traceback" not in err
    assert "target must be a JSON object" in err


@pytest.mark.parametrize("edit, constant", [
    (lambda doc: doc["generators"].__setitem__("pairing", [[float("nan"), 0], [0, 1]]), "NaN"),
    (lambda doc: doc.setdefault("options", {}).__setitem__("tolerance", float("inf")),
     "Infinity"),
], ids=["pairing-NaN", "tolerance-Infinity"])
def test_check_rejects_non_finite_numbers(tmp_path, capsys, edit, constant):
    # accepted, NaN would surface only inside the spectral step and Infinity would pass
    # every check
    path = _write_zoo_copy(tmp_path, "quon_05", edit)
    assert constant in path.read_text()
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "Traceback" not in err
    assert f"non-finite number {constant}" in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc.setdefault("options", {}).__setitem__("n_max", True),
    lambda doc: doc["generators"].__setitem__("pairing", [[True, 0], [0, 1]]),
], ids=["n_max-true", "pairing-true"])
def test_check_rejects_booleans_as_numbers(tmp_path, capsys, edit):
    path = _write_zoo_copy(tmp_path, "fermion2", edit)
    assert "true" in path.read_text()
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2 and "Traceback" not in err


def test_transmute_rejects_booleans_in_hom_images(tmp_path, capsys):
    hom_file = tmp_path / "hom.json"
    hom_file.write_text(json.dumps({"target": {"orders": [2]}, "images": [[True]]}))
    code, _, err = run_cli(capsys, "transmute", str(zoo_path("fermion1")),
                           "--hom", str(hom_file),
                           "--target-bichar", str(zoo_path("bichar_z2_half")),
                           "--out", str(tmp_path / "never.json"))
    assert code == 2 and "integer residue vectors" in err


def _transmute_argv(out_file):
    return ["transmute", str(zoo_path("z2z2_fermion")), "--hom", str(zoo_path("hom_z2z2_to_z2")),
            "--target-bichar", str(zoo_path("bichar_z2_half")), "--out", str(out_file)]


@pytest.mark.parametrize("command, option, value, message", [
    ("check quon_05", "--tol", "inf", "--tol must be a finite number >= 0"),
    ("check fermion1", "--tol", "nan", "--tol must be a finite number >= 0"),
    ("check boson", "--tol", "-1e-3", "--tol must be a finite number >= 0"),
    ("check boson", "--tol", "1e400", "--tol must be a finite number >= 0"),
    ("check boson", "--nmax", "-1", "sector must be >= 0"),
    ("gram boson", "--tol", "nan", "--tol must be a finite number >= 0"),
    ("gram boson", "--tol", "-inf", "--tol must be a finite number >= 0"),
    ("transmute", "--nmax", "-1", "sector must be >= 0"),
    ("transmute", "--tol", "inf", "--tol must be a finite number >= 0"),
    ("transmute", "--tol", "nan", "--tol must be a finite number >= 0"),
])
def test_bad_tol_and_nmax_are_input_errors(tmp_path, capsys, command, option, value, message):
    # the flags follow the rules of the model file's options: a tolerance finite and
    # >= 0, n_max an integer >= 0; accepted, inf passed every check and nan failed
    # exact ones, and transmute wrote a model file that check then rejected
    out_file = tmp_path / "never.json"
    if command == "transmute":
        argv = _transmute_argv(out_file)
    else:
        verb, model = command.split()
        argv = [verb, str(zoo_path(model))] + (["--sector", "2"] if verb == "gram" else [])
    code, out, err = run_cli(capsys, *argv, f"{option}={value}", "--json")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["check", "boson.json", "--nmax", "1.5"],
    ["check", "boson.json", "--tol", "-1e-3"],  # argparse reads -1e-3 as a flag
    [],                                         # no subcommand
])
def test_flags_argparse_rejects_are_one_line_input_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "usage:" not in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_transmute_accepts_the_smallest_valid_flags(tmp_path, capsys):
    out_file = tmp_path / "target.json"
    code, _, _ = run_cli(capsys, *_transmute_argv(out_file), "--tol", "0", "--nmax", "0")
    assert code == 0
    options = json.loads(out_file.read_text())["options"]
    assert (options["tolerance"], options["n_max"]) == (0.0, 0)


def test_a_tolerance_of_0_counts_no_exact_zero(capsys):
    # fermion2 stores no Gram block from sector 3 on; with a cut of 0 the count
    # took the missing blocks' exact zeros for nonzero eigenvalues and printed 8
    code, out, err = run_cli(capsys, "check", str(zoo_path("fermion2")), "--tol", "0", "--json")
    assert (code, err) == (0, "")
    dims = json.loads(out)["results"]["sector_dimensions"]
    assert [(row["full"], row["quotient"]) for row in dims] == [(1, 1), (2, 2), (4, 1), (8, 0), (16, 0)]


def test_main_builds_its_parser_once(capsys):
    import braidstat.cli as cli
    run_cli(capsys, "normalize", "--expr", "A")
    before = cli._parser.cache_info()
    for _ in range(2):
        assert run_cli(capsys, "normalize", "--expr", "A")[0] == 0
    after = cli._parser.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


def _private_fock_imports(module: str) -> set[str]:
    import ast
    from pathlib import Path
    import braidstat
    tree = ast.parse((Path(braidstat.__file__).parent / f"{module}.py").read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.module in ("fock", "braidstat.fock") for alias in node.names
            if alias.name.startswith("_")}


def test_front_ends_reach_the_fock_engine_through_few_private_names():
    # the check pipeline lives in fock: the CLI takes one entry point, and the
    # relation transport of transmute reads the annihilators' norms, not residuals
    assert len(_private_fock_imports("cli")) <= 1
    assert _private_fock_imports("transmute") <= {"_annihilator_norms", "_guard_sectors", "_locate"}


def _set_cross_entry(doc, value):
    doc["cross"] = {"kind": "matrix", "T": [row[:] for row in doc["braid"]["R"]]}
    doc["cross"]["T"][0][0] = value


#: edits of quon_05 that put a value into each kind of numeric field
_NUMERIC_FIELDS = {
    "pairing-number": lambda doc, value: doc["generators"]["pairing"][0].__setitem__(0, value),
    "pairing-pair": lambda doc, value: doc["generators"]["pairing"][0].__setitem__(0, [0, value]),
    "braid.R": lambda doc, value: doc["braid"]["R"][0].__setitem__(0, value),
    "cross.T": _set_cross_entry,
    "tolerance": lambda doc, value: doc.setdefault("options", {}).__setitem__("tolerance", value),
}


def _boundary_case(tmp_path, case):
    """The argv that reads one out-of-range input, and the file that holds it."""
    transmute = ["transmute", str(zoo_path("fermion1")), "--out", str(tmp_path / "never.json")]
    if case == "hom-target-order-0":
        bad = tmp_path / "hom.json"
        bad.write_text(json.dumps({"target": {"orders": [0]}, "images": [[1]]}))
        return transmute + ["--hom", str(bad), "--target-bichar", str(zoo_path("bichar_z2_half"))], bad
    if case == "bicharacter-without-Q":
        bad = tmp_path / "bichar.json"
        bad.write_text(json.dumps({"P": [["1/2"]]}))
        return transmute + ["--hom", str(zoo_path("hom_z2_to_z4")), "--target-bichar", str(bad)], bad
    if case == "group-order-0":
        bad = _write_zoo_copy(tmp_path, "fermion1",
                              lambda doc: doc["group"].__setitem__("orders", [0]))
        return ["check", str(bad)], bad
    field, value = case.split("=")
    # json writes float("inf") as Infinity, so the literal 1e400 goes in as text
    bad = _write_zoo_copy(tmp_path, "quon_05", lambda doc: _NUMERIC_FIELDS[field](
        doc, 10 ** 400 if value == "10**400" else "@1e400@"))
    bad.write_text(bad.read_text().replace('"@1e400@"', "1e400"))
    return ["check", str(bad)], bad


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [f"{field}={value}" for field in _NUMERIC_FIELDS
                                  for value in ("10**400", "1e400")]
                         + ["group-order-0", "hom-target-order-0", "bicharacter-without-Q"])
def test_out_of_range_input_is_one_error_line_naming_its_file(tmp_path, capsys, case):
    # json reads the literal 1e400 as inf, and 10**400 lies past the float range:
    # accepted, they gave OverflowError tracebacks, numpy warnings, or a full report
    # from an infinite exchange matrix
    argv, bad = _boundary_case(tmp_path, case)
    if "=" in case:
        assert ("1e400" if case.endswith("1e400") else "0" * 400) in bad.read_text()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "never.json").exists()


_BIG = [[1e308, 0], [0, 1]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, argv, pairing, message", [
    # b1 on a word of 4 letters: the annihilators of its suffixes overflow
    ("quon_05", ["apply", "--program", "b1", "--vector", "1,1,1,1"], _BIG, "the annihilators of sector 4 "),
    # sector 2's eigenvalue 2e308, by the colour-symmetric closed form; the tower to sector 4
    # read NaN in sector 3's Gram, which is exactly 0
    ("fermion2", ["check"], _BIG, "the eigenvalues of sector 2 "),
    ("fermion2", ["gram", "--sector", "2"], _BIG, "the eigenvalues of sector 2 "),
    # finite complex entries whose modulus lies past the float range
    ("fermion2", ["gram", "--sector", "1"], [[1, [1.5e308, 1.5e308]], [[1.5e308, -1.5e308], 1]],
     "the Gram blocks of sector 1 "),
    # a non-Hermitian block whose asymmetry lies past the float range
    ("fermion2", ["check"], [[1, 1e308], [-1e308, 1]], "the Gram blocks of sector 1 "),
    # finite ladder values whose squares overflow: it printed "defect": NaN, exit 1.
    # The image reading of fermion1 along Z2 -> Z4 has a factor that is not 0, so it reads them
    ("fermion1", ["transmute", "--hom", str(zoo_path("hom_z2_to_z4")), "--target-bichar",
                  str(zoo_path("bichar_z4_quarter")), "--json"], [[1e200]],
     "the annihilator norms of sector 1 "),
    # b-_k b-_l of exchange-nullity overflows where the ladder and the Grams stay
    # finite: its NaN sums were pruned, and it reported 0.0 with a warning, exit 1
    ("z2z2_fermion", ["check", "--nmax", "3", "--json"], [[1, 1e200], [0, 1]],
     "the exchange relations of sector 3 "),
    # check builds each sector's annihilator blocks with its Gram: sector 2's overflows first
    ("quon_05", ["check"], _BIG, "the Gram blocks of sector 2 "),
])
def test_overflow_is_one_error_line_naming_the_sector(tmp_path, capsys, name, argv, pairing, message):
    # finite entries whose products overflow: they gave numpy warnings, then
    # "Eigenvalues did not converge", a wrong rank or an infinite asymmetry
    path = _write_zoo_copy(tmp_path, name, lambda doc: doc["generators"].__setitem__("pairing", pairing))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {message}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pairing, nmax", [
    # the pairing whose annihilator norms overflow: exit 2 while transport read them
    ([[1e200, 0], [0, 1]], []),
    # sector 14's annihilator blocks took 279724968 bytes, over the guard: exit 2
    (None, ["--nmax", "16"]),
])
def test_a_matched_transmutation_reads_no_annihilator_block(tmp_path, capsys, pairing, nmax):
    # z2z2_fermion along Z2xZ2 -> Z2 keeps every cross phase, and its sign is +1:
    # every factor of both readings is exactly 0, so every defect is too
    path = zoo_path("z2z2_fermion") if pairing is None else _write_zoo_copy(
        tmp_path, "z2z2_fermion", lambda doc: doc["generators"].__setitem__("pairing", pairing))
    code, out, err = run_cli(capsys, "transmute", str(path), "--hom", str(zoo_path("hom_z2z2_to_z2")),
                             "--target-bichar", str(zoo_path("bichar_z2_half")),
                             "--out", str(tmp_path / "target.json"), "--json", *nmax)
    assert (code, err) == (0, "")
    transport = next(c for c in json.loads(out)["checks"] if c["name"] == "relation-transport")
    assert (transport["defect"], transport["data"]["image_defect"]) == (0.0, 0.0)


@pytest.mark.parametrize("argv, verdict", [
    (["gram", str(zoo_path("boson")), "--sector", "6", "--json"], 0),
    (["check", str(zoo_path("anyon_z4")), "--nmax", "1200", "--json"], 1),
])
def test_a_closed_pipe_keeps_the_verdict(argv, verdict):
    # the reader takes 10 bytes of a report of more than a pipe's 64 KiB and closes
    proc = subprocess.Popen([sys.executable, "-m", "braidstat", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (len(head), proc.wait(), err) == (10, verdict, b"")


@pytest.mark.parametrize("argv", [[], ["--json"]], ids=["text", "json"])
def test_normalize_into_a_closed_pipe_exits_0(argv):
    # as in `braidstat normalize ... | true`: the reader is gone before the form is written
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "braidstat", "normalize", "--expr", "(A (x) B)^", *argv],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("name, scale, argv", [
    # the pairing [[1, 0.3], [0.3, 1.7]] times the scale: outside the contractive class, whose
    # Grams are Hermitian by the theorem.  A roundoff asymmetry of 6.0e-8, over an absolute cut of 1e-9
    ("quon_09", 7, ["check", "--nmax", "6"]),
    ("quon_09", 7, ["gram", "--sector", "6"]),
    # one of 16384
    ("quon_05", 1e3, ["check", "--nmax", "6"]),
    ("quon_05", 1e3, ["gram", "--sector", "6"]),
])
def test_gram_hermitian_cut_is_relative_to_the_largest_entry(tmp_path, capsys, name, scale, argv):
    path = _write_zoo_copy(tmp_path, name, lambda doc: doc["generators"].__setitem__(
        "pairing", [[scale, 0.3 * scale], [0.3 * scale, 1.7 * scale]]))
    code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:], "--json")
    report = json.loads(out)
    rows = {c["name"]: c for c in report["checks"]}
    # the row keeps the absolute asymmetry as its defect, and passes as the rank does
    assert rows["gram-hermitian"]["status"] == "pass" and rows["gram-hermitian"]["defect"] > 1e-9
    assert rows["gram-psd"]["status"] == "pass"
    if argv[0] == "gram":
        assert (code, report["results"]["rank"]) == (0, 64)
    else:
        assert [row["quotient"] for row in report["results"]["sector_dimensions"]] \
            == [2 ** n for n in range(7)]
