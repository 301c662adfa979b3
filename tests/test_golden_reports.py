"""``check --json`` on every zoo model, and ``transmute --json`` on both
bundled transmutations, against stored reports.

``golden/check_reports.json`` holds, per zoo model, the report of
``braidstat check <zoo file> --json`` at the file's own ``n_max``, as
produced before the hop layer moved to the exchange term tables and
``check`` to a single Gram pass.  The ``input`` field is left out because it
holds the path of the checkout.

``golden/transmute_reports.json`` holds, per bundled transmutation and per
``--nmax`` of 3 and 5, the exit code, the report of ``braidstat transmute
--json`` without ``input`` and ``output_file``, and the model file it wrote
(``null`` when a check failed and nothing was written), as produced before
the Fock checks moved to one hop memo per call.

``golden/check_reports_nmax5.json`` holds the same reports at the depth of
the check-zoo benchmark, ``--nmax 5`` (fermion3 at 4), where quon_09's
exchange-nullity has two candidates tied in exact arithmetic.  It was produced
before the Fock checks moved to the ladder engine.

Statuses, witnesses, sector dimensions and every other non-float field must
match exactly; floats (defects, minimum eigenvalues, tolerances) within 1e-12.

In both files the ``gram-psd`` rows of boson and fermion3 were rewritten once,
when ``check`` came to read the colour-symmetric class's Grams in closed form:
the row reports the first sector with the largest defect, and on the computed
spectrum roundoff chose it (boson sector 4 at -4.17e-15 and -1.15e-15, fermion3
sector 3 at -2.49e-16 and -2.87e-16).  Every sector's exact defect is 0, so the
rule now gives sector 0, whose least eigenvalue is 1.0.  No other row moved.

``golden/check_reports_minus.json`` holds, per model and depth, the exit code
and the report of ``braidstat check --json`` on fermion2 and quon_05 with the
option ``"expansion_sign": "-"``, at the file's own ``n_max`` (4) and at
``--nmax 5``: the one expansion whose twisted commutation residual is not
exactly 0.  It was produced before that residual was read off the ladder
recursion in place of a replay of the cross terms.  Floats are compared
within 1e-12, everything else exactly.

``golden/apply_reports.json`` holds ``braidstat apply --json``, without
``input``, for two words longer than a whole-sector computation admits: ``b1;b2``
on a fermion3 word of 11 letters and ``b1`` on a quon_05 word of 18 letters,
produced with the parent of the ladder engine.  They must match exactly.

``golden/gram_reports.json`` holds, per zoo model and sector ``n`` of 0 to 4
(fermion3 to 3), keyed ``<model>@<n>``, the exit code and the report of
``braidstat gram <zoo file> --sector n --json`` without ``input``: the dense
matrix as ``[real, imag]`` pairs, produced while every Gram was handed out
complex.  It is stored one entry a line.  Floats are compared within 1e-12,
everything else exactly.
"""

import json
from pathlib import Path

import pytest

from braidstat import ZOO_NAMES, zoo_path
from braidstat.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "check_reports.json").read_text())
GOLDEN_TRANSMUTE = json.loads((GOLDEN_DIR / "transmute_reports.json").read_text())
GOLDEN_DEEP = json.loads((GOLDEN_DIR / "check_reports_nmax5.json").read_text())
GOLDEN_APPLY = json.loads((GOLDEN_DIR / "apply_reports.json").read_text())
GOLDEN_MINUS = json.loads((GOLDEN_DIR / "check_reports_minus.json").read_text())
GOLDEN_GRAM = json.loads((GOLDEN_DIR / "gram_reports.json").read_text())
TRANSMUTATIONS = (("z2z2_fermion", "hom_z2z2_to_z2", "bichar_z2_half"),
                  ("fermion1", "hom_z2_to_z4", "bichar_z4_quarter"))


def assert_matches(got, want, where="report"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and abs(got - want) <= 1e-12, (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (where, got, want)
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for index, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{index}]")
    else:
        assert got == want, (where, got, want)


def test_golden_covers_the_zoo():
    assert sorted(GOLDEN) == sorted(ZOO_NAMES)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_check_report_matches_golden(name, capsys):
    cli_main(["check", str(zoo_path(name)), "--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    assert_matches(report, GOLDEN[name])


def test_golden_covers_the_transmutations():
    assert sorted(GOLDEN_TRANSMUTE) == sorted(f"{source}->{hom}@{n_max}"
                                              for source, hom, _ in TRANSMUTATIONS
                                              for n_max in (3, 5))


@pytest.mark.parametrize("n_max", [3, 5])
@pytest.mark.parametrize("source,hom,bichar", TRANSMUTATIONS)
def test_transmute_report_matches_golden(source, hom, bichar, n_max, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = cli_main(["transmute", str(zoo_path(source)), "--hom", str(zoo_path(hom)),
                     "--target-bichar", str(zoo_path(bichar)), "--nmax", str(n_max),
                     "--out", str(out), "--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    report["results"].pop("output_file")
    written = json.loads(out.read_text()) if out.exists() else None
    assert_matches({"exit": code, "report": report, "written": written},
                   GOLDEN_TRANSMUTE[f"{source}->{hom}@{n_max}"])


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_deep_check_report_matches_golden(name, capsys):
    n_max = "4" if name == "fermion3" else "5"
    cli_main(["check", str(zoo_path(name)), "--json", "--nmax", n_max])
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    assert_matches(report, GOLDEN_DEEP[name])
    # both relations close exactly once residuals below PRUNE_EPS are dropped
    exact = [row for row in report["checks"]
             if row["name"] in ("infinite-statistics", "twisted-commutators")]
    assert len(exact) == 2 and all(row["defect"] == 0.0 for row in exact), exact


@pytest.mark.parametrize("key", sorted(GOLDEN_APPLY))
def test_apply_report_matches_golden(key, capsys):
    name, program, vector = key.split(":")
    code = cli_main(["apply", str(zoo_path(name)), "--program", program, "--vector", vector,
                     "--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    assert {"exit": code, "report": report} == GOLDEN_APPLY[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_MINUS))
def test_minus_expansion_check_report_matches_golden(key, tmp_path, capsys):
    name, _, n_max = key.partition("@")
    doc = json.loads(zoo_path(name).read_text())
    doc["options"] = {"expansion_sign": "-"}
    path = tmp_path / f"{name}_minus.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["check", str(path), "--json"] + (["--nmax", n_max] if n_max else []))
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    assert_matches({"exit": code, "report": report}, GOLDEN_MINUS[key])
    twisted = next(row for row in report["checks"] if row["name"] == "twisted-commutators")
    assert twisted["status"] == "fail" and twisted["defect"] > 0.5


def test_gram_golden_covers_the_zoo():
    assert sorted(GOLDEN_GRAM) == sorted(f"{name}@{n}" for name in ZOO_NAMES
                                         for n in range(4 if name == "fermion3" else 5))


@pytest.mark.parametrize("key", sorted(GOLDEN_GRAM))
def test_gram_report_matches_golden(key, capsys):
    name, _, n = key.partition("@")
    code = cli_main(["gram", str(zoo_path(name)), "--sector", n, "--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("input")
    assert_matches({"exit": code, "report": report}, GOLDEN_GRAM[key])
