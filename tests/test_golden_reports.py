"""``check --json`` on every zoo model against stored reports.

``golden/check_reports.json`` holds, per zoo model, the report of
``braidstat check <zoo file> --json`` at the file's own ``n_max``, as
produced before the hop layer moved to the exchange term tables and
``check`` to a single Gram pass.  The ``input`` field is left out because it
holds the path of the checkout.  Statuses, witnesses, sector dimensions and
every other non-float field must match exactly; floats (defects, minimum
eigenvalues, tolerances) within 1e-12.
"""

import json
from pathlib import Path

import pytest

from braidstat import ZOO_NAMES, zoo_path
from braidstat.cli import main as cli_main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_reports.json").read_text())


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
