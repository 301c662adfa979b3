"""The CLI contract on mutated zoo files, held by a seeded fuzzer.

Each case copies a bundled model file and applies one to three random
mutations: drop a key, change a type, inject ``NaN`` or an infinity, make a
group order huge, zero or negative, give a matrix or list the wrong shape, or
make a letter non-integer.  It then runs ``check``, ``gram``, ``apply`` or
``transmute`` (with a bundled hom and bicharacter file) in-process, with
``--nmax`` and ``--sector`` at most 4.  A second stream of each seed widens
some cases: ``transmute`` gets a mutated copy of its hom or bicharacter file,
and ``check``, ``gram`` and ``transmute`` a ``--tol`` that is not a number, not
finite, negative, 0, huge or subnormal.  Whatever the input, ``main`` raises
nothing and returns 0, 1 or 2; exit 2 prints exactly one ``error:`` line, and
exit 1 comes with a FAIL row.  The seeds are fixed, so a failure reproduces.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from braidstat import ZOO_NAMES, zoo_path
from braidstat.cli import main

SEEDS = range(7)
CASES_PER_SEED = 300
TRANSMUTATIONS = (("hom_z2z2_to_z2", "bichar_z2_half"), ("hom_z2_to_z4", "bichar_z4_quarter"))
ODD_VALUES = (None, True, "x", "1/0", "1/3", 0.5, -1, 0, 10 ** 40, -(10 ** 40), 1e300, [], {}, [[1]],
              [1, 2], float("nan"), float("inf"), float("-inf"))
ODD_LETTERS = ("0", "-1", "1.5", "a", "", " 2", "99", "1e0", "10000000000000000000000")
TOLERANCES = ("nan", "inf", "-1", "0", "1e300", "5e-324", "x")


def _nodes(node, path=()):
    """Every ``(path, value)`` of a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, value):
    """``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutate(rng: random.Random, doc):
    """``doc`` with one random mutation, which may edit it in place."""
    nodes = list(_nodes(doc))
    kind = rng.choice(["drop", "type", "non-finite", "order", "shape", "letter"] + ["value"] * 6 + ["options"] * 3)
    if kind == "value":  # a well-formed file with other physics reaches the Fock layer
        leaves = [(path, node) for path, node in nodes
                  if isinstance(node, (int, float, str)) and not isinstance(node, bool) and path[-2:-1] != ("braid",)]
        if leaves:
            path, node = rng.choice(leaves)
            if isinstance(node, str) or path[:1] == ("bicharacter",):
                value = f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}"
            elif "grades" in path or "orders" in path:
                value = rng.randint(0, 3)
            else:
                value = rng.choice([rng.uniform(-2, 2), rng.randint(-2, 2), 0.0, 1e200, 1e-200])
            return _replace(doc, path, value)
    elif kind == "drop":
        dicts = [node for _, node in nodes if isinstance(node, dict) and node]
        if dicts:
            node = rng.choice(dicts)
            del node[rng.choice(sorted(node))]
            return doc
    elif kind == "non-finite":
        numbers = [path for path, node in nodes if isinstance(node, (int, float)) and not isinstance(node, bool)]
        if numbers:
            return _replace(doc, rng.choice(numbers), rng.choice([float("nan"), float("inf"), -float("inf")]))
    elif kind == "order":
        orders = [node for path, node in nodes if path[-1:] == ("orders",) and isinstance(node, list)]
        if orders:
            node, value = rng.choice(orders), rng.choice([0, 1, -2, 10 ** 6, 10 ** 40, 2 ** 63])
            if node and rng.random() < 0.7:
                node[rng.randrange(len(node))] = value
            else:
                node.append(value)
            return doc
    elif kind == "shape":
        lists = [node for _, node in nodes if isinstance(node, list)]
        if lists:
            node = rng.choice(lists)
            if node and rng.random() < 0.5:
                del node[rng.randrange(len(node))]
            else:
                node.append(copy.deepcopy(node[0]) if node else 1)
            return doc
    elif kind == "letter":
        grades = [path for path, _ in nodes if path[:2] == ("generators", "grades") and len(path) > 2]
        if grades:
            return _replace(doc, rng.choice(grades), rng.choice([0.5, "1", 1.5, -1, [0.5], True]))
    elif kind == "options":
        if isinstance(doc, dict):
            doc["options"] = {"n_max": rng.choice([0, 2, 4, 4, 4, 4, -1, 1.5, "3"]),
                              "tolerance": rng.choice([1e-9] * 4 + [0, 1e-3, -1e-9, 1e300, "1e-9"]),
                              "expansion_sign": rng.choice(["+", "-"] * 3 + [1, "x"])}
            return doc
    path, _ = rng.choice(nodes)  # a type change, and the fallback of every kind above
    return _replace(doc, path, copy.deepcopy(rng.choice(ODD_VALUES)))


def _argv(rng: random.Random, model: str, out: str) -> list[str]:
    command = rng.choice(["check", "gram", "apply", "transmute"])
    if command == "check":
        return ["check", model, "--json", "--nmax", str(rng.randint(-1, 4))]
    if command == "gram":
        return ["gram", model, "--json", "--sector", str(rng.randint(-1, 4))]
    if command == "apply":
        steps = [rng.choice("cabx") + str(rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
        letters = [rng.choice(["1", "2", "3"] + [rng.choice(ODD_LETTERS)]) for _ in range(rng.randint(0, 4))]
        return ["apply", model, "--json", "--program", ";".join(steps), "--vector", ",".join(letters)]
    hom, bichar = rng.choice(TRANSMUTATIONS)
    return ["transmute", model, "--hom", str(zoo_path(hom)), "--target-bichar", str(zoo_path(bichar)),
            "--nmax", str(rng.randint(-1, 4)), "--out", out, "--json"]


def _write(rng: random.Random, path: Path, doc) -> None:
    """``doc`` as JSON at ``path``, cut short at a random place one time in twenty."""
    text = json.dumps(doc)
    path.write_text(text[:rng.randrange(len(text))] if rng.random() < 0.05 else text)


def _widen(rng: random.Random, argv: list[str], docs: dict, tmp_path: Path) -> list[str]:
    """``argv`` with, at random, a mutated copy of its hom or bicharacter file and a ``--tol``."""
    argv = list(argv)
    if argv[0] == "transmute" and rng.random() < 0.5:
        at = argv.index(rng.choice(["--hom", "--target-bichar"])) + 1
        doc = copy.deepcopy(docs[Path(argv[at]).stem])
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc)
        _write(rng, tmp_path / "companion.json", doc)
        argv[at] = str(tmp_path / "companion.json")
    if argv[0] != "apply" and rng.random() < 0.3:
        argv.append(f"--tol={rng.choice(TOLERANCES)}")
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_contract_holds_on_mutated_model_files(seed, tmp_path):
    rng, wider = random.Random(seed), random.Random(f"wider {seed}")
    docs = {name: json.loads(zoo_path(name).read_text())
            for name in ZOO_NAMES + tuple(name for pair in TRANSMUTATIONS for name in pair)}
    model, out = tmp_path / "model.json", str(tmp_path / "out.json")
    for case in range(CASES_PER_SEED):
        doc = copy.deepcopy(docs[rng.choice(ZOO_NAMES)])
        for _ in range(rng.randint(1, 3)):
            doc = _mutate(rng, doc)
        _write(rng, model, doc)
        argv = _widen(wider, _argv(rng, str(model), out), docs, tmp_path)
        where = f"seed {seed}, case {case}: {argv[0]} {argv[3:]} on {model.read_text()[:400]}"
        try:
            code, stdout, stderr = _run(argv)
        except Exception as exc:  # any escape breaks the contract
            raise AssertionError(f"{where}: {exc!r} escaped main") from exc
        assert code in (0, 1, 2), where
        if code == 2:
            assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), (where, stderr)
        else:
            assert stderr == "", (where, stderr)
            statuses = [check["status"] for check in json.loads(stdout)["checks"]]
            assert (code == 1) == ("fail" in statuses), (where, statuses)
