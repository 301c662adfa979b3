"""JSON model files.

Schema::

    {
      "group":        {"orders": [2, 4, ...]},
      "bicharacter":  {"Q": [["1/2", "0"], ...]},        # exact "p/q" strings or ints
      "generators":   {"grades":  [[1, 0], ...],         # one residue vector per generator
                       "pairing": [[1, 0], ...]},        # N x N; entry = number or [re, im]
      "braid":        {"kind": "grade-diagonal"}
                      | {"kind": "matrix", "R": [[...]]},# N^2 x N^2 action matrix,
                                                         # column (i-1)*N+(j-1) = image of (i,j)
      "cross":        {"kind": "derived"}                # optional (default)
                      | {"kind": "matrix", "T": [[...]]},
      "options":      {"tolerance": 1e-9, "n_max": 4,    # optional
                       "expansion_sign": "+"}
    }
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .groups import make_bicharacter, make_group, make_hom
from .models import (DERIVED_CROSS, GRADE_DIAGONAL, BraidMatrix, CrossMatrix, ParticleModel,
                     make_model, _action_matrix)
from .report import jsonable


class ModelFileError(ValueError):
    """Model file violates the schema or its data fails validation."""


@dataclass(frozen=True)
class LoadedModel:
    model: ParticleModel
    tolerance: float
    n_max: int


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFileError(message)


def _section(doc: dict, key: str, default: dict | None = None) -> dict:
    value = doc.get(key, default)
    _expect(isinstance(value, dict), f"{key} must be a JSON object")
    return value


def _is_number(value: Any, kinds: type | tuple = (int, float)) -> bool:
    """Whether a JSON value is a number of the given kinds; ``true`` and
    ``false`` are not numbers, though ``bool`` is a subclass of ``int``."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    """Whether a JSON value is a number that is a finite float: ``json`` reads
    the literal ``1e400`` as ``inf``, and an integer may lie past the float range."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_integers(value: Any, rows: bool = False) -> bool:
    """Whether a JSON value is a list of integers, or with ``rows`` a list of such lists."""
    return isinstance(value, list) and all(_is_integers(v) if rows else _is_number(v, int)
                                           for v in value)


def _tolerance(value: Any, where: str) -> float:
    """The tolerance rule, for ``options.tolerance`` and the ``--tol`` flag."""
    _expect(_is_real(value) and value >= 0,
            f"{where} must be a finite number >= 0, got {reprlib.repr(value)}")
    return float(value)


def _reject_constant(name: str):
    raise ModelFileError(f"non-finite number {name} is not allowed")


def _load(path: str | Path, read: Callable[[Any], Any]) -> Any:
    """``read`` applied to the JSON file at ``path``, rejecting ``NaN``,
    ``Infinity`` and nesting too deep for the parser; every error names the file."""
    path = Path(path)
    try:
        try:
            doc = json.loads(path.read_text(), parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            raise ModelFileError(f"not valid JSON: {exc}") from exc
        return read(doc)
    except (ModelFileError, OSError) as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def _built(build: Callable[[], Any], where: str = "") -> Any:
    """``build()``; an error in the data it builds from is a file error."""
    try:
        return build()
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"{where}{exc}") from exc


def _group(doc: dict, key: str):
    """The group of section ``key``, from its cyclic ``orders``."""
    orders = _section(doc, key).get("orders")
    _expect(_is_integers(orders), f"{key}.orders must be a list of integers")
    return _built(lambda: make_group(orders))


def _complex_entry(raw: Any, where: str) -> complex:
    pair = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0]
    _expect(all(_is_real(x) for x in pair),
            f"{where}: expected a finite number or an [re, im] pair, got {reprlib.repr(raw)}")
    return complex(*pair)


def _complex_matrix(raw: Any, where: str) -> np.ndarray:
    _expect(isinstance(raw, list) and all(isinstance(row, list) for row in raw),
            f"{where}: expected a list of rows")
    rows = [[_complex_entry(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)]
            for r, row in enumerate(raw)]
    widths = {len(row) for row in rows}
    _expect(len(widths) <= 1, f"{where}: ragged matrix")
    return np.asarray(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)


def _exchange(doc: dict, key: str, default: str, implied: Any, field: str, matrix: type):
    """Section ``key``: kind ``default`` is ``implied``, kind ``matrix`` holds the
    action matrix ``field``."""
    section = _section(doc, key, {"kind": default})
    kind = section.get("kind")
    if kind == default:
        return implied
    _expect(kind == "matrix", f"{key}.kind must be {default!r} or 'matrix', got {kind!r}")
    return matrix(_complex_matrix(section.get(field), f"{key}.{field}"))


def model_from_dict(doc: dict) -> LoadedModel:
    _expect(isinstance(doc, dict), "model file must be a JSON object")
    for key in ("group", "bicharacter", "generators"):
        _expect(key in doc, f"missing top-level key {key!r}")

    group = _group(doc, "group")
    eps = _bicharacter(group, _section(doc, "bicharacter").get("Q"), "bicharacter.Q")

    gens = _section(doc, "generators")
    grades = gens.get("grades")
    _expect(isinstance(grades, list) and grades, "generators.grades must be a non-empty list")
    _expect(_is_integers(grades, rows=True), "generators.grades entries must be lists of integers")
    pairing = _complex_matrix(gens.get("pairing"), "generators.pairing")
    braid = _exchange(doc, "braid", "grade-diagonal", GRADE_DIAGONAL, "R", BraidMatrix)
    cross = _exchange(doc, "cross", "derived", DERIVED_CROSS, "T", CrossMatrix)

    options = _section(doc, "options", {})
    tolerance = _tolerance(options.get("tolerance", 1e-9), "options.tolerance")
    n_max = options.get("n_max", 4)
    sign_text = options.get("expansion_sign", "+")
    _expect(_is_number(n_max, int) and n_max >= 0, "options.n_max must be a non-negative integer")
    _expect(sign_text in ("+", "-"), "options.expansion_sign must be '+' or '-'")

    model = _built(lambda: make_model(group, eps, grades, pairing, braid, cross,
                                      expansion_sign=1 if sign_text == "+" else -1))
    return LoadedModel(model, tolerance, n_max)


def _bicharacter(group, q_rows: Any, where: str):
    _expect(isinstance(q_rows, list) and all(isinstance(row, list) for row in q_rows),
            f"{where} must be a list of rows")
    return _built(lambda: make_bicharacter(group, [[_exact(v) for v in row] for row in q_rows]),
                  f"{where}: ")


def _exact(value: Any) -> Fraction:
    if isinstance(value, str) or _is_number(value, int):
        return Fraction(value)
    raise ModelFileError(f"bicharacter entries must be exact rationals, got {value!r}")


def load_model_file(path: str | Path) -> LoadedModel:
    return _load(path, model_from_dict)


def model_to_dict(model: ParticleModel, tolerance: float = 1e-9, n_max: int = 4) -> dict:
    """Serialize a model back to the file schema (exact phases as strings)."""
    return {
        "group": {"orders": list(model.group.orders)},
        "bicharacter": {"Q": [[str(v) for v in row] for row in model.eps.exponents]},
        "generators": {
            "grades": [list(g.residues) for g in model.grades],
            "pairing": jsonable(model.pairing),
        },
        "braid": ({"kind": "grade-diagonal"} if model.is_grade_diagonal
                  else {"kind": "matrix", "R": jsonable(_action_matrix(model.braid_coupling))}),
        "cross": ({"kind": "matrix", "T": jsonable(_action_matrix(model.cross.coupling))}
                  if isinstance(model.cross, CrossMatrix) else {"kind": "derived"}),
        "options": {"tolerance": tolerance, "n_max": n_max,
                    "expansion_sign": "+" if model.expansion_sign == 1 else "-"},
    }


def load_hom_file(path: str | Path, source_group) -> "tuple":
    """Read a homomorphism file: ``{"target": {"orders": [...]}, "images": [[...], ...]}``."""

    def read(doc: Any) -> tuple:
        _expect(isinstance(doc, dict) and "target" in doc and "images" in doc,
                "hom file needs 'target' and 'images'")
        target = _group(doc, "target")
        images = doc["images"]
        _expect(_is_integers(images, rows=True), "images must be a list of integer residue vectors")
        return _built(lambda: make_hom(source_group, target, images)), target

    return _load(path, read)


def load_bicharacter_file(path: str | Path, group):
    """Read a bicharacter file: ``{"Q": [["p/q", ...], ...]}``."""

    def read(doc: Any):
        _expect(isinstance(doc, dict) and "Q" in doc, "bicharacter file needs 'Q'")
        return _bicharacter(group, doc["Q"], "Q")

    return _load(path, read)
