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
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from .groups import BicharacterError, make_bicharacter, make_group
from .models import (DERIVED_CROSS, GRADE_DIAGONAL, BraidMatrix, CrossMatrix, GradeDiagonal,
                     ModelSpecError, ParticleModel, make_model, _action_matrix)


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


def _reject_constant(name: str):
    raise ModelFileError(f"non-finite number {name} is not allowed")


def _read_json(path: Path) -> Any:
    """Parse a JSON file, rejecting ``NaN`` and ``Infinity``."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (json.JSONDecodeError, ModelFileError) as exc:
        raise ModelFileError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def _complex_entry(raw: Any, where: str) -> complex:
    if _is_number(raw):
        return complex(raw)
    if isinstance(raw, list) and len(raw) == 2 and all(_is_number(x) for x in raw):
        return complex(raw[0], raw[1])
    raise ModelFileError(f"{where}: expected a number or an [re, im] pair, got {raw!r}")


def _complex_matrix(raw: Any, where: str) -> np.ndarray:
    _expect(isinstance(raw, list) and all(isinstance(row, list) for row in raw),
            f"{where}: expected a list of rows")
    rows = [[_complex_entry(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)]
            for r, row in enumerate(raw)]
    widths = {len(row) for row in rows}
    _expect(len(widths) <= 1, f"{where}: ragged matrix")
    return np.asarray(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)


def model_from_dict(doc: dict) -> LoadedModel:
    _expect(isinstance(doc, dict), "model file must be a JSON object")
    for key in ("group", "bicharacter", "generators"):
        _expect(key in doc, f"missing top-level key {key!r}")

    orders = _section(doc, "group").get("orders")
    _expect(isinstance(orders, list) and all(_is_number(n, int) for n in orders),
            "group.orders must be a list of integers")
    try:
        group = make_group(orders)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc

    eps = _bicharacter(group, _section(doc, "bicharacter").get("Q"), "bicharacter.Q")

    gens = _section(doc, "generators")
    grades = gens.get("grades")
    _expect(isinstance(grades, list) and grades, "generators.grades must be a non-empty list")
    _expect(all(isinstance(g, list) and all(_is_number(a, int) for a in g) for g in grades),
            "generators.grades entries must be lists of integers")
    pairing = _complex_matrix(gens.get("pairing"), "generators.pairing")

    braid_doc = _section(doc, "braid", {"kind": "grade-diagonal"})
    kind = braid_doc.get("kind")
    if kind == "grade-diagonal":
        braid: GradeDiagonal | BraidMatrix = GRADE_DIAGONAL
    elif kind == "matrix":
        braid = BraidMatrix(_complex_matrix(braid_doc.get("R"), "braid.R"))
    else:
        raise ModelFileError(f"braid.kind must be 'grade-diagonal' or 'matrix', got {kind!r}")

    cross_doc = _section(doc, "cross", {"kind": "derived"})
    ckind = cross_doc.get("kind")
    if ckind == "derived":
        cross: Any = DERIVED_CROSS
    elif ckind == "matrix":
        cross = CrossMatrix(_complex_matrix(cross_doc.get("T"), "cross.T"))
    else:
        raise ModelFileError(f"cross.kind must be 'derived' or 'matrix', got {ckind!r}")

    options = _section(doc, "options", {})
    tolerance = options.get("tolerance", 1e-9)
    n_max = options.get("n_max", 4)
    sign_text = options.get("expansion_sign", "+")
    _expect(_is_number(tolerance) and math.isfinite(tolerance) and tolerance >= 0,
            "options.tolerance must be a finite number >= 0")
    _expect(_is_number(n_max, int) and n_max >= 0, "options.n_max must be a non-negative integer")
    _expect(sign_text in ("+", "-"), "options.expansion_sign must be '+' or '-'")

    try:
        model = make_model(group, eps, grades, pairing, braid, cross,
                           expansion_sign=1 if sign_text == "+" else -1)
    except (ModelSpecError, ValueError) as exc:
        raise ModelFileError(str(exc)) from exc
    return LoadedModel(model, float(tolerance), n_max)


def _bicharacter(group, q_rows: Any, where: str):
    _expect(isinstance(q_rows, list) and all(isinstance(row, list) for row in q_rows),
            f"{where} must be a list of rows")
    try:
        return make_bicharacter(group, [[_exact(v) for v in row] for row in q_rows])
    except (BicharacterError, ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def _exact(value: Any) -> Fraction:
    if isinstance(value, str) or _is_number(value, int):
        return Fraction(value)
    raise ModelFileError(f"bicharacter entries must be exact rationals, got {value!r}")


def load_model_file(path: str | Path) -> LoadedModel:
    path = Path(path)
    doc = _read_json(path)
    try:
        return model_from_dict(doc)
    except ModelFileError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def model_to_dict(model: ParticleModel, tolerance: float = 1e-9, n_max: int = 4) -> dict:
    """Serialize a model back to the file schema (exact phases as strings)."""
    doc: dict[str, Any] = {
        "group": {"orders": list(model.group.orders)},
        "bicharacter": {"Q": [[str(v) for v in row] for row in model.eps.exponents]},
        "generators": {
            "grades": [list(g.residues) for g in model.grades],
            "pairing": [[[v.real, v.imag] for v in row] for row in model.pairing.tolist()],
        },
    }
    if model.is_grade_diagonal:
        doc["braid"] = {"kind": "grade-diagonal"}
    else:
        action = _action_matrix(model.braid_coupling)
        doc["braid"] = {"kind": "matrix", "R": [[[v.real, v.imag] for v in row]
                                                for row in action.tolist()]}
    if isinstance(model.cross, CrossMatrix):
        action = _action_matrix(model.cross.coupling)
        doc["cross"] = {"kind": "matrix", "T": [[[v.real, v.imag] for v in row]
                                                for row in action.tolist()]}
    else:
        doc["cross"] = {"kind": "derived"}
    doc["options"] = {"tolerance": tolerance, "n_max": n_max,
                      "expansion_sign": "+" if model.expansion_sign == 1 else "-"}
    return doc


def load_hom_file(path: str | Path, source_group) -> "tuple":
    """Read a homomorphism file: ``{"target": {"orders": [...]}, "images": [[...], ...]}``."""
    from .groups import make_hom

    path = Path(path)
    doc = _read_json(path)
    _expect(isinstance(doc, dict) and "target" in doc and "images" in doc,
            f"{path}: hom file needs 'target' and 'images'")
    _expect(isinstance(doc["target"], dict), f"{path}: target must be a JSON object")
    orders = doc["target"].get("orders")
    _expect(isinstance(orders, list) and all(_is_number(n, int) for n in orders),
            f"{path}: target.orders must be a list of integers")
    target = make_group(orders)
    images = doc["images"]
    _expect(isinstance(images, list)
            and all(isinstance(im, list) and all(_is_number(a, int) for a in im) for im in images),
            f"{path}: images must be a list of integer residue vectors")
    try:
        hom = make_hom(source_group, target, images)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    return hom, target


def load_bicharacter_file(path: str | Path, group):
    """Read a bicharacter file: ``{"Q": [["p/q", ...], ...]}``."""
    path = Path(path)
    doc = _read_json(path)
    _expect(isinstance(doc, dict) and "Q" in doc, f"{path}: bicharacter file needs 'Q'")
    return _bicharacter(group, doc["Q"], f"{path}: Q")
