"""Answers the benchmark computes itself, from the model files alone.

Nothing here imports braidstat: every expected value is derived from the raw
JSON of a model file or from the benchmark's own expression trees, so a fault
in the package cannot hide by agreeing with itself.

* Sector dimensions with identity pairing (the rank of the sector Gram):
  fermions (every cross phase -1) give ``C(N, n)``, bosons (every cross phase
  +1) ``C(N+n-1, n)``, and a q-swap model with ``|q| < 1`` keeps full rank
  ``N^n`` because its Gram is positive definite (Bozejko-Speicher,
  Math. Ann. 300, 1994).  A one-generator model with cross phase ``chi`` has
  the 1x1 Gram ``[n]_chi!``: a non-real value means the sector is skipped
  (the Gram is not Hermitian), zero means dimension 0.
* The all-equal word of a q-swap model has Gram entry ``[n]_q!``.
* A monoidal expression's normal form: tensor flattens, the dual reverses the
  order and flips every leaf, the unit disappears.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _number(raw) -> complex:
    return complex(raw[0], raw[1]) if isinstance(raw, list) else complex(raw)


def _bilinear(q_rows, a, b) -> Fraction:
    """Exponent of ``eps(a, b)`` mod 1."""
    t = Fraction(0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            t += ai * Fraction(q_rows[i][j]) * bj
    return t % 1


def model_family(doc: dict) -> dict:
    """Classify a model file as ``fermion``, ``boson``, ``quon`` or ``qfactorial``."""
    gens = doc["generators"]
    n_gen = len(gens["grades"])
    pairing = [[_number(v) for v in row] for row in gens["pairing"]]
    if any(pairing[i][j] != (1 if i == j else 0) for i in range(n_gen) for j in range(n_gen)):
        raise ValueError("closed forms assume the identity pairing")
    braid = doc.get("braid", {"kind": "grade-diagonal"})
    if braid["kind"] == "matrix":
        action = [[_number(v) for v in row] for row in braid["R"]]
        q = action[0][0]  # image of the pair (1, 1)
        for i in range(n_gen):
            for j in range(n_gen):
                for k in range(n_gen):
                    for l in range(n_gen):
                        want = q if (k, l) == (j, i) else 0
                        if action[k * n_gen + l][i * n_gen + j] != want:
                            raise ValueError("matrix braid is not q times the swap")
        if q.imag != 0 or not abs(q.real) < 1:
            raise ValueError("closed form needs a real q with |q| < 1")
        return {"kind": "quon", "n": n_gen, "q": q.real}
    q_rows = doc["bicharacter"]["Q"]
    grades = gens["grades"]
    # cross phase of dual letter i* moving past letter j: eps(grade_j, -grade_i)
    cross = {_bilinear(q_rows, gj, [-a for a in gi]) for gi in grades for gj in grades}
    if cross == {Fraction(0)}:
        return {"kind": "boson", "n": n_gen}
    if cross == {Fraction(1, 2)}:
        return {"kind": "fermion", "n": n_gen}
    if n_gen == 1:
        return {"kind": "qfactorial", "n": 1, "chi": cross.pop()}
    raise ValueError("no closed form for this model")


_QUARTER_TURNS = {Fraction(0): 1, Fraction(1, 4): 1j, Fraction(1, 2): -1, Fraction(3, 4): -1j}


def gaussian_q_factorial(chi: Fraction, n: int) -> complex:
    """``[n]_chi!`` for a quarter-turn phase, exact in Gaussian integers."""
    root = _QUARTER_TURNS[chi % 1]
    value = 1 + 0j
    for k in range(1, n + 1):
        value *= sum(root ** m for m in range(k))
    return value


def real_q_factorial(q: float, n: int) -> float:
    value = 1.0
    for k in range(1, n + 1):
        value *= sum(q ** m for m in range(k))
    return value


def sector_dimension(family: dict, n: int) -> int | None:
    """Closed-form rank of the sector-``n`` Gram; ``None`` means skipped."""
    n_gen = family["n"]
    kind = family["kind"]
    if kind == "fermion":
        return math.comb(n_gen, n)
    if kind == "boson":
        return math.comb(n_gen + n - 1, n)
    if kind == "quon":
        return n_gen ** n
    value = gaussian_q_factorial(family["chi"], n)
    if value.imag != 0:
        return None
    return 0 if value == 0 else 1


def exact_phase(q_rows, a, b) -> str:
    """``eps(a, b)`` exponent mod 1, printed as braidstat prints a Fraction."""
    return str(_bilinear(q_rows, a, b))


def push_grade(grade, images, target_orders) -> list[int]:
    """Image of a residue vector under the homomorphism with these generator images."""
    out = [0] * len(target_orders)
    for coeff, image in zip(grade, images):
        for t, v in enumerate(image):
            out[t] += coeff * v
    return [v % n for v, n in zip(out, target_orders)]


# ---------------------------------------------------------------------------
# Monoidal expressions: the benchmark's own trees and normal form
#
# A tree is ("atom", name) | ("unit",) | ("tensor", left, right) | ("dual", inner).

ATOM_NAMES = ("A", "B", "C", "Dx", "e2", "F_1", "g", "Hy")


def random_tree(rng: random.Random, size: int):
    """A tree of exactly ``size`` nodes."""
    if size <= 1:
        return ("unit",) if rng.random() < 0.1 else ("atom", rng.choice(ATOM_NAMES))
    if size == 2 or rng.random() < 0.3:
        return ("dual", random_tree(rng, size - 1))
    left = rng.randint(1, size - 2)
    return ("tensor", random_tree(rng, left), random_tree(rng, size - 1 - left))


def render_tree(tree) -> str:
    """Surface syntax with every tensor and dual fully parenthesized."""
    kind = tree[0]
    if kind == "atom":
        return tree[1]
    if kind == "unit":
        return "I"
    if kind == "dual":
        return f"({render_tree(tree[1])})^"
    return f"({render_tree(tree[1])} (x) {render_tree(tree[2])})"


def tree_normal_form(tree, dual: bool = False) -> list[tuple[str, bool]]:
    kind = tree[0]
    if kind == "atom":
        return [(tree[1], dual)]
    if kind == "unit":
        return []
    if kind == "dual":
        return tree_normal_form(tree[1], not dual)
    left = tree_normal_form(tree[1], dual)
    right = tree_normal_form(tree[2], dual)
    return right + left if dual else left + right


def render_normal_form(factors: list[tuple[str, bool]]) -> str:
    if not factors:
        return "I"
    return " (x) ".join(name + ("^" if dualled else "") for name, dualled in factors)


def atom_count(tree) -> int:
    kind = tree[0]
    if kind == "atom":
        return 1
    if kind == "unit":
        return 0
    return sum(atom_count(child) for child in tree[1:])
