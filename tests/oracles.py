"""Independent brute-force oracles used to cross-check the library.

Nothing here shares a computational path with the package: Gram entries come
from explicit sums over permutations or from a dense recursion over the whole
word basis, dimensions from counting formulas, and bicharacter laws from
exhaustive integer arithmetic on exponent tables.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np

from braidstat import (Atom, Bicharacter, Dual, GroupHom, ParticleModel, Tensor, UNIT, Unit,
                       unit_complex)


def permutation_gram_entry(model: ParticleModel, row_word, col_word) -> complex:
    """Sector scalar product for grade-diagonal, identity-pairing models.

    Sum over letter-matching bijections tau (col[tau(p)] == row[p] for all p)
    of the product, over inversions p < p' with tau(p) > tau(p'), of the
    exact phase eps(grade(row[p']), -grade(row[p])).
    """
    row_word, col_word = tuple(row_word), tuple(col_word)
    n = len(row_word)
    if n != len(col_word) or Counter(row_word) != Counter(col_word):
        return 0.0  # no letter-matching bijection exists
    total = 0.0 + 0.0j
    for tau in permutations(range(n)):
        if any(col_word[tau[p]] != row_word[p] for p in range(n)):
            continue
        exponent = Fraction(0)
        for p in range(n):
            for p2 in range(p + 1, n):
                if tau[p] > tau[p2]:
                    exponent += model.eps.phase(model.grade(row_word[p2]),
                                                -model.grade(row_word[p])).exponent
        total += unit_complex(exponent)
    return total


def quon_gram_entry(q: float, row_word, col_word) -> complex:
    """Scalar product for the q-swap coupling: sum of q^inversions over matchings."""
    row_word, col_word = tuple(row_word), tuple(col_word)
    n = len(row_word)
    if n != len(col_word) or Counter(row_word) != Counter(col_word):
        return 0.0
    total = 0.0
    for tau in permutations(range(n)):
        if any(col_word[tau[p]] != row_word[p] for p in range(n)):
            continue
        inversions = sum(1 for p in range(n) for p2 in range(p + 1, n) if tau[p] > tau[p2])
        total += q ** inversions
    return complex(total)


def dense_annihilators(model: ParticleModel, n: int) -> list[list[np.ndarray]]:
    """``A[m][i - 1]``, for ``m = 1..n``, the ``N^(m-1) x N^m`` matrix of the
    twisted annihilator ``b-_i`` on sector ``m`` (``A[0]`` is empty).

    Assembled from the pairing and the cross coupling alone: the column block
    of first letter ``j`` gets ``<i|j> id`` plus, for each ``T[i,j,k,l]``,
    ``s * T[i,j,k,l]`` times ``A[m-1][k]`` in the row block of first letter ``l``.
    """
    size = model.n_generators
    pairing, cross, sign = model.pairing, model.cross_coupling, model.expansion_sign
    ladder: list[list[np.ndarray]] = [[]]
    for m in range(1, n + 1):
        rest, sub = size ** (m - 1), size ** max(m - 2, 0)
        current = []
        for i in range(size):
            a = np.zeros((rest, size * rest), dtype=complex)
            for j in range(size):
                block = a[:, j * rest:(j + 1) * rest]
                block += pairing[i, j] * np.eye(rest)
                for k in range(size):
                    for l in range(size):
                        if m > 1 and cross[i, j, k, l] != 0:
                            block[l * sub:(l + 1) * sub] += sign * cross[i, j, k, l] * ladder[m - 1][k]
            current.append(a)
        ladder.append(current)
    return ladder


def dense_gram(model: ParticleModel, n: int) -> np.ndarray:
    """Sector-``n`` Gram by the dense recursion over the whole word basis: the
    rows of ``G_m`` whose word starts with ``i`` are ``G_{m-1} @ A[m][i]``."""
    gram = np.ones((1, 1), dtype=complex)
    for current in dense_annihilators(model, n)[1:]:
        gram = np.vstack([gram @ a for a in current])
    return gram


def _prepend(size: int, letter: int, n: int) -> np.ndarray:
    """Creation of the 0-based ``letter`` from sector ``n`` to ``n + 1``."""
    out = np.zeros((size ** (n + 1), size ** n))
    out[letter * size ** n:(letter + 1) * size ** n] = np.eye(size ** n)
    return out


def dense_commutator_residuals(model: ParticleModel, n: int, cross=None) -> np.ndarray:
    """``R[i, j]`` of ``b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j> id`` on
    sector ``n``, as dense ``N^n x N^n`` matrices, from :func:`dense_annihilators`.

    ``T`` is the model's cross coupling unless another is given as ``cross``;
    the ``b-`` are the model's either way."""
    size = model.n_generators
    cross = model.cross_coupling if cross is None else cross
    ladder = dense_annihilators(model, n + 1)
    out = np.zeros((size, size, size ** n, size ** n), dtype=complex)
    for i in range(size):
        for j in range(size):
            out[i, j] = ladder[n + 1][i] @ _prepend(size, j, n) - model.pairing[i, j] * np.eye(size ** n)
            for k in range(size):
                for l in range(size):
                    t = cross[i, j, k, l]
                    if t != 0 and n > 0:
                        out[i, j] -= t * _prepend(size, l, n - 1) @ ladder[n][k]
    return out


def banded_witness(defects: list[np.ndarray], band: float = 1e-12):
    """The largest defect and the first position, ``(array, index)`` in the
    given order, whose defect is at least ``max * (1 - band)``; no witness when
    every defect is 0."""
    worst = max((float(d.max()) for d in defects if d.size), default=0.0)
    if worst == 0.0:
        return worst, None
    for number, d in enumerate(defects):
        hits = np.flatnonzero(d.ravel() >= worst * (1 - band))
        if hits.size:
            return worst, (number, np.unravel_index(hits[0], d.shape))


def dense_exchange_nullity(model: ParticleModel, n_max: int):
    """The three exchange-nullity lines by dense matrices: per line, the maximum
    defect, and the worst defect with its witness in ``(n, word, i, j, line)``
    order."""
    size = model.n_generators
    ladder = dense_annihilators(model, n_max + 2)
    grams = [dense_gram(model, n) for n in range(n_max + 3)]
    braid = model.braid_coupling

    def norms(vectors, gram):
        return np.sqrt(np.abs(np.einsum("rc,rs,sc->c", vectors.conj(), gram, vectors)))

    sectors = []
    for n in range(n_max + 1):
        defects = np.zeros((size ** n, size, size, 3))
        for i in range(size):
            for j in range(size):
                raised = _prepend(size, i, n + 1) @ _prepend(size, j, n)
                lowered = ladder[n - 1][i] @ ladder[n][j] if n >= 2 else None
                for k in range(size):
                    for l in range(size):
                        r = braid[i, j, k, l]
                        if r != 0:
                            raised = raised - r * _prepend(size, k, n + 1) @ _prepend(size, l, n)
                            if n >= 2:
                                lowered = lowered - r * ladder[n - 1][k] @ ladder[n][l]
                defects[:, i, j, 0] = norms(raised, grams[n + 2])
                if n >= 2:
                    defects[:, i, j, 1] = norms(lowered, grams[n - 2])
        mixed = dense_commutator_residuals(model, n)
        for i in range(size):
            for j in range(size):
                defects[:, i, j, 2] = norms(mixed[i, j], grams[n])
        sectors.append(defects)
    lines = {line: max(float(d[..., k].max()) for d in sectors)
             for k, line in enumerate(("create-create", "annihilate-annihilate", "mixed"))}
    worst, at = banded_witness(sectors)
    witness = None
    if at is not None:
        n, (w, i, j, line) = at
        witness = {"line": ("create-create", "annihilate-annihilate", "mixed")[line],
                   "i": int(i) + 1, "j": int(j) + 1,
                   "word": [int(c) + 1 for c in np.unravel_index(w, (size,) * n)]}
    return lines, worst, witness


def svd_rank(matrix: np.ndarray, tol: float = 1e-9) -> int:
    """Number of singular values at least ``tol * max(1, largest)``."""
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(singular >= tol * max(1.0, float(singular.max(initial=0.0)))))


def q_factorial(q: float, n: int) -> float:
    """``[n]_q! = prod_{k=1..n} (1 + q + ... + q^(k-1))``."""
    return math.prod(sum(q ** e for e in range(k)) for k in range(1, n + 1))


def bosonic_dimension(n_generators: int, n: int) -> int:
    return math.comb(n_generators + n - 1, n)


def fermionic_dimension(n_generators: int, n: int) -> int:
    return math.comb(n_generators, n) if n <= n_generators else 0


def colour_symmetric_dimension(model: ParticleModel, n: int) -> int:
    """``[t^n] prod_{chi(i,i)=+1} (1 - t)^-1 * prod_{chi(i,i)=-1} (1 + t)``: the
    sector-``n`` dimension of a colour-symmetric grade-diagonal model, whose
    Gram is ``n!`` times the colour symmetrizer (Scheunert, J. Math. Phys. 20,
    1979).  A letter of self-phase ``chi(i, i) = eps(grade_i, grade_i) = +1``
    may repeat; one of self-phase -1 appears at most once."""
    coefficients = [1] + [0] * n
    for i in range(1, model.n_generators + 1):
        exponent = model.eps.phase(model.grade(i), model.grade(i)).exponent % 1
        assert exponent in (0, Fraction(1, 2)), f"chi({i}, {i}) is not +-1"
        # times (1 - t)^-1: running sums, upward; times (1 + t): downward
        for k in range(1, n + 1) if exponent == 0 else range(n, 0, -1):
            coefficients[k] += coefficients[k - 1]
    return coefficients[n]


def exponent_table(eps: Bicharacter) -> tuple[np.ndarray, int, list]:
    """Integer exponent table ``E[a, b] = L * phase_exponent(a, b)`` mod ``L``.

    ``L`` is a common denominator, so the table is exact.
    """
    elements = list(eps.group.elements())
    denominators = [f.denominator for row in eps.exponents for f in row] or [1]
    lcm = math.lcm(*denominators)
    size = len(elements)
    table = np.zeros((size, size), dtype=np.int64)
    for a_idx, a in enumerate(elements):
        for b_idx, b in enumerate(elements):
            t = eps.phase(a, b).exponent
            scaled = t * lcm
            assert scaled.denominator == 1
            table[a_idx, b_idx] = scaled.numerator % lcm
    return table, lcm, elements


def exhaustive_bilinearity_holds(eps: Bicharacter) -> bool:
    """Check both bilinearity laws on every triple, exactly."""
    table, lcm, elements = exponent_table(eps)
    index = {e.residues: i for i, e in enumerate(elements)}
    size = len(elements)
    add = np.zeros((size, size), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            add[i, j] = index[(a + b).residues]
    right = table[:, add]                               # E[a, b+c]
    right_sum = (table[:, :, None] + table[:, None, :]) % lcm
    left = table[add, :]                                # E[a+b, c]
    left_sum = (table[:, None, :] + table[None, :, :]) % lcm
    return bool(np.array_equal(right, right_sum) and np.array_equal(left, left_sum))


def exhaustive_normalized(eps: Bicharacter) -> bool:
    return all((eps.phase(a, b) * eps.phase(b, a)).is_one
               for a in eps.group.elements() for b in eps.group.elements())


def exhaustive_transport_holds(hom: GroupHom, eps: Bicharacter, eps_target: Bicharacter) -> bool:
    return all(eps.phase(a, b) == eps_target.phase(hom.apply(a), hom.apply(b))
               for a in hom.source.elements() for b in hom.source.elements())


# The rewrite rules of the braidstat.coherence docstring, one entry each:
# name -> (does the rule apply at this node?, the node it rewrites to)
COHERENCE_RULES = {
    # (a (x) b) (x) c  ->  a (x) (b (x) c)
    "assoc": (lambda e: isinstance(e, Tensor) and isinstance(e.left, Tensor),
              lambda e: Tensor(e.left.left, Tensor(e.left.right, e.right))),
    # I (x) a  ->  a
    "unit-left": (lambda e: isinstance(e, Tensor) and isinstance(e.left, Unit),
                  lambda e: e.right),
    # a (x) I  ->  a
    "unit-right": (lambda e: isinstance(e, Tensor) and isinstance(e.right, Unit),
                   lambda e: e.left),
    # (a (x) b)^  ->  b^ (x) a^
    "dual-tensor": (lambda e: isinstance(e, Dual) and isinstance(e.inner, Tensor),
                    lambda e: Tensor(Dual(e.inner.right), Dual(e.inner.left))),
    # a^^  ->  a
    "dual-dual": (lambda e: isinstance(e, Dual) and isinstance(e.inner, Dual),
                  lambda e: e.inner.inner),
    # I^  ->  I
    "dual-unit": (lambda e: isinstance(e, Dual) and isinstance(e.inner, Unit),
                  lambda e: UNIT),
}


def _children(e) -> tuple:
    if isinstance(e, Tensor):
        return (e.left, e.right)
    return (e.inner,) if isinstance(e, Dual) else ()


def reference_redexes(e, rules) -> list[tuple[tuple[int, ...], str]]:
    """Every ``(path, rule)`` where a rule applies: recursive preorder (a node,
    then each child's subtree), the rules at one node in the order given."""
    found = [((), name) for name in rules if COHERENCE_RULES[name][0](e)]
    for k, child in enumerate(_children(e)):
        found += [((k,) + path, name) for path, name in reference_redexes(child, rules)]
    return found


def reference_rewrite(e, path, rule):
    """``e`` with the rule applied at ``path``."""
    if not path:
        return COHERENCE_RULES[rule][1](e)
    children = list(_children(e))
    children[path[0]] = reference_rewrite(children[path[0]], path[1:], rule)
    return Tensor(*children) if isinstance(e, Tensor) else Dual(*children)


def reference_rewrite_normalize(e, rules, rng):
    """Rewrite at a redex drawn by ``rng.choice`` until none is left."""
    while candidates := reference_redexes(e, rules):
        e = reference_rewrite(e, *rng.choice(candidates))
    return e
