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

from braidstat import Bicharacter, GroupHom, ParticleModel, unit_complex


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


def dense_gram(model: ParticleModel, n: int) -> np.ndarray:
    """Sector-``n`` Gram by the dense recursion over the whole word basis.

    ``A[m][i]`` is the ``N^(m-1) x N^m`` matrix of the twisted annihilator
    ``b-_i`` on sector ``m``, assembled from the pairing and the cross coupling:
    the column block of first letter ``j`` gets ``<i|j> id`` plus, for each
    ``T[i,j,k,l]``, ``s * T[i,j,k,l]`` times ``A[m-1][k]`` in the row block of
    first letter ``l``.  The rows of ``G_m`` whose word starts with ``i`` are
    ``G_{m-1} @ A[m][i]``.
    """
    size = model.n_generators
    pairing, cross, sign = model.pairing, model.cross_coupling, model.expansion_sign
    gram = np.ones((1, 1), dtype=complex)
    lower: list[np.ndarray] = []
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
                            block[l * sub:(l + 1) * sub] += sign * cross[i, j, k, l] * lower[k]
            current.append(a)
        gram = np.vstack([gram @ a for a in current])
        lower = current
    return gram


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
