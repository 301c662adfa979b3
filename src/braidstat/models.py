"""Graded generator systems with pairing and braid/cross exchange structure.

A :class:`ParticleModel` holds ``N`` generators ``x^1 .. x^N`` graded over a
finite Abelian group, a pairing matrix ``g[i][j] = <i|j>``, and an exchange
structure given as a braid coupling ``R`` and a cross coupling ``T``.  The
exchange of two generators is either

* grade-diagonal: swapping letters of grades ``alpha`` (left) and ``beta``
  (right) multiplies by the exact phase ``eps(beta, alpha)``, and moving a
  dual letter of grade ``alpha`` (so graded ``-alpha``) rightward past a
  letter of grade ``beta`` multiplies by ``eps(beta, -alpha)``; or
* an explicit coupling matrix acting on pairs of letters.

Both kinds end in one representation: :attr:`ParticleModel.braid_terms` and
:attr:`ParticleModel.cross_terms` list, for each letter pair ``(i, j)``, the
nonzero terms ``(k, l, t)`` of its coupling.  A grade-diagonal pair has exactly
one term, carrying its exact phase as a complex number.  Every operator that
applies an exchange iterates these tables, so the exact ``Fraction`` phases
are evaluated once per model, when the tables are built.

Everything works in the strict monoidal skeleton: words are flat sequences,
associators and unitors are identities.  Generator indices are 1-based
throughout the public API.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .groups import Bicharacter, GroupElement, GroupSpec, RationalPhase
from .report import CheckReport
from .words import FockVector, TensorWord


class ModelSpecError(ValueError):
    """Model data is inconsistent, or an operation was called on the wrong kind of model."""


@dataclass(frozen=True)
class GradeDiagonal:
    """Exchange factors are bicharacter phases of the letter grades."""


@dataclass(eq=False, frozen=True)
class BraidMatrix:
    """Explicit pair coupling ``R``: the braid sends the basis pair ``(i, j)``
    to ``sum_kl R[i,j,k,l] * (k, l)`` (all indices 1-based in the API, the
    array is 0-based).

    Accepts either the 4-index array of shape ``(N, N, N, N)`` or the flat
    action matrix of shape ``(N^2, N^2)`` whose column ``(i-1)*N + (j-1)``
    lists the expansion of the braided pair ``(i, j)`` over output pairs.
    """

    coupling: np.ndarray

    def __init__(self, coupling, n_generators: int | None = None):
        object.__setattr__(self, "coupling", _as_coupling(coupling, n_generators))


@dataclass(frozen=True)
class DerivedCross:
    """Cross exchange derived from the braid data.

    Grade-diagonal models use the dual-grading phase ``eps(beta, -alpha)``;
    explicit-matrix models reuse ``R`` with the output pair transposed
    (``T[i,j,k,l] = R[i,j,l,k]``), which reproduces the scalar case.
    """


@dataclass(eq=False, frozen=True)
class CrossMatrix:
    """Explicit cross coupling ``T``: moving the dual letter ``i*`` past ``j``
    yields ``sum_kl T[i,j,k,l] * (l, k*)``.  Same shape conventions as
    :class:`BraidMatrix`."""

    coupling: np.ndarray

    def __init__(self, coupling, n_generators: int | None = None):
        object.__setattr__(self, "coupling", _as_coupling(coupling, n_generators))


GRADE_DIAGONAL = GradeDiagonal()
DERIVED_CROSS = DerivedCross()


def _as_coupling(array_like, n_generators: int | None = None) -> np.ndarray:
    arr = np.asarray(array_like, dtype=complex)
    if arr.ndim == 4:
        n = arr.shape[0]
        if arr.shape != (n, n, n, n):
            raise ModelSpecError(f"coupling array has inconsistent shape {arr.shape}")
    elif arr.ndim == 2:
        n2 = arr.shape[0]
        n = round(n2 ** 0.5)
        if arr.shape != (n2, n2) or n * n != n2:
            raise ModelSpecError(f"coupling matrix must be N^2 x N^2, got {arr.shape}")
        # column (i,j) -> output (k,l): M[(k,l),(i,j)] = R[i,j,k,l]
        arr = arr.reshape(n, n, n, n).transpose(2, 3, 0, 1)
    else:
        raise ModelSpecError("coupling must be an (N,N,N,N) array or an N^2 x N^2 matrix")
    if n_generators is not None and arr.shape[0] != n_generators:
        raise ModelSpecError(
            f"coupling is for {arr.shape[0]} generators, model has {n_generators}"
        )
    return arr


def _term_table(coupling: np.ndarray) -> dict[tuple[int, int], tuple]:
    """``(i, j) -> ((k, l, coupling[i,j,k,l]), ...)`` over the nonzero entries,
    1-based, in ``(k, l)`` order, with each coefficient a Python ``complex``."""
    n = coupling.shape[0]
    return {(i + 1, j + 1): tuple((int(k) + 1, int(l) + 1, complex(coupling[i, j, k, l]))
                                  for k, l in zip(*np.nonzero(coupling[i, j])))
            for i in range(n) for j in range(n)}


def _inertia(block: np.ndarray) -> tuple[int, int]:
    """The numbers of positive and of negative eigenvalues of a finite Hermitian matrix, exactly.

    ``H = A + iB`` has the eigenvalues of the real symmetric ``[[A, -B], [B, A]]``, each counted
    twice there; a real ``H`` is read alone.  Symmetric elimination on the Fractions of the stored
    floats reduces it by congruences, which keep the inertia (Sylvester's law): a nonzero diagonal
    pivot counts its sign and leaves its Schur complement, and where the whole diagonal is 0 but
    ``a[p][q]`` is not, adding row and column ``q`` to row and column ``p`` makes
    ``a[p][p] = 2 a[p][q]``."""
    a = [[Fraction(x) for x in row] for row in block.real.tolist()]
    twice = 2 if block.imag.any() else 1
    if twice == 2:
        b = [[Fraction(x) for x in row] for row in block.imag.tolist()]
        a = [ra + [-x for x in rb] for ra, rb in zip(a, b)] + [rb + ra for ra, rb in zip(a, b)]
    positive = negative = 0
    while any(map(any, a)):
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            p, q = next((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
            a[p] = [x + y for x, y in zip(a[p], a[q])]
            for row in a:
                row[p] += row[q]
        top = a.pop(p)
        pivot = top.pop(p)
        positive, negative = positive + (pivot > 0), negative + (pivot < 0)
        for row in a:
            factor = row.pop(p) / pivot
            if factor:
                row[:] = [x - factor * y for x, y in zip(row, top)]
    return positive // twice, negative // twice


def _action_matrix(coupling: np.ndarray) -> np.ndarray:
    n = coupling.shape[0]
    return coupling.transpose(2, 3, 0, 1).reshape(n * n, n * n)


@dataclass(eq=False, frozen=True)
class ParticleModel:
    """Immutable model: grading group, bicharacter, grades, pairing, exchange."""

    group: GroupSpec
    eps: Bicharacter
    grades: tuple[GroupElement, ...]
    pairing: np.ndarray
    braid: GradeDiagonal | BraidMatrix = GRADE_DIAGONAL
    cross: DerivedCross | CrossMatrix = DERIVED_CROSS
    #: +1 for the hopping expansion that closes the twisted commutation
    #: relation; -1 keeps the alternating-sign reading for comparison.
    expansion_sign: int = 1

    @property
    def n_generators(self) -> int:
        return len(self.grades)

    @property
    def is_grade_diagonal(self) -> bool:
        return isinstance(self.braid, GradeDiagonal)

    def grade(self, i: int) -> GroupElement:
        self._check_index(i)
        return self.grades[i - 1]

    def dual_grade(self, i: int) -> GroupElement:
        return -self.grade(i)

    def pairing_entry(self, i: int, j: int) -> complex:
        self._check_index(i)
        self._check_index(j)
        return complex(self.pairing[i - 1, j - 1])

    def braid_phase(self, i: int, j: int) -> RationalPhase:
        """Exact swap phase ``eps(grade_j, grade_i)`` (grade-diagonal only)."""
        if not self.is_grade_diagonal:
            raise ModelSpecError("braid_phase requires a grade-diagonal model")
        return self.eps.phase(self.grade(j), self.grade(i))

    def cross_phase(self, i: int, j: int) -> RationalPhase:
        """Exact phase for moving dual letter ``i*`` rightward past letter ``j``."""
        if not (self.is_grade_diagonal and isinstance(self.cross, DerivedCross)):
            raise ModelSpecError("cross_phase requires a grade-diagonal model with derived cross")
        return self.eps.phase(self.grade(j), self.dual_grade(i))

    @cached_property
    def braid_coupling(self) -> np.ndarray:
        if isinstance(self.braid, BraidMatrix):
            return self.braid.coupling
        n = self.n_generators
        arr = np.zeros((n, n, n, n), dtype=complex)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                arr[i - 1, j - 1, j - 1, i - 1] = complex(self.braid_phase(i, j))
        return arr

    @cached_property
    def cross_coupling(self) -> np.ndarray:
        if isinstance(self.cross, CrossMatrix):
            return self.cross.coupling
        if isinstance(self.braid, BraidMatrix):
            return self.braid.coupling.transpose(0, 1, 3, 2)
        n = self.n_generators
        arr = np.zeros((n, n, n, n), dtype=complex)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                arr[i - 1, j - 1, i - 1, j - 1] = complex(self.cross_phase(i, j))
        return arr

    @cached_property
    def braid_terms(self) -> dict[tuple[int, int], tuple]:
        """``(i, j) -> ((k, l, R[i,j,k,l]), ...)`` over the nonzero braid terms."""
        return _term_table(self.braid_coupling)

    @cached_property
    def cross_terms(self) -> dict[tuple[int, int], tuple]:
        """``(i, j) -> ((k, l, T[i,j,k,l]), ...)`` over the nonzero cross terms."""
        return _term_table(self.cross_coupling)

    @cached_property
    def scalar_type(self) -> type:
        """The Fock layer's arithmetic: ``float`` when the pairing and every braid
        and cross term have imaginary part exactly 0, else ``complex``."""
        real = not any(a.imag.any() for a in (self.pairing, self.braid_coupling, self.cross_coupling))
        return float if real else complex

    @cached_property
    def conserves_letters(self) -> bool:
        """Whether the twisted annihilators keep the multiset of letters.

        True when the pairing is diagonal and every cross term ``(k, l, t)`` of
        each pair ``(i, j)`` has ``{i, l} == {j, k}`` as multisets.  Then
        ``b-_i`` sends a word with letters ``M`` to words with letters
        ``M - {i}``, and every sector Gram is block-diagonal with one block per
        multiset of letters.
        """
        if np.any(self.pairing != np.diag(np.diag(self.pairing))):
            return False
        return all(sorted((i, l)) == sorted((j, k))
                   for (i, j), terms in self.cross_terms.items() for k, l, _ in terms)

    @cached_property
    def exchange_relations_exact(self) -> bool:
        """Whether every exchange relation line of the Fock layer vanishes exactly.

        True for the graded models of a commutation factor: expansion sign +1, a
        grade-diagonal braid with the derived cross, a normalized bicharacter
        (``eps(a, b) eps(b, a) == 1``), and ``<i|j> == 0`` whenever letters ``i``
        and ``j`` differ in grade.  Every condition is read exactly; the proof is
        in :func:`~braidstat.fock._fock_pass`.
        """
        if not (self.expansion_sign == 1 and self.is_grade_diagonal
                and isinstance(self.cross, DerivedCross) and self.eps.is_normalized()):
            return False
        return not any(self.pairing[i, j] for i, a in enumerate(self.grades)
                       for j, b in enumerate(self.grades) if a != b)

    @cached_property
    def gram_class(self) -> tuple[str, tuple[tuple[float, bool, bool], ...]] | None:
        """The theorem that gives the Gram ``X_n`` at the unit pairing, and the nonzero eigenvalues
        of the pairing ``P``, else ``None``; the Grams ``G_n = P^(x)n X_n``
        (:func:`~braidstat.fock._theorems`) read them.

        Both classes need expansion sign +1 and a finite ``P`` equal to its conjugate transpose,
        whose letters fall into blocks that ``P`` does not link:

        * ``"colour-symmetric"``: :attr:`exchange_relations_exact`; the blocks are the grades.
        * ``"contractive"``: each cross term list ``T(i, j)`` empty (``q_ij = 0``) or the one term
          ``(i, j, q_ij)``, ``q_ji == conj(q_ij)`` and ``|q_ij|^2 < 1`` on the Fractions of the
          stored floats; the blocks are the letters of equal q-rows (so of equal q-columns too).

        Each eigenvalue ``mu`` of a block is ``(|mu|, mu < 0, once)``, by block, then ascending;
        ``once`` is ``eps(g, g) == -1`` on the grade ``g``, and False on the contractive class.
        Which eigenvalues are nonzero and which negative is decided exactly, by symmetric
        elimination on the Fractions of the stored floats (:func:`_inertia`); ``eigvalsh`` gives
        the magnitudes, the only float step.
        """
        pairing = self.pairing
        if not (self.expansion_sign == 1 and np.isfinite(pairing).all()
                and (pairing == pairing.conj().T).all()):
            return None
        if self.exchange_relations_exact:
            source, keys = "colour-symmetric", self.grades
        else:
            terms = self.cross_terms
            if any(len(t) > 1 or t and t[0][:2] != pair for pair, t in terms.items()):
                return None
            q = {pair: t[0][2] if t else 0j for pair, t in terms.items()}
            if not all(q[j, i] == t.conjugate() and cmath.isfinite(t)
                       and Fraction(t.real) ** 2 + Fraction(t.imag) ** 2 < 1 for (i, j), t in q.items()):
                return None
            letters = range(1, self.n_generators + 1)
            source, keys = "contractive", [tuple(q[i, j] for j in letters) for i in letters]
            if any(pairing[a, b] for a, x in enumerate(keys) for b, y in enumerate(keys) if x != y):
                return None
        spectrum = []
        for key in dict.fromkeys(keys):
            at = [i for i, k in enumerate(keys) if k == key]
            block = pairing[np.ix_(at, at)]
            positive, negative = _inertia(block)
            once = source == "colour-symmetric" and self.eps.phase(key, key).exponent != 0  # eps(g, g) = +-1
            values = np.linalg.eigvalsh(block).tolist()
            spectrum += [(abs(mu), True, once) for mu in values[:negative]]
            spectrum += [(abs(mu), False, once) for mu in values[len(values) - positive:]]
        return source, tuple(spectrum)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n_generators:
            raise ModelSpecError(f"generator index {i} out of range 1..{self.n_generators}")

    def check_word(self, word: TensorWord) -> None:
        for letter in word:
            self._check_index(letter)


def make_model(group: GroupSpec,
               eps: Bicharacter,
               grades: Sequence[GroupElement | Sequence[int]],
               pairing,
               braid: GradeDiagonal | BraidMatrix = GRADE_DIAGONAL,
               cross: DerivedCross | CrossMatrix = DERIVED_CROSS,
               expansion_sign: int = 1) -> ParticleModel:
    """Validate and build a :class:`ParticleModel`.

    ``grades`` entries may be :class:`GroupElement` or raw residue sequences.
    The unit object is the empty word, graded by the group identity.  A braid coupling is
    refused as singular where ``matrix_rank`` reads its action matrix ``A`` below full rank and
    exact elimination (:func:`_inertia`) agrees: the Hermitian dilation ``[[0, A], [A^H, 0]]``
    has the eigenvalues ``+-sigma_i`` of ``A``, so ``rank A`` of them are positive.
    """
    if eps.group != group:
        raise ModelSpecError(f"bicharacter lives on {eps.group}, model group is {group}")
    grade_elems = []
    for raw in grades:
        g = raw if isinstance(raw, GroupElement) else group.element(raw)
        if g.group != group:
            raise ModelSpecError(f"grade {g} is not an element of {group}")
        grade_elems.append(g)
    n = len(grade_elems)
    if n < 1:
        raise ModelSpecError("a model needs at least one generator")
    pairing_arr = np.asarray(pairing, dtype=complex)
    if pairing_arr.shape != (n, n):
        raise ModelSpecError(f"pairing must be {n}x{n}, got {pairing_arr.shape}")
    if isinstance(braid, np.ndarray):
        braid = BraidMatrix(braid, n)
    if isinstance(braid, BraidMatrix):
        _as_coupling(braid.coupling, n)
        action = _action_matrix(braid.coupling)
        if np.linalg.matrix_rank(action) != n * n and _inertia(np.block(
                [[np.zeros_like(action), action], [action.conj().T, np.zeros_like(action)]]))[0] != n * n:
            raise ModelSpecError("braid coupling matrix is singular; the exchange must be invertible")
    if isinstance(cross, np.ndarray):
        cross = CrossMatrix(cross, n)
    if isinstance(cross, CrossMatrix):
        _as_coupling(cross.coupling, n)
    if expansion_sign not in (1, -1):
        raise ModelSpecError("expansion_sign must be +1 or -1")
    return ParticleModel(group, eps, tuple(grade_elems), pairing_arr, braid, cross, expansion_sign)


def q_swap_braid(n_generators: int, q: complex) -> BraidMatrix:
    """Coupling sending pair ``(i, j)`` to ``q * (j, i)``."""
    arr = np.zeros((n_generators,) * 4, dtype=complex)
    for i in range(n_generators):
        for j in range(n_generators):
            arr[i, j, j, i] = q
    return BraidMatrix(arr)


def braid_factor(model: ParticleModel, i: int, j: int) -> complex:
    """Scalar swap factor for generators ``i``, ``j`` of a grade-diagonal model."""
    return complex(model.braid_phase(i, j))


def braid_on_word(model: ParticleModel, word: TensorWord, position: int) -> FockVector:
    """Apply the exchange to letters ``position`` and ``position+1`` (1-based)."""
    word = tuple(word)
    model.check_word(word)
    if not 1 <= position < len(word):
        raise ValueError(f"exchange position {position} out of range for a word of length {len(word)}")
    i, j = word[position - 1], word[position]
    head, tail = word[:position - 1], word[position + 1:]
    # distinct (k, l) give distinct words, so no amplitudes need summing
    return FockVector({head + (k, l) + tail: t for k, l, t in model.braid_terms[i, j]})


def check_yang_baxter(model: ParticleModel, tol: float = 1e-9) -> CheckReport:
    """Braid consistency on 3-letter words:
    ``(R x id)(id x R)(R x id) == (id x R)(R x id)(id x R)``.

    Grade-diagonal models pass by construction: both sides multiply the same
    three commuting phases, so the defect is exactly 0.  Explicit matrices are
    checked numerically on the full two-step operators ``A = R x id`` and ``B = id x R``,
    relative to their terms: ``max|ABA - BAB|`` over the largest entry of ``|A||B||A|`` and
    ``|B||A||B|``, so that scaling ``R`` moves no status (both sides are cubic in it).  ``R`` is
    divided by its largest ``|entry|`` first, so no product overflows.
    """
    if model.is_grade_diagonal:
        return CheckReport.from_defect("yang-baxter", 0.0, tol, None, {"exact": True})
    action = _action_matrix(model.braid_coupling)
    action = action / np.abs(action).max()
    eye = np.eye(model.n_generators)
    a, b = np.kron(action, eye), np.kron(eye, action)
    terms = max(float((abs(a) @ abs(b) @ abs(a)).max()), float((abs(b) @ abs(a) @ abs(b)).max()))
    defect = float(np.abs(a @ b @ a - b @ a @ b).max()) / terms
    return CheckReport.from_defect("yang-baxter", defect, tol, None, {"exact": False})


def check_symmetry(model: ParticleModel, tol: float = 1e-9) -> CheckReport:
    """Whether the exchange squares to the identity on all 2-letter words."""
    n = model.n_generators
    if model.is_grade_diagonal:
        defect = 0.0
        witness = None
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                p = model.braid_phase(i, j) * model.braid_phase(j, i)
                if not p.is_one:
                    d = abs(complex(p) - 1.0)
                    if d > defect:
                        defect, witness = d, (i, j)
        return CheckReport.from_defect("symmetry", defect, tol, witness)
    action = _action_matrix(model.braid_coupling)
    diff = np.abs(action @ action - np.eye(n * n))
    defect = float(diff.max())
    witness = None
    if defect > tol:
        flat = int(diff.argmax())
        row, col = divmod(flat, n * n)
        witness = (divmod(row, n)[0] + 1, row % n + 1, divmod(col, n)[0] + 1, col % n + 1)
    return CheckReport.from_defect("symmetry", defect, tol, witness)


def extend_pairing(model: ParticleModel, dual_word: TensorWord, word: TensorWord) -> complex:
    """Pairing of ``(x_{i1} ... x_{in})*`` against ``x_{j1} ... x_{jn}``.

    Nested innermost-first evaluation collapses to the product of letterwise
    pairings ``prod_k <i_k|j_k>``.
    """
    dual_word, word = tuple(dual_word), tuple(word)
    if len(dual_word) != len(word):
        raise ValueError(f"pairing needs equal lengths, got {len(dual_word)} and {len(word)}")
    model.check_word(dual_word)
    model.check_word(word)
    value = 1.0 + 0.0j
    for i, j in zip(dual_word, word):
        value *= model.pairing_entry(i, j)
        if value == 0:
            return 0.0 + 0.0j
    return value
