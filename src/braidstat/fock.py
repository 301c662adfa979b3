"""Word-basis Fock layer: free and twisted ladder operators, relation checks,
Gram matrices, positivity, and physical sector dimensions.

Creation prepends a letter on the left.  The free annihilator pairs a dual
letter with the first letter only and kills everything else.  The twisted
annihilator hops the dual letter rightward through the word, one linear step
per letter, through the model's cross term table
(:attr:`~braidstat.models.ParticleModel.cross_terms`):

    b-_i(j, rest) = <i|j> rest + s * sum_{(k, l, t) in T(i, j)} t * (l, b-_k(rest))

with ``s = +1`` by default (``expansion_sign`` on the model flips it).  A
grade-diagonal model has the single term ``(i, j, eps(grade_j, -grade_i))``
per pair, so the step pays one exchange phase per letter passed.  By
construction this makes the twisted commutation relation

    b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k = <i|j> * id

close exactly; :func:`commutator_defect` verifies it numerically.

The sector-``n`` Gram matrix has entries
``G[w, w'] = <vacuum | b-_{w_n} ... b-_{w_1} | w'>``; its rank is the
dimension of the physical (null-state-free) sector.  :func:`gram_tower`
yields the Grams of sectors ``0..n`` from one pass of the recursion, so a
caller that needs several sectors builds each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import ParticleModel, braid_on_word
from .report import CheckReport, FAIL, PASS, SKIPPED
from .words import FockVector, TensorWord, basis_words, word_index

#: Hard guard on the size N^n of any sector-wide computation.
MAX_SECTOR_SIZE = 100_000


class ResourceLimitError(ValueError):
    """A sector computation would exceed the desk-scale resource guard."""


class HermiticityError(ValueError):
    """The Gram matrix is not Hermitian within tolerance."""

    def __init__(self, asymmetry: float, sector: int):
        self.asymmetry = asymmetry
        self.sector = sector
        super().__init__(
            f"sector {sector} Gram matrix is not Hermitian: max asymmetry {asymmetry:.3e}"
        )


def _guard_sector(model: ParticleModel, n: int) -> None:
    if n < 0:
        raise ValueError(f"sector must be >= 0, got {n}")
    if model.n_generators ** n > MAX_SECTOR_SIZE:
        raise ResourceLimitError(
            f"sector size {model.n_generators}^{n} exceeds the guard of {MAX_SECTOR_SIZE}"
        )


# ---------------------------------------------------------------------------
# Elementary operators


def create(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Left-prepend generator ``i`` to every word, linearly."""
    model._check_index(i)
    return FockVector({(i,) + w: a for w, a in v.items()})


def annihilate_free(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Pair dual letter ``i`` with the first letter only; the vacuum maps to 0."""
    model._check_index(i)
    out: dict[TensorWord, complex] = {}
    for w, a in v.items():
        if not w:
            continue
        g = model.pairing_entry(i, w[0])
        if g != 0:
            rest = w[1:]
            out[rest] = out.get(rest, 0.0) + g * a
    return FockVector(out)


def _twisted_on_word(model: ParticleModel, i: int, word: TensorWord,
                     memo: dict) -> dict[TensorWord, complex]:
    key = (i, word)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out: dict[TensorWord, complex] = {}
    if word:
        j, rest = word[0], word[1:]
        g = model.pairing_entry(i, j)
        if g != 0:
            out[rest] = out.get(rest, 0.0) + g
        sign = float(model.expansion_sign)
        for k, l, t in model.cross_terms[i, j]:
            factor = sign * t
            for sub, amp in _twisted_on_word(model, k, rest, memo).items():
                moved = (l,) + sub
                out[moved] = out.get(moved, 0.0) + factor * amp
    memo[key] = out
    return out


def annihilate_twisted(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Hopping annihilator; see the module docstring for the expansion."""
    model._check_index(i)
    out: dict[TensorWord, complex] = {}
    memo: dict = {}
    for w, a in v.items():
        model.check_word(w)
        for w2, amp in _twisted_on_word(model, i, w, memo).items():
            out[w2] = out.get(w2, 0.0) + amp * a
    return FockVector(out)


# ---------------------------------------------------------------------------
# Relation checks


def check_infinite_statistics(model: ParticleModel, n_max: int = 4, tol: float = 1e-9) -> CheckReport:
    """Free relation ``a-_i a+_j = <i|j> id`` on all basis words up to ``n_max``.

    The relation holds by construction, so the reported defect is exactly 0
    unless the implementation is broken.  The reversed composition
    ``a+_j a-_i`` is *not* scalar; see the tests for the documented
    non-relation.
    """
    n_gen = model.n_generators
    defect = 0.0
    witness = None
    for n in range(n_max + 1):
        _guard_sector(model, n)
        for w in basis_words(n_gen, n):
            base = FockVector.basis(w)
            for i in range(1, n_gen + 1):
                for j in range(1, n_gen + 1):
                    got = annihilate_free(model, i, create(model, j, base))
                    residual = got - base.scale(model.pairing_entry(i, j))
                    d = residual.norm()
                    if d > defect:
                        defect, witness = d, {"i": i, "j": j, "word": list(w)}
    return CheckReport.from_defect("infinite-statistics", defect, tol, witness,
                                   {"n_max": n_max, "exact": defect == 0.0})


def _wick_twisted_sum(model: ParticleModel, i: int, j: int, v: FockVector) -> FockVector:
    """``sum_kl T[i,j,k,l] b+_l b-_k`` applied to ``v``."""
    out = FockVector.zero()
    for k, l, t in model.cross_terms[i, j]:
        out = out + create(model, l, annihilate_twisted(model, k, v)).scale(t)
    return out


def _commutator_residual(model: ParticleModel, i: int, j: int, v: FockVector) -> FockVector:
    lhs = annihilate_twisted(model, i, create(model, j, v))
    rhs = _wick_twisted_sum(model, i, j, v)
    return lhs - rhs - v.scale(model.pairing_entry(i, j))


def commutator_defect(model: ParticleModel, i: int, j: int, n: int, tol: float = 1e-9) -> CheckReport:
    """Defect of ``b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j>`` on sector ``n``."""
    model._check_index(i)
    model._check_index(j)
    _guard_sector(model, n)
    defect = 0.0
    witness = None
    for w in basis_words(model.n_generators, n):
        d = _commutator_residual(model, i, j, FockVector.basis(w)).norm()
        if d > defect:
            defect, witness = d, list(w)
    return CheckReport.from_defect("twisted-commutator", defect, tol, witness,
                                   {"i": i, "j": j, "sector": n})


# ---------------------------------------------------------------------------
# Gram matrices and sector dimensions


class GramResult(NamedTuple):
    words: list[TensorWord]
    matrix: np.ndarray
    asymmetry: float
    hermitian: bool


class SectorDimension(NamedTuple):
    full: int
    quotient: int


def gram_tower(model: ParticleModel, n: int) -> Iterator[GramResult]:
    """Yield the Gram matrices of sectors ``0..n`` in order, from one pass.

    Built iteratively: with ``B_i`` the matrix of ``b-_i`` from sector ``m``
    to ``m-1``, the block of rows of ``G_m`` whose row word starts with ``i``
    equals ``G_{m-1} @ B_i``.  One hop memo serves every sector.
    """
    _guard_sector(model, n)
    n_gen = model.n_generators
    gram = np.ones((1, 1), dtype=complex)
    memo: dict = {}
    yield GramResult([()], gram, 0.0, True)
    for m in range(1, n + 1):
        cols = basis_words(n_gen, m)
        prev_size = n_gen ** (m - 1)
        size = n_gen ** m
        new_gram = np.empty((size, size), dtype=complex)
        for i in range(1, n_gen + 1):
            lower = np.zeros((prev_size, size), dtype=complex)
            for c, w in enumerate(cols):
                for w2, amp in _twisted_on_word(model, i, w, memo).items():
                    lower[word_index(w2, n_gen), c] += amp
            new_gram[(i - 1) * prev_size: i * prev_size, :] = gram @ lower
        gram = new_gram
        asymmetry = float(np.abs(gram - gram.conj().T).max())
        yield GramResult(cols, gram, asymmetry, asymmetry <= 1e-9 * _scale(gram))


def _scale(gram: np.ndarray) -> float:
    """Size of the largest entry, at least 1: the unit of the relative cuts."""
    return max(1.0, float(np.abs(gram).max()))


def gram_matrix(model: ParticleModel, n: int) -> GramResult:
    """Matrix of scalar products between all sector-``n`` basis words."""
    for result in gram_tower(model, n):
        pass
    return result


def _quotient_rank(result: GramResult, tol: float) -> int:
    """Rank of a Hermitian sector Gram, cut at ``tol`` times its largest singular value."""
    if result.asymmetry > tol * _scale(result.matrix):
        raise HermiticityError(result.asymmetry, len(result.words[0]))
    singular = np.linalg.svd(result.matrix, compute_uv=False)
    top = float(singular.max(initial=0.0))
    return int(np.count_nonzero(singular >= tol * max(1.0, top)))


def _psd_report(result: GramResult, tol: float) -> CheckReport:
    """``gram-psd`` on one sector Gram; the tolerance is relative to its largest entry."""
    n = len(result.words[0])
    scale = _scale(result.matrix)
    if result.asymmetry > tol * scale:
        return CheckReport("gram-psd", SKIPPED, result.asymmetry, "non-hermitian gram",
                           {"sector": n, "asymmetry": result.asymmetry})
    eigenvalues = np.linalg.eigvalsh((result.matrix + result.matrix.conj().T) / 2.0)
    min_eig = float(eigenvalues.min())
    status = PASS if min_eig >= -tol * scale else FAIL
    return CheckReport("gram-psd", status, max(0.0, -min_eig), None,
                       {"sector": n, "min_eigenvalue": min_eig})


def sector_dimension(model: ParticleModel, n: int, tol: float = 1e-9) -> SectorDimension:
    """Full dimension ``N^n`` and the rank of the sector Gram matrix."""
    return SectorDimension(model.n_generators ** n, _quotient_rank(gram_matrix(model, n), tol))


def gram_psd_check(model: ParticleModel, n: int, tol: float = 1e-9) -> CheckReport:
    """Positive semidefiniteness of the sector Gram matrix."""
    return _psd_report(gram_matrix(model, n), tol)


def _gram_norm(vector: FockVector, gram: GramResult, n_gen: int) -> float:
    """Norm of ``vector`` under the (possibly degenerate) sector Gram form."""
    if vector.is_zero:
        return 0.0
    value = 0.0 + 0.0j
    items = list(vector.items())
    for w, a in items:
        row = gram.matrix[word_index(w, n_gen)]
        for w2, b in items:
            value += a.conjugate() * row[word_index(w2, n_gen)] * b
    return abs(value) ** 0.5


def check_braid_exchange_relations(model: ParticleModel, n_max: int = 3, tol: float = 1e-9) -> CheckReport:
    """Exchange relations between like ladder operators, modulo null states.

    Three relation lines are checked on all basis words up to ``n_max``:

    * ``create-create``:  ``b+_i b+_j - sum_kl R[i,j,k,l] b+_k b+_l``
    * ``annihilate-annihilate``:  same shape on ``b-`` (dual grades braid
      with the same coupling)
    * ``mixed``:  the twisted commutation relation

    Each defect vector must be a null vector of its sector's Gram form; the
    check passes when every Gram norm is below tolerance.  The relations are
    not expected to hold for every consistent model: a strictly braided model
    with positive definite Gram (e.g. a ``q``-swap model with ``|q| < 1``)
    genuinely has no create-create relation.
    """
    n_gen = model.n_generators
    grams = list(gram_tower(model, n_max + 2))
    terms = model.braid_terms
    line_defects = {"create-create": 0.0, "annihilate-annihilate": 0.0, "mixed": 0.0}
    witness = None
    worst = 0.0
    for n in range(n_max + 1):
        for w in basis_words(n_gen, n):
            base = FockVector.basis(w)
            for i in range(1, n_gen + 1):
                for j in range(1, n_gen + 1):
                    defects = {}
                    raised = FockVector.basis((i, j) + w)
                    for k, l, r in terms[i, j]:
                        raised = raised - FockVector.basis((k, l) + w).scale(r)
                    defects["create-create"] = _gram_norm(raised, grams[n + 2], n_gen)
                    if n >= 2:
                        lowered = annihilate_twisted(model, i, annihilate_twisted(model, j, base))
                        for k, l, r in terms[i, j]:
                            term = annihilate_twisted(model, k, annihilate_twisted(model, l, base))
                            lowered = lowered - term.scale(r)
                        defects["annihilate-annihilate"] = _gram_norm(lowered, grams[n - 2], n_gen)
                    defects["mixed"] = _gram_norm(_commutator_residual(model, i, j, base),
                                                  grams[n], n_gen)
                    for line, d in defects.items():
                        line_defects[line] = max(line_defects[line], d)
                        if d > worst:
                            worst = d
                            witness = {"line": line, "i": i, "j": j, "word": list(w)}
    return CheckReport.from_defect("exchange-nullity", worst, tol, witness,
                                   {"lines": line_defects, "n_max": n_max})


# ---------------------------------------------------------------------------
# Process programs


@dataclass(frozen=True)
class Create:
    index: int


@dataclass(frozen=True)
class AnnihilateFree:
    index: int


@dataclass(frozen=True)
class AnnihilateTwisted:
    index: int


@dataclass(frozen=True)
class Exchange:
    position: int


@dataclass(frozen=True)
class Scale:
    factor: complex


ProgramStep = Create | AnnihilateFree | AnnihilateTwisted | Exchange | Scale


def apply_program(model: ParticleModel, program: Sequence[ProgramStep], v: FockVector) -> FockVector:
    """Run elementary steps left to right.  Composite creations are realized
    as consecutive :class:`Create` steps."""
    state = v
    for step in program:
        if isinstance(step, Create):
            state = create(model, step.index, state)
        elif isinstance(step, AnnihilateFree):
            state = annihilate_free(model, step.index, state)
        elif isinstance(step, AnnihilateTwisted):
            state = annihilate_twisted(model, step.index, state)
        elif isinstance(step, Exchange):
            out = FockVector.zero()
            for w, a in state.items():
                out = out + braid_on_word(model, w, step.position).scale(a)
            state = out
        elif isinstance(step, Scale):
            state = state.scale(step.factor)
        else:
            raise ValueError(f"unknown program step {step!r}")
    return state
