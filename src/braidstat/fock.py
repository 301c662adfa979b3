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

The hops ``(i, word) -> b-_i(word)`` are memoized, one memo per public call
(:func:`annihilate_twisted`, :func:`commutator_defect`,
:func:`check_braid_exchange_relations`, ``check_relation_transport``) and one
per Gram pass, dropped when the call returns.  Indices are validated where
input enters, in the public functions; the hop recursion does no checks.

The sector-``n`` Gram matrix has entries
``G[w, w'] = <vacuum | b-_{w_n} ... b-_{w_1} | w'>``; its rank is the
dimension of the physical (null-state-free) sector.  :func:`gram_tower`
yields the Grams of sectors ``0..n`` from one pass of the recursion, so a
caller that needs several sectors builds each of them once.

The Gram is built and analysed in weight blocks.  When the model conserves
letters (diagonal pairing, and every cross term ``(k, l, t)`` of ``T(i, j)``
has ``{i, l} == {j, k}``; see
:attr:`~braidstat.models.ParticleModel.conserves_letters`), ``b-_i`` maps the
words with multiset of letters ``M`` to those with ``M - {i}``, so ``G_n`` is
block-diagonal with one block per multiset and every entry between blocks is
exactly 0.  A model that does not conserve letters gets one block holding
every word, and runs through the same code.  Rank and positivity come from
one ``eigvalsh`` of the Hermitian part of each block: the rank counts the
eigenvalues with ``|lambda| >= tol * max(1, top)``, ``top`` the largest
``|lambda|`` of the sector, which is the cut against the largest singular
value of the whole matrix.  The dense ``N^n x N^n`` matrix is filled from the
blocks only when :attr:`GramResult.matrix` is read.

Two guards bound a sector computation: :data:`MAX_SECTOR_SIZE` on the number
``N^n`` of words (it bounds the hop memo), and :data:`MAX_GRAM_BYTES` on the
``16 * rows^2`` bytes of the largest complex matrix allocated, the largest
block or, for :func:`gram_matrix`, the dense Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import ParticleModel, braid_on_word
from .report import CheckReport, FAIL, PASS, SKIPPED
from .words import FockVector, TensorWord, basis_words, word_index

#: Hard guard on the number N^n of words in a sector computation.
MAX_SECTOR_SIZE = 100_000
#: Hard guard on the bytes (16 per complex entry) of the largest Gram matrix
#: that a sector computation allocates.
MAX_GRAM_BYTES = 1 << 28


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


def _guard_gram(model: ParticleModel, n: int, dense: bool = False) -> None:
    """Both guards, before any Gram of sector ``n`` is built: the largest
    matrix is the dense Gram if ``dense``, else the largest weight block."""
    _guard_sector(model, n)
    n_gen = model.n_generators
    if dense or not model.conserves_letters:
        rows = n_gen ** n
    else:
        # the multinomial n! / prod(c_i!) is largest for the most even counts
        q, r = divmod(n, n_gen)
        rows = math.factorial(n) // (math.factorial(q + 1) ** r
                                     * math.factorial(q) ** (n_gen - r))
    if 16 * rows * rows > MAX_GRAM_BYTES:
        raise ResourceLimitError(
            f"a {rows}x{rows} complex Gram matrix in sector {n} needs {16 * rows * rows} bytes, "
            f"over the guard of {MAX_GRAM_BYTES}"
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
        g = model._pairing_rows[i - 1][j - 1]
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


def _lower(model: ParticleModel, i: int, v: FockVector, memo: dict) -> FockVector:
    """:func:`annihilate_twisted` without index checks, hopping through ``memo``."""
    out: dict[TensorWord, complex] = {}
    for w, a in v.items():
        for w2, amp in _twisted_on_word(model, i, w, memo).items():
            out[w2] = out.get(w2, 0.0) + amp * a
    return FockVector(out)


def annihilate_twisted(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Hopping annihilator; see the module docstring for the expansion."""
    model._check_index(i)
    for w, _ in v.items():
        model.check_word(w)
    return _lower(model, i, v, {})


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


def _wick_twisted_sum(model: ParticleModel, i: int, j: int, v: FockVector,
                      memo: dict) -> FockVector:
    """``sum_kl T[i,j,k,l] b+_l b-_k`` applied to ``v``."""
    out = FockVector.zero()
    for k, l, t in model.cross_terms[i, j]:
        out = out + create(model, l, _lower(model, k, v, memo)).scale(t)
    return out


def _commutator_residual(model: ParticleModel, i: int, j: int, v: FockVector,
                         memo: dict) -> FockVector:
    lhs = _lower(model, i, create(model, j, v), memo)
    rhs = _wick_twisted_sum(model, i, j, v, memo)
    return lhs - rhs - v.scale(model.pairing_entry(i, j))


def commutator_defect(model: ParticleModel, i: int, j: int, n: int, tol: float = 1e-9) -> CheckReport:
    """Defect of ``b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j>`` on sector ``n``."""
    model._check_index(i)
    model._check_index(j)
    _guard_sector(model, n)
    defect = 0.0
    witness = None
    memo: dict = {}
    for w in basis_words(model.n_generators, n):
        d = _commutator_residual(model, i, j, FockVector.basis(w), memo).norm()
        if d > defect:
            defect, witness = d, list(w)
    return CheckReport.from_defect("twisted-commutator", defect, tol, witness,
                                   {"i": i, "j": j, "sector": n})


# ---------------------------------------------------------------------------
# Gram matrices and sector dimensions


class GramBlock(NamedTuple):
    """The Gram of the words that share one multiset of letters."""

    words: list[TensorWord]
    matrix: np.ndarray


class GramResult:
    """The sector-``n`` Gram matrix, held as its weight blocks.

    Each block lists its words in lexicographic order.  ``position`` maps each
    word of the sector to its block and its row there; entries between two
    blocks are exactly 0.
    """

    def __init__(self, sector: int, n_generators: int, blocks: list[GramBlock]):
        self.sector = sector
        self.n_generators = n_generators
        self.blocks = blocks
        self.position = {w: (b, r) for b, block in enumerate(blocks)
                         for r, w in enumerate(block.words)}
        self.asymmetry = max(float(np.abs(g.matrix - g.matrix.conj().T).max()) for g in blocks)
        #: size of the largest entry, at least 1: the unit of the relative cuts
        self.scale = max(1.0, max(float(np.abs(g.matrix).max()) for g in blocks))
        self.hermitian = self.asymmetry <= 1e-9 * self.scale

    @property
    def words(self) -> list[TensorWord]:
        """Every word of the sector, in the lexicographic order of :attr:`matrix`."""
        return basis_words(self.n_generators, self.sector)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``N^n x N^n`` Gram over :attr:`words`, filled from the blocks."""
        size = self.n_generators ** self.sector
        dense = np.zeros((size, size), dtype=complex)
        for block in self.blocks:
            rows = [word_index(w, self.n_generators) for w in block.words]
            dense[np.ix_(rows, rows)] = block.matrix
        return dense

    @cached_property
    def spectrum(self) -> list[np.ndarray]:
        """Eigenvalues of the Hermitian part of each block."""
        return [np.linalg.eigvalsh((g.matrix + g.matrix.conj().T) / 2.0) for g in self.blocks]


class SectorDimension(NamedTuple):
    full: int
    quotient: int


def gram_tower(model: ParticleModel, n: int) -> Iterator[GramResult]:
    """Yield the Gram matrices of sectors ``0..n`` in order, from one pass.

    Built iteratively, block by block: with ``B_i`` the matrix of ``b-_i``
    from block ``M`` of sector ``m`` to block ``M - {i}`` of sector ``m-1``,
    the rows of block ``M`` whose word starts with ``i`` equal
    ``G_{M-{i}} @ B_i``, one product for each distinct letter ``i`` of ``M``.
    A model that does not conserve letters has one block per sector, which
    makes this the dense recursion.  One hop memo serves every sector.
    """
    _guard_gram(model, n)
    n_gen = model.n_generators
    conserving = model.conserves_letters
    memo: dict = {}
    result = GramResult(0, n_gen, [GramBlock([()], np.ones((1, 1), dtype=complex))])
    yield result
    for m in range(1, n + 1):
        # (letter, lower block) pairs of each block, by ascending letter, so
        # that the stacked words of a block come in lexicographic order
        parts: dict[tuple, list[tuple[int, int]]] = {}
        for i in range(1, n_gen + 1):
            for b, lower in enumerate(result.blocks):
                key = tuple(sorted((i,) + lower.words[0])) if conserving else ()
                parts.setdefault(key, []).append((i, b))
        blocks = []
        for stack in parts.values():
            words = [(i,) + w for i, b in stack for w in result.blocks[b].words]
            gram = np.empty((len(words), len(words)), dtype=complex)
            top = 0
            for i, b in stack:
                lower = result.blocks[b]
                hop = np.zeros((len(lower.words), len(words)), dtype=complex)
                for c, w in enumerate(words):
                    for w2, amp in _twisted_on_word(model, i, w, memo).items():
                        b2, r = result.position[w2]
                        if b2 != b:
                            raise RuntimeError(f"b-_{i} maps {w} to {w2}, outside the block "
                                               f"of {lower.words[0]}")
                        hop[r, c] += amp
                gram[top:top + len(lower.words)] = lower.matrix @ hop
                top += len(lower.words)
            blocks.append(GramBlock(words, gram))
        result = GramResult(m, n_gen, blocks)
        yield result


def _sector_gram(model: ParticleModel, n: int) -> GramResult:
    for result in gram_tower(model, n):
        pass
    return result


def gram_matrix(model: ParticleModel, n: int) -> GramResult:
    """Matrix of scalar products between all sector-``n`` basis words.

    The byte guard counts the dense matrix, which :attr:`GramResult.matrix`
    fills when read.
    """
    _guard_gram(model, n, dense=True)
    return _sector_gram(model, n)


def _quotient_rank(result: GramResult, tol: float) -> int:
    """Rank of a Hermitian sector Gram, cut at ``tol`` times its largest singular value."""
    if result.asymmetry > tol * result.scale:
        raise HermiticityError(result.asymmetry, result.sector)
    top = max(float(np.abs(e).max()) for e in result.spectrum)
    cut = tol * max(1.0, top)
    return sum(int(np.count_nonzero(np.abs(e) >= cut)) for e in result.spectrum)


def _psd_report(result: GramResult, tol: float) -> CheckReport:
    """``gram-psd`` on one sector Gram; the tolerance is relative to its largest entry."""
    n = result.sector
    if result.asymmetry > tol * result.scale:
        return CheckReport("gram-psd", SKIPPED, result.asymmetry, "non-hermitian gram",
                           {"sector": n, "asymmetry": result.asymmetry})
    min_eig = min(float(e.min()) for e in result.spectrum)
    status = PASS if min_eig >= -tol * result.scale else FAIL
    return CheckReport("gram-psd", status, max(0.0, -min_eig), None,
                       {"sector": n, "min_eigenvalue": min_eig})


def sector_dimension(model: ParticleModel, n: int, tol: float = 1e-9) -> SectorDimension:
    """Full dimension ``N^n`` and the rank of the sector Gram matrix."""
    return SectorDimension(model.n_generators ** n, _quotient_rank(_sector_gram(model, n), tol))


def gram_psd_check(model: ParticleModel, n: int, tol: float = 1e-9) -> CheckReport:
    """Positive semidefiniteness of the sector Gram matrix."""
    return _psd_report(_sector_gram(model, n), tol)


def _gram_norm(vector: FockVector, gram: GramResult) -> float:
    """Norm of ``vector`` under the (possibly degenerate) sector Gram form."""
    if vector.is_zero:
        return 0.0
    value = 0.0 + 0.0j
    items = [(gram.position[w], a) for w, a in vector.items()]
    for (b, r), a in items:
        row = gram.blocks[b].matrix[r]
        for (b2, r2), c in items:
            if b2 == b:
                value += a.conjugate() * row[r2] * c
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
    memo: dict = {}
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
                    defects["create-create"] = _gram_norm(raised, grams[n + 2])
                    if n >= 2:
                        lowered = _lower(model, i, _lower(model, j, base, memo), memo)
                        for k, l, r in terms[i, j]:
                            term = _lower(model, k, _lower(model, l, base, memo), memo)
                            lowered = lowered - term.scale(r)
                        defects["annihilate-annihilate"] = _gram_norm(lowered, grams[n - 2])
                    defects["mixed"] = _gram_norm(_commutator_residual(model, i, j, base, memo),
                                                  grams[n])
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


ProgramStep = Create | AnnihilateFree | AnnihilateTwisted | Exchange


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
        else:
            raise ValueError(f"unknown program step {step!r}")
    return state
