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
per pair, so the step pays one exchange phase per letter passed.  The
recursion gives the residual of the twisted commutation relation

    (b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j>) w = (1 - s) s sum_{(k, l, t)} t (l, b-_k w),

``1 - s`` times the hop terms of ``b-_i`` on ``(j, w)``: for ``s = +1`` it is
empty by construction, and neither built nor normed.

One engine evaluates the recursion, on weight blocks.  When the model conserves
letters (:attr:`~braidstat.models.ParticleModel.conserves_letters`: diagonal
pairing, and every cross term ``(k, l, t)`` of ``T(i, j)`` has
``{i, l} == {j, k}``), ``b-_i`` maps the words with multiset of letters ``M``
to those with ``M - {i}``; otherwise one block holds every word, through the
same code.  Each sector has one block layout (:func:`_layout`), built block by
block from the one below, and one word map, each block's word positions read off
its runs, built only when read.
The annihilator block ``B_i: M -> M - {i}`` of sector ``m``
(:func:`_annihilators`) is, on its columns that start with ``j``,

    B_i[:, (j, .)] = <i|j> I + sum_{(k, l, s t)} s t * (rows that start with l) B_k(M - {j})

with ``B_k`` of sector ``m - 1``, every entry summed from 0 in that order: the
pairing first, then the terms of ``T(i, j)`` in order (:func:`_term_plan`).
:func:`_tower` builds each sector's blocks from the sector below's, and its Gram
with them; :func:`_hops` builds the blocks alone, for :func:`commutator_defect`
and the relation transport of :mod:`~braidstat.transmute`.
:func:`annihilate_twisted` runs the same recursion on the suffixes of one word,
as dicts of words summed in the same order, so it works on words far longer
than a whole sector could hold; on a real model it equals the blocks bit for
bit (a complex product may round its last bit otherwise).  Each public call
builds its own blocks and drops them when it returns; none is kept on the model
or in a module.  Indices are validated where input enters, once, in the public
functions (the word operators through :func:`_check_letters`); their loops and
the engine read the model's tables unchecked.

The checks read the blocks one sector at a time, for every pair ``(i, j)`` at
once, each line as soon as its blocks exist: annihilate-annihilate from the
products ``B_k B_l`` of sectors ``n - 1`` and ``n``, normed under ``G_{n-2}``;
the residual and the mixed line from the hop terms of the ``B_i`` of sector
``n + 1``; create-create from each word's minor of ``G_{n+2}`` on the words
``(k, l) + w``, gathered from its blocks through its layout, in one contraction
with ``C``.  Residuals and products keep the entries above
:data:`~braidstat.words.PRUNE_EPS`, as :class:`~braidstat.words.FockVector`
does.  A check's witness is the first candidate, in the order its loop is
documented in, whose defect is at least ``max * (1 - 1e-12)``: defects equal in
exact arithmetic may differ in their last bits, and the band keeps the witness
where exact arithmetic puts it.  Infinite statistics is exact by construction
and reported without computing, and so are the exchange relations of a graded
model of a commutation factor
(:attr:`~braidstat.models.ParticleModel.exchange_relations_exact`, proved at
:func:`_fock_pass`): no array is built for them.

The sector-``n`` Gram matrix has entries
``G[w, w'] = <vacuum | b-_{w_n} ... b-_{w_1} | w'>``; its rank is the
dimension of the physical (null-state-free) sector.  One pass of the
recursion (:func:`_tower`) gives the Grams of sectors ``0..n``, so ``check``
builds each sector once, in one tower to ``n_max + 2``, or to ``n_max`` for its
Gram rows alone where the exchange relations hold exactly (none on the
colour-symmetric class below).  ``G_n`` is block-diagonal with one block per
multiset, every entry between blocks exactly 0, and the rows of ``G_M`` that
start with ``i`` are ``G_{M - {i}} B_i``.  A block that is exactly 0 is not
stored, every reader takes a missing block as exactly 0, and once a whole sector
stores no block the tower builds no further annihilator block but those a check
reads.  The dense matrix is filled from the blocks only when
:attr:`GramResult.matrix` is read.

Every reader (``check``, ``gram``, :func:`sector_dimension`,
:func:`gram_psd_check`) asks a sector two questions, each with one reading.  The
rank (:func:`_rank`) and how it is known: a class theorem's (:func:`_theorems`),
else the count of the eigenvalues of :attr:`GramResult.spectrum` past the cut.
The ``gram-psd`` row (:func:`_psd_report`): the theorem's status, with its least
eigenvalue where it gives one, else the least eigenvalue of the one weight block
that holds every eigenvalue, where the theorem names it
(:meth:`GramResult._least_in`; :func:`gram_psd_check` then builds only the blocks
inside it), else the minimum of the spectrum.  A Gram not Hermitian within
``tol`` has no rank and a skipped row; only :func:`sector_dimension` and
:meth:`GramResult.quotient_rank` raise for it (:func:`_hermitian_rank`).  The
theorems read ``G_n = P^(x)n X_n`` off the pairing's eigenvalues, ``X_n`` the
Gram at ``P = I`` (:attr:`~braidstat.models.ParticleModel.gram_class`):
positive definite on the contractive q-models, ``n! Pi_n`` on the
colour-symmetric class.  There the Gram is Hermitian exactly (``gram-hermitian``
reads 0), and a reader builds a Gram only for a contractive least eigenvalue
that is not exactly 0.

The engine computes in :attr:`~braidstat.models.ParticleModel.scalar_type`: a
model with real pairing and exchange terms (+-1 gradings, real ``q``) gets real
annihilator and Gram blocks, residuals and products, and the real symmetric
``eigvalsh``, and :attr:`GramResult.matrix` and :attr:`GramBlock.matrix` are
handed out in that type, in every sector; amplitudes stay complex.

Before a sector computation runs, :data:`MAX_SECTOR_SIZE` bounds both the
number ``N^n`` of its words and their length ``n``.  :data:`MAX_GRAM_BYTES`
bounds the Gram blocks the tower holds, counted from sector 0 up at 8 or 16
bytes per entry of the scalar type, each sector's before any of them is
allocated, and one sector's annihilator blocks, at 8 or 16 bytes per entry, as
they are allocated.  Before anything is built, it bounds the dense Gram of
:func:`gram_matrix`, at 8 or 16 bytes per entry of the scalar type.  These
bound the blocks, not the process: temporaries and the sector below's
annihilator blocks come on top.  An annihilator block (scanned only where its
bound does not rule an overflow out), a spectrum, a least eigenvalue or a norm
that overflows the float range is refused by one check, :func:`_finite`, which
raises :class:`NonFiniteError` naming the sector; a Gram block is refused as
:class:`GramResult` stores it, and a word's hops in :func:`annihilate_twisted`
as they are summed, with the same error.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .models import ParticleModel, _action_matrix, braid_on_word
from .report import CheckReport, FAIL, PASS, SKIPPED
from .words import PRUNE_EPS, FockVector, TensorWord, basis_words

#: Hard guard on the number N^n of words of a sector that a check or a Gram
#: walks, and on their length n; a check's Gram tower may go two sectors past it.
MAX_SECTOR_SIZE = 100_000
#: Hard guard on bytes: of all the Gram blocks a tower has allocated, of one
#: sector's annihilator blocks, and of the dense Gram, in the model's scalar
#: type, that :func:`gram_matrix` can fill.
MAX_GRAM_BYTES = 1 << 28
#: A witness is the first candidate whose defect is within this relative band
#: of the largest.
_WITNESS_BAND = 1e-12


class ResourceLimitError(ValueError):
    """A sector computation would exceed a desk-scale guard: on the words of a sector, or on
    the bytes of its Gram or annihilator blocks."""


class NonFiniteError(ValueError):
    """An annihilator block, a Gram block, its spectrum or a norm read off them overflowed."""


class HermiticityError(ValueError):
    """The Gram matrix is not Hermitian within tolerance."""

    def __init__(self, asymmetry: float, sector: int):
        self.asymmetry = asymmetry
        self.sector = sector
        super().__init__(
            f"sector {sector} Gram matrix is not Hermitian: max asymmetry {asymmetry:.3e}"
        )


def _guard_sectors(model: ParticleModel, n_max: int) -> None:
    """The word guards on sectors ``0..n_max``, naming the first sector past the
    count.  The size grows from 1 and stops there, so a deep ``n_max`` costs a
    few steps; one generator has one word per sector, so only its length counts."""
    if n_max < 0:
        raise ValueError(f"sector must be >= 0, got {n_max}")
    n_gen, n, size = model.n_generators, 0, 1
    while n < n_max and n_gen > 1 and size <= MAX_SECTOR_SIZE:
        n, size = n + 1, size * n_gen
    if size > MAX_SECTOR_SIZE:
        raise ResourceLimitError(f"sector size {n_gen}^{n} exceeds the guard of {MAX_SECTOR_SIZE}")
    if n_max > MAX_SECTOR_SIZE:
        raise ResourceLimitError(f"word length {n_max} exceeds the guard of {MAX_SECTOR_SIZE}")


def _check_tol(tol: float) -> None:
    """The ``--tol`` rule on the tolerance of a public function: a finite number ``>= 0``."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# Elementary operators


def _check_letters(model: ParticleModel, v: FockVector, *indices: int) -> None:
    """The entry check of a word operator: its generator ``indices``, then every letter of
    every word of ``v``, so that its loops read the model's tables unchecked."""
    for word in (indices, *(w for w, _ in v.items())):
        model.check_word(word)


def create(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Left-prepend generator ``i`` to every word, linearly."""
    _check_letters(model, v, i)
    return FockVector({(i,) + w: a for w, a in v.items()})


def annihilate_free(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Pair dual letter ``i`` with the first letter only; the vacuum maps to 0."""
    _check_letters(model, v, i)
    out: dict[TensorWord, complex] = {}
    for w, a in v.items():
        if not w:
            continue
        g = complex(model.pairing[i - 1, w[0] - 1])
        if g != 0:
            rest = w[1:]
            out[rest] = out.get(rest, 0.0) + g * a
    return FockVector(out)


# ---------------------------------------------------------------------------
# The recursion


def _word(index, length: int, n_gen: int) -> TensorWord:
    """The word of the given length at lexicographic position ``index``."""
    index = int(index)
    return tuple(index // n_gen ** p % n_gen + 1 for p in reversed(range(length)))


def _typed(model: ParticleModel, values) -> np.ndarray:
    """``values`` in the model's scalar type, where their imaginary part is exactly 0."""
    values = np.asarray(values)
    return values.real if model.scalar_type is float and not values.imag.any() else values


def _term_plan(model: ParticleModel) -> list[list[tuple]]:
    """``plan[i - 1][j - 1] = (<i|j>, ((k, l, s t), ...))`` in the model's scalar type, the
    terms in :attr:`~braidstat.models.ParticleModel.cross_terms` order: what the recursion
    adds into ``b-_i`` on the words that start with ``j``, in the order it is summed."""
    n_gen, sign, real = model.n_generators, float(model.expansion_sign), model.scalar_type is float
    pairing = _typed(model, model.pairing).tolist()
    return [[(pairing[i - 1][j - 1], tuple((k, l, (sign * t).real if real else sign * t)
                                           for k, l, t in model.cross_terms[i, j]))
             for j in range(1, n_gen + 1)] for i in range(1, n_gen + 1)]


def _pruned(values: np.ndarray) -> np.ndarray:
    """``values`` with the entries up to :data:`~braidstat.words.PRUNE_EPS` set to 0, in place."""
    values[np.abs(values) <= PRUNE_EPS] = 0
    return values


def _finite(values: np.ndarray | float, what: str) -> np.ndarray | float:
    """``values`` (an array or a number), all finite, else an error naming ``what``."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} overflow the float range")
    return values


def annihilate_twisted(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Hopping annihilator; see the module docstring for the expansion.  Each word
    is read suffix by suffix, shortest first: every ``b-_k`` on a suffix is a dict
    of words, so a word far longer than a whole sector costs only its suffixes."""
    _check_letters(model, v, i)
    plan, out = _term_plan(model), {}
    for w, a in v.items():
        hops: list[dict] = [{} for _ in plan]  # b-_k on the empty suffix
        for p in range(len(w) - 1, -1, -1):
            j, rest, level = w[p], w[p + 1:], []
            for row in plan:
                pairing, terms = row[j - 1]
                hop = {rest: pairing} if pairing else {}  # each sum starts at 0, and 0 + <i|j> is <i|j>
                for k, l, factor in terms:
                    for u, amp in hops[k - 1].items():
                        key = (l,) + u
                        hop[key] = hop.get(key, 0.0) + amp * factor
                level.append({u: amp for u, amp in hop.items() if amp != 0})
            if not all(cmath.isfinite(amp) for hop in level for amp in hop.values()):
                raise NonFiniteError(f"the annihilators of sector {len(w) - p} overflow the float range")
            hops = level
        for u, amp in hops[i - 1].items():
            out[u] = out.get(u, 0.0) + amp * a
    return FockVector(out)


# ---------------------------------------------------------------------------
# Relation checks


def _locate(defects: list[np.ndarray]) -> tuple[float, tuple | None]:
    """The largest defect over arrays listed in loop order, and the first
    entry within the witness band of it as ``(array number, index)``, or
    ``None`` when every defect is 0."""
    flat = np.concatenate([d.ravel() for d in defects] + [np.zeros(0)])
    worst = float(flat.max(initial=0.0))
    if worst == 0.0:
        return 0.0, None
    at = int(np.argmax(flat >= worst * (1.0 - _WITNESS_BAND)))
    for number, d in enumerate(defects):
        if at < d.size:
            return worst, (number, np.unravel_index(at, d.shape))
        at -= d.size


def check_infinite_statistics(model: ParticleModel, n_max: int = 4, tol: float = 1e-9) -> CheckReport:
    """Free relation ``a-_i a+_j = <i|j> id`` on all basis words up to ``n_max``.

    ``a-_i`` is the pairing part of the recursion, which puts ``<i|j>``
    exactly where the relation subtracts it, so the relation holds by
    construction and the report is exact, as grade-diagonal Yang-Baxter's is;
    the sector guards still apply.  The reversed composition ``a+_j a-_i`` is
    *not* scalar; see the tests for the documented non-relation.
    """
    _check_tol(tol)
    _guard_sectors(model, n_max)
    return CheckReport.from_defect("infinite-statistics", 0.0, tol, None,
                                   {"n_max": n_max, "exact": True})


def _commutator_report(defects: np.ndarray, i: int, j: int, n: int, tol: float) -> CheckReport:
    """:func:`commutator_defect` from the norms of the residuals of one sector,
    indexed ``[i - 1, j - 1, word]``."""
    defect, at = _locate([defects[i - 1, j - 1]])
    witness = None if at is None else list(_word(at[1][0], n, len(defects)))
    return CheckReport.from_defect("twisted-commutator", defect, tol, witness,
                                   {"i": i, "j": j, "sector": n})


def commutator_defect(model: ParticleModel, i: int, j: int, n: int, tol: float = 1e-9) -> CheckReport:
    """Defect of ``b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j>`` on sector ``n``;
    the witness is the first word in lexicographic order."""
    _check_tol(tol)
    model._check_index(i)
    model._check_index(j)
    _guard_sectors(model, n)
    if model.expansion_sign == 1:  # the residual is empty: reported without computing
        return CheckReport.from_defect("twisted-commutator", 0.0, tol, None, {"i": i, "j": j, "sector": n})
    for layout, hops in _hops(model, n):  # sectors 0..n, no Gram
        pass
    norms = _residual_norms(model, n + 1, _layout(model, n + 1, layout), hops, layout)
    return _commutator_report(_finite(norms, f"the twisted commutator residuals of sector {n}"), i, j, n, tol)


def _twisted_commutators(model: ParticleModel, residuals: list[np.ndarray], n_max: int,
                         tol: float) -> CheckReport:
    """The ``twisted-commutators`` row of ``check`` from the residual norms of sectors
    ``0..n_max``: the :func:`commutator_defect` report of the last ``(i, j, n)``, in
    that order, with the largest defect; its witness only if it fails."""
    n_gen = model.n_generators
    if model.expansion_sign == 1:  # every defect is exactly 0: commutator_defect's row, computing nothing
        return replace(commutator_defect(model, n_gen, n_gen, n_max, tol), name="twisted-commutators")
    defects = [_finite(d, f"the twisted commutator residuals of sector {n}") for n, d in enumerate(residuals)]
    worst = np.stack([d.max(axis=2, initial=0.0) for d in defects], axis=2).ravel()
    last = len(worst) - 1 - int(np.argmax(worst[::-1] == worst.max()))
    i, j, n = (int(k) for k in np.unravel_index(last, (n_gen, n_gen, len(defects))))
    rep = _commutator_report(defects[n], i + 1, j + 1, n, tol)
    return replace(rep, name="twisted-commutators", witness=rep.witness if rep.failed else None)


# ---------------------------------------------------------------------------
# Gram matrices and sector dimensions


class GramBlock(NamedTuple):
    """The Gram of the words that share one multiset of letters."""

    words: list[TensorWord]
    matrix: np.ndarray


class _Layout:
    """The weight blocks of one sector, in ascending order of their sorted words
    ``keys``; block ``c`` has the rows ``0`` to ``start[c + 1] - start[c] - 1``.  For each
    run ``(j, row, b, rows)`` of ``runs[c]``, its rows from ``row`` on are the ``rows`` words
    ``(j, w)``, ``w`` in block ``b`` of the sector below, in ``b``'s order.  The one word
    map, built when first read: row ``r`` of block ``c`` is the word at lexicographic
    position ``order[start[c] + r]``, ascending within each block."""

    def __init__(self, keys: list, runs: list, start: list[int], order: Callable[[], np.ndarray]):
        self.keys, self.runs, self.start, self._order = keys, runs, np.array(start), order

    @cached_property
    def order(self) -> np.ndarray:
        order, self._order = self._order(), None  # and lets the sector below go
        return order


def _layout(model: ParticleModel, m: int, below: _Layout | None = None,
            within: tuple | None = None) -> _Layout:
    """The blocks of sector ``m``, from those of sector ``m - 1`` (``below``, else
    computed), block by block: a model that does not conserve letters, or has one
    generator, has one block.  Given the sorted word ``within``, only the blocks whose
    multiset lies inside it, as :func:`gram_psd_check` reads them.  Block ``c``'s
    positions are read off its runs: ``(j - 1) N^(m - 1)`` plus the positions of block
    ``b`` below, run after run."""
    n_gen, size = model.n_generators, model.n_generators ** m
    span = size // n_gen
    if m == 0 or n_gen == 1 or not model.conserves_letters:
        runs = [[(j, (j - 1) * span, 0, span) for j in range(1, n_gen + 1)] if m else []]
        return _Layout([()], runs, [0, size], lambda: np.arange(size))
    below = _layout(model, m - 1, within=within) if below is None else below
    found: dict[tuple, list] = {}  # a block's sorted word: (j, b) for its words (j, w), w in block b
    for b, word in enumerate(below.keys):
        for j in range(1, n_gen + 1):
            if within is None or word.count(j) < within.count(j):
                at = bisect.bisect_right(word, j)
                found.setdefault(word[:at] + (j,) + word[at:], []).append((j, b))
    keys, sizes = sorted(found), np.diff(below.start).tolist()
    runs, start = [], [0]
    for key in keys:
        row, run = 0, []
        for j, b in sorted(found[key]):
            run.append((j, row, b, sizes[b]))
            row += sizes[b]
        runs.append(run)
        start.append(start[-1] + row)
    return _Layout(keys, runs, start, lambda: np.concatenate(
        [(j - 1) * span + below.order[below.start[b]:below.start[b + 1]] for r in runs for j, _, b, _ in r]))


def _halves(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``g / 2`` and ``g^H / 2``, exactly; ``G +- G^H`` summed from them does not overflow."""
    half = g * 0.5
    return half, half.conj().T


class _Theorem(NamedTuple):
    """A sector Gram as a class theorem reads it (:func:`_theorems`), with no spectral step:
    Hermitian exactly, of rank ``rank``, with a negative eigenvalue exactly where ``negative``;
    ``least`` is its least eigenvalue, or ``None`` where the theorem leaves that to the computed
    spectrum.  ``source`` names the theorem.  ``holder`` is the sorted word of the weight block
    that holds every eigenvalue of the sector, where the theorem names one, else ``None``."""

    sector: int
    source: str
    rank: int
    negative: bool = False
    least: float | None = None
    holder: tuple | None = None


def _theorems(model: ParticleModel, n: int) -> list[_Theorem | None]:
    """Sectors ``0..n`` as a class theorem reads them
    (:attr:`~braidstat.models.ParticleModel.gram_class`), each ``None`` outside the classes.

    On both classes ``G_n = P^(x)n X_n`` and ``[P^(x)n, X_n] = 0``, ``P`` the pairing and ``X_n``
    the Gram at ``P = I``.  Contractive: ``P_ik != 0`` only where letters ``i`` and ``k`` have
    equal q-rows, so the recursion gives ``b-_i = sum_k P_ik a-_k``, ``a-_k`` the annihilator at
    ``P = I``; ``X_n`` is positive definite (Bozejko-Speicher, Math. Ann. 300, 1994; Zagier,
    Commun. Math. Phys. 147, 1992, for one ``q``) and, ``q_ij`` reading only the blocks of ``i``
    and ``j``, commutes with ``U^(x)n`` for any ``U`` that keeps the blocks.  Colour-symmetric:
    ``X_n = n! Pi_n`` (Scheunert, J. Math. Phys. 20, 1979): ``b-_i`` pairs ``i`` with each letter
    of the word, only within a grade, so ``G_n = sum_sigma P^(x)n rho(sigma)``, ``rho`` the colour
    permutation, whose phases read only the grades, and ``Pi_n``, the average of the unitary
    ``rho``, is an orthogonal projection.  Diagonalize each block ``P_b = U_b D_b U_b^H``: on the
    tensors of eigenvectors with eigenvalue letters ``M``, ``G_n`` is ``prod_{mu in M} mu`` times
    ``X_n``.  So the contractive rank is ``r^n``, ``r = rank P``.  On the colour-symmetric class
    ``Pi_n`` maps each such tensor to a multiple of one unit vector, 0 exactly where a letter of
    self-phase ``eps(g, g) = -1`` repeats (swapping its two copies fixes the tensor and multiplies
    it by -1): the eigenvalues are ``n! prod_{mu in M} mu`` over the other multisets ``M``, and 0
    on the rest, so the rank is ``[t^n] prod_g (1 - t)^-r_g`` (self-phase +1) or ``(1 + t)^r_g``
    (-1), ``r_g = rank P_g``.  The signs and zeros of the eigenvalues are exact, so the rank and
    ``negative`` are.  One pass over the eigenvalues, by degree, counts the monomials and keeps
    the largest magnitude of each sign parity: ``negative`` where an odd one exists.  The least
    eigenvalue is 0 where the rank is below ``N^n`` and none is negative; else ``n!`` times the
    most negative, or the least, monomial on the colour-symmetric class, and the computed
    spectrum's on the contractive.  Only the magnitudes are floats.

    One weight block holds that spectrum where the contractive letters share one ``q`` and
    ``P = c I``, ``c != 0``, on ``N >= 2`` letters, all read exactly: the balanced block ``holder``,
    of ``m // N + 1`` copies of each of the first ``m % N`` letters and ``m // N`` of the others.
    There ``X_m`` commutes with ``U^(x)m`` for every ``U`` in ``U(N)``, so by Schur-Weyl duality it
    is ``sum_lambda 1_{V_lambda} (x) x_lambda`` over the partitions ``lambda`` of ``m`` with at most
    ``N`` parts, ``x_lambda`` acting on the multiplicity space.  The weight-``mu`` block of ``X_m``
    is then ``sum_lambda 1_{K_lambda,mu} (x) x_lambda``, ``K`` the Kostka numbers, and ``K_lambda,mu
    > 0`` iff ``lambda`` dominates ``mu`` (Fulton, Young Tableaux, 1997): its spectrum is the union
    of those of the ``x_lambda`` with ``lambda`` dominating ``mu``.  Every such ``lambda`` dominates
    the balanced weight, so that block's spectrum is all of ``X_m``'s, and ``G_m = c^m X_m`` block
    by block: its eigenvalues are the whole sector's, as a set.
    """
    reading = model.gram_class
    if reading is None:
        return [None] * (n + 1)
    source, spectrum = reading
    colour, n_gen, pairing = source == "colour-symmetric", model.n_generators, model.pairing
    scalar = (not colour and n_gen > 1 and pairing[0, 0] != 0
              and (pairing == pairing[0, 0] * np.eye(n_gen)).all()
              and len({t[0][2] if t else 0j for t in model.cross_terms.values()}) == 1)  # one q
    count = [1] + [0] * n  # the monomials of each degree
    most = [[1.0] + [None] * n, [None] * (n + 1)]  # the largest |monomial|, by its negative factors' parity
    top = 0  # the largest degree reached
    for size, negative, once in spectrum:  # each eigenvalue at most once (downward), or any number of times
        top = min(n, top + 1) if once else n
        for k in range(top, 0, -1) if once else range(1, n + 1):
            count[k] += count[k - 1]
            for parity in (0, 1):
                below = most[parity ^ negative][k - 1]
                if below is not None and (most[parity][k] is None or below * size > most[parity][k]):
                    most[parity][k] = below * size
    # a sector of rank N^n has n <= 1 or one letter, so its least monomial is the least |mu|^n
    smallest = min((size for size, _, _ in spectrum), default=0.0)
    theorems, factorial = [], 1.0
    for m in range(n + 1):
        factorial *= m or 1
        even, odd = most[0][m], most[1][m]
        rank = count[m] if colour else len(spectrum) ** m
        value = (0.0 if odd is None and rank < n_gen ** m else None if not colour
                 else -factorial * odd if odd is not None else factorial * smallest ** m)
        if colour and count[m] and not math.isfinite(factorial * max(even or 0.0, odd or 0.0)):
            value = math.inf  # an eigenvalue past the float range: psd_report refuses the sector
        holder = (tuple(i for i in range(1, n_gen + 1) for _ in range(m // n_gen + (i <= m % n_gen)))
                  if scalar else None)
        theorems.append(_Theorem(m, source, rank, odd is not None, value, holder))
    return theorems


class GramResult:
    """The sector-``n`` Gram matrix, held as one matrix per weight block of the
    sector's layout; entries between two blocks are exactly 0.  Only blocks with
    an entry that is not exactly 0 are stored, by ascending block number; a
    missing block is exactly 0.  Every matrix it hands out is of ``dtype``, the
    model's scalar type.  A non-finite entry raises :class:`NonFiniteError`."""

    def __init__(self, sector: int, n_generators: int, layout: _Layout,
                 matrices: dict[int, np.ndarray], dtype: type, theorem: _Theorem | None = None):
        self.sector = sector
        self.n_generators = n_generators
        self.dtype = np.dtype(dtype)
        #: the sector as a class theorem reads it (:func:`_theorems`), else ``None``
        self.theorem = theorem
        self._layout = layout
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the sector
            tops = {b: float(np.abs(g).max()) for b, g in matrices.items()}
        self._matrices = {b: g for b, g in matrices.items() if tops[b] > 0.0}
        #: size of the largest entry, at least 1: the unit of the relative cuts
        self.scale = max([1.0, *tops.values()])
        # the asymmetry is at most 2 scale: read here only where that may overflow
        if not all(map(math.isfinite, tops.values())) or (
                self.scale > np.finfo(float).max / 4 and not math.isfinite(self.asymmetry)):
            raise NonFiniteError(f"the Gram blocks of sector {sector} overflow the float range")

    @cached_property
    def asymmetry(self) -> float:
        """The largest ``|G - G^H|`` entry of the stored blocks: exactly 0 where :attr:`theorem`
        reads the sector, the Gram being Hermitian by the theorem."""
        if self.theorem is not None:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # refused in __init__, naming the sector
            # halved first, as in spectrum: g - g^H may overflow where its halves do not
            return max((2.0 * float(np.abs(np.subtract(*_halves(g))).max())
                        for g in self._matrices.values()), default=0.0)

    hermitian = property(lambda self: self.hermitian_within(1e-9))

    def hermitian_within(self, tol: float) -> bool:
        """The one Hermiticity cut, of the rank and the ``gram-psd`` and ``gram-hermitian`` rows."""
        return self.asymmetry <= tol * self.scale

    @property
    def words(self) -> list[TensorWord]:
        """Every word of the sector, in the lexicographic order of :attr:`matrix`."""
        return basis_words(self.n_generators, self.sector)

    @cached_property
    def blocks(self) -> list[GramBlock]:
        """Each block's words, in lexicographic order, with its Gram."""
        words, positions = self.words, np.split(self._layout.order, self._layout.start[1:-1])
        return [GramBlock([words[p] for p in at], self._matrices[b].copy()
                          if b in self._matrices else np.zeros((len(at), len(at)), dtype=self.dtype))
                for b, at in enumerate(positions)]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``N^n x N^n`` Gram over :attr:`words`, filled from the stored blocks."""
        size = self.n_generators ** self.sector
        dense = np.zeros((size, size), dtype=self.dtype)
        positions = np.split(self._layout.order, self._layout.start[1:-1])
        for b, g in self._matrices.items():
            dense[np.ix_(positions[b], positions[b])] = g
        return dense

    @cached_property
    def spectrum(self) -> list[np.ndarray]:
        """Eigenvalues of each block's Hermitian part, one ``eigvalsh`` per stored block: exact
        zeros for a missing block.  Read where no class theorem answers: its count is the rank
        (:func:`_rank`) and its minimum the least eigenvalue (:func:`_psd_report`)."""
        spectrum = [np.zeros(rows) for rows in np.diff(self._layout.start)]
        for b, g in self._matrices.items():
            spectrum[b] = self._eigenvalues(np.add(*_halves(g)))  # halved first: no overflow
        return spectrum

    def _eigenvalues(self, h: np.ndarray) -> np.ndarray:
        """``eigvalsh`` of a block's Hermitian part ``h``, all finite, else an error naming the
        sector."""
        return _finite(np.linalg.eigvalsh(h), f"the eigenvalues of sector {self.sector}")

    def _least_in(self, key: tuple) -> float:
        """The least eigenvalue of the Hermitian part of the block of sorted word ``key``, by
        ``eigvalsh``, or the exact 0 of a missing block."""
        g = self._matrices.get(self._layout.keys.index(key))
        return 0.0 if g is None else float(self._eigenvalues(np.add(*_halves(g))).min())

    def quotient_rank(self, tol: float) -> int:
        """Rank of a Hermitian sector Gram (:func:`_hermitian_rank`)."""
        return _hermitian_rank(self.theorem, lambda: self, tol)

    def psd_report(self, tol: float) -> CheckReport:
        """``gram-psd`` on this sector (:func:`_psd_report`)."""
        return _psd_report(self.theorem, lambda: self, tol)


def _rank(theorem: _Theorem | None, gram: Callable[[], GramResult], tol: float) -> tuple[int | None, str]:
    """The rank of a sector's Gram and how it is known: ``theorem``'s, named by it, with no Gram
    read; else the eigenvalues of :attr:`GramResult.spectrum` of the Gram ``gram()`` with
    ``|lambda| >= tol max(1, top)`` and ``|lambda| > 0``, ``top`` the largest ``|lambda|``, the cut
    against the largest singular value; an exact zero never counts (``"count"``).  A Gram that is
    not Hermitian within ``tol`` has no rank: ``None``."""
    if theorem is not None:
        return theorem.rank, theorem.source
    result = gram()
    if not result.hermitian_within(tol):
        return None, "count"
    magnitude = np.abs(np.concatenate(result.spectrum))
    cut = tol * max(1.0, float(magnitude.max()))
    return int(np.count_nonzero((magnitude >= cut) & (magnitude > 0.0))), "count"


def _hermitian_rank(theorem: _Theorem | None, gram: Callable[[], GramResult], tol: float) -> int:
    """:func:`_rank`'s rank, where the public functions promise one: a Gram that is not Hermitian
    within ``tol`` raises :class:`HermiticityError`."""
    rank = _rank(theorem, gram, tol)[0]
    if rank is None:
        result = gram()
        raise HermiticityError(result.asymmetry, result.sector)
    return rank


def _psd_report(theorem: _Theorem | None, gram: Callable[[], GramResult], tol: float) -> CheckReport:
    """``gram-psd`` on a sector.  Where ``theorem`` reads it, the status is the theorem's at any
    ``tol``, and the least eigenvalue is the theorem's where it gives one, with no Gram read.
    Otherwise the least eigenvalue is read from ``gram()``: off the one block that holds every
    eigenvalue where the theorem names it (:meth:`GramResult._least_in`), else as the minimum of
    :attr:`GramResult.spectrum`.  Outside the classes the row passes where it is at least
    ``-tol`` times the largest entry, and is skipped where the Gram is not Hermitian within
    ``tol``."""
    if theorem is not None and theorem.least is not None:
        sector, least, failed = theorem.sector, theorem.least, theorem.negative
    else:
        result = gram()
        if theorem is None and not result.hermitian_within(tol):
            return CheckReport("gram-psd", SKIPPED, result.asymmetry, "non-hermitian gram",
                               {"sector": result.sector, "asymmetry": result.asymmetry})
        holder = None if theorem is None else theorem.holder
        least = (float(np.concatenate(result.spectrum).min()) if holder is None
                 else result._least_in(holder))
        sector = result.sector
        failed = theorem.negative if theorem is not None else least < -tol * result.scale
    _finite(least, f"the eigenvalues of sector {sector}")
    return CheckReport("gram-psd", FAIL if failed else PASS, max(0.0, -least), None,
                       {"sector": sector, "min_eigenvalue": least})


class SectorDimension(NamedTuple):
    full: int
    quotient: int


def _annihilators(plan: list, m: int, runs: list, below: list[dict], wanted, dtype: type) -> Iterator[tuple]:
    """``(c, i, row, b, B_i, bound)`` for each run ``(i, row, b, rows)`` of each block ``c`` of
    sector ``m`` (``runs[c]``) with ``b`` in ``wanted``: ``B_i`` maps block ``c`` to block ``b``
    below, and ``bound`` is at least its largest ``|entry|``.  ``below[b]`` maps each first letter
    ``l`` of block ``b`` to its run's first row, ``B_l`` and bound.  By the recursion, the columns of
    the run ``(j, left, b_j, width)`` get ``<i|j> I``, then ``s t B_k`` of block ``b_j`` in the rows
    of the run of ``l``, for each ``(k, l, s t)`` of ``plan[i - 1][j - 1]``: each entry is summed
    from 0 in the recursion's order.  The guard counts each block before it is allocated; a block is
    scanned for a non-finite entry only where its bound does not rule one out."""
    itemsize, held = np.dtype(dtype).itemsize, 0
    for c, block in enumerate(runs):
        size = block[-1][1] + block[-1][3]
        for i, top, b, rows in block:
            if b not in wanted:
                continue
            held += itemsize * rows * size
            if held > MAX_GRAM_BYTES:
                raise ResourceLimitError(f"the annihilator blocks of sector {m} need {held} bytes, "
                                         f"over the guard of {MAX_GRAM_BYTES}")
            hop, bound = np.zeros((rows, size), dtype=dtype), 0.0
            for j, left, b_j, width in block:
                pairing, terms = plan[i - 1][j - 1]
                column = abs(pairing.real) + abs(pairing.imag)  # at least |<i|j>|, and no OverflowError
                if pairing:  # then b_j is b: the identity on it, written into zeros as 0 + <i|j> is <i|j>
                    hop.reshape(-1)[left:left + rows * (size + 1):size + 1] = pairing
                for k, l, factor in terms:
                    if k in below[b_j]:
                        _, inner, most = below[b_j][k]
                        up = below[b][l][0]
                        region = hop[up:up + len(inner), left:left + width]
                        region += factor * inner
                        column += (abs(factor.real) + abs(factor.imag)) * most
                bound = max(bound, column)
            if not bound < 2.0 ** 1000:
                _finite(hop, f"the annihilators of sector {m}")
            yield c, i, top, b, hop, bound


def _tower(model: ParticleModel, n: int, depth: int = -1,
           within: tuple | None = None) -> Iterator[tuple[GramResult, list[dict]]]:
    """Yield the Gram of each sector ``0..n`` from one pass, with its annihilator blocks
    ``hops[c][i] = (row, B_i, bound)`` up to sector ``depth`` (else none); given the sorted
    word ``within``, only the blocks whose multiset lies inside it (:func:`_layout`).

    The rows of block ``M`` whose word starts with ``i`` are ``G_{M-{i}} @ B_i``, one
    product for each distinct letter ``i`` of ``M``, ``B_i`` by :func:`_annihilators`
    from the ``B_k`` of sector ``m - 1``.  A block that is exactly 0 is not stored: the
    products of a missing ``G_{M-{i}}`` are skipped, and a block is allocated when a
    product first writes into it.  Sector ``m``'s ``B_i`` are built where sector
    ``m - 1`` stores a block, and up to ``depth`` also where a Fock check reads them:
    where sector ``m - 2`` stores a block (annihilate-annihilate), and all for
    ``s = -1`` (the residuals); sector ``n``'s only for a product, dropped after it.
    The byte guard counts the Gram blocks from sector 0 up, each sector's before any
    of them is allocated, which bounds the blocks the tower and its caller hold at
    once; :func:`_annihilators` guards its own.
    """
    n_gen, dtype, itemsize = model.n_generators, model.scalar_type, np.dtype(model.scalar_type).itemsize
    theorems = _theorems(model, n)
    plan, below = _term_plan(model), [{}]  # sector 0's block has no run
    result = GramResult(0, n_gen, _layout(model, 0), {0: np.ones((1, 1), dtype=dtype)}, dtype, theorems[0])
    yield result, below
    total, stored = itemsize, True  # bytes of the blocks allocated so far; whether sector m - 2 stores one
    for m in range(1, n + 1):
        layout, lower, grams = _layout(model, m, result._layout, within), result._matrices, {}
        hops: list[dict] = [{} for _ in layout.runs]
        if lower or m <= depth and (stored or model.expansion_sign == -1):
            runs, sizes = layout.runs, np.diff(layout.start).tolist()
            for c, block in enumerate(runs):
                if any(b in lower for _, _, b, _ in block):
                    total += itemsize * sizes[c] ** 2
                    if total > MAX_GRAM_BYTES:
                        raise ResourceLimitError(f"the Gram blocks of sectors 0..{m} need {total}"
                                                 f" bytes, over the guard of {MAX_GRAM_BYTES}")
            wanted = lower if m == n else range(len(below))  # sector m + 1 reads every B_i of sector m
            with np.errstate(over="ignore", invalid="ignore"):  # GramResult refuses a non-finite block
                for c, i, top, b, hop, bound in _annihilators(plan, m, runs, below, wanted, dtype):
                    if b in lower:
                        if c not in grams:
                            grams[c] = np.zeros((sizes[c], sizes[c]), dtype=dtype)
                        np.matmul(lower[b], hop, out=grams[c][top:top + len(hop)])
                    if m < n:  # sector n's B_i is dropped after its product
                        hops[c][i] = top, hop, bound
        below, stored = hops, bool(lower)
        result = GramResult(m, n_gen, layout, grams, dtype, theorems[m])
        yield result, hops if m <= depth else []  # a caller holds no block it does not read


def _hops(model: ParticleModel, n: int) -> Iterator[tuple[_Layout, list[dict]]]:
    """The layout and the annihilator blocks of sectors ``0..n``, as :func:`_tower`
    yields them, by the recursion alone: no Gram is built."""
    plan, layout, hops = _term_plan(model), _layout(model, 0), [{}]
    yield layout, hops
    for m in range(1, n + 1):
        layout, below = _layout(model, m, layout), hops
        hops = [{} for _ in layout.runs]
        with np.errstate(over="ignore", invalid="ignore"):  # _annihilators refuses a non-finite block
            for c, i, top, _, hop, bound in _annihilators(plan, m, layout.runs, below, range(len(below)),
                                                          model.scalar_type):
                hops[c][i] = top, hop, bound
        yield layout, hops


def _annihilator_norms(model: ParticleModel, n: int) -> Iterator[np.ndarray]:
    """The largest norm of ``b-_i`` on a word of each sector ``0..n``, by ``[i - 1]``: the
    largest column norm of its blocks of :func:`_hops`, finite, else an error naming the sector."""
    for m, (_, hops) in enumerate(_hops(model, n)):
        squares = np.zeros(model.n_generators)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for block in hops:
                for i, (_, hop, _) in block.items():
                    squares[i - 1] = max(squares[i - 1], (np.abs(hop) ** 2).sum(axis=0).max())
        yield _finite(np.sqrt(squares), f"the annihilator norms of sector {m}")


def _sector_gram(model: ParticleModel, n: int, within: tuple | None = None) -> GramResult:
    for result, _ in _tower(model, n, -1, within):
        pass
    return result


def gram_matrix(model: ParticleModel, n: int) -> GramResult:
    """Matrix of scalar products between all sector-``n`` basis words.

    The byte guard counts the dense matrix in the model's scalar type, which
    :attr:`GramResult.matrix` fills when read, before anything is built.
    """
    _guard_sectors(model, n)
    rows, dtype = model.n_generators ** n, np.dtype(model.scalar_type)
    size = dtype.itemsize * rows * rows
    if size > MAX_GRAM_BYTES:
        raise ResourceLimitError(f"a {rows}x{rows} {dtype} Gram matrix in sector {n} needs {size} "
                                 f"bytes, over the guard of {MAX_GRAM_BYTES}")
    return _sector_gram(model, n)


def _sector(model: ParticleModel, n: int, tol: float) -> tuple[_Theorem | None, Callable[[], GramResult]]:
    """The ``tol`` rule and the word guards, then sector ``n``'s theorem and its Gram, built once on
    first use, cut to the blocks inside the theorem's ``holder`` where it names one."""
    _check_tol(tol)
    _guard_sectors(model, n)  # before N^n is built
    theorem = _theorems(model, n)[-1]
    within = None if theorem is None else theorem.holder
    return theorem, cache(lambda: _sector_gram(model, n, within))


def sector_dimension(model: ParticleModel, n: int, tol: float = 1e-9) -> SectorDimension:
    """Full dimension ``N^n`` and the rank of the sector Gram matrix (:func:`_hermitian_rank`): a
    Gram that is not Hermitian within ``tol`` raises :class:`HermiticityError`.  Where a class
    theorem reads the sector (:func:`_theorems`), only the word guards run, and no Gram is built."""
    theorem, gram = _sector(model, n, tol)
    return SectorDimension(model.n_generators ** n, _hermitian_rank(theorem, gram, tol))


def gram_psd_check(model: ParticleModel, n: int, tol: float = 1e-9) -> CheckReport:
    """Positive semidefiniteness of the sector Gram matrix (:func:`_psd_report`), skipped where it
    is not Hermitian.  Where a class theorem gives the least eigenvalue the row is the theorem's,
    and no Gram is built.  Where it names the weight block that holds every eigenvalue, only the
    blocks inside it are built, and its ``min_eigenvalue`` is that block's, else the spectrum's."""
    return _psd_report(*_sector(model, n, tol), tol)


def _form(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v^H G v`` of each column of ``v``, or of each matrix of a stack, summed in ``v``'s type."""
    return (v.conj() * (g @ v)).sum(axis=-2)


@np.errstate(over="ignore", invalid="ignore")  # the callers refuse a non-finite norm, naming the sector
def _residual_norms(model: ParticleModel, m: int, layout: _Layout, below: list[dict], lower: _Layout,
                    gram: GramResult | None = None, forms: np.ndarray | None = None) -> np.ndarray:
    """The twisted commutator residual norms of sector ``m - 1`` by ``[i - 1, j - 1, word]``, from
    the layout of sector ``m``, the ``B_k`` of sector ``m - 1`` and its layout ``lower``: ``1 - s``
    times the hop terms of each ``B_i`` (:func:`_annihilators` on the term plan without its
    pairing), pruned.  Given the Gram of sector ``m - 1``, the squared Gram norms (the ``mixed``
    line) go into ``forms[(i - 1) N + j - 1, word]`` as well."""
    n_gen, dtype = model.n_generators, model.scalar_type
    norms = np.zeros((n_gen, n_gen, len(lower.order)))
    plan = [[(0.0, terms) for _, terms in row] for row in _term_plan(model)]
    for c, i, _, b, hop, _ in _annihilators(plan, m, layout.runs, below, range(len(below)), dtype):
        hop *= 1 - model.expansion_sign
        squares = (np.abs(_pruned(hop)) ** 2).sum(axis=0)
        form = _form(gram._matrices[b], hop) if gram is not None and b in gram._matrices else None
        for j, left, b_j, width in layout.runs[c]:  # the columns (j, w), w in block b_j of sector m - 1
            at = lower.order[lower.start[b_j]:lower.start[b_j + 1]]
            norms[i - 1, j - 1, at] = squares[left:left + width]
            if form is not None:
                forms[(i - 1) * n_gen + j - 1, at] = form[left:left + width]
    return np.sqrt(norms)


@np.errstate(over="ignore", invalid="ignore")  # _exchange_nullity refuses a non-finite norm
def _lowered(n_gen: int, relation: np.ndarray, grams: list[GramResult], below: list[dict],
             hops: list[dict], forms: np.ndarray, plans: dict) -> None:
    """Add the annihilate-annihilate line of sector ``m`` into ``forms[(i - 1) N + j - 1, word]``,
    from the Grams of sectors ``m - 2..m`` and the ``B_i`` of sectors ``m - 1`` (``below``) and
    ``m``: per block of sector ``m``, the products ``B_k B_l`` that reach one block of sector
    ``m - 2``, combined by the relation columns that read them (kept in ``plans``), pruned as a
    residual is, and normed under that block's Gram."""
    gram, lower, layout = grams[0], grams[1]._layout, grams[2]._layout
    for c, block in enumerate(hops):
        reached: dict[int, list] = {}
        for l, _, b_l, _ in layout.runs[c]:
            for k, _, b, _ in lower.runs[b_l]:
                if b in gram._matrices:
                    reached.setdefault(b, []).append(((k - 1) * n_gen + l - 1, below[b_l][k][1], block[l][1]))
        at = layout.order[layout.start[c]:layout.start[c + 1]]
        for b, pairs in reached.items():
            kl = tuple(pair for pair, _, _ in pairs)
            if kl not in plans:
                ij = np.flatnonzero(relation[list(kl)].any(axis=0))
                plans[kl] = ij, relation[np.ix_(kl, ij)].T
            ij, coefficients = plans[kl]
            if len(ij):
                products = np.stack([outer @ inner for _, outer, inner in pairs])
                v = _pruned(coefficients @ products.reshape(len(kl), -1)).reshape(len(ij), *products.shape[1:])
                forms[ij[:, None], at] += _form(gram._matrices[b], v)


@np.errstate(over="ignore", invalid="ignore")  # _exchange_nullity refuses a non-finite norm
def _raised(relation: np.ndarray, gram: GramResult, forms: np.ndarray) -> None:
    """The create-create line of sector ``m - 2`` under the Gram of sector ``m``, added into
    ``forms[(i - 1) N + j - 1, word]``: the column ``(i, j) + w`` of ``C (x) id`` lives on the
    words ``a + w``, ``a = (k, l)``, so its form is ``c^H S_w c``, ``c`` the relation column and
    ``S_w[a, a'] = G[a + w, a' + w]`` the minor of those words.  The minors are gathered block by
    block, only at the pairs ``(a, a')`` whose weight ``conj(c_a) c_a'`` some column reads (a
    missing block, and two words in two blocks, give exactly 0), and weighed in one product.  The
    inverse of :attr:`_Layout.order` places each word: ``a + w`` is row ``where[a, w] - start[b]``
    of block ``b`` where that lies in ``b``'s rows."""
    layout, size, pairs = gram._layout, forms.shape[1], len(relation)
    where = np.empty((pairs, size), dtype=layout.order.dtype)
    where.reshape(-1)[layout.order] = np.arange(where.size)
    weights = (relation.conj()[:, None] * relation).reshape(pairs * pairs, -1)  # [(a, a'), ij]
    read = weights.any(axis=1)
    column = np.cumsum(read) - 1  # of a read (a, a') in the minors
    minor = np.zeros((size, column[-1] + 1), dtype=gram.dtype)
    for b, g in gram._matrices.items():
        a, w = np.divmod(layout.order[layout.start[b]:layout.start[b + 1]], size)  # row r of g: a[r] + w[r]
        row = where[:, w] - layout.start[b]  # [a', r]: the row of a' + w[r] in g, where it is in block b
        other, r = np.nonzero((0 <= row) & (row < len(g)) & read.reshape(pairs, pairs)[a].T)
        minor[w[r], column[a[r] * pairs + other]] = g[r, row[other, r]]
    forms += (minor @ weights[read]).T


@np.errstate(over="ignore", invalid="ignore")  # refused below, naming the sector
def _exchange_nullity(model: ParticleModel, forms: list[np.ndarray], n_max: int, tol: float) -> CheckReport:
    """:func:`check_braid_exchange_relations` on sectors ``0..n_max`` from their squared Gram
    norms by ``[line, (i - 1) N + j - 1, word]``; none, where every one is exactly 0."""
    n_gen, lines = model.n_generators, ("create-create", "annihilate-annihilate", "mixed")
    # loop order: word, i, j, line
    sectors = [_finite(np.sqrt(np.abs(form)), f"the exchange relations of sector {n}")
               .reshape(3, n_gen, n_gen, -1).transpose(3, 1, 2, 0) for n, form in enumerate(forms)]
    worst, at = _locate(sectors)
    witness = None
    if at is not None:
        n, (w, i, j, line) = at
        witness = {"line": lines[line], "i": int(i) + 1, "j": int(j) + 1,
                   "word": list(_word(w, n, n_gen))}
    return CheckReport.from_defect("exchange-nullity", worst, tol, witness, {
        "lines": {line: max((float(d[..., k].max()) for d in sectors), default=0.0)
                  for k, line in enumerate(lines)},
        "n_max": n_max})


def _fock_pass(model: ParticleModel, n_max: int) -> tuple[list[GramResult], list, list[np.ndarray]]:
    """Guards, then one Gram tower to ``n_max + 2``, each line read as soon as its blocks exist
    and the blocks dropped as the tower goes on.  Returns the Grams of sectors ``0..n_max``,
    their twisted commutator residual norms (none for ``s = +1``), and the squared Gram norms
    of the exchange relations by ``[line, (i - 1) N + j - 1, word]``; non-finite values are
    kept for the readers to refuse, in the order the checks are reported.

    Where :attr:`~braidstat.models.ParticleModel.exchange_relations_exact` holds, every form is
    exactly 0 and none is returned, and the tower stops at ``n_max`` for the Gram rows; on the
    colour-symmetric class, whose every Gram row the closed form reads (:func:`_theorems`), no
    Gram is built.  Write ``g_i``
    for the grade of letter ``i``, ``chi_ij = eps(g_j, -g_i)`` for the phase of ``b-_i`` hopping
    past ``j``, ``lambda = eps(g_b, g_a)`` and ``D = b-_a b-_b - lambda b-_b b-_a``.  With
    ``s = +1`` the recursion ``b-_a (j, w) = <a|j> w + chi_aj (j, b-_a w)`` gives

        D (j, w) = <b|j> (1 - lambda chi_aj) b-_a w + <a|j> (chi_bj - lambda) b-_b w
                   + chi_aj chi_bj (j, D w).

    ``<b|j> != 0`` only where ``g_b == g_j``, and then ``lambda chi_aj = eps(g_b, g_a)
    eps(g_b, -g_a) = 1``; ``<a|j> != 0`` only where ``g_a == g_j``, and then ``chi_bj =
    eps(g_a, -g_b) = eps(g_b, g_a) = lambda``, the bicharacter being normalized.  Both brackets
    vanish and ``D`` kills the vacuum, so by induction on the length ``D`` is the zero operator.
    The annihilate-annihilate vector of ``(i, j)`` is ``D w`` with ``a = i``, ``b = j``: exactly
    the zero vector.  The create-create vector ``v = (i, j, w) - eps(g_j, g_i) (j, i, w)`` has,
    by the tower's row identity ``G[(k, u), x] = (G B_k)[u, x]``, ``v^H G_{n+2} x = G_n[w, :]
    D' x`` with ``D' = b-_j b-_i - conj(eps(g_j, g_i)) b-_i b-_j``, which is ``D`` with ``a =
    j``, ``b = i``, since ``conj(eps(g_j, g_i)) = eps(g_i, g_j)``: so ``v^H G_{n+2} = 0`` and
    its form is 0.  For ``s = +1`` the mixed line is empty (module docstring)."""
    _guard_sectors(model, n_max)
    if model.exchange_relations_exact:  # every line is exactly 0: only what the Gram rows read
        grams = [] if model.gram_class is not None else [result for result, _ in _tower(model, n_max)]
        return grams, [], []
    _guard_sectors(model, n_max + 2)  # the tower goes two sectors further
    n_gen = model.n_generators
    forms = [np.zeros((3, n_gen * n_gen, n_gen ** n), dtype=model.scalar_type) for n in range(n_max + 1)]
    # column (i - 1) N + j - 1 lists the relation sum_kl C[(k, l), (i, j)] x_k x_l
    relation = _pruned(_typed(model, np.eye(n_gen * n_gen) - _action_matrix(model.braid_coupling)))
    grams, residuals, below, plans = [], [], None, {}
    for result, hops in _tower(model, n_max + 2, n_max):
        m = result.sector
        grams.append(result)
        if 2 <= m <= n_max and grams[m - 2]._matrices:
            _lowered(n_gen, relation, grams[m - 2:], below, hops, forms[m][1], plans)
        if model.expansion_sign == -1 and 0 < m <= n_max + 1:
            residuals.append(_residual_norms(model, m, result._layout, below, grams[m - 1]._layout,
                                             grams[m - 1], forms[m - 1][2]))
        if m >= 2 and result._matrices:
            _raised(relation, result, forms[m - 2][0])
        below = hops
    return grams[:n_max + 1], residuals, forms


def _fock_checks(model: ParticleModel, n_max: int, tol: float) -> tuple[list[CheckReport], list[dict]]:
    """The Fock rows of ``check`` (infinite-statistics, twisted-commutators,
    exchange-nullity, gram-hermitian and the worst sector's gram-psd, where a
    skipped sector outranks defects) and the dimension rows of sectors
    ``0..n_max``, from one :func:`_fock_pass`: each sector's rank by :func:`_rank`, none and a
    skipped status where the Gram is not Hermitian, and its :func:`_psd_report`, but none where
    the theorem leaves only a least eigenvalue that it proves positive: its defect is exactly 0."""
    grams, residuals, forms = _fock_pass(model, n_max)
    dims, psd = [], None
    for n, theorem in enumerate(_theorems(model, n_max)):
        rank = _rank(theorem, lambda: grams[n], tol)[0]
        dims.append({"sector": n, "full": model.n_generators ** n, "quotient": rank}
                    | ({"status": SKIPPED} if rank is None else {}))
        if n and theorem is not None and theorem.least is None and not theorem.negative:
            continue  # its defect is exactly 0, and sector 0's, of G_0 = 1, is too
        rep = _psd_report(theorem, lambda: grams[n], tol)
        if psd is None or psd.status != SKIPPED and (rep.status == SKIPPED or rep.defect > psd.defect):
            psd = rep
    hermitian = all(result.hermitian_within(tol) for result in grams)
    asymmetry = max((result.asymmetry for result in grams), default=0.0)
    return [check_infinite_statistics(model, n_max, tol), _twisted_commutators(model, residuals, n_max, tol),
            _exchange_nullity(model, forms, n_max, tol),
            CheckReport("gram-hermitian", PASS if hermitian else FAIL, asymmetry), psd], dims


def check_braid_exchange_relations(model: ParticleModel, n_max: int = 3, tol: float = 1e-9) -> CheckReport:
    """Exchange relations between like ladder operators, modulo null states.

    Three relation lines are checked on all basis words up to ``n_max``:

    * ``create-create``:  ``b+_i b+_j - sum_kl R[i,j,k,l] b+_k b+_l``
    * ``annihilate-annihilate``:  same shape on ``b-`` (dual grades braid
      with the same coupling)
    * ``mixed``:  the twisted commutation relation

    Each defect vector must be a null vector of its sector's Gram form; the
    check passes when every Gram norm is below tolerance.  The witness is the
    first in ``(n, word, i, j, line)`` order.  The relations are not expected
    to hold for every consistent model: a strictly braided model with
    positive definite Gram (e.g. a ``q``-swap model with ``|q| < 1``)
    genuinely has no create-create relation.  Where
    :attr:`~braidstat.models.ParticleModel.exchange_relations_exact` holds,
    every line is exactly 0 (the proof is at :func:`_fock_pass`): only the word
    guards on sectors ``0..n_max`` run, and nothing is built.
    """
    _check_tol(tol)
    _guard_sectors(model, n_max)
    forms = [] if model.exchange_relations_exact else _fock_pass(model, n_max)[2]
    return _exchange_nullity(model, forms, n_max, tol)


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
    _check_letters(model, v)
    state = v
    for step in program:
        if isinstance(step, Create):
            state = create(model, step.index, state)
        elif isinstance(step, AnnihilateFree):
            state = annihilate_free(model, step.index, state)
        elif isinstance(step, AnnihilateTwisted):
            state = annihilate_twisted(model, step.index, state)
        elif isinstance(step, Exchange):
            out: dict[TensorWord, complex] = {}  # summed in one dict: adding vectors copies the sum per word
            for w, a in state.items():
                for u, b in braid_on_word(model, w, step.position).items():
                    out[u] = out.get(u, 0.0) + a * b
            state = FockVector(out)
        else:
            raise ValueError(f"unknown program step {step!r}")
    return state
