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

    b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j> = (1 - s)(b-_i b+_j - <i|j>),

so the relation closes exactly, by construction, for ``s = +1``: that residual
is empty and not built, the ``mixed`` exchange line takes no Gram norm of it,
and :func:`commutator_defect` builds no ladder for it.

One ladder engine evaluates ``b-_i``.  A *ladder* holds, level by level, the
matrix of every ``b-_i`` on a set of words of length ``m`` as sparse numpy
arrays (rows, columns, values), each level built from the one below by the
recursion above, read column block by column block:

    B_i^(m)[:, j.] = <i|j> I + s * sum_{(k, l, t) in T(i, j)} t * (prepend l) B_k^(m-1)

Entries that land on the same ``(row, column)`` are summed from 0 in the order
in which the recursion lists them: the pairing first, then the terms of
``T(i, j)`` in order (``np.bincount`` over a stable sort, real and imaginary
parts apart, as ``np.add.at`` would).  The checks and the Gram tower ask for
whole sectors, every word of length ``m``; :func:`annihilate_twisted` asks only
for the suffixes of its input words, so it works on words far longer than a
whole sector could hold.  Each public call builds its own ladder and drops it
when it returns; none is kept on the model or in a module.  Indices are
validated where input enters, in the public functions; the engine does no checks.

The checks read the ladder one sector at a time, for every pair ``(i, j)`` at
once.  A residual keeps the entries above :data:`~braidstat.words.PRUNE_EPS`,
as :class:`~braidstat.words.FockVector` does.  A check's witness is the first
candidate, in the order its loop is documented in, whose defect is at least
``max * (1 - 1e-12)``: defects equal in exact arithmetic may differ in their
last bits, and the band keeps the witness where exact arithmetic puts it.
Infinite statistics is exact by construction and reported without computing.

The sector-``n`` Gram matrix has entries
``G[w, w'] = <vacuum | b-_{w_n} ... b-_{w_1} | w'>``; its rank is the
dimension of the physical (null-state-free) sector.  One pass of the
recursion (:func:`_tower`) gives the Grams of sectors ``0..n``, so ``check``
builds each sector once.

The Gram is built and analysed in weight blocks.  When the model conserves
letters (diagonal pairing, and every cross term ``(k, l, t)`` of ``T(i, j)``
has ``{i, l} == {j, k}``; see
:attr:`~braidstat.models.ParticleModel.conserves_letters`), ``b-_i`` maps the
words with multiset of letters ``M`` to those with ``M - {i}``, so ``G_n`` is
block-diagonal with one block per multiset and every entry between blocks is
exactly 0.  A model that does not conserve letters gets one block holding
every word, and runs through the same code.  Each sector has one block
layout (:func:`_layout`).  A block that is exactly 0 is not stored, every
reader takes a missing block as exactly 0, and once a whole sector stores no
block the tower builds no further ladder level.  Positivity comes from the
eigenvalues of the Hermitian part of each block: exact zeros for a missing
block, one ``eigvalsh`` for a stored one.  The rank counts the eigenvalues with
``|lambda| >= tol * max(1, top)``, ``top`` the largest ``|lambda|`` of the
sector, the cut against the largest singular value of the whole matrix; before
any is computed, a shifted Cholesky (:meth:`GramResult._full_rank`) tries to
prove every stored block full rank, for the same rank.  The dense ``N^n x N^n``
matrix is filled from the blocks only when :attr:`GramResult.matrix` is read.

The engine computes in :attr:`~braidstat.models.ParticleModel.scalar_type`: a
model with real pairing and exchange terms (+-1 gradings, real ``q``) gets real
ladders, Gram blocks, residuals and products, and the real symmetric ``eigvalsh``.
:attr:`GramResult.matrix`, :attr:`GramBlock.matrix` and amplitudes stay complex.

Before a sector computation runs, :data:`MAX_SECTOR_SIZE` bounds both the
number ``N^n`` of its words and their length ``n``.  :data:`MAX_GRAM_BYTES`
bounds, as they are allocated, the Gram blocks the tower holds, counted from
sector 0 up at 8 or 16 bytes per entry of the scalar type, and one ladder
level, at 24 or 32 bytes per entry; before anything is built, it bounds the
complex dense Gram of :func:`gram_matrix`, at 16 bytes per entry.  These bound
the Gram blocks and the ladder levels, not the process: temporaries and the
ladder levels kept beside the blocks come on top.  A ladder level, a Gram block,
a spectrum or a commutator residual that overflows the float range raises
:class:`NonFiniteError`, naming the sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .models import ParticleModel, _action_matrix, braid_on_word
from .report import CheckReport, FAIL, PASS, SKIPPED
from .words import PRUNE_EPS, FockVector, TensorWord, basis_words, word_index

#: Hard guard on the number N^n of words of a sector that a check or a Gram
#: walks, and on their length n; their whole-sector ladders reach one or two
#: sectors past it.
MAX_SECTOR_SIZE = 100_000
#: Hard guard on bytes: of all the Gram blocks a tower has allocated, of one
#: ladder level, and of the dense Gram that :func:`gram_matrix` can fill.
MAX_GRAM_BYTES = 1 << 28
#: A witness is the first candidate whose defect is within this relative band
#: of the largest.
_WITNESS_BAND = 1e-12


class ResourceLimitError(ValueError):
    """A sector computation would exceed the desk-scale resource guard."""


class NonFiniteError(ValueError):
    """A ladder level, a Gram block, its spectrum or a residual overflowed to a non-finite number."""


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


def _guard_ladder(model: ParticleModel, m: int, entries: int) -> None:
    """The byte guard on one ladder level of ``entries`` entries: a value of
    the model's scalar type and two int64 index words each."""
    size = (np.dtype(model.scalar_type).itemsize + 16) * entries
    if size > MAX_GRAM_BYTES:
        raise ResourceLimitError(f"the annihilators on sector {m} have {entries} entries, "
                                 f"{size} bytes, over the guard of {MAX_GRAM_BYTES}")


# ---------------------------------------------------------------------------
# Elementary operators


def create(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Left-prepend generator ``i`` to every word, linearly."""
    model._check_index(i)
    for w, _ in v.items():
        model.check_word(w)
    return FockVector({(i,) + w: a for w, a in v.items()})


def annihilate_free(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Pair dual letter ``i`` with the first letter only; the vacuum maps to 0."""
    model._check_index(i)
    for w, _ in v.items():
        model.check_word(w)
    out: dict[TensorWord, complex] = {}
    for w, a in v.items():
        if not w:
            continue
        g = model.pairing_entry(i, w[0])
        if g != 0:
            rest = w[1:]
            out[rest] = out.get(rest, 0.0) + g * a
    return FockVector(out)


# ---------------------------------------------------------------------------
# The ladder engine


class _Sparse(NamedTuple):
    """A sparse operator: entry ``e`` sits at ``(rows[e], cols[e])``, sorted by
    column, then row; column ``c`` holds the entries ``start[c]:start[c + 1]``."""

    start: np.ndarray | None
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _word(index, length: int, n_gen: int) -> TensorWord:
    """The word of the given length at lexicographic position ``index``."""
    index = int(index)
    return tuple(index // n_gen ** p % n_gen + 1 for p in reversed(range(length)))


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort order of ``key``, the sorted keys, whether each opens a run
    of equal keys, and its run's number."""
    order = key.argsort(kind="stable")
    key = key[order]
    new = np.concatenate(([True], key[1:] != key[:-1]))[:len(key)]
    return order, key, new, new.cumsum() - 1


def _coalesce(parts: list, n_rows: int, n_cols: int, floor: float = 0.0) -> _Sparse:
    """The operator with the entries of ``parts``, triples ``(rows, cols,
    values)``: entries at one ``(row, col)`` are summed in the order given, and
    sums of magnitude up to ``floor`` are dropped."""
    rows, cols, vals = map(np.concatenate, zip(*parts))
    if n_rows * n_cols >= 1 << 63:  # positions of very long words: Python integers
        rows, cols = rows.astype(object), cols.astype(object)
    order, key, new, run = _runs(cols * n_rows + rows)
    key, vals = key[new], vals[order]
    summed = np.zeros(len(key), dtype=vals.dtype)
    summed.real = np.bincount(run, weights=vals.real, minlength=len(key))
    if summed.dtype.kind == "c":
        summed.imag = np.bincount(run, weights=vals.imag, minlength=len(key))
    keep = np.abs(summed) > floor
    cols = (key[keep] // n_rows).astype(np.int64)
    return _Sparse(np.searchsorted(cols, np.arange(n_cols + 1)), key[keep] % n_rows, cols, summed[keep])


def _gather(hop: _Sparse, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of ``hop`` in ``columns``: rows, index into ``columns``, values."""
    lo, counts = hop.start[columns], hop.start[columns + 1] - hop.start[columns]
    at = np.arange(len(columns)).repeat(counts)
    pick = np.arange(len(at)) + (lo - counts.cumsum() + counts).repeat(counts)
    return hop.rows[pick], at, hop.vals[pick]


def _product(outer: _Sparse, inner: _Sparse, offset: int = 0) -> tuple:
    """The unsummed entries of ``outer @ inner``, columns shifted by ``offset``."""
    rows, at, vals = _gather(outer, inner.rows)
    return rows, offset + inner.cols[at], vals * inner.vals[at]


def _typed(model: ParticleModel, values) -> np.ndarray:
    """``values`` in the model's scalar type, where their imaginary part is exactly 0."""
    values = np.asarray(values)
    return values.real if model.scalar_type is float and not values.imag.any() else values


def _empty(n_cols: int, dtype: type) -> _Sparse:
    """An operator with ``n_cols`` columns and no entries, as ``b-_i`` on the vacuum."""
    empty = np.zeros(0, dtype=np.int64)
    return _Sparse(np.zeros(n_cols + 1, dtype=np.int64), empty, empty, empty.astype(dtype))


def _level(model: ParticleModel, below: list[_Sparse], m: int, first: np.ndarray,
           rest: np.ndarray, base: dict[int, int]) -> list[_Sparse]:
    """``b-_i`` for every ``i`` on words of length ``m``, by the recursion.

    Column ``c`` is the word of first letter ``first[c] + 1`` followed by the
    word of position ``rest[c]`` among the words of length ``m - 1``; the words
    of first letter ``j`` are the columns ``base[j] + c``, ``c`` a column of
    ``below``, so a term reads each entry of ``below`` once, in order.
    """
    n_gen, n_cols, real = model.n_generators, len(first), model.scalar_type is float
    shift, sign = n_gen ** max(m - 2, 0), float(model.expansion_sign)
    plans = [[(below[k - 1], (l - 1) * shift, base[j], (sign * t).real if real else sign * t)
              for j in sorted(base) for k, l, t in model.cross_terms[i, j]]
             for i in range(1, n_gen + 1)]
    entries = int(np.count_nonzero(model.pairing[:, first])) + sum(
        len(hop.vals) for plan in plans for hop, _, _, _ in plan)
    _guard_ladder(model, m, entries)
    parts, pairing = [], _typed(model, model.pairing[:, first])  # the free annihilators a-_i
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the sector
        for i, plan in enumerate(plans):  # b-_{i + 1} on column c is column i * n_cols + c
            cols = np.flatnonzero(pairing[i])
            parts.append((rest[cols], i * n_cols + cols, pairing[i, cols]))
            parts += [(offset + hop.rows.astype(rest.dtype, copy=False), i * n_cols + column + hop.cols,
                       hop.vals * factor) for hop, offset, column, factor in plan]
        level = _coalesce(parts, n_gen ** (m - 1), n_gen * n_cols)
    if not np.isfinite(level.vals).all():
        raise NonFiniteError(f"the annihilators of sector {m} overflow the float range")
    cuts = level.start[::n_cols].tolist()
    return [_Sparse(level.start[i * n_cols:(i + 1) * n_cols + 1] - lo, level.rows[lo:hi],
                    level.cols[lo:hi] - i * n_cols, level.vals[lo:hi])
            for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))]


def _levels(model: ParticleModel, n: int) -> Iterator[list[_Sparse]]:
    """The whole-sector ``b-_i`` of sectors ``0..n``, each built when the one
    below is done; a column's position is its word's lexicographic position."""
    n_gen = model.n_generators
    hops = [_empty(1, model.scalar_type)] * n_gen
    yield hops
    for m in range(1, n + 1):
        span = n_gen ** (m - 1)
        hops = _level(model, hops, m, *np.divmod(np.arange(n_gen * span), span),
                      {j: (j - 1) * span for j in range(1, n_gen + 1)})
        yield hops


def annihilate_twisted(model: ParticleModel, i: int, v: FockVector) -> FockVector:
    """Hopping annihilator; see the module docstring for the expansion.  The
    ladder of each word holds only its suffixes, one per level."""
    model._check_index(i)
    for w, _ in v.items():
        model.check_word(w)
    n_gen = model.n_generators
    out: dict[TensorWord, complex] = {}
    for w, a in v.items():
        hops = [_empty(1, model.scalar_type)] * n_gen
        for m in range(1, len(w) + 1):
            suffix = w[len(w) - m:]
            rest = np.array([word_index(suffix[1:], n_gen)],
                            dtype=np.int64 if n_gen ** m < 1 << 63 else object)
            hops = _level(model, hops, m, np.array([suffix[0] - 1]), rest, {suffix[0]: 0})
        for row, amp in zip(hops[i - 1].rows.tolist(), hops[i - 1].vals.tolist()):
            w2 = _word(row, len(w) - 1, n_gen)
            out[w2] = out.get(w2, 0.0) + amp * a
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


def _norms(entries: _Sparse) -> np.ndarray:
    return np.sqrt(np.bincount(entries.cols, weights=np.abs(entries.vals) ** 2,
                               minlength=len(entries.start) - 1))


def _residual_entries(model: ParticleModel, n: int, ladder: Sequence[list[_Sparse]]) -> _Sparse:
    """``b-_i b+_j - sum_kl T[i,j,k,l] b+_l b-_k - <i|j>`` on sector ``n``, read
    off the recursion as ``(1 - s)(b-_i b+_j - <i|j>)``; for ``s = +1`` it has
    no entries, and neither it nor ``ladder`` is read.

    ``ladder[n + 1][i - 1]`` is ``b-_i`` on sector ``n + 1``.  Column
    ``((i - 1) N + j - 1) N^n + w`` holds the residual of ``(i, j)`` on word
    ``w``; entries up to ``PRUNE_EPS`` are dropped.
    """
    n_gen, factor = model.n_generators, 1 - model.expansion_sign
    size = n_gen ** n
    if not factor:
        return _empty(n_gen ** (n + 2), model.scalar_type)
    # column j N^n + w of b-_i on sector n + 1 is b-_i b+_j on w
    with np.errstate(over="ignore", invalid="ignore"):  # _residual_norms refuses it, naming the sector
        parts = [(hop.rows, (i - 1) * n_gen * size + hop.cols, factor * hop.vals)
                 for i, hop in enumerate(ladder[n + 1], start=1)]
        g = _typed(model, factor * model.pairing.ravel())
        pairs = np.flatnonzero(g)
        words = np.arange(size)
        parts.append((np.tile(words, len(pairs)), (pairs[:, None] * size + words).ravel(),
                      np.repeat(-g[pairs], size)))
        return _coalesce(parts, size, n_gen ** (n + 2), PRUNE_EPS)


def _residual_norms(model: ParticleModel, entries: _Sparse, n: int) -> np.ndarray:
    """The residual norms of sector ``n`` by ``[i - 1, j - 1, word]``, all finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, naming the sector
        norms = _norms(entries)
    if not np.isfinite(norms).all():
        raise NonFiniteError(f"the twisted commutator residuals of sector {n} overflow the float range")
    return norms.reshape(model.n_generators, model.n_generators, -1)


def check_infinite_statistics(model: ParticleModel, n_max: int = 4, tol: float = 1e-9) -> CheckReport:
    """Free relation ``a-_i a+_j = <i|j> id`` on all basis words up to ``n_max``.

    ``a-_i`` is the pairing part of the ladder recursion, which puts ``<i|j>``
    exactly where the relation subtracts it, so the relation holds by
    construction and the report is exact, as grade-diagonal Yang-Baxter's is;
    the sector guards still apply.  The reversed composition ``a+_j a-_i`` is
    *not* scalar; see the tests for the documented non-relation.
    """
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
    model._check_index(i)
    model._check_index(j)
    _guard_sectors(model, n)
    ladder = [] if model.expansion_sign == 1 else list(_levels(model, n + 1))  # s = +1 reads none
    return _commutator_report(_residual_norms(model, _residual_entries(model, n, ladder), n), i, j, n, tol)


def _twisted_commutators(model: ParticleModel, residuals: list[_Sparse], tol: float) -> CheckReport:
    """The ``twisted-commutators`` row of ``check`` from the residuals of sectors
    ``0..n_max``: the :func:`commutator_defect` report of the last ``(i, j, n)``,
    in that order, with the largest defect; its witness only if it fails."""
    n_gen = model.n_generators
    defects = [_residual_norms(model, entries, n) for n, entries in enumerate(residuals)]
    worst = np.stack([d.max(axis=2, initial=0.0) for d in defects], axis=2).ravel()
    last = len(worst) - 1 - int(np.argmax(worst[::-1] == worst.max()))
    i, j, n = (int(k) for k in np.unravel_index(last, (n_gen, n_gen, len(defects))))
    rep = _commutator_report(defects[n], i + 1, j + 1, n, tol)
    return CheckReport("twisted-commutators", rep.status, rep.defect,
                       rep.witness if rep.failed else None, rep.data)


# ---------------------------------------------------------------------------
# Gram matrices and sector dimensions


class GramBlock(NamedTuple):
    """The Gram of the words that share one multiset of letters."""

    words: list[TensorWord]
    matrix: np.ndarray


class _Layout(NamedTuple):
    """The weight blocks of one sector: the word at position ``p`` is row
    ``row[p]`` of block ``block[p]``, and block ``b`` holds the positions
    ``order[start[b]:start[b + 1]]``, ascending."""

    block: np.ndarray
    row: np.ndarray
    order: np.ndarray
    start: np.ndarray


def _layout(model: ParticleModel, m: int) -> _Layout:
    """The blocks of sector ``m``, from word positions alone.  A word's block key
    is the position of its sorted word, below ``N^m``, and blocks come in
    ascending key order; a model that does not conserve letters has one block."""
    n_gen = model.n_generators
    positions = np.arange(n_gen ** m)
    key = np.zeros_like(positions)  # one block: one generator, or letters not conserved
    if model.conserves_letters and n_gen > 1:
        place = n_gen ** np.arange(m - 1, -1, -1)
        key = np.sort(positions[:, None] // place % n_gen, axis=1) @ place
    order, _, new, run = _runs(key)
    start = np.append(np.flatnonzero(new), len(key))
    block, row = np.empty_like(positions), np.empty_like(positions)
    block[order], row[order] = run, positions - start[run]
    return _Layout(block, row, order, start)


class GramResult:
    """The sector-``n`` Gram matrix, held as one matrix per weight block of the
    sector's layout; entries between two blocks are exactly 0.  Only blocks with
    an entry that is not exactly 0 are stored, by ascending block number; a
    missing block is exactly 0.  A non-finite entry raises :class:`NonFiniteError`."""

    def __init__(self, sector: int, n_generators: int, layout: _Layout,
                 matrices: dict[int, np.ndarray]):
        self.sector = sector
        self.n_generators = n_generators
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
        """The largest ``|G - G^H|`` entry of the stored blocks."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused in __init__, naming the sector
            # halved first, as in spectrum: g - g^H may overflow where its halves do not
            return max((2.0 * float(np.abs(g / 2.0 - g.conj().T / 2.0).max())
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
        return [GramBlock([words[p] for p in at], self._matrices[b].astype(complex)
                          if b in self._matrices else np.zeros((len(at), len(at)), dtype=complex))
                for b, at in enumerate(positions)]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``N^n x N^n`` Gram over :attr:`words`, filled from the stored blocks."""
        size = self.n_generators ** self.sector
        dense = np.zeros((size, size), dtype=complex)
        positions = np.split(self._layout.order, self._layout.start[1:-1])
        for b, g in self._matrices.items():
            dense[np.ix_(positions[b], positions[b])] = g
        return dense

    @cached_property
    def spectrum(self) -> list[np.ndarray]:
        """Eigenvalues of each block's Hermitian part: exact zeros for a missing block."""
        spectrum = [np.zeros(rows) for rows in np.diff(self._layout.start)]
        for b, g in self._matrices.items():
            spectrum[b] = np.linalg.eigvalsh(g / 2.0 + g.conj().T / 2.0)  # halved first: no overflow
        if not np.isfinite(np.concatenate(spectrum)).all():
            raise NonFiniteError(f"the eigenvalues of sector {self.sector} overflow the float range")
        return spectrum

    def _full_rank(self, tol: float) -> bool:
        """Whether ``cholesky(H - s I)`` succeeds on the Hermitian part ``H`` of every
        stored block, as :attr:`spectrum` forms it, largest first, with ``s = (1 + 4
        eps) tol max(1, T) + 2 gamma_{r+1} tr(H)``: ``r`` its rows, ``gamma_k = k eps
        / (1 - k eps)``, ``T`` the largest trace.  Then, by Rump (BIT 46, 2006), every
        eigenvalue of ``H`` exceeds ``tol max(1, T)``, a term that also covers
        underflow; ``H`` being positive definite, ``lambda_max <= tr(H) <= T``, so all
        pass the rank cut ``tol max(1, top)`` and a missing block's zeros do not.  A
        non-finite shift proves nothing."""
        eps, blocks = np.finfo(float).eps, sorted(self._matrices.values(), key=len, reverse=True)
        with np.errstate(over="ignore", invalid="ignore"):  # spectrum reports an overflow
            traces = np.array([np.trace(g).real for g in blocks])
            k = np.array([len(g) + 1 for g in blocks]) * eps
            shifts = (1 + 4 * eps) * tol * traces.max(initial=1.0) + 2 * k / (1 - k) * traces
            if not (tol > 0 and np.isfinite(shifts).all()):  # a cut of 0 counts a missing block's zeros
                return False
            for g, shift in zip(blocks, shifts.tolist()):
                h = g / 2.0 + g.conj().T / 2.0
                h.flat[::len(h) + 1] -= shift
                try:
                    np.linalg.cholesky(h)
                except np.linalg.LinAlgError:
                    return False
        return True

    def quotient_rank(self, tol: float) -> int:
        """Rank of a Hermitian sector Gram, cut at ``tol`` times its largest singular value:
        before :attr:`spectrum` is computed, the stored rows where :meth:`_full_rank` holds."""
        if not self.hermitian_within(tol):
            raise HermiticityError(self.asymmetry, self.sector)
        if "spectrum" not in vars(self) and self._full_rank(tol):
            return sum(map(len, self._matrices.values()))
        magnitude = np.abs(np.concatenate(self.spectrum))
        cut = tol * max(1.0, float(magnitude.max()))
        return int(np.count_nonzero(magnitude >= cut))

    def psd_report(self, tol: float) -> CheckReport:
        """``gram-psd`` on this sector; the tolerance is relative to its largest entry."""
        if not self.hermitian_within(tol):
            return CheckReport("gram-psd", SKIPPED, self.asymmetry, "non-hermitian gram",
                               {"sector": self.sector, "asymmetry": self.asymmetry})
        min_eig = float(np.concatenate(self.spectrum).min())
        status = PASS if min_eig >= -tol * self.scale else FAIL
        return CheckReport("gram-psd", status, max(0.0, -min_eig), None,
                           {"sector": self.sector, "min_eigenvalue": min_eig})


class SectorDimension(NamedTuple):
    full: int
    quotient: int


def _tower(model: ParticleModel, ladder: Iterator[list[_Sparse]], n: int) -> Iterator[GramResult]:
    """Yield the Gram matrices of sectors ``0..n`` in order, from one pass.

    Built iteratively, block by block: with ``B_i`` the matrix of ``b-_i``
    from block ``M`` of sector ``m`` to block ``M - {i}`` of sector ``m-1``,
    the rows of block ``M`` whose word starts with ``i`` equal
    ``G_{M-{i}} @ B_i``, one product for each distinct letter ``i`` of ``M``.
    A model that does not conserve letters has one block per sector, which
    makes this the dense recursion.  A block that is exactly 0 is not stored:
    the products of a missing ``G_{M-{i}}`` are skipped, and a block is
    allocated when a product first writes into it.  One level of ``ladder`` is
    drawn per sector until a sector stores no block; the sectors above it
    store none either, and draw no level.  The byte guard counts each block, from
    sector 0 up, before it is allocated, which bounds the blocks the tower and
    its caller hold at once.
    """
    n_gen, dtype, itemsize = model.n_generators, model.scalar_type, np.dtype(model.scalar_type).itemsize
    next(ladder)  # b-_i on the vacuum: no entries
    result = GramResult(0, n_gen, _layout(model, 0), {0: np.ones((1, 1), dtype=dtype)})
    yield result
    total = itemsize  # bytes of the blocks allocated so far
    for m in range(1, n + 1):
        layout, below, lower = _layout(model, m), result._layout, result._matrices
        grams: dict[int, np.ndarray] = {}
        if not lower:
            result = GramResult(m, n_gen, layout, grams)
            yield result
            continue
        # each b-_i on every word, block after block: row in the lower block, column in block, value
        gathered = [_gather(hop, layout.order) for hop in next(ladder)]
        entries = [(below.row[rows], layout.row[layout.order[at]], vals) for rows, at, vals in gathered]
        cuts = [np.searchsorted(at, layout.start).tolist() for _, at, _ in gathered]
        with np.errstate(over="ignore", invalid="ignore"):  # GramResult refuses a non-finite block
            for c, (lo, hi) in enumerate(zip(layout.start[:-1].tolist(), layout.start[1:].tolist())):
                top = lo
                while top < hi:  # one run of rows per first letter
                    i, rest = divmod(int(layout.order[top]), n_gen ** (m - 1))
                    b = int(below.block[rest])
                    at = slice(cuts[i][c], cuts[i][c + 1])
                    rows, cols, vals = [a[at] for a in entries[i]]
                    run = below.start[b + 1] - below.start[b]
                    if b in lower:
                        if c not in grams:
                            total += itemsize * (hi - lo) ** 2
                            if total > MAX_GRAM_BYTES:
                                raise ResourceLimitError(f"the Gram blocks of sectors 0..{m} need {total}"
                                                         f" bytes, over the guard of {MAX_GRAM_BYTES}")
                            grams[c] = np.zeros((hi - lo, hi - lo), dtype=dtype)
                        step = np.zeros((run, hi - lo), dtype=dtype)
                        step[rows, cols] = vals
                        np.matmul(lower[b], step, out=grams[c][top - lo:top - lo + run])
                    top += run
        result = GramResult(m, n_gen, layout, grams)
        yield result


def _sector_gram(model: ParticleModel, n: int) -> GramResult:
    _guard_sectors(model, n)
    for result in _tower(model, _levels(model, n), n):
        pass
    return result


def gram_matrix(model: ParticleModel, n: int) -> GramResult:
    """Matrix of scalar products between all sector-``n`` basis words.

    The byte guard counts the complex dense matrix, which
    :attr:`GramResult.matrix` fills when read, before anything is built.
    """
    _guard_sectors(model, n)
    rows = model.n_generators ** n
    size = 16 * rows * rows  # complex128
    if size > MAX_GRAM_BYTES:
        raise ResourceLimitError(f"a {rows}x{rows} complex128 Gram matrix in sector {n} needs {size} "
                                 f"bytes, over the guard of {MAX_GRAM_BYTES}")
    return _sector_gram(model, n)


def sector_dimension(model: ParticleModel, n: int, tol: float = 1e-9) -> SectorDimension:
    """Full dimension ``N^n`` and the rank of the sector Gram matrix."""
    rank = _sector_gram(model, n).quotient_rank(tol)  # guards sector n before N^n is built
    return SectorDimension(model.n_generators ** n, rank)


def gram_psd_check(model: ParticleModel, n: int, tol: float = 1e-9) -> CheckReport:
    """Positive semidefiniteness of the sector Gram matrix."""
    return _sector_gram(model, n).psd_report(tol)


def _gram_norms(gram: GramResult, entries: _Sparse) -> np.ndarray:
    """``sqrt|v^H G v|`` of each column ``v`` of ``entries`` under the sector Gram
    form, summed block by block in the entries' type."""
    layout, n_cols = gram._layout, len(entries.start) - 1
    value = np.zeros(n_cols, dtype=entries.vals.dtype)
    order, key, new, run = _runs(layout.block[entries.rows] * n_cols + entries.cols)
    rows, cols, vals = layout.row[entries.rows[order]], entries.cols[order], entries.vals[order]
    bounds = np.searchsorted(key, np.arange(len(layout.start)) * n_cols).tolist()
    for b, g in gram._matrices.items():  # a missing block is exactly 0 and adds exactly 0
        lo, hi = bounds[b], bounds[b + 1]
        if lo == hi:
            continue
        present = cols[lo:hi][new[lo:hi]]
        v = np.zeros((len(g), len(present)), dtype=value.dtype)
        v[rows[lo:hi], run[lo:hi] - run[lo]] = vals[lo:hi]
        value[present] += (v.conj() * (g @ v)).sum(axis=0)
    return np.sqrt(np.abs(value))


def _exchange_nullity(model: ParticleModel, ladder: list, grams: list[GramResult],
                      residuals: list[_Sparse], tol: float) -> CheckReport:
    """:func:`check_braid_exchange_relations` on a ladder, the Grams of sectors
    ``0..n_max + 2`` and the twisted commutator residuals of sectors ``0..n_max``."""
    n_gen = model.n_generators
    n_pairs, n_max = n_gen * n_gen, len(residuals) - 1
    lines = ("create-create", "annihilate-annihilate", "mixed")
    # column (i - 1) N + j - 1 lists the relation sum_kl C[(k, l), (i, j)] x_k x_l
    relation = _typed(model, np.eye(n_pairs) - _action_matrix(model.braid_coupling))
    ij, kl = np.nonzero(np.abs(relation.T) > PRUNE_EPS)  # by column, then row
    sectors = []
    for n in range(n_max + 1):
        size = n_gen ** n
        defects = np.zeros((3, n_pairs * size))
        # C (x) id: column p N^n + w is also the position of the word (i, j) + w
        rows, cols = ((a[:, None] * size + np.arange(size)).ravel() for a in (kl, ij))
        order = cols.argsort(kind="stable")  # by column, then row
        raised = _Sparse(np.searchsorted(cols[order], np.arange(n_pairs * size + 1)), rows[order],
                         cols[order], np.repeat(relation[kl, ij], size)[order])
        if grams[n + 2]._matrices:  # a sector that stores no block gives exact zeros
            defects[0] = _gram_norms(grams[n + 2], raised)
        if n >= 2 and grams[n - 2]._matrices:
            # column ((k - 1) N + l - 1) N^n + w: b-_k b-_l on w
            twice = _coalesce([_product(ladder[n - 1][k], inner, (k * n_gen + l) * size)
                               for k in range(n_gen) for l, inner in enumerate(ladder[n])],
                              size // n_pairs, n_pairs * size, PRUNE_EPS)
            defects[1] = _gram_norms(grams[n - 2], _coalesce([_product(twice, raised)], size // n_pairs,
                                                             n_pairs * size, PRUNE_EPS))
        if len(residuals[n].vals):  # s = +1 has no residual: exact zeros
            defects[2] = _gram_norms(grams[n], residuals[n])
        # loop order: word, i, j, line
        sectors.append(defects.reshape(3, n_gen, n_gen, size).transpose(3, 1, 2, 0))
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


def _fock_pass(model: ParticleModel, n_max: int) -> tuple[list, list[GramResult], list[_Sparse]]:
    """Guards, one ladder and Gram pass to ``n_max + 2``, and the residuals of ``0..n_max``."""
    _guard_sectors(model, n_max)
    _guard_sectors(model, n_max + 2)  # the ladder and the tower go two sectors further
    ladder = list(_levels(model, n_max + 2))
    return ladder, list(_tower(model, iter(ladder), n_max + 2)), [
        _residual_entries(model, n, ladder) for n in range(n_max + 1)]


def _fock_checks(model: ParticleModel, n_max: int, tol: float) -> tuple[list[CheckReport], list[dict]]:
    """The Fock rows of ``check`` (infinite-statistics, twisted-commutators,
    exchange-nullity, gram-hermitian and the worst sector's gram-psd, where a
    skipped sector outranks defects) and the dimension rows of sectors
    ``0..n_max``, from one :func:`_fock_pass`."""
    ladder, grams, residuals = _fock_pass(model, n_max)
    dims, psd = [], None
    for n, result in enumerate(grams[:n_max + 1]):
        dims.append({"sector": n, "full": model.n_generators ** n})
        rep = result.psd_report(tol)  # first: the rank then counts the spectrum it computed
        try:
            dims[-1]["quotient"] = result.quotient_rank(tol)
        except HermiticityError:
            dims[-1].update(quotient=None, status=SKIPPED)
        if psd is None or psd.status != SKIPPED and (rep.status == SKIPPED or rep.defect > psd.defect):
            psd = rep
    hermitian = all(result.hermitian_within(tol) for result in grams[:n_max + 1])
    asymmetry = max(result.asymmetry for result in grams[:n_max + 1])
    return [check_infinite_statistics(model, n_max, tol), _twisted_commutators(model, residuals, tol),
            _exchange_nullity(model, ladder, grams, residuals, tol),
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
    genuinely has no create-create relation.
    """
    return _exchange_nullity(model, *_fock_pass(model, n_max), tol)


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
    for w, _ in v.items():
        model.check_word(w)
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
