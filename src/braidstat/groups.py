"""Finite Abelian groups, exact unit phases, bicharacters, and homomorphisms.

A group is a product of cyclic factors ``Z_n1 x ... x Z_nk`` (``k = 0`` gives
the trivial group); elements are residue vectors.  Phases are rational numbers
``t`` taken modulo 1 and stand for the unit complex number ``exp(2*pi*i*t)``,
so all bicharacter identities can be checked exactly, with zero tolerance.
Conversion to floating complex happens only at the boundary to the numeric
model layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class BicharacterError(ValueError):
    """Phase matrix does not define a bicharacter on the given group."""


class HomomorphismError(ValueError):
    """Generator images do not extend to a group homomorphism."""


@dataclass(frozen=True)
class GroupSpec:
    """Finite Abelian group given by the orders of its cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if any((not isinstance(n, int)) or n < 1 for n in self.orders):
            raise ValueError(f"invalid order: all cyclic orders must be >= 1, got {self.orders}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, residues: Iterable[int]) -> "GroupElement":
        """Build an element, reducing each residue mod the factor order."""
        res = tuple(int(a) for a in residues)
        if len(res) != self.rank:
            raise GroupMismatchError(
                f"element needs {self.rank} residues for orders {self.orders}, got {len(res)}"
            )
        return GroupElement(self, tuple(a % n for a, n in zip(res, self.orders)))

    def generators(self) -> tuple["GroupElement", ...]:
        """The standard generator of each cyclic factor."""
        return tuple(self.element(int(i == j) for j in range(self.rank)) for i in range(self.rank))

    def elements(self) -> Iterator["GroupElement"]:
        """All elements, lexicographically.  Only sensible for small groups."""
        for res in product(*(range(n) for n in self.orders)):
            yield GroupElement(self, res)

    def __str__(self) -> str:
        if not self.orders:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.orders)


def make_group(orders: Sequence[int]) -> GroupSpec:
    return GroupSpec(tuple(int(n) for n in orders))


@dataclass(frozen=True)
class GroupElement:
    """Residue vector in a :class:`GroupSpec`, written additively."""

    group: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != self.group.rank:
            raise GroupMismatchError("residue vector has wrong length for its group")
        if any(a < 0 or a >= n for a, n in zip(self.residues, self.group.orders)):
            raise ValueError(f"residues {self.residues} not reduced mod {self.group.orders}")

    def _check_same_group(self, other: "GroupElement") -> None:
        if self.group != other.group:
            raise GroupMismatchError(f"elements of {self.group} and {other.group} cannot be combined")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check_same_group(other)
        return self.group.element(a + b for a, b in zip(self.residues, other.residues))

    def __neg__(self) -> "GroupElement":
        return self.group.element(-a for a in self.residues)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        return self.group.element(k * a for a in self.residues)

    @property
    def is_identity(self) -> bool:
        return all(a == 0 for a in self.residues)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.residues) + ")"


@dataclass(frozen=True)
class RationalPhase:
    """Unit complex number ``exp(2*pi*i*t)`` with exact rational exponent ``t mod 1``.

    The exponent is given as a ``Fraction``, ``int``, ``str`` or phase.
    Multiplication of phases is addition of exponents; both stay exact.
    """

    exponent: Fraction = Fraction(0)

    def __post_init__(self):
        t = self.exponent
        t = t.exponent if isinstance(t, RationalPhase) else Fraction(t)
        object.__setattr__(self, "exponent", t % 1)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def inverse(self) -> "RationalPhase":
        return RationalPhase(-self.exponent)

    conjugate = inverse

    def __mul__(self, other: "RationalPhase") -> "RationalPhase":
        return RationalPhase(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "RationalPhase":
        return RationalPhase(self.exponent * k)

    def __complex__(self) -> complex:
        return unit_complex(self.exponent)

    def __repr__(self) -> str:
        return f"RationalPhase({self.exponent})"


def unit_complex(t: Fraction) -> complex:
    """``exp(2*pi*i*t)`` for rational ``t``, exact for quarter turns."""
    t = t % 1
    if t.denominator == 1:
        return 1.0 + 0.0j
    if t.denominator == 2:
        return -1.0 + 0.0j
    if t.denominator == 4:
        return 1.0j if t.numerator == 1 else -1.0j
    return cmath.exp(2j * math.pi * float(t))


class NormalizationCheck(NamedTuple):
    ok: bool
    witness: "tuple[GroupElement, GroupElement] | None"

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Bicharacter:
    """Bilinear phase pairing on a finite Abelian group.

    ``exponents`` is a rank x rank matrix ``Q`` of rational numbers; the pairing
    of elements ``a`` and ``b`` is ``exp(2*pi*i * sum_ij a_i Q_ij b_j)``.
    Bilinearity holds by construction; well-definedness on residues requires
    ``n_i * Q_ij`` and ``Q_ij * n_j`` to be integers, which is validated by
    :func:`make_bicharacter`.
    """

    group: GroupSpec
    exponents: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def trivial(cls, group: GroupSpec) -> "Bicharacter":
        row = (Fraction(0),) * group.rank
        return cls(group, (row,) * group.rank)

    def _check_member(self, a: GroupElement) -> None:
        if a.group != self.group:
            raise GroupMismatchError(f"element of {a.group} fed to a bicharacter on {self.group}")

    def phase(self, a: GroupElement, b: GroupElement) -> RationalPhase:
        """Exact pairing value as a :class:`RationalPhase`."""
        self._check_member(a)
        self._check_member(b)
        t = Fraction(0)
        for i, ai in enumerate(a.residues):
            if ai == 0:
                continue
            row = self.exponents[i]
            for j, bj in enumerate(b.residues):
                if bj:
                    t += ai * row[j] * bj
        return RationalPhase(t)

    def is_normalized(self) -> NormalizationCheck:
        """Whether ``phase(a,b) * phase(b,a) == 1`` for all pairs.

        Checked on generator pairs, which suffices by bilinearity, once per
        bicharacter.  On failure the witness is the offending generator pair.
        """
        return self._normalization

    @cached_property
    def _normalization(self) -> NormalizationCheck:
        gens = self.group.generators()
        for i, a in enumerate(gens):
            for j in range(i, len(gens)):
                b = gens[j]
                if not (self.phase(a, b) * self.phase(b, a)).is_one:
                    return NormalizationCheck(False, (a, b))
        return NormalizationCheck(True, None)


def make_bicharacter(group: GroupSpec, exponents: Sequence[Sequence["Fraction | int | str"]]) -> Bicharacter:
    """Validate a phase exponent matrix and build the bicharacter.

    Entries must be exact rationals (``Fraction``, ``int``, or strings such as
    ``"1/2"``); floats are rejected to keep the arithmetic exact.
    """
    k = group.rank
    rows = list(exponents)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise BicharacterError(f"exponent matrix must be {k}x{k} for group {group}")
    q: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(rows):
        entries = []
        for j, raw in enumerate(row):
            if isinstance(raw, float):
                raise BicharacterError(
                    f"entry ({i + 1},{j + 1}) is a float; bicharacter exponents must be exact rationals"
                )
            val = Fraction(raw) % 1
            ni, nj = group.orders[i], group.orders[j]
            if (ni * val) % 1 != 0 or (val * nj) % 1 != 0:
                raise BicharacterError(
                    f"invalid bicharacter: entry ({i + 1},{j + 1}) = {val} violates "
                    f"{ni}*Q and Q*{nj} being integers"
                )
            entries.append(val)
        q.append(tuple(entries))
    return Bicharacter(group, tuple(q))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between finite Abelian groups, given on generators."""

    source: GroupSpec
    target: GroupSpec
    images: tuple[GroupElement, ...]

    @classmethod
    def identity(cls, group: GroupSpec) -> "GroupHom":
        return cls(group, group, group.generators())

    def apply(self, a: GroupElement) -> GroupElement:
        if a.group != self.source:
            raise GroupMismatchError(f"element of {a.group} fed to a homomorphism out of {self.source}")
        out = self.target.identity()
        for coeff, image in zip(a.residues, self.images):
            if coeff:
                out = out + image.scale(coeff)
        return out

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """``self`` after ``inner``."""
        if inner.target != self.source:
            raise GroupMismatchError("homomorphisms do not compose: target/source groups differ")
        return GroupHom(inner.source, self.target, tuple(self.apply(im) for im in inner.images))


def make_hom(source: GroupSpec, target: GroupSpec, images: Sequence[GroupElement | Sequence[int]]) -> GroupHom:
    """Validate generator images (``n_i * h(e_i) = 0``) and build the hom."""
    if len(images) != source.rank:
        raise HomomorphismError(f"need {source.rank} generator images, got {len(images)}")
    imgs = []
    for i, raw in enumerate(images):
        img = raw if isinstance(raw, GroupElement) else target.element(raw)
        if img.group != target:
            raise GroupMismatchError(f"image {i + 1} lies in {img.group}, not in target {target}")
        if not img.scale(source.orders[i]).is_identity:
            raise HomomorphismError(
                f"not a homomorphism: generator {i + 1} of order {source.orders[i]} maps to {img}, "
                f"but {source.orders[i]}*{img} != 0"
            )
        imgs.append(img)
    return GroupHom(source, target, tuple(imgs))


class TransportCheck(NamedTuple):
    ok: bool
    witness: "tuple[GroupElement, GroupElement] | None"
    source_phase: "RationalPhase | None"
    target_phase: "RationalPhase | None"

    def __bool__(self) -> bool:
        return self.ok


def check_transmutation(hom: GroupHom, eps: Bicharacter, eps_target: Bicharacter) -> TransportCheck:
    """Whether ``eps(a, b) == eps_target(h(a), h(b))`` for all pairs.

    Generator pairs suffice by bilinearity.  On failure returns the witness
    pair together with both phase values.
    """
    if eps.group != hom.source:
        raise GroupMismatchError("source bicharacter lives on the wrong group")
    if eps_target.group != hom.target:
        raise GroupMismatchError("target bicharacter lives on the wrong group")
    gens = hom.source.generators()
    for a in gens:
        for b in gens:
            p = eps.phase(a, b)
            p_t = eps_target.phase(hom.apply(a), hom.apply(b))
            if p != p_t:
                return TransportCheck(False, (a, b), p, p_t)
    return TransportCheck(True, None, None, None)
