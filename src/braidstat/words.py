"""Tensor words over generator indices and finitely supported state vectors."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping

#: A basis word: a finite sequence of 1-based generator indices.  The empty
#: word is the vacuum.
TensorWord = tuple[int, ...]

#: Amplitudes below this magnitude are dropped when vectors are canonicalized.
PRUNE_EPS = 1e-15


def basis_words(n_generators: int, length: int) -> list[TensorWord]:
    """All words of the given length, lexicographically ordered."""
    return [w for w in product(range(1, n_generators + 1), repeat=length)]


def word_index(word: TensorWord, n_generators: int) -> int:
    """Position of ``word`` in :func:`basis_words` of its length."""
    idx = 0
    for letter in word:
        idx = idx * n_generators + (letter - 1)
    return idx


class FockVector:
    """Finite complex combination of tensor words (mixed lengths allowed)."""

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: Mapping[TensorWord, complex] | None = None):
        amps: dict[TensorWord, complex] = {}
        if amplitudes:
            for word, amp in amplitudes.items():
                c = complex(amp)
                if abs(c) > PRUNE_EPS:
                    amps[tuple(word)] = c
        self._amps = amps

    @classmethod
    def vacuum(cls) -> "FockVector":
        return cls({(): 1.0})

    @classmethod
    def basis(cls, word: Iterable[int]) -> "FockVector":
        return cls({tuple(word): 1.0})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    def amplitude(self, word: Iterable[int]) -> complex:
        return self._amps.get(tuple(word), 0.0 + 0.0j)

    def items(self) -> Iterator[tuple[TensorWord, complex]]:
        return iter(self._amps.items())

    def sorted_items(self) -> list[tuple[TensorWord, complex]]:
        return sorted(self._amps.items(), key=lambda kv: (len(kv[0]), kv[0]))

    @property
    def n_terms(self) -> int:
        return len(self._amps)

    @property
    def is_zero(self) -> bool:
        return not self._amps

    def norm(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values()) ** 0.5

    def scale(self, factor: complex) -> "FockVector":
        return FockVector({w: factor * a for w, a in self._amps.items()})

    def __mul__(self, factor: complex) -> "FockVector":
        return self.scale(factor)

    __rmul__ = __mul__

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self._amps)
        for w, a in other._amps.items():
            out[w] = out.get(w, 0.0) + a
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1.0)

    def __neg__(self) -> "FockVector":
        return self.scale(-1.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self._amps == other._amps

    def __repr__(self) -> str:
        if self.is_zero:
            return "FockVector(0)"
        terms = []
        for word, amp in self.sorted_items()[:6]:
            label = "|" + ",".join(map(str, word)) + ">" if word else "|0>"
            terms.append(f"({amp:.6g})*{label}")
        tail = " + ..." if self.n_terms > 6 else ""
        return "FockVector(" + " + ".join(terms) + tail + ")"
