"""Reference tasks: fixed work that measures the speed of the machine, not of braidstat.

The host this benchmark was written on changes speed by a third and more over
minutes, and by as much between two runs of the same code.  A run therefore
interleaves one of these tasks with its timed operations and divides each time
by the speed around it, ``mean(the two bracketing reference times) / nominal``;
see ``run.py``.  Neither
task imports braidstat, so a change to the program moves the operations and
leaves the reference alone.  The tasks run in a helper process
(:class:`SpeedProbe`), so they share neither the heap nor the peak RSS of the
process that runs braidstat.

- ``python``: interpreter-bound work of the kinds braidstat's Python layers
  do: small objects, tuple-keyed dicts, ``Fraction`` and complex arithmetic,
  sorting tuples, and random lookups in a table of a few megabytes.
- ``lapack``: ``eigvalsh`` and singular values of a fixed complex Hermitian
  matrix, the calls that dominate sector-large.

``NOMINAL_S`` fixes the unit: a round figure near each task's typical time on
the machine the figures in README.md come from (a 2-vCPU Intel Xeon at
2.1 GHz, one BLAS thread), so normalized times read as seconds on that machine
at its typical speed.
"""

import functools
import gc
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = {"python": 0.05, "lapack": 0.075}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def key(self) -> tuple[int, int]:
        return self.a % 97, self.b % 13


@functools.cache
def _lookup_table() -> dict[int, tuple[int]]:
    return {i: (i,) for i in range(200000)}


def python_task() -> int:
    rng = random.Random(5)
    table: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(8000):
        key = _Point(rng.randrange(10 ** 6), i).key()
        table[key] = table.get(key, 0) + 1
        if i % 4 == 0:
            total += Fraction(key[0] + 1, key[1] + 1)
        total_phase = complex(key[0], key[1]) * 1j
    words = sorted(tuple(rng.randrange(4) for _ in range(6)) for _ in range(4000))
    lookup = _lookup_table()
    hits = sum(lookup[rng.randrange(200000)][0] for _ in range(30000))
    return len(table) + len(words) + hits + int(total) + int(total_phase.imag)


@functools.cache
def _hermitian(rows: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    return matrix + matrix.conj().T


def lapack_task() -> float:
    matrix = _hermitian(400)
    eigenvalues = np.linalg.eigvalsh(matrix)
    singular = np.linalg.svd(matrix, compute_uv=False)
    return float(eigenvalues[-1] + singular[0])


TASKS = {"python": python_task, "lapack": lapack_task}


def time_task(kind: str, repeat: int) -> float:
    """Wall time of ``repeat`` reference tasks in a row, with the cyclic
    collector off."""
    task = TASKS[kind]
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(repeat):
            task()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedProbe:
    """A helper process that runs the reference task ``kind`` ``repeat`` times
    each time it is asked and answers with their wall time.  Use it as a
    context manager: leaving the block ends the process and waits for it."""

    def __init__(self, kind: str, repeat: int):
        self.proc = subprocess.Popen([sys.executable, __file__, kind, str(repeat)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # the first call builds the task's tables outside any timing
        self.time_task()

    def time_task(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the reference process ended with {self.proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(time_task(sys.argv[1], int(sys.argv[2]))), flush=True)
