"""Bundled example models.

============== =========================================================
name           model
============== =========================================================
boson          2 generators, trivial grading, symmetric exchange (+1)
fermion1/2/3   1-3 generators over Z2, odd grades, exchange -1
z2z2_fermion   2 generators over Z2xZ2, grades (1,0) and (0,1)
anyon_z4       1 generator over Z4, grade 1, exchange phase i
quon_03/05/09  2 generators, explicit coupling q*swap, q in {.3,.5,.9}
============== =========================================================

Auxiliary fixtures ``hom_*`` / ``bichar_*`` feed the ``transmute`` command.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .modelfile import LoadedModel
    from .models import ParticleModel

ZOO_NAMES = (
    "boson",
    "fermion1",
    "fermion2",
    "fermion3",
    "z2z2_fermion",
    "anyon_z4",
    "quon_03",
    "quon_05",
    "quon_09",
)

#: Grade-diagonal members (scalar exchange phases).
GRADE_DIAGONAL_NAMES = ("boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion", "anyon_z4")

#: Members whose exchange squares to the identity.
SYMMETRIC_NAMES = ("boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion")


def zoo_path(name: str) -> Path:
    """Filesystem path of a bundled fixture (model, hom, or bicharacter)."""
    path = Path(__file__).with_name("zoo") / f"{name}.json"
    if not path.exists():
        raise KeyError(f"no bundled fixture named {name!r}")
    return path


def load_zoo(name: str) -> ParticleModel:
    return load_zoo_full(name).model


def load_zoo_full(name: str) -> LoadedModel:
    from .modelfile import load_model_file
    if name not in ZOO_NAMES:
        raise KeyError(f"no bundled model named {name!r}; known: {', '.join(ZOO_NAMES)}")
    return load_model_file(zoo_path(name))
