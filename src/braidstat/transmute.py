"""Pushing a graded model along a group homomorphism.

The target model keeps the generators and pairing, regrades generator ``i``
by ``h(grade_i)``, and exchanges with the target bicharacter.  The functor is
strict, so compatibility reduces to equality of exchange phases on the grades
that actually occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import _annihilator_norms, _guard_sectors, _locate
from .groups import Bicharacter, GroupHom, GroupMismatchError
from .models import DERIVED_CROSS, GRADE_DIAGONAL, ModelSpecError, ParticleModel, make_model
from .report import CheckReport


@dataclass(eq=False, frozen=True)
class Transmutation:
    """A homomorphism together with the source and the pushed-forward model."""

    hom: GroupHom
    source: ParticleModel
    target: ParticleModel


def transmute_model(model: ParticleModel, hom: GroupHom, eps_target: Bicharacter) -> ParticleModel:
    """Push a grade-diagonal model forward along ``hom``."""
    if not model.is_grade_diagonal:
        raise ModelSpecError("transmutation is defined for grade-diagonal models")
    if hom.source != model.group:
        raise GroupMismatchError(f"homomorphism starts at {hom.source}, model is graded over {model.group}")
    if eps_target.group != hom.target:
        raise GroupMismatchError(f"target bicharacter lives on {eps_target.group}, expected {hom.target}")
    return make_model(
        hom.target,
        eps_target,
        [hom.apply(g) for g in model.grades],
        model.pairing,
        GRADE_DIAGONAL,
        DERIVED_CROSS,
        model.expansion_sign,
    )


def make_transmutation(model: ParticleModel, hom: GroupHom, eps_target: Bicharacter) -> Transmutation:
    return Transmutation(hom, model, transmute_model(model, hom, eps_target))


def check_cross_symmetric(t: Transmutation, tol: float = 1e-9) -> CheckReport:
    """Exchange compatibility of the functor on every generator pair.

    Compares, exactly, the source and target cross phases (dual past letter);
    ``tol`` is unused because phases either match or not.  Both models are
    grade-diagonal with derived cross, so ``cross_phase(i, j)`` is
    ``eps(grade_j, -grade_i)``, exactly the inverse of
    ``braid_phase(i, j) = eps(grade_j, grade_i)``: the braid phases match
    exactly when the cross phases do, and ``braid_compatible`` reports the
    same verdict as ``cross_compatible``.
    """
    source, target = t.source, t.target
    defect = 0.0
    witness = None
    for i in range(1, source.n_generators + 1):
        for j in range(1, source.n_generators + 1):
            p_src, p_tgt = source.cross_phase(i, j), target.cross_phase(i, j)
            if p_src != p_tgt:
                d = abs(complex(p_src) - complex(p_tgt))
                if d > defect or witness is None:
                    defect = max(defect, d)
                    witness = {
                        "kind": "cross",
                        "grades": (source.grade(i), source.grade(j)),
                        "source_phase": p_src,
                        "target_phase": p_tgt,
                    }
    compatible = witness is None
    return CheckReport.from_defect("cross-symmetric", defect, 0.0, witness,
                                   {"cross_compatible": compatible, "braid_compatible": compatible})


def check_relation_transport(t: Transmutation, n_max: int = 3, tol: float = 1e-9) -> CheckReport:
    """Twisted commutation relations carried to the target model.

    Two readings are checked: the target model's own relations (its own cross
    phases) and the functor-image reading, which twists the target operators
    with the *source* cross phases, ``b-_i b+_j - chi_source(i, j) b+_j b-_i -
    <i|j>``.  They coincide exactly when :func:`check_cross_symmetric` passes;
    the pass/fail status follows the target's own relations.  Both models are
    grade-diagonal, so by the annihilator recursion a reading twisted with
    ``chi`` leaves ``(s chi_target(i, j) - chi(i, j)) (j, b-_i w)`` on a word
    ``w``; prepending ``j`` keeps the norm, so the column norms of the
    annihilator blocks to ``n_max`` give every defect.  The witness is the
    first in ``(i, j, sector, word)`` order, within the Fock checks' witness band.
    """
    source, target = t.source, t.target
    n_gen = target.n_generators
    _guard_sectors(target, n_max)
    norms = list(_annihilator_norms(target, n_max))  # norms[n][i - 1]: b-_i on each word of sector n
    phases = [(i, complex(target.cross_phase(i, j)), complex(source.cross_phase(i, j)))
              for i in range(1, n_gen + 1) for j in range(1, n_gen + 1)]
    # loop order: i, j, sector, word
    own = [abs(target.expansion_sign * chi_t - chi_t) * norms[n][i - 1]
           for i, chi_t, _ in phases for n in range(n_max + 1)]
    image = [abs(target.expansion_sign * chi_t - chi_s) * norms[n][i - 1]
             for i, chi_t, chi_s in phases for n in range(n_max + 1)]
    target_defect, at = _locate(own)
    witness = None
    if at is not None:
        pair, sector = divmod(at[0], n_max + 1)
        witness = {"i": pair // n_gen + 1, "j": pair % n_gen + 1, "sector": sector}
    image_defect = max(float(d.max()) for d in image)
    return CheckReport.from_defect("relation-transport", target_defect, tol, witness,
                                   {"target_defect": target_defect, "image_defect": image_defect,
                                    "n_max": n_max})
