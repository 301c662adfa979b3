"""Pushing a graded model along a group homomorphism.

The target model keeps the generators and pairing, regrades generator ``i``
by ``h(grade_i)``, and exchanges with the target bicharacter.  The functor is
strict, so compatibility reduces to equality of exchange phases on the grades
that actually occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fock import _commutator_residual, _guard_sector, _lower, create
from .groups import Bicharacter, GroupHom, GroupMismatchError
from .models import DERIVED_CROSS, GRADE_DIAGONAL, ModelSpecError, ParticleModel, make_model
from .report import CheckReport
from .words import FockVector, basis_words


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

    Two readings are computed: the target model's own relations (its own
    cross phases) and the functor-image reading, where the target operators
    are twisted with the *source* cross phases.  They coincide exactly when
    :func:`check_cross_symmetric` passes; the pass/fail status follows the
    target's own relations.  One hop memo serves the whole call.
    """
    source, target = t.source, t.target
    target_defect = 0.0
    image_defect = 0.0
    witness = None
    memo: dict = {}
    for i in range(1, target.n_generators + 1):
        for j in range(1, target.n_generators + 1):
            chi_source = complex(source.cross_phase(i, j))
            g = target.pairing_entry(i, j)
            for n in range(n_max + 1):
                _guard_sector(target, n)
                for w in basis_words(target.n_generators, n):
                    base = FockVector.basis(w)
                    d = _commutator_residual(target, i, j, base, memo).norm()
                    if d > target_defect:
                        target_defect = d
                        witness = {"i": i, "j": j, "sector": n}
                    lhs = _lower(target, i, create(target, j, base), memo)
                    rhs = create(target, j, _lower(target, i, base, memo)).scale(chi_source)
                    image_defect = max(image_defect, (lhs - rhs - base.scale(g)).norm())
    return CheckReport.from_defect("relation-transport", target_defect, tol, witness,
                                   {"target_defect": target_defect, "image_defect": image_defect,
                                    "n_max": n_max})
