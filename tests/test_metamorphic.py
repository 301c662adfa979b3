"""Metamorphic relations: braidstat compared with itself on an edited model.

Relabeling the generators by a permutation, and conjugating the pairing, the
bicharacter exponents and the couplings, change no physics.  So every row of
``check`` keeps its status and every sector its dimension, and every defect
agrees to 1e-12 times ``max(1, |defect|)``: random-R's defects reach 6.8e4, whose
last bit is 1.5e-11, and a relabeled run moves them in the last bits.
Rescaling the pairing is among them only on the colour-symmetric class, whose
ranks and statuses are exact: elsewhere the cuts have an absolute floor of 1,
so today a rescaled pairing can change a verdict.
"""

import itertools

import numpy as np
import pytest

from braidstat import ZOO_NAMES, Bicharacter, BraidMatrix, make_bicharacter, make_group, make_model
from braidstat.fock import _fock_checks
from braidstat.models import check_symmetry, check_yang_baxter

from test_fock import _colour_model, _mixing_models, _zoo_model

MIXING = list(_mixing_models())


def _report(model, n_max, tol=1e-9):
    """The statuses and defects of ``check``'s rows, and its sector dimensions."""
    fock_rows, dims = _fock_checks(model, n_max, tol)
    rows = [check_yang_baxter(model, max(tol, 1e-12)), check_symmetry(model, tol), *fock_rows]
    return [model.eps.is_normalized().ok] + [(r.name, r.status) for r in rows], dims, [r.defect for r in rows]


def _edited(model, eps=None, grades=None, pairing=None, coupling=lambda c: c):
    """``model`` with the given parts replaced and ``coupling`` applied to each explicit coupling."""
    def couple(exchange):
        return type(exchange)(coupling(exchange.coupling)) if hasattr(exchange, "coupling") else exchange
    return make_model(model.group, eps or model.eps, grades or model.grades,
                      model.pairing if pairing is None else pairing,
                      couple(model.braid), couple(model.cross), model.expansion_sign)


def _relabeled(model, p):
    """The model whose generator ``a + 1`` is the generator ``p[a] + 1`` of ``model``."""
    return _edited(model, grades=[model.grades[a] for a in p], pairing=model.pairing[np.ix_(p, p)],
                   coupling=lambda c: c[np.ix_(p, p, p, p)])


def _conjugated(model):
    """The complex conjugate model: every phase and coupling conjugated."""
    eps = make_bicharacter(model.group, [[-q for q in row] for row in model.eps.exponents])
    return _edited(model, eps=eps, pairing=model.pairing.conj(), coupling=np.conj)


def _assert_same(got, want):
    assert got[:2] == want[:2]
    assert np.allclose(got[2], want[2], rtol=1e-12, atol=1e-12), (got[2], want[2])


@pytest.mark.parametrize("label", [f"{name}{sign}" for name in ZOO_NAMES for sign in "+-"] + MIXING)
def test_relabeling_and_conjugation_change_no_verdict(label):
    model = _mixing_models()[label] if label in MIXING else _zoo_model(label[:-1], label[-1])
    n_max = 3 if model.n_generators == 3 else 4
    want = _report(model, n_max)
    for p in itertools.permutations(range(model.n_generators)):
        _assert_same(_report(_relabeled(model, list(p)), n_max), want)
    _assert_same(_report(_conjugated(model), n_max), want)


COLOUR = ["boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"] + [
    f"random-{seed}" for seed in range(20261101, 20261107)]


@pytest.mark.parametrize("k", [4, 8, 20])
@pytest.mark.parametrize("label", COLOUR)
def test_scaling_the_pairing_keeps_every_rank_and_status_on_the_colour_symmetric_class(label, k):
    # at 2^-20 the cut of 1e-9 dropped boson's and the fermions' ranks to 0
    model = _colour_model(int(label[7:]))[0] if label.startswith("random-") else _zoo_model(label, "+")
    n_max = 3 if model.n_generators >= 3 else 4
    scaled = _edited(model, pairing=model.pairing * 2.0 ** -k)
    assert scaled.colour_spectrum is not None
    assert _report(scaled, n_max)[:2] == _report(model, n_max)[:2]


def _random_braid():
    """An explicit braid of two generators that is no solution of Yang-Baxter: ``normal(4x4) + 3 I``."""
    raw = np.random.default_rng(3).normal(size=(4, 4)) + 3 * np.eye(4)
    trivial = make_group([])
    return make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2), BraidMatrix(raw))


@pytest.mark.parametrize("k", [4, 8, 20])
@pytest.mark.parametrize("label", ["quon_03", "quon_05", "quon_09", "random-braid"] + MIXING)
def test_scaling_the_braid_keeps_the_yang_baxter_status(label, k):
    # the defect was absolute, cubic in R: the random braid failed at 71.0 and passed at 1e-4 scale
    model = (_random_braid() if label == "random-braid" else _mixing_models()[label] if label in MIXING
             else _zoo_model(label, "+"))
    scaled = _edited(model, coupling=lambda c: c * 2.0 ** -k)
    want, got = check_yang_baxter(model), check_yang_baxter(scaled)
    assert got.status == want.status and got.defect == pytest.approx(want.defect, rel=1e-12, abs=1e-15)
    if label == "random-braid":
        assert got.failed
