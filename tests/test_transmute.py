import numpy as np
import pytest

from braidstat import (Bicharacter, ModelSpecError, check_cross_symmetric,
                       check_relation_transport, check_transmutation, gram_matrix, load_zoo,
                       make_bicharacter, make_group, make_hom, make_model, make_transmutation,
                       transmute_model, zoo_path)
from braidstat.modelfile import load_bicharacter_file, load_hom_file

from oracles import banded_witness, dense_commutator_residuals


def z2z2_setup():
    model = load_zoo("z2z2_fermion")
    z2 = make_group([2])
    hom = make_hom(model.group, z2, [[1], [1]])
    eps2 = make_bicharacter(z2, [["1/2"]])
    return model, hom, eps2


def test_transmute_model_z2z2_to_z2():
    model, hom, eps2 = z2z2_setup()
    target = transmute_model(model, hom, eps2)
    assert [g.residues for g in target.grades] == [(1,), (1,)]
    assert target.eps == eps2
    assert np.array_equal(target.pairing, model.pairing)
    assert complex(target.braid_phase(1, 2)) == -1


def test_transmute_identity_is_identity():
    model = load_zoo("fermion2")
    hom = make_hom(model.group, model.group, [[1]])
    target = transmute_model(model, hom, model.eps)
    assert target.grades == model.grades
    assert target.eps == model.eps
    assert np.array_equal(target.pairing, model.pairing)


def test_transmute_to_trivial_group_gives_bosonic_exchange():
    model = load_zoo("fermion2")
    trivial = make_group([])
    hom = make_hom(model.group, trivial, [[]])
    from braidstat import Bicharacter
    target = transmute_model(model, hom, Bicharacter.trivial(trivial))
    assert complex(target.braid_phase(1, 2)) == 1
    assert complex(target.braid_phase(1, 1)) == 1


def test_transmute_rejects_matrix_models_and_wrong_groups():
    quon = load_zoo("quon_05")
    trivial = make_group([])
    with pytest.raises(ModelSpecError, match="grade-diagonal"):
        transmute_model(quon, make_hom(trivial, trivial, []),
                        quon.eps)
    model = load_zoo("fermion2")
    wrong_hom = make_hom(make_group([4]), make_group([2]), [[1]])
    with pytest.raises(Exception, match="group|starts"):
        transmute_model(model, wrong_hom, make_bicharacter(make_group([2]), [["1/2"]]))


def test_check_cross_symmetric_passes_for_z2z2():
    model, hom, eps2 = z2z2_setup()
    t = make_transmutation(model, hom, eps2)
    report = check_cross_symmetric(t)
    assert report.passed
    assert report.data == {"cross_compatible": True, "braid_compatible": True}


def test_check_cross_symmetric_fails_for_z2_to_z4():
    model = load_zoo("fermion1")
    z4 = make_group([4])
    hom = make_hom(model.group, z4, [[2]])
    eps4 = make_bicharacter(z4, [["1/4"]])
    t = make_transmutation(model, hom, eps4)
    report = check_cross_symmetric(t)
    assert report.failed
    grades = report.witness["grades"]
    assert [g.residues for g in grades] == [(1,), (1,)]
    # source -1 against target eps'(2,-2) = +1
    assert complex(report.witness["source_phase"]) == -1
    assert complex(report.witness["target_phase"]) == 1


def test_check_cross_symmetric_identity():
    model = load_zoo("z2z2_fermion")
    hom = make_hom(model.group, model.group, [[1, 0], [0, 1]])
    t = make_transmutation(model, hom, model.eps)
    assert check_cross_symmetric(t).passed


def test_relation_transport_z2z2():
    model, hom, eps2 = z2z2_setup()
    t = make_transmutation(model, hom, eps2)
    report = check_relation_transport(t, n_max=3)
    assert report.passed and report.defect <= 1e-12
    assert report.data["image_defect"] <= 1e-12


def test_relation_transport_to_trivial_group():
    from braidstat import Bicharacter
    model = load_zoo("fermion2")
    trivial = make_group([])
    t = make_transmutation(model, make_hom(model.group, trivial, [[]]),
                           Bicharacter.trivial(trivial))
    report = check_relation_transport(t, n_max=3)
    assert report.passed and report.defect <= 1e-12
    # bosonic CCR in the target: the functor-image reading twists with the
    # fermionic cross factor and misses
    assert report.data["image_defect"] > 1


def test_relation_transport_distinguishes_diagram_failure():
    model = load_zoo("fermion1")
    z4 = make_group([4])
    t = make_transmutation(model, make_hom(model.group, z4, [[2]]),
                           make_bicharacter(z4, [["1/4"]]))
    assert check_cross_symmetric(t).failed
    report = check_relation_transport(t, n_max=3)
    # the target model's own relations still close
    assert report.passed and report.defect <= 1e-12
    assert report.data["image_defect"] > 1


def test_transmutation_composition():
    model, hom, eps2 = z2z2_setup()
    z2 = make_group([2])
    z4 = make_group([4])
    hom2 = make_hom(z2, z4, [[2]])
    eps4 = make_bicharacter(z4, [["1/2"]])  # eps4(2,2) = exp(2pi*i*2) = 1... use transported
    middle = transmute_model(model, hom, eps2)
    twice = transmute_model(middle, hom2, eps4)
    once = transmute_model(model, hom2.compose(hom), eps4)
    assert twice.grades == once.grades
    assert twice.eps == once.eps
    assert np.array_equal(twice.pairing, once.pairing)


def test_matching_bicharacters_give_matching_grams():
    model, hom, eps2 = z2z2_setup()
    assert check_transmutation(hom, model.eps, eps2).ok
    target = transmute_model(model, hom, eps2)
    for n in range(5):
        a = gram_matrix(model, n).matrix
        b = gram_matrix(target, n).matrix
        assert np.abs(a - b).max() <= 1e-12


def test_transmutation_preserves_pairing_object():
    model, hom, eps2 = z2z2_setup()
    t = make_transmutation(model, hom, eps2)
    assert t.source.n_generators == t.target.n_generators
    assert np.array_equal(t.source.pairing, t.target.pairing)


def test_relation_transport_keeps_complex_source_phases_on_a_real_target():
    # anyon_z4's cross phase chi = -i pushed to Z2 with the fermionic sign: the
    # target, and its ladder, are real.  On the odd words 1^n the image reading
    # b-_1 b+_1 - chi b+_1 b-_1 - 1 leaves -chi - 1, of size |1 - i| = sqrt 2
    source = load_zoo("anyon_z4")
    z2 = make_group([2])
    t = make_transmutation(source, make_hom(source.group, z2, [[1]]),
                           make_bicharacter(z2, [["1/2"]]))
    assert (source.scalar_type, t.target.scalar_type) == (complex, float)
    report = check_relation_transport(t, 3)
    assert report.data["target_defect"] == 0.0
    assert report.data["image_defect"] == pytest.approx(2 ** 0.5, abs=1e-12)


def _transmutations():
    """Both bundled transmutations, anyon_z4 pushed to Z2 with the fermionic
    sign, and fermion2 with the alternating expansion and the pairing diag(1, 2),
    so that its two letters differ, pushed to the trivial group."""
    out = {}
    for source, hom, bichar in (("z2z2_fermion", "hom_z2z2_to_z2", "bichar_z2_half"),
                                ("fermion1", "hom_z2_to_z4", "bichar_z4_quarter")):
        model = load_zoo(source)
        h, target = load_hom_file(zoo_path(hom), model.group)
        out[f"{source}->{hom}"] = make_transmutation(model, h, load_bicharacter_file(zoo_path(bichar),
                                                                                     target))
    anyon, z2 = load_zoo("anyon_z4"), make_group([2])
    out["anyon_z4->Z2"] = make_transmutation(anyon, make_hom(anyon.group, z2, [[1]]),
                                             make_bicharacter(z2, [["1/2"]]))
    f2, trivial = load_zoo("fermion2"), make_group([])
    minus = make_model(f2.group, f2.eps, f2.grades, np.diag([1.0, 2.0]), expansion_sign=-1)
    out["fermion2(s=-1)->trivial"] = make_transmutation(minus, make_hom(f2.group, trivial, [[]]),
                                                        Bicharacter.trivial(trivial))
    return out


@pytest.mark.parametrize("n_max", range(4))
@pytest.mark.parametrize("label", sorted(_transmutations()))
def test_relation_transport_matches_the_dense_oracle(label, n_max):
    t = _transmutations()[label]
    report = check_relation_transport(t, n_max)
    # defects per word, in (i, j, sector, word) order
    own, image = ([np.linalg.norm(dense_commutator_residuals(t.target, n, cross)[i, j], axis=0)
                   for i in range(t.target.n_generators) for j in range(t.target.n_generators)
                   for n in range(n_max + 1)]
                  for cross in (t.target.cross_coupling, t.source.cross_coupling))
    worst, at = banded_witness(own)
    for key, want in (("target_defect", worst), ("image_defect", max(float(d.max()) for d in image))):
        assert abs(report.data[key] - want) <= 1e-12 * max(1.0, want), (key, report.data, want)
    assert report.defect == report.data["target_defect"]
    if worst > 1e-6:
        pair, sector = divmod(at[0], n_max + 1)
        n_gen = t.target.n_generators
        assert report.witness == {"i": pair // n_gen + 1, "j": pair % n_gen + 1, "sector": sector}
    else:
        assert report.witness is None and report.passed
    # the alternating expansion leaves a residual from sector 1 on; the others close
    assert (worst > 1e-6) == (label == "fermion2(s=-1)->trivial" and n_max >= 1)


def test_negative_n_max_is_rejected():
    t = _transmutations()["fermion1->hom_z2_to_z4"]
    with pytest.raises(ValueError, match="sector must be >= 0, got -1"):
        check_relation_transport(t, -1)
