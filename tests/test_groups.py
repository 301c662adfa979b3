import random
from fractions import Fraction

import pytest

from braidstat import (BicharacterError, GroupElement, GroupHom, GroupMismatchError, HomomorphismError,
                       RationalPhase, check_transmutation, make_bicharacter, make_group, make_hom)

from oracles import exhaustive_bilinearity_holds, exhaustive_normalized, exhaustive_transport_holds


def test_make_group_basic():
    z2 = make_group([2])
    assert z2.size == 2 and z2.rank == 1
    trivial = make_group([])
    assert trivial.size == 1 and trivial.is_trivial
    assert trivial.identity().residues == ()


def test_make_group_rejects_nonpositive_order():
    with pytest.raises(ValueError, match="invalid order"):
        make_group([2, 0])


def test_elem_add_examples():
    z4 = make_group([4])
    assert (z4.element([3]) + z4.element([2])).residues == (1,)
    z2z3 = make_group([2, 3])
    assert (z2z3.element([1, 2]) + z2z3.element([1, 2])).residues == (0, 1)
    g = z2z3.element([1, 1])
    assert (g + z2z3.identity()) == g


def test_elem_subtraction_and_the_refused_residues():
    z2z3 = make_group([2, 3])
    assert (z2z3.element([0, 1]) - z2z3.element([1, 2])).residues == (1, 2)
    with pytest.raises(GroupMismatchError, match="wrong length"):
        GroupElement(z2z3, (1,))
    with pytest.raises(ValueError, match="not reduced"):
        GroupElement(z2z3, (0, 3))


def test_the_identity_hom_fixes_every_element():
    z2z4 = make_group([2, 4])
    identity = GroupHom.identity(z2z4)
    assert identity.source == identity.target == z2z4
    assert all(identity.apply(z2z4.element([a, b])) == z2z4.element([a, b])
               for a in range(2) for b in range(4))


def test_elem_add_group_mismatch():
    with pytest.raises(GroupMismatchError):
        make_group([2]).element([1]) + make_group([3]).element([1])


def test_elem_negation_and_scale():
    z4 = make_group([4])
    assert (-z4.element([3])).residues == (1,)
    assert z4.element([3]).scale(2).residues == (2,)


def test_make_bicharacter_examples():
    z2 = make_group([2])
    make_bicharacter(z2, [["1/2"]])
    with pytest.raises(BicharacterError, match=r"\(1,1\)"):
        make_bicharacter(z2, [["1/3"]])
    make_bicharacter(make_group([4]), [["1/4"]])


def test_make_bicharacter_rejects_floats_and_bad_shape():
    z2 = make_group([2])
    with pytest.raises(BicharacterError, match="float"):
        make_bicharacter(z2, [[0.5]])
    with pytest.raises(BicharacterError, match="1x1"):
        make_bicharacter(z2, [[0, 0]])


def test_eval_bicharacter_examples():
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    assert eps.phase(z2.element([1]), z2.element([1])) == RationalPhase("1/2")
    assert complex(eps.phase(z2.element([1]), z2.element([1]))) == -1

    z4 = make_group([4])
    eps4 = make_bicharacter(z4, [["1/4"]])
    assert eps4.phase(z4.element([2]), z4.element([2])).is_one
    assert eps4.phase(z4.element([1]), z4.element([3])) == RationalPhase("3/4")


def test_eval_bicharacter_group_mismatch():
    eps = make_bicharacter(make_group([2]), [["1/2"]])
    other = make_group([4]).element([1])
    with pytest.raises(GroupMismatchError):
        eps.phase(other, other)


def test_rational_phase_arithmetic_is_exact():
    p = RationalPhase("3/4") * RationalPhase("1/2")
    assert p.exponent == Fraction(1, 4)
    assert (p * p.inverse()).is_one
    assert (RationalPhase("1/3") ** 3).is_one
    assert complex(RationalPhase("1/4")) == 1j


def test_rational_phase_is_a_frozen_value():
    phase = RationalPhase("3/4")
    with pytest.raises(AttributeError):
        phase.exponent = Fraction(1, 4)
    assert repr(phase) == "RationalPhase(3/4)"
    wound = RationalPhase(Fraction(7, 4))
    assert wound == phase and hash(wound) == hash(phase)
    assert RationalPhase(RationalPhase("1/2")).exponent == Fraction(1, 2)
    assert RationalPhase("1/2") != Fraction(1, 2)


def test_generators_are_reduced_unit_vectors():
    assert tuple(g.residues for g in make_group([1, 2, 4]).generators()) \
        == ((0, 0, 0), (0, 1, 0), (0, 0, 1))


def test_is_normalized_examples():
    z2 = make_group([2])
    assert make_bicharacter(z2, [["1/2"]]).is_normalized().ok

    z4 = make_group([4])
    check = make_bicharacter(z4, [["1/4"]]).is_normalized()
    assert not check.ok
    a, b = check.witness
    assert a.residues == (1,) and b.residues == (1,)


def test_z3_only_trivial_bicharacter_is_normalized():
    # every valid exponent on Z3 is k/3; enumerate them all
    z3 = make_group([3])
    normalized = []
    for k in range(3):
        eps = make_bicharacter(z3, [[Fraction(k, 3)]])
        assert exhaustive_normalized(eps) == eps.is_normalized().ok
        if eps.is_normalized().ok:
            normalized.append(k)
    assert normalized == [0]


def test_make_hom_examples():
    z2, z4 = make_group([2]), make_group([4])
    make_hom(z2, z4, [[2]])
    with pytest.raises(HomomorphismError, match="generator 1"):
        make_hom(z2, z4, [[1]])
    z2z2 = make_group([2, 2])
    hom = make_hom(z2z2, z2, [[1], [1]])
    assert hom.apply(z2z2.element([1, 1])).residues == (0,)


def test_hom_composition_and_identity():
    z2, z4, z8 = make_group([2]), make_group([4]), make_group([8])
    inner = make_hom(z2, z4, [[2]])
    outer = make_hom(z4, z8, [[2]])
    composed = outer.compose(inner)
    for a in z2.elements():
        assert composed.apply(a) == outer.apply(inner.apply(a))
    ident = make_hom(z4, z4, [[1]])
    assert all(ident.apply(a) == a for a in z4.elements())


def test_check_transmutation_z2z2_to_z2():
    z2z2, z2 = make_group([2, 2]), make_group([2])
    eps = make_bicharacter(z2z2, [["1/2", "1/2"], ["1/2", "1/2"]])
    eps2 = make_bicharacter(z2, [["1/2"]])
    hom = make_hom(z2z2, z2, [[1], [1]])
    assert check_transmutation(hom, eps, eps2).ok
    # independent oracle: all 16 pairs, with the closed form (-1)^((a+b)(c+d))
    for alpha in z2z2.elements():
        for beta in z2z2.elements():
            expected = (-1) ** ((sum(alpha.residues)) * (sum(beta.residues)))
            assert complex(eps.phase(alpha, beta)) == expected
    assert exhaustive_transport_holds(hom, eps, eps2)


def test_check_transmutation_z2_to_z4_fails_with_witness():
    z2, z4 = make_group([2]), make_group([4])
    eps = make_bicharacter(z2, [["1/2"]])
    eps4 = make_bicharacter(z4, [["1/4"]])
    hom = make_hom(z2, z4, [[2]])
    check = check_transmutation(hom, eps, eps4)
    assert not check.ok
    a, b = check.witness
    assert (a.residues, b.residues) == ((1,), (1,))
    assert complex(check.source_phase) == -1 and complex(check.target_phase) == 1


def test_check_transmutation_identity():
    z4 = make_group([4])
    eps = make_bicharacter(z4, [["1/4"]])
    assert check_transmutation(make_hom(z4, z4, [[1]]), eps, eps).ok


def _random_valid_bicharacter(rng: random.Random, group):
    rows = []
    for ni in group.orders:
        row = []
        for nj in group.orders:
            import math
            g = math.gcd(ni, nj)
            row.append(Fraction(rng.randrange(g), g))
        rows.append(row)
    return make_bicharacter(group, rows)


def test_bilinearity_exhaustive_on_random_small_groups():
    rng = random.Random(7)
    for _ in range(25):
        orders = [rng.choice([1, 2, 3, 4]) for _ in range(rng.randint(0, 2))]
        group = make_group(orders)
        eps = _random_valid_bicharacter(rng, group)
        assert exhaustive_bilinearity_holds(eps)


def test_normalized_generator_criterion_agrees_with_all_pairs():
    rng = random.Random(11)
    for _ in range(25):
        orders = [rng.choice([1, 2, 3, 4]) for _ in range(rng.randint(1, 2))]
        group = make_group(orders)
        eps = _random_valid_bicharacter(rng, group)
        assert eps.is_normalized().ok == exhaustive_normalized(eps)


def test_transport_generator_criterion_agrees_with_all_pairs():
    # hom Z4 -> Z2 sending the generator to 1 (valid: 4*1 = 0 mod 2)
    z4, z2 = make_group([4]), make_group([2])
    hom = make_hom(z4, z2, [[1]])
    eps4 = make_bicharacter(z4, [["1/2"]])
    eps2 = make_bicharacter(z2, [["1/2"]])
    check = check_transmutation(hom, eps4, eps2)
    assert check.ok == exhaustive_transport_holds(hom, eps4, eps2)
