import numpy as np
import pytest

from braidstat import (Bicharacter, BraidMatrix, CrossMatrix, FockVector, ModelSpecError, braid_factor,
                       braid_on_word, check_symmetry, check_yang_baxter, extend_pairing,
                       load_zoo, make_bicharacter, make_group, make_model, q_swap_braid, zoo_path)


def fermion2():
    return load_zoo("fermion2")


def boson():
    return load_zoo("boson")


def test_make_model_examples():
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    m = make_model(z2, eps, [[1], [1]], np.eye(2))
    assert m.n_generators == 2 and m.is_grade_diagonal

    trivial = make_group([])
    m_bose = make_model(trivial, Bicharacter.trivial(trivial), [[]], [[1]])
    assert m_bose.n_generators == 1

    m_quon = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                        q_swap_braid(2, 0.5))
    assert not m_quon.is_grade_diagonal


def test_make_model_errors():
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    with pytest.raises(ModelSpecError, match="pairing"):
        make_model(z2, eps, [[1], [1]], np.eye(3))
    with pytest.raises(ModelSpecError, match="singular"):
        make_model(z2, eps, [[1], [1]], np.eye(2), BraidMatrix(np.zeros((4, 4))))
    # q_11 = q_22 = 0.5, q_12 = q_21 = 1e-17 is invertible, though matrix_rank reads rank 2; at
    # q_12 = 0 it is singular
    trivial, tiny = make_group([]), np.diag([0.5, 0.0, 0.0, 0.5])
    tiny[1, 2] = tiny[2, 1] = 1e-17
    assert make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2), BraidMatrix(tiny))
    singular = "braid coupling matrix is singular; the exchange must be invertible"
    for braid in (np.diag([0.5, 0.0, 0.0, 0.5]), np.zeros((4, 4))):
        with pytest.raises(ModelSpecError, match=singular):
            make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2), BraidMatrix(braid))
    with pytest.raises(Exception, match="group|element"):
        make_model(z2, eps, [make_group([3]).element([1])], np.eye(1))
    other_eps = make_bicharacter(make_group([4]), [["1/4"]])
    with pytest.raises(ModelSpecError, match="bicharacter"):
        make_model(z2, other_eps, [[1]], np.eye(1))
    with pytest.raises(ModelSpecError, match="at least one generator"):
        make_model(z2, eps, [], np.zeros((0, 0)))
    with pytest.raises(ModelSpecError, match="expansion_sign"):
        make_model(z2, eps, [[1], [1]], np.eye(2), expansion_sign=0)
    with pytest.raises(ModelSpecError, match="3 generators, model has 2"):
        make_model(z2, eps, [[1], [1]], np.eye(2), cross=np.zeros((9, 9)))


def test_the_braid_dilation_counts_the_exact_rank():
    # [[0, A], [A^H, 0]] has the eigenvalues +-sigma_i of A, so rank A of them are positive.
    # Seeded integer or Gaussian integer A = L R of known rank r, L and R cut from unit lower
    # triangular matrices times permutations; make_model refuses A exactly where r < N^2
    from braidstat.models import _inertia
    rng = np.random.default_rng(2026103701)
    trivial = make_group([])
    for n in (1, 2, 3):
        size = n * n
        for r in range(size + 1):
            for complex_ in (0, 1):
                draw = lambda: rng.integers(-2, 3, (size, size))
                s = [(np.tril(draw() + complex_ * 1j * draw(), -1) + np.eye(size))[rng.permutation(size)]
                     for _ in range(2)]
                a = s[0][:, :r] @ s[1][:r, :]
                zero = np.zeros_like(a)
                assert _inertia(np.block([[zero, a], [a.conj().T, zero]])) == (r, r), (n, r, complex_)
                build = lambda: make_model(trivial, Bicharacter.trivial(trivial), [[]] * n, np.eye(n),
                                           BraidMatrix(a))
                if r < size:
                    with pytest.raises(ModelSpecError, match="singular"):
                        build()
                else:
                    assert build().n_generators == n


def test_an_unknown_zoo_name_is_a_key_error():
    with pytest.raises(KeyError, match="no bundled fixture named 'nope'"):
        zoo_path("nope")
    with pytest.raises(KeyError, match="no bundled model named 'hom_z2_to_z4'"):
        load_zoo("hom_z2_to_z4")  # a bundled fixture, but not a model


def test_make_model_takes_raw_coupling_arrays():
    # a bare ndarray is read as BraidMatrix or CrossMatrix: the flat N^2 x N^2 action matrix, or
    # the 4-index array
    trivial = make_group([])
    swap = q_swap_braid(2, 0.5).coupling
    m = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                   swap.transpose(2, 3, 0, 1).reshape(4, 4), swap)
    assert isinstance(m.braid, BraidMatrix) and np.array_equal(m.braid.coupling, swap)
    assert isinstance(m.cross, CrossMatrix) and np.array_equal(m.cross.coupling, swap)


def test_braid_factor_examples():
    assert braid_factor(fermion2(), 1, 2) == -1
    assert braid_factor(boson(), 1, 2) == 1
    z4 = make_group([4])
    anyon2 = make_model(z4, make_bicharacter(z4, [["1/4"]]), [[1], [1]], np.eye(2))
    assert braid_factor(anyon2, 1, 2) == 1j


def test_braid_factor_wrong_spec():
    with pytest.raises(ModelSpecError, match="grade-diagonal"):
        braid_factor(load_zoo("quon_05"), 1, 1)


def test_braid_factor_argument_order():
    # asymmetric exponent matrix pins eps(grade_j, grade_i)
    g = make_group([4, 4])
    eps = make_bicharacter(g, [[0, "1/4"], [0, 0]])
    e1, e2 = g.generators()
    m = make_model(g, eps, [e1, e2], np.eye(2))
    assert braid_factor(m, 1, 2) == 1          # eps(e2, e1)
    assert braid_factor(m, 2, 1) == 1j         # eps(e1, e2)


def test_braid_on_word_examples():
    assert braid_on_word(fermion2(), (1, 2), 1) == FockVector({(2, 1): -1})
    assert braid_on_word(boson(), (1, 2), 1) == FockVector({(2, 1): 1})
    assert braid_on_word(load_zoo("quon_05"), (1, 2), 1) == FockVector({(2, 1): 0.5})


def test_term_tables():
    # a grade-diagonal pair has exactly one term, carrying its exact phase
    f2 = fermion2()
    assert f2.braid_terms == {(1, 1): ((1, 1, -1),), (1, 2): ((2, 1, -1),),
                              (2, 1): ((1, 2, -1),), (2, 2): ((2, 2, -1),)}
    anyon = load_zoo("anyon_z4")
    assert anyon.braid_terms == {(1, 1): ((1, 1, 1j),)}
    assert anyon.cross_terms == {(1, 1): ((1, 1, complex(anyon.cross_phase(1, 1))),)}
    quon = load_zoo("quon_05")
    assert quon.braid_terms[1, 2] == ((2, 1, 0.5),)
    assert quon.cross_terms[1, 2] == ((1, 2, 0.5),)
    for model in (f2, anyon, quon):
        for table in (model.braid_terms, model.cross_terms):
            assert all(type(t) is complex and type(k) is int and type(l) is int
                       for terms in table.values() for k, l, t in terms)


def test_braid_on_word_inner_position_keeps_context():
    v = braid_on_word(fermion2(), (1, 2, 2), 2)
    assert v == FockVector({(1, 2, 2): -1})


def test_braid_on_word_position_errors():
    with pytest.raises(ValueError, match="out of range"):
        braid_on_word(fermion2(), (1, 2), 2)
    with pytest.raises(ValueError, match="out of range"):
        braid_on_word(fermion2(), (), 1)


def test_yang_baxter_grade_diagonal_exact():
    for name in ("boson", "fermion3", "z2z2_fermion", "anyon_z4"):
        report = check_yang_baxter(load_zoo(name))
        assert report.passed and report.defect == 0.0


def test_yang_baxter_q_swap():
    report = check_yang_baxter(load_zoo("quon_05"))
    assert report.passed and report.defect <= 1e-12


def test_yang_baxter_random_matrix_fails():
    rng = np.random.default_rng(20260811)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    trivial = make_group([])
    m = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2), BraidMatrix(raw))
    report = check_yang_baxter(m)
    assert report.failed and report.defect > 1e-3


def test_symmetry_examples():
    assert check_symmetry(fermion2()).passed
    quon = load_zoo("quon_05")
    report = check_symmetry(quon)
    assert report.failed and report.defect == pytest.approx(abs(0.25 - 1))
    anyon = load_zoo("anyon_z4")
    assert check_symmetry(anyon).failed


def test_symmetry_matches_normalization_on_occurring_grades():
    # grades generate a proper subgroup of Z4 on which the pairing is trivial
    z4 = make_group([4])
    eps = make_bicharacter(z4, [["1/4"]])
    m = make_model(z4, eps, [[2]], np.eye(1))
    assert not eps.is_normalized().ok
    assert check_symmetry(m).passed
    # occurring-grade subgroup {0, 2}: exhaustive normalization there
    sub = [z4.element([0]), z4.element([2])]
    assert all((eps.phase(a, b) * eps.phase(b, a)).is_one for a in sub for b in sub)


def test_symmetry_agrees_with_subgroup_normalization_randomly():
    import random
    rng = random.Random(3)
    z4 = make_group([4])
    for _ in range(20):
        eps = make_bicharacter(z4, [[f"{rng.randrange(4)}/4"]])
        grades = [z4.element([rng.randrange(4)]) for _ in range(rng.randint(1, 2))]
        m = make_model(z4, eps, grades, np.eye(len(grades)))
        # brute subgroup generated by the grades
        subgroup = {z4.identity().residues}
        frontier = [z4.identity()]
        while frontier:
            cur = frontier.pop()
            for g in grades:
                nxt = cur + g
                if nxt.residues not in subgroup:
                    subgroup.add(nxt.residues)
                    frontier.append(nxt)
        elems = [z4.element(r) for r in subgroup]
        normalized_on_sub = all((eps.phase(a, b) * eps.phase(b, a)).is_one
                                for a in elems for b in elems)
        assert check_symmetry(m).passed == normalized_on_sub


def test_extend_pairing_examples():
    m = fermion2()
    assert extend_pairing(m, (1, 2), (1, 2)) == 1
    assert extend_pairing(m, (1, 2), (2, 1)) == 0
    c = 0.3 + 0.2j
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    pairing = np.array([[1, c], [np.conj(c), 1]])
    m2 = make_model(z2, eps, [[1], [1]], pairing)
    assert extend_pairing(m2, (1, 2), (2, 2)) == pytest.approx(c * 1)


def test_extend_pairing_length_mismatch():
    with pytest.raises(ValueError, match="equal lengths"):
        extend_pairing(fermion2(), (1,), (1, 2))


def test_extend_pairing_multiplicative_over_concatenation():
    import random
    rng = random.Random(5)
    c = 0.4 - 0.1j
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    m = make_model(z2, eps, [[1], [1]], np.array([[1, c], [np.conj(c), 0.5]]))
    for _ in range(30):
        u1 = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
        u2 = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
        v1 = tuple(rng.randint(1, 2) for _ in range(len(u1)))
        v2 = tuple(rng.randint(1, 2) for _ in range(len(u2)))
        whole = extend_pairing(m, u1 + u2, v1 + v2)
        parts = extend_pairing(m, u1, v1) * extend_pairing(m, u2, v2)
        assert whole == pytest.approx(parts)


def test_dual_grade_lands_pairings_in_grade_zero():
    # bundled grade-diagonal models: nonzero pairing entries connect equal grades,
    # so dual grade -gamma_i + gamma_j vanishes on the support of the pairing
    for name in ("boson", "fermion3", "z2z2_fermion", "anyon_z4"):
        m = load_zoo(name)
        for i in range(1, m.n_generators + 1):
            for j in range(1, m.n_generators + 1):
                if m.pairing_entry(i, j) != 0:
                    assert (m.dual_grade(i) + m.grade(j)).is_identity


def test_grade_diagonal_yang_baxter_random_models():
    import random
    rng = random.Random(13)
    for _ in range(20):
        orders = [rng.choice([1, 2, 3, 4]) for _ in range(rng.randint(0, 2))]
        group = make_group(orders)
        rows = []
        import math
        from fractions import Fraction
        for ni in orders:
            rows.append([Fraction(rng.randrange(math.gcd(ni, nj)), math.gcd(ni, nj))
                         for nj in orders])
        eps = make_bicharacter(group, rows)
        n_gen = rng.randint(1, 3)
        grades = [group.element([rng.randrange(n) for n in orders]) for _ in range(n_gen)]
        m = make_model(group, eps, grades, np.eye(n_gen))
        report = check_yang_baxter(m)
        assert report.passed and report.defect == 0.0
        # the pass by construction agrees with the numeric check of the same coupling
        as_matrix = make_model(group, eps, grades, np.eye(n_gen), BraidMatrix(m.braid_coupling))
        assert check_yang_baxter(as_matrix).defect <= 1e-12
