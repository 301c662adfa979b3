import itertools
import json
import math
import random

import numpy as np
import pytest

from braidstat import (AnnihilateTwisted, Bicharacter, BraidMatrix, Create, CrossMatrix, Exchange,
                       FockVector,
                       HermiticityError, ParticleModel, ResourceLimitError,
                       annihilate_free, annihilate_twisted, apply_program, basis_words,
                       check_braid_exchange_relations, check_infinite_statistics,
                       commutator_defect, create, gram_matrix, gram_psd_check, load_zoo,
                       make_bicharacter, make_group, make_model, q_swap_braid,
                       sector_dimension, zoo_path, ZOO_NAMES)
from braidstat import fock
from braidstat.fock import MAX_GRAM_BYTES, MAX_SECTOR_SIZE
from braidstat.modelfile import model_from_dict

from oracles import (banded_witness, bosonic_dimension, colour_symmetric_dimension,
                     dense_annihilators, dense_commutator_residuals, dense_exchange_nullity,
                     dense_gram, fermionic_dimension, permutation_gram_entry, q_factorial,
                     quon_gram_entry, svd_rank, zagier_determinant)


# ---------------------------------------------------------------------------
# elementary operators


def test_create_examples():
    m = load_zoo("fermion2")
    assert create(m, 1, FockVector.vacuum()) == FockVector.basis((1,))
    assert create(m, 2, FockVector.basis((1,))) == FockVector.basis((2, 1))
    v = FockVector({(2,): 2.0, (1,): 3.0})
    assert create(m, 1, v) == FockVector({(1, 2): 2.0, (1, 1): 3.0})


def test_annihilate_free_examples():
    m = load_zoo("fermion2")
    assert annihilate_free(m, 1, FockVector.basis((1, 2))) == FockVector.basis((2,))
    assert annihilate_free(m, 1, FockVector.basis((2, 1))).is_zero
    assert annihilate_free(m, 1, FockVector.vacuum()).is_zero


def test_infinite_statistics_exact():
    for name in ("boson", "fermion3", "quon_05", "anyon_z4"):
        report = check_infinite_statistics(load_zoo(name), n_max=3)
        assert report.passed and report.defect == 0.0
        assert (report.witness, report.data) == (None, {"n_max": 3, "exact": True})


def test_infinite_statistics_off_diagonal_pairing():
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    m = make_model(z2, eps, [[1], [1]], np.array([[1, 0.3], [0.3, 1]]))
    got = annihilate_free(m, 1, create(m, 2, FockVector.basis((2,))))
    assert got == FockVector({(2,): 0.3})
    assert check_infinite_statistics(m, 3).defect == 0.0


def test_reversed_free_composition_is_not_scalar():
    # documented non-relation: a+_j a-_i kills words that do not start with i
    m = load_zoo("fermion2")
    v = create(m, 2, annihilate_free(m, 1, FockVector.basis((2,))))
    assert v.is_zero  # != <1|2>*[2] would require 0, but also != id on [2]
    w = create(m, 1, annihilate_free(m, 1, FockVector.basis((1,))))
    assert w == FockVector.basis((1,))  # reordered composition projects, not scales


def test_annihilate_twisted_fermion_and_boson():
    fermion = load_zoo("fermion1")
    assert annihilate_twisted(fermion, 1, FockVector.basis((1, 1))).is_zero
    boson = load_zoo("boson")
    assert annihilate_twisted(boson, 1, FockVector.basis((1, 1))) == FockVector({(1,): 2.0})
    fermion2 = load_zoo("fermion2")
    assert annihilate_twisted(fermion2, 1, FockVector.basis((2, 1))) == FockVector({(2,): -1.0})


def test_annihilate_twisted_checks_its_input():
    # the hop recursion reads the tables unchecked, so the public call must refuse
    # a letter 0, which would index the last row
    m = load_zoo("fermion2")
    for i, word in ((3, (1,)), (1, (0,)), (1, (1, 3))):
        with pytest.raises(ValueError, match="out of range"):
            annihilate_twisted(m, i, FockVector.basis(word))


def test_annihilate_twisted_quon_closed_form():
    # b-_i w = sum_k q^(k-1) delta(i, w_k) (w remove k)
    for q, name in ((0.3, "quon_03"), (0.5, "quon_05"), (0.9, "quon_09")):
        m = load_zoo(name)
        rng = random.Random(17)
        for _ in range(25):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 5)))
            for i in (1, 2):
                expected: dict = {}
                for k, letter in enumerate(w):
                    if letter == i:
                        reduced = w[:k] + w[k + 1:]
                        expected[reduced] = expected.get(reduced, 0.0) + q ** k
                got = annihilate_twisted(m, i, FockVector.basis(w))
                assert (got - FockVector(expected)).norm() < 1e-12


def test_annihilate_twisted_on_words_past_int64_positions():
    # 2^70 words of length 70, far past a whole sector: the recursion keeps one
    # dict per suffix.  Removing the letter at position k passes k letters, one
    # product by q each, so every term is q^k formed by k successive products, bit
    # for bit; q ** k, a single pow, differs from it in the last bits of 26 terms
    q = 0.9
    m = load_zoo("quon_09")
    w = (1, 2) * 35
    expected = FockVector({w[:k] + w[k + 1:]: q ** k for k in range(0, 70, 2)})
    got = annihilate_twisted(m, 1, FockVector.basis(w))
    assert (got - expected).norm() < 1e-12
    powers = [1.0]
    for _ in range(69):
        powers.append(powers[-1] * q)
    assert dict(got.items()) == {w[:k] + w[k + 1:]: complex(powers[k]) for k in range(0, 70, 2)}


def test_twisted_operators_are_linear():
    m = load_zoo("fermion2")
    rng = random.Random(23)
    for _ in range(10):
        words = [tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))) for _ in range(3)]
        a = FockVector({w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in words})
        b = FockVector({w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for w in words})
        scalar = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for op in (lambda v: create(m, 1, v),
                   lambda v: annihilate_free(m, 2, v),
                   lambda v: annihilate_twisted(m, 1, v)):
            lhs = op(a + b.scale(scalar))
            rhs = op(a) + op(b).scale(scalar)
            assert (lhs - rhs).norm() < 1e-12


# ---------------------------------------------------------------------------
# commutation relations


def test_commutator_defect_grade_diagonal_models():
    for name in ("boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"):
        m = load_zoo(name)
        for i in range(1, m.n_generators + 1):
            for j in range(1, m.n_generators + 1):
                for n in range(4):
                    assert commutator_defect(m, i, j, n).defect <= 1e-12


def test_commutator_defect_quon():
    for name in ("quon_03", "quon_05", "quon_09"):
        m = load_zoo(name)
        for i in (1, 2):
            for j in (1, 2):
                for n in range(4):
                    assert commutator_defect(m, i, j, n).defect <= 1e-9


def test_literal_minus_expansion_breaks_the_relation():
    # with the alternating-sign reading, two fermions annihilate to 2*x, not 0,
    # and the twisted commutation relation fails by exactly 2
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    m = make_model(z2, eps, [[1]], np.eye(1), expansion_sign=-1)
    assert annihilate_twisted(m, 1, FockVector.basis((1, 1))) == FockVector({(1,): 2.0})
    assert commutator_defect(m, 1, 1, 1).defect == pytest.approx(2.0)


def test_exchange_relations_hold_for_symmetric_zoo_models():
    # the quotient relations hold for every symmetric (exchange^2 = id) model;
    # strictly braided quons genuinely violate the creator/annihilator lines
    from braidstat import SYMMETRIC_NAMES
    for name in SYMMETRIC_NAMES:
        report = check_braid_exchange_relations(load_zoo(name), n_max=3)
        assert report.passed, (name, report)
        assert report.defect <= 1e-9


def test_hop_layer_reads_only_the_term_table(monkeypatch):
    m = load_zoo("z2z2_fermion")
    assert m.cross_terms[1, 2] == ((1, 2, -1),)

    def no_phase(self, i, j):
        raise AssertionError("cross_phase evaluated inside the hop layer")

    monkeypatch.setattr(ParticleModel, "cross_phase", no_phase)
    assert commutator_defect(m, 1, 2, 3).passed
    assert check_braid_exchange_relations(m, n_max=2).passed


def test_exchange_relations_fermion1_example():
    # (c+ c+ + c+ c+)|0> = 2*[1,1] and [1,1] is a Gram null vector
    m = load_zoo("fermion1")
    gram = gram_matrix(m, 2)
    assert gram.matrix[0, 0] == 0
    double = create(m, 1, create(m, 1, FockVector.vacuum())).scale(2.0)
    assert double == FockVector({(1, 1): 2.0})


def test_exchange_relations_quon_has_no_creator_relation():
    report = check_braid_exchange_relations(load_zoo("quon_05"), n_max=2)
    assert report.failed
    assert report.data["lines"]["mixed"] <= 1e-12
    assert report.data["lines"]["create-create"] > 0.1


def test_mixed_exchange_line_fermion_off_diagonal():
    # c-_i c+_j + c+_j c-_i = 0 for i != j with identity pairing
    m = load_zoo("fermion2")
    for n in range(3):
        for w in basis_words(2, n):
            base = FockVector.basis(w)
            lhs = annihilate_twisted(m, 1, create(m, 2, base)) \
                + create(m, 2, annihilate_twisted(m, 1, base))
            assert lhs.norm() <= 1e-12


# ---------------------------------------------------------------------------
# Gram matrices, rank, positivity


def test_gram_examples():
    assert gram_matrix(load_zoo("fermion1"), 2).matrix.tolist() == [[0]]
    boson1 = make_model(make_group([]), load_zoo("boson").eps, [[]], [[1]])
    assert gram_matrix(boson1, 2).matrix.tolist() == [[2]]

    m = load_zoo("fermion2")
    got = gram_matrix(m, 2)
    expected = np.array([
        [0, 0, 0, 0],
        [0, 1, -1, 0],
        [0, -1, 1, 0],
        [0, 0, 0, 0],
    ], dtype=complex)
    assert np.allclose(got.matrix, expected)
    assert sector_dimension(m, 2).quotient == 1


def test_gram_matches_permutation_oracle():
    for name in ("boson", "fermion2", "z2z2_fermion", "anyon_z4"):
        m = load_zoo(name)
        for n in range(4):
            got = gram_matrix(m, n)
            words = got.words
            for r, w_row in enumerate(words):
                for c, w_col in enumerate(words):
                    expected = permutation_gram_entry(m, w_row, w_col)
                    assert got.matrix[r, c] == pytest.approx(expected, abs=1e-9)


def test_gram_quon_matches_inversion_count_oracle():
    m = load_zoo("quon_05")
    for n in range(4):
        got = gram_matrix(m, n)
        for r, w_row in enumerate(got.words):
            for c, w_col in enumerate(got.words):
                assert got.matrix[r, c] == pytest.approx(quon_gram_entry(0.5, w_row, w_col),
                                                         abs=1e-9)


def test_anyon_gram_non_hermitian():
    m = load_zoo("anyon_z4")
    got = gram_matrix(m, 2)
    assert got.matrix[0, 0] == pytest.approx(1 - 1j)
    assert not got.hermitian
    with pytest.raises(HermiticityError, match="asymmetry"):
        sector_dimension(m, 2)
    report = gram_psd_check(m, 2)
    assert report.status == "skipped"


def test_sector_dimensions_fermion_boson():
    f3 = load_zoo("fermion3")
    assert [sector_dimension(f3, n).quotient for n in range(5)] \
        == [fermionic_dimension(3, n) for n in range(5)] == [1, 3, 3, 1, 0]
    b = load_zoo("boson")
    assert [sector_dimension(b, n).quotient for n in range(4)] \
        == [bosonic_dimension(2, n) for n in range(4)] == [1, 2, 3, 4]


def test_sector_dimensions_quon_full_rank():
    m = load_zoo("quon_05")
    for n in range(5):
        dim = sector_dimension(m, n)
        assert dim.quotient == dim.full == 2 ** n
        psd = gram_psd_check(m, n)
        assert psd.passed and psd.data["min_eigenvalue"] > 0


def test_gram_psd_fermion():
    m = load_zoo("fermion2")
    for n in range(5):
        report = gram_psd_check(m, n)
        assert report.passed and report.data["min_eigenvalue"] >= -1e-12


def test_gram_psd_tolerance_is_relative_to_the_largest_entry():
    # boson's sector-10 Gram has entries up to 10!; roundoff alone reaches about -1e-8
    assert gram_psd_check(load_zoo("boson"), 10).passed
    # the q-swap Gram is indefinite for |q| > 1 (Bozejko-Speicher): on the words
    # (1,2), (2,1) it is [[1, q], [q, 1]], with eigenvalue 1 - q = -1 at q = 2
    trivial = make_group([])
    q2 = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                    q_swap_braid(2, 2.0))
    assert gram_psd_check(q2, 1).passed
    report = gram_psd_check(q2, 2)
    assert report.failed and report.data["min_eigenvalue"] == pytest.approx(-1.0)


def test_gram_hermitian_across_zoo_normalized_models():
    for name in ("boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion",
                 "quon_03", "quon_05", "quon_09"):
        m = load_zoo(name)
        for n in range(4):
            assert gram_matrix(m, n).hermitian, name


def test_sector_dimensions_four_generators():
    # counting formulas hold beyond the bundled sizes
    z2 = make_group([2])
    eps = make_bicharacter(z2, [["1/2"]])
    fermion4 = make_model(z2, eps, [[1]] * 4, np.eye(4))
    assert [sector_dimension(fermion4, n).quotient for n in range(6)] \
        == [fermionic_dimension(4, n) for n in range(6)]
    trivial = make_group([])
    from braidstat import Bicharacter
    boson4 = make_model(trivial, Bicharacter.trivial(trivial), [[]] * 4, np.eye(4))
    assert [sector_dimension(boson4, n).quotient for n in range(6)] \
        == [bosonic_dimension(4, n) for n in range(6)]


def test_resource_guard():
    m = load_zoo("boson")
    with pytest.raises(ResourceLimitError, match="guard"):
        sector_dimension(m, 17)  # 2^17 > 100000
    with pytest.raises(ResourceLimitError, match="2\\^17"):
        check_infinite_statistics(m, 17)  # exact by construction, yet guarded
    with pytest.raises(ResourceLimitError, match="2\\^17 "):
        check_infinite_statistics(m, 40)  # the first sector past the guard is named


@pytest.mark.parametrize("call", [
    lambda m: check_infinite_statistics(m, -1),
    lambda m: check_braid_exchange_relations(m, -1),
    lambda m: commutator_defect(m, 1, 1, -1),
    lambda m: sector_dimension(m, -1),
], ids=["infinite-statistics", "exchange-relations", "commutator-defect", "sector-dimension"])
def test_negative_n_max_is_rejected(call):
    with pytest.raises(ValueError, match="sector must be >= 0, got -1"):
        call(load_zoo("fermion1"))


@pytest.mark.parametrize("call, name, message", [
    (fock._guard_sectors, "boson", r"sector size 2\^17 exceeds the guard"),
    (sector_dimension, "boson", r"sector size 2\^17 exceeds the guard"),
    (fock._guard_sectors, "fermion1", "word length 100000000 exceeds the guard"),
    (sector_dimension, "fermion1", "word length 100000000 exceeds the guard"),
], ids=["guard-sectors", "sector-dimension", "guard-sectors-one-generator",
        "sector-dimension-one-generator"])
def test_sector_guard_builds_no_huge_power(call, name, message):
    # 2^(10^8) has 10^8 bits: building it before the guard refused the sector
    # took 47 MB in the guard and 60 MB in sector_dimension.  One generator has
    # one word per sector, so its count never trips; unguarded, its tower
    # walked all 10^8 sectors
    import tracemalloc
    model = load_zoo(name)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            call(model, 10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_byte_guard_counts_the_largest_matrix_allocated():
    # gram_matrix's dense Gram is refused before anything is built
    import tracemalloc
    f3 = load_zoo("fermion3")
    assert 3 ** 10 <= MAX_SECTOR_SIZE
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="59049x59049 float64"):
            gram_matrix(f3, 10)                  # about 28 GB
        with pytest.raises(ResourceLimitError, match=f"6561x6561 float64 .* {MAX_GRAM_BYTES}"):
            gram_matrix(f3, 8)                   # 344 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the block path holds blocks of at most 8!/(3!3!2!) = 560 rows
    assert sector_dimension(f3, 8) == (6561, 0)


def _z4_anyons():
    z4 = make_group([4])
    return make_model(z4, make_bicharacter(z4, [["1/4"]]), [[1]] * 3, np.eye(3))


def test_byte_guards_count_the_scalar_type(monkeypatch):
    # a model that does not conserve letters has one block per sector: its two
    # annihilator blocks of sector m hold 2^(m-1) x 2^m entries each, of 8 bytes
    # for a real model and 16 for a complex one
    real, complex_ = (_mixing_models()[label] for label in ("off-diagonal-pairing", "random-R"))
    assert (real.scalar_type, complex_.scalar_type) == (float, complex)
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 1 << 13)
    list(fock._hops(real, 5))                    # 2 x 16 x 32 x 8 = 8,192 bytes
    with pytest.raises(ResourceLimitError, match="annihilator blocks of sector 6 need 16384 bytes"):
        list(fock._hops(real, 6))
    list(fock._hops(complex_, 4))                # 2 x 8 x 16 x 16 = 4,096 bytes
    with pytest.raises(ResourceLimitError, match="annihilator blocks of sector 5 need 16384 bytes"):
        list(fock._hops(complex_, 5))


def test_tower_byte_guard_counts_every_block_held(monkeypatch, capsys):
    # quon_05's sector m stores blocks of C(m, k) rows, C(2m, m) entries of 8
    # bytes in all: 4,707 entries for sectors 0..7, and 12,870 at sector 8,
    # whose largest block has 70 rows.  On the pairing diag(1, 2) its blocks keep
    # those sizes and no one block holds every eigenvalue, so gram_psd_check
    # builds the whole tower; the rank of sector_dimension is the theorem's,
    # which builds none
    from braidstat.cli import main as cli_main
    model = _q_model(_Q05, np.diag([1.0, 2.0]))
    assert fock._theorems(model, 8)[-1].holder is None
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 100_000)
    assert gram_psd_check(model, 7).passed
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.8 need 108736 bytes"):
        gram_psd_check(model, 8)                 # 37,656 bytes below, then blocks of 8, 512,
                                                 # 6,272, 25,088 and 39,200 bytes
    assert sector_dimension(model, 8) == (256, 256)
    # a Fock pass to sector 7: sectors 0..6 hold 10,200 bytes, and sector 7's
    # blocks take 8, 392, 3,528, 9,800 and 9,800 bytes before the guard trips
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 30_000)
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.7 need 33728 bytes"):
        check_braid_exchange_relations(model, n_max=5)
    assert cli_main(["check", str(zoo_path("quon_05")), "--nmax", "5"]) == 2
    assert "sectors 0..7 need 33728 bytes" in capsys.readouterr().err
    # complex blocks take 16 bytes an entry: the three-letter anyons' sectors
    # 0..4 allocate blocks of 1, 3, 15, 93 and 639 entries, 12,016 bytes in all
    anyons = _z4_anyons()
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 12_016)
    assert gram_psd_check(anyons, 4).status == "skipped"  # the Gram is not Hermitian
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 12_015)
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.4 need 12016 bytes"):
        gram_psd_check(anyons, 4)                # the last block, of 1 entry, trips it


def test_sector_14_of_two_generators_is_refused_before_it_is_built(capsys):
    # README's refusals: with sectors 0..13, sector 14's Gram blocks need
    # 320,070,024 bytes.  The guard counts them before any is allocated, so the
    # refusal holds no block of sector 14: its peak, 202 MiB under tracemalloc,
    # is mostly sector 13's Gram and annihilator blocks.  quon_05 with s = -1 is
    # in neither theorem's class, so sector_dimension builds its tower (boson's
    # rank is the closed form's).  check's tower goes to n_max + 2 for quon_05,
    # but stops at n_max for boson, whose exchange relations hold exactly
    import tracemalloc
    from braidstat.cli import main as cli_main
    message = "the Gram blocks of sectors 0..14 need 320070024 bytes"
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            sector_dimension(_zoo_model("quon_05", "-"), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 222 << 20, peak
    assert cli_main(["check", str(zoo_path("quon_05")), "--nmax", "12"]) == 2
    assert capsys.readouterr().err == f"error: {message}, over the guard of {MAX_GRAM_BYTES}\n"
    assert cli_main(["check", str(zoo_path("boson")), "--nmax", "12"]) == 0
    assert capsys.readouterr().err == ""


def test_exact_zeros_never_count_toward_a_rank():
    # a cut of 0 counted the exact zeros of the missing blocks: (81, 81) and (8, 8)
    assert sector_dimension(load_zoo("fermion3"), 4, tol=0) == (81, 0)
    assert sector_dimension(load_zoo("fermion2"), 3, tol=0) == (8, 0)
    assert sector_dimension(load_zoo("fermion2"), 2, tol=0) == (4, 1)
    assert fock._rank(None, lambda: gram_matrix(load_zoo("fermion2"), 3), 0.0) == (0, "count")


# ---------------------------------------------------------------------------
# weight blocks


def _self_adjoint_coupled_model():
    """Two generators with a random cross coupling ``T[i,j,k,l] = conj(T[j,i,l,k])``:
    it mixes multisets of letters, yet its Gram is Hermitian."""
    rng = np.random.default_rng(20261018)
    raw = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    cross = raw + raw.transpose(1, 0, 3, 2).conj()
    cross *= 0.2 / np.abs(cross).sum()
    trivial = make_group([])
    return make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                      BraidMatrix(cross.transpose(0, 1, 3, 2)))


def _mixing_models():
    trivial = make_group([])
    eps = Bicharacter.trivial(trivial)
    rng = np.random.default_rng(20260811)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "random-R": make_model(trivial, eps, [[], []], np.eye(2), BraidMatrix(raw)),
        "self-adjoint-T": _self_adjoint_coupled_model(),
        "off-diagonal-pairing": make_model(trivial, eps, [[], []], [[1, 0.3], [0.3, 1]]),
        "minus-expansion": make_model(trivial, eps, [[], []], np.eye(2), BraidMatrix(raw),
                                      expansion_sign=-1),
    }


def test_conserves_letters_precondition():
    assert all(load_zoo(name).conserves_letters for name in ZOO_NAMES)
    assert not any(m.conserves_letters for m in _mixing_models().values())


def _compare_with_dense_oracle(model, n, rel=0.0):
    result = gram_matrix(model, n)
    expected = dense_gram(model, n)
    assert np.abs(result.matrix - expected).max() <= rel * np.abs(expected).max()
    scale = max(1.0, np.abs(expected).max())
    if np.abs(expected - expected.conj().T).max() > 1e-9 * scale:
        with pytest.raises(HermiticityError):
            sector_dimension(model, n)
        assert gram_psd_check(model, n).status == "skipped"
        return
    assert sector_dimension(model, n).quotient == svd_rank(expected)
    min_eig = float(np.linalg.eigvalsh((expected + expected.conj().T) / 2).min())
    assert gram_psd_check(model, n).data["min_eigenvalue"] == pytest.approx(min_eig, abs=1e-12)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_blocks_match_dense_oracle_on_the_zoo(name):
    model = load_zoo(name)
    for n in range(5 if model.n_generators == 3 else 6):
        blocks = gram_matrix(model, n).blocks
        # the blocks partition the sector, one per multiset, words in lexicographic order
        assert sorted(w for b in blocks for w in b.words) == basis_words(model.n_generators, n)
        multisets = [{tuple(sorted(w)) for w in b.words} for b in blocks]
        assert all(len(m) == 1 for m in multisets)
        assert len(set.union(*multisets)) == len(blocks)
        assert all(b.words == sorted(b.words) for b in blocks)
        _compare_with_dense_oracle(model, n)


@pytest.mark.parametrize("label", ["random-R", "self-adjoint-T", "off-diagonal-pairing"])
def test_one_block_matches_dense_oracle(label):
    # the oracle multiplies complex couplings by whole arrays, the hop layer one
    # Python complex at a time; the two products can differ in the last bit
    model = _mixing_models()[label]
    for n in range(6):
        assert len(gram_matrix(model, n).blocks) == 1
        _compare_with_dense_oracle(model, n, rel=1e-14)


@pytest.mark.parametrize("name, q", [("quon_03", 0.3), ("quon_05", 0.5), ("quon_09", 0.9)])
def test_quon_blocks_positive_definite(name, q):
    # Bozejko-Speicher: the q-swap Gram is positive definite for |q| < 1, block by block
    result = gram_matrix(load_zoo(name), 8)
    assert all(e.min() > 0 for e in result.spectrum)
    corner = next(b for b in result.blocks if b.words == [(1,) * 8])
    assert corner.matrix.shape == (1, 1)
    assert abs(corner.matrix[0, 0] - q_factorial(q, 8)) <= 1e-12 * q_factorial(q, 8)


def test_fermion3_sector_7_blocks_are_zero():
    model = load_zoo("fermion3")
    assert sector_dimension(model, 7) == (2187, 0)
    assert all(not b.matrix.any() for b in gram_matrix(model, 7).blocks)


def test_fermion3_sector_8_never_allocates_the_dense_gram():
    import tracemalloc
    model = load_zoo("fermion3")
    tracemalloc.start()
    try:
        assert sector_dimension(model, 8) == (6561, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # the dense 6561x6561 Gram alone takes 689 MB


@pytest.mark.parametrize("name", ["boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"])
def test_sector_dimensions_of_colour_symmetric_models(name):
    model = load_zoo(name)
    assert model.is_grade_diagonal and model.eps.is_normalized().ok  # chi(i,j) chi(j,i) = 1
    for n in range(9):
        assert sector_dimension(model, n) == (model.n_generators ** n,
                                              colour_symmetric_dimension(model, n)), n


def test_zero_sectors_draw_no_further_ladder_level(monkeypatch):
    # fermion3's Gram is exactly 0 from sector 4 on, so no block of sector 5
    # reads a product: the tower builds no annihilator block after sector 4
    model = load_zoo("fermion3")
    drawn, annihilators = [], fock._annihilators
    monkeypatch.setattr(fock, "_annihilators",
                        lambda plan, m, *args: drawn.append(m) or annihilators(plan, m, *args))
    grams = [result for result, _ in fock._tower(model, 8)]
    assert drawn == [1, 2, 3, 4]
    assert [result.sector for result in grams] == list(range(9))
    # a zero sector stores no block
    assert [len(result._matrices) > 0 for result in grams] == [True] * 4 + [False] * 5
    for n in range(4, 7):
        assert np.array_equal(grams[n].matrix, dense_gram(model, n)), n
    for result in grams[4:]:
        rows = list(np.diff(result._layout.start))
        assert result._matrices == {}
        assert [len(e) for e in result.spectrum] == rows
        assert all(e.tolist() == [0.0] * len(e) for e in result.spectrum)
        assert [block.matrix.shape for block in result.blocks] == [(r, r) for r in rows]
        assert all(block.matrix.dtype == np.float64 and not block.matrix.any()
                   for block in result.blocks)
        assert (result.asymmetry, result.scale) == (0.0, 1.0)


def test_one_generator_layout_allocates_no_word_sized_array():
    # one generator has one word per sector, one block: no m-long digit matrix or powers
    import tracemalloc
    model = load_zoo("fermion1")
    tracemalloc.start()
    try:
        layout = fock._layout(model, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layout.start.tolist() == [0, 1] and peak < 64 << 10, peak


def test_exchange_nullity_reads_no_zero_sector(monkeypatch):
    # fermion2 stores no Gram block from sector 3 on, and neither does its twin
    # with the explicit braid matrix of q = -1, whose lines are computed: only the
    # create-create line of sector 0 (on sector 2) and the annihilate-annihilate
    # lines of sectors 2..4 (on sectors 0..2) take a Gram norm, each as soon as
    # the tower has built its blocks; the mixed line has no residual for s = +1.
    # fermion2's own lines are exactly 0 by construction, and none is computed
    sectors = []
    raised, lowered = fock._raised, fock._lowered

    def refuse(*args):
        raise AssertionError("a residual was computed")

    monkeypatch.setattr(fock, "_raised", lambda relation, gram, forms:
                        sectors.append(("create-create", gram.sector)) or raised(relation, gram, forms))
    monkeypatch.setattr(fock, "_lowered", lambda n_gen, relation, grams, *args:
                        sectors.append(("annihilate-annihilate", grams[0].sector))
                        or lowered(n_gen, relation, grams, *args))
    monkeypatch.setattr(fock, "_residual_norms", refuse)
    fermion2 = load_zoo("fermion2")
    twin = make_model(fermion2.group, fermion2.eps, fermion2.grades, fermion2.pairing,
                      q_swap_braid(2, -1.0))
    assert twin.cross_terms == fermion2.cross_terms and not twin.exchange_relations_exact
    report = check_braid_exchange_relations(twin, n_max=4)
    assert report.passed and sectors == [("annihilate-annihilate", 0), ("create-create", 2),
                                         ("annihilate-annihilate", 1), ("annihilate-annihilate", 2)]
    sectors.clear()
    assert check_braid_exchange_relations(fermion2, n_max=4) == report and sectors == []


def test_the_fock_pass_never_reads_the_dense_gram(monkeypatch):
    # the byte guard counts the stored blocks, not a dense Gram: every line, create-create's
    # minors included, reads the blocks alone
    def refuse(self):
        raise AssertionError(f"the dense Gram of sector {self.sector} was read")

    monkeypatch.setattr(fock.GramResult, "matrix", property(refuse))
    for model, n_max in ((load_zoo("quon_05"), 5), (_complex_q_swap(), 3)):
        rows = fock._fock_checks(model, n_max, 1e-9)[0]
        assert next(row for row in rows if row.name == "exchange-nullity").failed


def test_zero_blocks_are_never_allocated():
    # fermion3's sector-10 Gram is exactly 0, in blocks of up to 4,200 rows:
    # allocated as zeros, they took 1,342 MiB under tracemalloc.  Sector 16 of
    # two generators has blocks of up to 12,870 rows, 1,325 MB of float64, which
    # an estimate of the largest block refused although none is allocated
    import tracemalloc
    for name, n in [("fermion3", 10), ("fermion2", 16), ("z2z2_fermion", 16)]:
        model = load_zoo(name)
        tracemalloc.start()
        try:
            dim, psd = sector_dimension(model, n), gram_psd_check(model, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == (model.n_generators ** n, 0) and psd.passed, name
        assert psd.data["min_eigenvalue"] == 0.0 and peak <= 32 << 20, (name, peak)


def test_spectrum_is_exact_for_zero_blocks(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    # some blocks of fermion3's sector 3 are 0, boson's are all nonzero and
    # anyon_z4's are complex
    for result in (gram_matrix(load_zoo("fermion3"), 3), gram_matrix(load_zoo("boson"), 6),
                   gram_matrix(load_zoo("anyon_z4"), 5)):
        shapes.clear()
        for b, (rows, e) in enumerate(zip(np.diff(result._layout.start), result.spectrum)):
            if b not in result._matrices:
                assert e.tolist() == [0.0] * rows
        assert all(g.any() for g in result._matrices.values())
        assert shapes == [g.shape for g in result._matrices.values()]
    # eigvalsh of a 1x1 block is its real entry
    assert gram_matrix(load_zoo("boson"), 6).spectrum[0].tolist() == [720.0]
    # a block with one off-diagonal entry is not 0: its Hermitian part has eigenvalues -1/2, 1/2
    model = _mixing_models()["random-R"]
    one = fock.GramResult(1, 2, fock._layout(model, 1), {0: np.array([[0.0, 0.0], [1.0, 0.0]])}, float)
    shapes.clear()
    assert one.spectrum[0].tolist() == [-0.5, 0.5]
    assert shapes == [(2, 2)]


def _zoo_model(name, sign):
    doc = json.loads(zoo_path(name).read_text())
    doc["options"] = {"expansion_sign": sign}
    return model_from_dict(doc).model


def _counted_ranks(model, n, tol=1e-9):
    """Per sector ``0..n``, its rank read with no class theorem, counted from the spectrum, or
    ``None`` where it is not Hermitian."""
    ranks = []
    for result, _ in fock._tower(model, n):
        assert "asymmetry" not in vars(result) and "spectrum" not in vars(result)
        if not result.hermitian_within(tol):
            ranks.append(None)
            continue
        rank, source = fock._rank(None, lambda: result, tol)
        assert source == "count"
        ranks.append(rank)
    return ranks


#: the counted ranks of sectors 0..8 (fermion3's 0..6) of each zoo model at s = +1 and -1, with no
#: class theorem: quon_09's 252 at sector 8 is the cut's (its theorem reads 256)
_ZOO_COUNTED_RANKS = {
    ("boson", "+"): [1, 2, 3, 4, 5, 6, 7, 8, 9], ("boson", "-"): [1, 2, 1, 0, 0, 0, 0, 0, 0],
    ("fermion1", "+"): [1, 1, 0, 0, 0, 0, 0, 0, 0], ("fermion1", "-"): [1, 1, 1, 1, 1, 1, 1, 1, 1],
    ("fermion2", "+"): [1, 2, 1, 0, 0, 0, 0, 0, 0], ("fermion2", "-"): [1, 2, 3, 4, 5, 6, 7, 8, 9],
    ("fermion3", "+"): [1, 3, 3, 1, 0, 0, 0], ("fermion3", "-"): [1, 3, 6, 10, 15, 21, 28],
    ("z2z2_fermion", "+"): [1, 2, 1, 0, 0, 0, 0, 0, 0],
    ("z2z2_fermion", "-"): [1, 2, 3, 4, 5, 6, 7, 8, 9],
    **{("anyon_z4", sign): [1, 1, None, None, 0, 0, 0, 0, 0] for sign in "+-"},
    **{(name, sign): [2 ** n for n in range(9)] for name in ("quon_03", "quon_05", "quon_09")
       for sign in "+-"},
    ("quon_09", "+"): [2 ** n for n in range(8)] + [252],
}


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_the_counted_ranks_of_the_zoo(name, sign):
    model = _zoo_model(name, sign)
    assert _counted_ranks(model, 6 if name == "fermion3" else 8) == _ZOO_COUNTED_RANKS[name, sign]


#: the counted ranks of sectors 0..6 (fermion3-minus's 0..5) of the mixing and s = -1 models
_RANDOM_COUNTED_RANKS = {
    "random-R": [1, 2] + [None] * 5, "self-adjoint-T": [2 ** n for n in range(7)],
    "off-diagonal-pairing": list(range(1, 8)), "minus-expansion": [1, 2] + [None] * 5,
    "quon-minus": [2 ** n for n in range(7)], "fermion3-minus": [1, 3, 6, 10, 15, 21],
}


@pytest.mark.parametrize("label", list(_RANDOM_COUNTED_RANKS))
def test_the_counted_ranks_of_random_models(label):
    model = {**_mixing_models(), **_minus_models()}[label]
    assert _counted_ranks(model, 6 if model.n_generators == 2 else 5) == _RANDOM_COUNTED_RANKS[label]


def _readers(model, n_max, monkeypatch, tol=1e-9):
    """Per sector ``0..n_max``, its rank and ``min_eigenvalue`` as each of the four readers gives
    them: ``check`` (its dimension rows, and the ``gram-psd`` row it reads of each sector before
    it reports the worst, where it reads one), ``gram`` (``quotient_rank`` and ``psd_report`` of
    :func:`gram_matrix`), :func:`sector_dimension` and :func:`gram_psd_check`; ``None`` where a
    reader gives neither."""
    rows, psd_report = [], fock._psd_report
    monkeypatch.setattr(fock, "_psd_report", lambda *args: rows.append(psd_report(*args)) or rows[-1])
    _, dims = fock._fock_checks(model, n_max, tol)
    monkeypatch.undo()
    read = {row.data["sector"]: row.data["min_eigenvalue"] for row in rows}
    assert len(read) == len(rows) and 0 in read
    readings = []
    for n in range(n_max + 1):
        result = gram_matrix(model, n)
        readings.append({
            "check": (dims[n]["quotient"], read.get(n)),
            "gram": (result.quotient_rank(tol), result.psd_report(tol).data["min_eigenvalue"]),
            "sector_dimension": (sector_dimension(model, n, tol).quotient, None),
            "gram_psd_check": (None, gram_psd_check(model, n, tol).data["min_eigenvalue"])})
    return readings


def _agree(readings):
    """Whether the readers that give a rank, and those that give a least eigenvalue, agree under ``==``."""
    ranks = {rank for rank, _ in readings.values() if rank is not None}
    least = [value for _, value in readings.values() if value is not None]
    return len(ranks) == 1 and all(value == least[0] for value in least)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_the_four_readers_agree_on_every_zoo_sector(name, monkeypatch):
    # anyon_z4's sectors 2 and up are not Hermitian: no rank, and a skipped row
    n_max = {"fermion3": 4, "anyon_z4": 1}.get(name, 6)
    for n, readings in enumerate(_readers(load_zoo(name), n_max, monkeypatch)):
        assert _agree(readings), (name, n, readings)


def test_the_four_readers_agree_on_random_class_models(monkeypatch):
    for seed in range(20261101, 20261301, 8):
        model, _ = _colour_model(seed)
        for n, readings in enumerate(_readers(model, 3, monkeypatch)):
            assert _agree(readings), (seed, n, readings)


@pytest.mark.parametrize("c", [-1.0, 2.5])
def test_the_four_readers_read_the_balanced_block_alike(c, monkeypatch):
    # one q on c I: check (which reads the odd sectors at c < 0) and gram read the balanced block
    # of the whole tower by its key, gram_psd_check the one block of a tower cut to it
    model = _q_model(_Q05, c * np.eye(2))
    assert fock._theorems(model, 6)[5].holder == (1, 1, 1, 2, 2)
    for n, readings in enumerate(_readers(model, 6, monkeypatch)):
        assert _agree(readings), (c, n, readings)
        if c < 0 and n % 2:
            assert readings["gram_psd_check"][1] < 0


def test_each_rank_names_how_it_is_known():
    assert fock._rank(fock._theorems(load_zoo("quon_05"), 6)[6], None, 1e-9) == (64, "contractive")
    assert fock._rank(fock._theorems(load_zoo("boson"), 6)[6], None, 1e-9) == (7, "colour-symmetric")
    assert fock._rank(fock._theorems(_tilted_quon(0.5), 10)[10], None, 1e-9) == (1024, "contractive")
    mixed = _mixed_quon(0.5, 0.3)
    assert all(theorem is None for theorem in fock._theorems(mixed, 10))
    assert fock._rank(None, lambda: gram_matrix(mixed, 10), 1e-9) == (1024, "count")
    assert fock._rank(None, lambda: gram_matrix(mixed, 6), 1e-9) == (64, "count")


def _counting_eigvalsh(monkeypatch):
    """The shapes ``eigvalsh`` runs on, from now on."""
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


def _delta(result):
    """``r^3 eps max|G|``, ``r`` the rows of the sector's largest stored block: a bound on the
    error ``p(r) eps ||H||_2`` of ``eigvalsh`` on any of its blocks' Hermitian parts ``H`` (LAPACK
    Users' Guide, 3rd ed., section 4.7, with ``p(r) = r^2`` and ``||H||_2 <= r max|G|``)."""
    rows = max(map(len, result._matrices.values()), default=0)
    return rows ** 3 * np.finfo(float).eps * max((float(np.abs(g).max()) for g in result._matrices.values()),
                                                 default=0.0)


#: the quon sectors whose min_eigenvalue moves in its last bits where gram_psd_check reads the
#: balanced block alone (one BLAS thread): the whole-spectrum reader reads more than one block there,
#: and another block that shares the least eigenvalue reads it lower than the balanced one does
_HOLDER_MOVES = {("quon_03", 9), ("quon_05", 5), ("quon_05", 7), ("quon_09", 4), ("quon_09", 5),
                 ("quon_09", 9)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_gram_psd_check_equals_the_spectrum_on_the_zoo(name):
    # every sector to 12 (one generator), 10 (two) or 6 (three), against the row computed from the
    # whole spectrum of the tower's sector: bit for bit, also where gram_psd_check reads the balanced
    # block alone, except on the _HOLDER_MOVES sectors, which keep the status and a min_eigenvalue
    # within delta
    model = load_zoo(name)
    n = {1: 12, 2: 10, 3: 6}[model.n_generators]
    read, moved = 0, set()
    for result, _ in fock._tower(model, n):
        full = fock._psd_report(None, lambda: result, 1e-9)
        read += full.status != "skipped"
        if (result.theorem is None or result.theorem.least is None) and full.status != "skipped":
            report = gram_psd_check(model, result.sector)
            if (name, result.sector) not in _HOLDER_MOVES:
                assert repr(report) == repr(full), (name, result.sector)
                continue
            moved.add((name, result.sector))
            least, want = report.data["min_eigenvalue"], full.data["min_eigenvalue"]
            assert report.status == full.status
            assert abs(least - want) <= _delta(result), (name, result.sector, least, want)
    assert read >= n - 1
    assert {key for key in _HOLDER_MOVES if key[0] == name} == moved


def _sweep_model(seed):
    """A q-swap model of 2 or 3 generators with ``q_ji = conj(q_ij)``, ``|q| <= 1.5``, real or
    complex, a diagonal, tilted or sign-mixed pairing, and ``s = +1`` or ``-1``."""
    rng = np.random.default_rng(seed)
    n_gen = 2 + seed % 2
    q = rng.uniform(-1.5, 1.5, (n_gen, n_gen))
    if seed % 4 >= 2:  # complex off the diagonal
        q = q * np.exp(1j * rng.uniform(0, 2 * np.pi, (n_gen, n_gen)))
        q[np.diag_indices(n_gen)] = q.diagonal().real
    q = np.triu(q) + np.triu(q, 1).conj().T
    kind = seed // 4 % 3
    if kind == 0:
        pairing = np.diag(rng.uniform(0.3, 3, n_gen))
    elif kind == 1:  # tilted: one block per sector
        raw = rng.uniform(-0.4, 0.4, (n_gen, n_gen))
        pairing = np.eye(n_gen) + (raw + raw.T) / 2
    else:
        pairing = np.diag(rng.uniform(0.3, 3, n_gen) * rng.choice([-1, 1], n_gen))
    return _q_model(q, pairing, sign=-1 if seed // 12 % 2 else 1)


@pytest.mark.filterwarnings("error")
def test_gram_psd_check_equals_the_dense_spectrum_on_random_q_models():
    # each sector against eigvalsh of the Hermitian part of the dense Gram: the min_eigenvalue
    # within delta of the dense one, the status the cut's, and skipped where it is not Hermitian
    sectors = negative = 0
    for seed in range(240):
        model = _sweep_model(seed)
        for n in range(7 if model.n_generators == 2 else 5):
            result, report = gram_matrix(model, n), gram_psd_check(model, n)
            if not result.hermitian_within(1e-9):
                assert report.status == "skipped", (seed, n)
                continue
            dense = result.matrix
            want = float(np.linalg.eigvalsh((dense + dense.conj().T) / 2).min())
            delta = len(dense) ** 3 * np.finfo(float).eps * float(np.abs(dense).max())
            least = report.data["min_eigenvalue"]
            assert abs(least - want) <= delta, (seed, n, least, want)
            assert report.status == ("fail" if want < -1e-9 * result.scale else "pass"), (seed, n)
            sectors += 1
            negative += least < 0
    assert sectors >= 1000 and negative >= 200, (sectors, negative)


def _layouts_built(monkeypatch):
    """The block keys of each layout :func:`~braidstat.fock._layout` builds from now on."""
    built, layout = [], fock._layout

    def recorded(*args):
        out = layout(*args)
        built.append(out.keys)
        return out

    monkeypatch.setattr(fock, "_layout", recorded)
    return built


def test_gram_psd_check_reads_one_block_of_quon_05_at_sector_10(monkeypatch):
    # the least eigenvalue, 0.0168, is in the 252-row block; the 210-row blocks read 0.0216.
    # That block, (5, 5), holds every eigenvalue: the tower builds the 36 blocks inside it of
    # sectors 0..10's 66, and one eigvalsh reads it
    model = load_zoo("quon_05")
    assert model.gram_class[0] == "contractive"  # its pairing's eigenvalues are read
    shapes, built = _counting_eigvalsh(monkeypatch), _layouts_built(monkeypatch)
    report = gram_psd_check(model, 10)
    assert shapes == [(252, 252)]
    holder = (1,) * 5 + (2,) * 5
    assert fock._theorems(model, 10)[-1].holder == holder
    keys = [key for keys in built for key in keys]
    assert len(keys) == 36 and built[-1] == [holder]
    assert all(key.count(j) <= holder.count(j) for key in keys for j in key)  # inside (5, 5)
    assert report.passed and report.data["min_eigenvalue"] == pytest.approx(0.0168, abs=1e-4)
    monkeypatch.undo()
    full = gram_matrix(load_zoo("quon_05"), 10)
    full.spectrum
    assert repr(full.psd_report(1e-9)) == repr(report)
    assert sum(map(len, full.spectrum)) == 1024 and len(full._layout.keys) == 11


@pytest.mark.parametrize("label", ["diagonal-pairing", "two-q-blocks"])
def test_models_without_a_holder_keep_the_whole_reader(label, monkeypatch):
    # quon_05 on diag(1, 2), and q = [[0.5, 0.3], [0.3, 0.2]] on P = I: contractive, but not one
    # q on a scalar pairing, so no block is named, every block is built, and gram_psd_check reads
    # the whole spectrum's minimum bit for bit
    q = _Q05 if label == "diagonal-pairing" else [[0.5, 0.3], [0.3, 0.2]]
    model = _q_model(q, np.diag([1.0, 2.0]) if label == "diagonal-pairing" else None)
    assert model.gram_class[0] == "contractive"
    assert all(theorem.holder is None for theorem in fock._theorems(model, 8))
    for n in range(9):
        built = _layouts_built(monkeypatch)
        report = gram_psd_check(model, n)
        monkeypatch.undo()
        assert sum(map(len, built)) == (n + 1) * (n + 2) // 2  # every multiset of sectors 0..n
        full = gram_matrix(model, n)
        full.spectrum
        assert repr(report) == repr(full.psd_report(1e-9)) == repr(fock._psd_report(None, lambda: full, 1e-9))
        assert report.data["min_eigenvalue"] == float(np.concatenate(full.spectrum).min())


def _holder_problems(model, result, tol=1e-9):
    """How :func:`gram_psd_check` on the sector of the whole tower's ``result`` departs from its
    spectrum: each eigenvalue within ``delta`` of one of the named block's, the least eigenvalue
    within ``delta``, the status equal; bit for bit where no block is named."""
    n, theorem = result.sector, result.theorem
    spectrum = np.concatenate(result.spectrum)
    report, delta, problems = gram_psd_check(model, n, tol), _delta(result), []
    least = report.data["min_eigenvalue"]
    if theorem.holder is None:
        return [] if least == spectrum.min() else [f"least {least} != {spectrum.min()}"]
    g = result._matrices[result._layout.keys.index(theorem.holder)]
    held = np.linalg.eigvalsh((g + g.conj().T) / 2)
    gap = float(np.abs(spectrum[:, None] - held[None, :]).min(axis=1).max())
    if gap > delta:
        problems.append(f"an eigenvalue {gap:.3e} from the block's, delta {delta:.3e}")
    if abs(least - spectrum.min()) > delta:
        problems.append(f"least {least} against {spectrum.min()}, delta {delta:.3e}")
    if report.status != ("fail" if spectrum.min() < -tol * result.scale else "pass"):
        problems.append(f"status {report.status}")
    return problems


def _holder_sweep():
    """``(case, problems)`` of :func:`_holder_problems` on 648 sectors: one q in
    {+-0.9, +-0.5, -0.1, 0.3} on the pairing ``c I``, c in {1, 2.5, 0.3, -1}, of 1 or 2 letters
    to sector 9 and of 3 letters to sector 6."""
    for n_gen, top in ((1, 9), (2, 9), (3, 6)):
        for q in (0.9, -0.9, 0.5, -0.5, -0.1, 0.3):
            for c in (1.0, 2.5, 0.3, -1.0):
                model = _q_model(np.full((n_gen, n_gen), q), c * np.eye(n_gen))
                for result, _ in fock._tower(model, top):
                    yield (n_gen, q, c, result.sector), _holder_problems(model, result)


@pytest.mark.filterwarnings("error")
def test_the_balanced_block_holds_every_eigenvalue_of_one_q_on_a_scalar_pairing():
    cases = dict(_holder_sweep())
    assert len(cases) == 648
    assert {case: problems for case, problems in cases.items() if problems} == {}


def test_an_unbalanced_block_fails_the_sweep(monkeypatch):
    # a copy of the last letter moved to the first: (6, 4) in place of (5, 5) at sector 10
    theorems = fock._theorems

    def unbalanced(model, n):
        return [theorem._replace(holder=tuple(sorted((1,) + theorem.holder[:-1])))
                if theorem.holder else theorem for theorem in theorems(model, n)]

    monkeypatch.setattr(fock, "_theorems", unbalanced)
    assert unbalanced(load_zoo("quon_05"), 10)[-1].holder == (1,) * 6 + (2,) * 4
    for result, _ in fock._tower(load_zoo("quon_05"), 10):
        pass
    assert _holder_problems(load_zoo("quon_05"), result)
    failed = [case for case, problems in _holder_sweep() if problems]
    assert len(failed) >= 100 and {n_gen for n_gen, *_ in failed} == {2, 3}


@pytest.mark.filterwarnings("error")
def test_exact_zero_eigenvalues_are_the_spectrum_minimum(monkeypatch):
    # fermion2's sector 2 stores one of its three blocks, of eigenvalues 0 and 2; boson's
    # Gram through an explicit q = 1 braid has rank-1 blocks, whose zeros read as roundoff.
    # The least eigenvalue is the spectrum's minimum, one eigvalsh per stored block
    shapes = _counting_eigvalsh(monkeypatch)
    minima = {}
    for name, model, n in [("fermion2", load_zoo("fermion2"), 4), ("boson", _q_model(np.ones((2, 2))), 6)]:
        for result, _ in fock._tower(model, n):
            shapes.clear()
            report = fock._psd_report(None, lambda: result, 1e-9)
            assert report.passed, (name, result.sector)
            minima[name, result.sector] = report.data["min_eigenvalue"]
            assert sorted(shapes) == sorted(g.shape for g in result._matrices.values()), (name, result.sector)
    assert minima["fermion2", 2] == 0.0 and minima["fermion2", 4] == 0.0
    assert minima["boson", 3] == -1.1697088109017878e-15


_TRIDIAGONAL = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])  # least 2 - sqrt(2)


def _four_blocks(block):
    """Sector 3 of two letters, its four weight blocks stored: ``[[7]]``, :data:`_TRIDIAGONAL`,
    ``block`` (3x3) and ``[[7]]``."""
    return fock.GramResult(3, 2, fock._layout(load_zoo("quon_05"), 3),
                           {0: np.array([[7.0]]), 1: _TRIDIAGONAL, 2: np.asarray(block, dtype=float),
                            3: np.array([[7.0]])}, float)


@pytest.mark.filterwarnings("error")
def test_the_least_eigenvalue_is_the_spectrum_minimum_over_every_block(monkeypatch):
    # the least eigenvalue is the minimum over every stored block, each read by one eigvalsh, at,
    # just above, just below and far above the tridiagonal block's minimum
    mu = float(np.linalg.eigvalsh(_TRIDIAGONAL).min())
    shapes = _counting_eigvalsh(monkeypatch)
    for entry in (mu, mu + 1e-15, np.nextafter(mu, 0.0), 6.0):
        shapes.clear()
        report = _four_blocks(np.diag([5.0, entry, 5.0])).psd_report(1e-9)
        assert report.data["min_eigenvalue"] == min(mu, entry), entry
        assert shapes == [(1, 1), (3, 3), (3, 3), (1, 1)], entry


@pytest.mark.filterwarnings("error")
def test_a_block_whose_eigenvalues_overflow_names_the_sector():
    # its eigenvalue 3e308 overflows: the error names the sector
    with pytest.raises(fock.NonFiniteError, match="the eigenvalues of sector 3 overflow"):
        _four_blocks(np.full((3, 3), 1e308)).psd_report(1e-9)
    with pytest.raises(fock.NonFiniteError, match="the eigenvalues of sector 3 overflow"):
        _four_blocks(np.full((3, 3), 1e308)).spectrum
    # trace 3e308 is finite in every eigenvalue: read, not refused
    least = _four_blocks(np.diag([1e308] * 3)).psd_report(1e-9).data["min_eigenvalue"]
    assert least == float(np.linalg.eigvalsh(_TRIDIAGONAL).min())


def _tilted_quon(q):
    """The q-swap model of two generators with the pairing ``[[1, 0.3], [0.3, 1.7]]``: it
    mixes the letters, which share one q, so it is in the contractive class."""
    trivial = make_group([])
    return make_model(trivial, Bicharacter.trivial(trivial), [[], []], _TILTED, q_swap_braid(2, q))


def _mixed_quon(q, q_12):
    """The q-model of two generators with ``q_11 = q_22 = q``, ``q_12 = q_21 = q_12`` and the
    pairing ``[[1, 0.3], [0.3, 1.7]]``: it mixes letters of different q-rows, so it is outside
    the contractive class."""
    return _q_model([[q, q_12], [q_12, q]], _TILTED)


@pytest.mark.parametrize("name", ["boson", "mixed-tilted"])
def test_rank_falls_back_to_the_spectrum(name, monkeypatch):
    # outside both theorems' classes, the rank is counted from the spectrum, one eigvalsh per
    # stored block: boson's Gram through an explicit braid, q = 1, has rank-1 blocks, and the
    # 0.9/0.8 mixed tilted model has one block at sector 8
    model = _mixed_quon(0.9, 0.8) if name == "mixed-tilted" else _q_model(np.ones((2, 2)))
    assert model.gram_class is None
    result = gram_matrix(model, 8)
    shapes = _counting_eigvalsh(monkeypatch)
    want = {"boson": 9, "mixed-tilted": 256}[name]
    assert fock._rank(None, lambda: result, 1e-9) == (want, "count")
    assert shapes == [g.shape for g in result._matrices.values()]
    assert sector_dimension(model, 8).quotient == want


@pytest.mark.parametrize("label", ["mixed-tilted", "diagonal-pairing"])
def test_the_four_readers_factor_no_block(label, monkeypatch):
    # the 0.5/0.3 mixed tilted model, outside both classes, and quon_05 on diag(1, 2), contractive
    # with no block that holds every eigenvalue: each rank and least eigenvalue that no theorem
    # gives is read off the spectrum, with no Cholesky factorization
    def refused(*args, **kwargs):
        raise AssertionError("cholesky ran")

    model = _mixed_quon(0.5, 0.3) if label == "mixed-tilted" else _q_model(_Q05, np.diag([1.0, 2.0]))
    monkeypatch.setattr(np.linalg, "cholesky", refused)
    rows, dims = fock._fock_checks(model, 5, 1e-9)
    assert [row["quotient"] for row in dims] == [2 ** n for n in range(6)]
    assert [(row.name, row.status) for row in rows] == [
        ("infinite-statistics", "pass"), ("twisted-commutators", "pass"), ("exchange-nullity", "fail"),
        ("gram-hermitian", "pass"), ("gram-psd", "pass")]
    result = gram_matrix(model, 10)
    assert result.quotient_rank(1e-9) == 1024 and result.psd_report(1e-9).passed
    assert sector_dimension(model, 10) == (1024, 1024)
    report = gram_psd_check(model, 10)
    least = {"mixed-tilted": 1.0076784534666412, "diagonal-pairing": 0.34563784154359156}[label]
    assert report.passed and report.data["min_eigenvalue"] == pytest.approx(least, rel=1e-9)


def test_a_sector_that_is_not_hermitian_has_no_rank_and_a_skipped_row():
    result = gram_matrix(load_zoo("anyon_z4"), 2)
    assert fock._rank(None, lambda: result, 1e-9) == (None, "count")
    with pytest.raises(HermiticityError, match="sector 2"):
        result.quotient_rank(1e-9)
    with pytest.raises(HermiticityError, match="sector 2"):
        sector_dimension(load_zoo("anyon_z4"), 2)
    assert not result.hermitian_within(1e-9) and result.psd_report(1e-9).status == "skipped"
    rows, dims = fock._fock_checks(load_zoo("anyon_z4"), 3, 1e-9)
    assert [row.get("status") for row in dims] == [None, None, "skipped", "skipped"]
    result = gram_matrix(load_zoo("quon_05"), 4)
    assert result.psd_report(1e-9).passed and result.quotient_rank(1e-9) == 16


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_plus_expansion_commutator_defect_computes_nothing(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("computed")

    model = load_zoo(name)
    for private in ("_hops", "_annihilators", "_residual_norms"):
        monkeypatch.setattr(fock, private, refuse)
    rep = commutator_defect(model, 1, 1, 5)
    assert (rep.name, rep.status, rep.defect, rep.witness, rep.data) == (
        "twisted-commutator", "pass", 0.0, None, {"i": 1, "j": 1, "sector": 5})
    with pytest.raises(fock.ResourceLimitError):  # the sector guard still applies
        commutator_defect(load_zoo("boson"), 1, 1, 10 ** 6)
    with pytest.raises(ValueError):  # and so do the index guards
        commutator_defect(model, model.n_generators + 1, 1, 1)


@pytest.mark.filterwarnings("error")
def test_non_finite_ladders_and_grams_name_their_sector():
    # finite pairings whose products overflow: the quon ladder reaches inf at
    # sector 4 and its Gram at sector 2; fermion2's Gram reaches NaN at sector 3.
    # commutator_defect reads the ladder to sector n for s = -1 only, and q = -0.5
    # with s = -1 gives the ladder of q = 0.5 with s = +1
    trivial, z2 = make_group([]), make_group([2])
    big = [[1e308, 0], [0, 1]]
    quon = make_model(trivial, Bicharacter.trivial(trivial), [[], []], big, q_swap_braid(2, 0.5))
    minus = make_model(trivial, Bicharacter.trivial(trivial), [[], []], big, q_swap_braid(2, -0.5),
                       expansion_sign=-1)
    with pytest.raises(fock.NonFiniteError, match="the annihilators of sector 4 "):
        commutator_defect(minus, 1, 1, 4)
    with pytest.raises(fock.NonFiniteError, match="the Gram blocks of sector 2 "):
        gram_psd_check(quon, 5)
    assert sector_dimension(quon, 5) == (32, 32)  # by the theorem: no Gram is built
    fermion2 = make_model(z2, make_bicharacter(z2, [["1/2"]]), [[1], [1]], big)
    with pytest.raises(fock.NonFiniteError, match="the Gram blocks of sector 3 "):
        gram_matrix(fermion2, 3).psd_report(1e-9)
    # sector 2 holds the finite block [[1e308, -1e308], [-1e308, 1e308]], of eigenvalue 2e308.
    # The closed form reads that eigenvalue, and the exact 0 of sectors 3 and 4, where the
    # tower reads NaN; its rank needs no float
    with pytest.raises(fock.NonFiniteError, match="the eigenvalues of sector 2 "):
        gram_psd_check(fermion2, 2)
    assert sector_dimension(fermion2, 2) == (4, 1)
    assert gram_psd_check(fermion2, 4).data == {"sector": 4, "min_eigenvalue": 0.0}
    assert gram_psd_check(fermion2, 1).passed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_residual_overflow_names_its_sector(n):
    # the ladder of q = 0.5 with s = -1 stays finite; its residual, twice the
    # ladder, overflows, and its norms square it
    trivial = make_group([])
    model = make_model(trivial, Bicharacter.trivial(trivial), [[], []], [[1e308, 0], [0, 1]],
                       q_swap_braid(2, 0.5), expansion_sign=-1)
    with pytest.raises(fock.NonFiniteError, match=f"the twisted commutator residuals of sector {n} "):
        commutator_defect(model, 1, 1, n)


def test_commutator_defect_reads_the_ladder_to_its_sector(monkeypatch):
    # the residual of sector n is the hop terms of the B_i of sector n + 1, built
    # from the annihilator blocks of sectors 1..n with no pairing, and no Gram
    model, drawn = _mixing_models()["minus-expansion"], []
    annihilators = fock._annihilators
    monkeypatch.setattr(fock, "_annihilators", lambda plan, m, *args: drawn.append(
        (m, any(p for row in plan for p, _ in row))) or annihilators(plan, m, *args))
    monkeypatch.setattr(fock, "GramResult", None)
    for n in range(4):
        drawn.clear()
        commutator_defect(model, 1, 2, n)
        assert drawn == [(m, True) for m in range(1, n + 1)] + [(n + 1, False)], n


def test_check_takes_no_residual_norm_for_plus_expansion(monkeypatch, capsys):
    # s = +1: every residual is empty, and the row is known without computing
    from braidstat.cli import main
    argvs = [["check", str(zoo_path(name)), "--json"] for name in ZOO_NAMES]
    want = [(main(argv), capsys.readouterr()) for argv in argvs]

    def refuse(*args):
        raise AssertionError("a residual norm was taken")

    monkeypatch.setattr(fock, "_residual_norms", refuse)
    assert [(main(argv), capsys.readouterr()) for argv in argvs] == want
    for name, (_, captured) in zip(ZOO_NAMES, want):
        n_gen, report = load_zoo(name).n_generators, json.loads(captured.out)
        row = next(r for r in report["checks"] if r["name"] == "twisted-commutators")
        assert row == {"name": "twisted-commutators", "status": "pass", "defect": 0.0, "witness": None,
                       "data": {"i": n_gen, "j": n_gen, "sector": report["results"]["n_max"]}}, name


def test_minus_expansion_mixed_line_is_exact():
    # the residual is -2 t (l, b-_k w): no pairing is added in and taken out again
    report = check_braid_exchange_relations(_zoo_model("quon_03", "-"), n_max=2)
    assert report.data["lines"]["mixed"] == 0.6


def test_no_ladder_outlives_a_call():
    import gc
    import tracemalloc
    model = load_zoo("quon_05")
    gram_psd_check(model, 2)  # builds the model's term tables, which are kept
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert gram_psd_check(model, 10).passed
        assert commutator_defect(model, 1, 2, 8).passed
        assert check_braid_exchange_relations(model, n_max=5).failed
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1e6  # the sector-10 ladder alone holds 0.36 MB


# ---------------------------------------------------------------------------
# the annihilator blocks against the dense oracles


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_ladder_equals_dense_annihilators_on_the_zoo(name):
    # without Grams every B_i of every sector is built, also where the tower stops
    # (fermion3's Gram is 0 from sector 4 on); each is b-_i from its block to the
    # block of its run, bit for bit, and together they are the whole of b-_i
    model = load_zoo(name)
    n_gen, n = model.n_generators, 5 if model.n_generators == 3 else 6
    expected = dense_annihilators(model, n)
    for m, (layout, hops) in enumerate(fock._hops(model, n)):
        if m == 0:
            continue
        below = fock._layout(model, m - 1)
        whole = np.zeros((n_gen, n_gen ** (m - 1), n_gen ** m), dtype=complex)
        for c, block in enumerate(hops):
            columns = layout.order[layout.start[c]:layout.start[c + 1]]
            assert sorted(block) == sorted({i for i, _, _, _ in layout.runs[c]})
            for i, _, b, _ in layout.runs[c]:
                rows = below.order[below.start[b]:below.start[b + 1]]
                whole[np.ix_([i - 1], rows, columns)] = block[i][1]
        assert np.array_equal(whole, np.array(expected[m])), m


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_tower_annihilators_equal_dense_annihilators_on_the_zoo(name, monkeypatch):
    # each B_i the tower builds is b-_i from its block to the block of its run,
    # bit for bit, and its rows of the block are the words (i, w), w in that block
    model = load_zoo(name)
    n_gen, n = model.n_generators, 4 if model.n_generators == 3 else 6
    built, annihilators = [], fock._annihilators

    def recording(plan, m, *args):
        for c, i, top, b, hop, bound in annihilators(plan, m, *args):
            built.append((m, c, i, top, b, hop, bound))
            yield c, i, top, b, hop, bound

    monkeypatch.setattr(fock, "_annihilators", recording)
    list(fock._tower(model, n))
    expected = dense_annihilators(model, n)
    layouts = [fock._layout(model, m) for m in range(n + 1)]
    assert built
    for m, c, i, top, b, hop, bound in built:
        layout, below = layouts[m], layouts[m - 1]
        columns = layout.order[layout.start[c]:layout.start[c + 1]]
        rows = below.order[below.start[b]:below.start[b + 1]]
        assert np.array_equal(columns[top:top + len(rows)], (i - 1) * n_gen ** (m - 1) + rows)
        assert np.array_equal(hop, expected[m][i - 1][np.ix_(rows, columns)]), (m, c, i)
        assert np.abs(hop).max(initial=0.0) <= bound


def _minus_models():
    """Letter-conserving models with ``s = -1``, on two and three generators."""
    trivial, z2 = make_group([]), make_group([2])
    return {
        "quon-minus": make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                                 q_swap_braid(2, 0.5), expansion_sign=-1),
        "fermion3-minus": make_model(z2, make_bicharacter(z2, [["1/2"]]), [[1]] * 3, np.eye(3),
                                     expansion_sign=-1),
    }


@pytest.mark.parametrize("label", ["random-R", "minus-expansion", "off-diagonal-pairing",
                                   "self-adjoint-T", "quon-minus", "fermion3-minus"])
def test_whole_sector_level_equals_the_suffix_ladder(label):
    # annihilate_twisted reads one word's suffixes, the dense oracle whole sectors.
    # random-R has s = +1, minus-expansion the same R with s = -1; no model of
    # _mixing_models conserves letters.  Both sum each entry in the same order, so
    # real models agree bit for bit; numpy's complex products may round otherwise
    model = {**_mixing_models(), **_minus_models()}[label]
    n_gen = model.n_generators
    depth = 4 if n_gen == 2 else 3
    dense = dense_annihilators(model, depth)
    for m in range(1, depth + 1):
        rows = basis_words(n_gen, m - 1)
        for w, word in enumerate(basis_words(n_gen, m)):
            for i in range(1, n_gen + 1):
                column = dense[m][i - 1][:, w]
                want = {rows[r]: column[r] for r in np.flatnonzero(np.abs(column) > fock.PRUNE_EPS)}
                got = dict(annihilate_twisted(model, i, FockVector.basis(word)).items())
                assert got.keys() == want.keys(), (m, word, i)
                if model.scalar_type is float:
                    assert got == want, (m, word, i)
                else:
                    assert all(abs(got[u] - want[u]) <= 1e-15 * abs(want[u]) for u in want), (m, word, i)


def _close(got, want):
    # compared squared: a defect that is 0 in exact arithmetic reads as the square
    # root of a roundoff-sized Gram form, which amplifies its last bits
    return abs(got ** 2 - want ** 2) <= 1e-12 * max(1.0, want ** 2)


@pytest.mark.parametrize("label", ["random-R", "off-diagonal-pairing", "minus-expansion"])
def test_checks_match_dense_oracles_on_random_models(label):
    model = _mixing_models()[label]
    for n in range(4):
        defects = np.linalg.norm(dense_commutator_residuals(model, n), axis=2)
        for i in (1, 2):
            for j in (1, 2):
                report = commutator_defect(model, i, j, n)
                worst, at = banded_witness([defects[i - 1, j - 1]])
                assert _close(report.defect, worst), (i, j, n)
                if worst > 1e-6:
                    assert report.witness == list(basis_words(2, n)[at[1][0]]), (i, j, n)
    if label == "minus-expansion":
        assert commutator_defect(model, 1, 1, 2).defect > 0.1
    assert check_infinite_statistics(model, 4).defect == 0.0
    lines, worst, witness = dense_exchange_nullity(model, 3)
    report = check_braid_exchange_relations(model, n_max=3)
    assert report.data["lines"].keys() == lines.keys()
    assert all(_close(report.data["lines"][k], lines[k]) for k in lines), (report.data, lines)
    assert _close(report.defect, worst)
    if worst > 1e-6:
        assert report.witness == witness
    assert (worst > 1e-6) == (label != "off-diagonal-pairing")


def _complex_q_swap():
    """``q_swap_braid(3, 0.3 + 0.4j)`` on ``P = I``: complex, outside both classes, and with
    several words of one weight block behind each word's create-create minor."""
    trivial = make_group([])
    return make_model(trivial, Bicharacter.trivial(trivial), [[]] * 3, np.eye(3), q_swap_braid(3, 0.3 + 0.4j))


def _braid_across_blocks():
    """random-R's braid with the cross of ``q_swap_braid(2, 0.5)``: the cross conserves letters,
    so each sector has several blocks, while the braid's relations pair words of different
    blocks, whose Gram entries are exactly 0."""
    trivial, braid = make_group([]), _mixing_models()["random-R"].braid
    return make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2), braid,
                      CrossMatrix(np.swapaxes(q_swap_braid(2, 0.5).coupling, 2, 3)))


@pytest.mark.parametrize("label", ["quon_03", "quon_09", "quon-minus", "fermion3-minus", "q-swap-complex",
                                   "braid-across-blocks"])
def test_checks_match_dense_oracles_across_blocks(label):
    # letter-conserving models have several weight blocks per sector, so a
    # witness found in block order must be mapped back to lexicographic order
    model = (load_zoo(label) if label in ZOO_NAMES
             else {**_minus_models(), "q-swap-complex": _complex_q_swap(),
                   "braid-across-blocks": _braid_across_blocks()}[label])
    n_gen = model.n_generators
    assert model.conserves_letters and len(gram_matrix(model, 3).blocks) > 1
    for n in range(4):
        defects = np.linalg.norm(dense_commutator_residuals(model, n), axis=2)
        for i in range(1, n_gen + 1):
            for j in range(1, n_gen + 1):
                report = commutator_defect(model, i, j, n)
                worst, at = banded_witness([defects[i - 1, j - 1]])
                assert _close(report.defect, worst), (i, j, n)
                if worst > 1e-6:  # s = +1: the oracle's residual is roundoff, the engine's exactly 0
                    assert report.witness == list(basis_words(n_gen, n)[at[1][0]]), (i, j, n)
    lines, worst, witness = dense_exchange_nullity(model, 3)
    report = check_braid_exchange_relations(model, n_max=3)
    assert report.data["lines"].keys() == lines.keys()
    assert all(_close(report.data["lines"][k], lines[k]) for k in lines), (report.data, lines)
    assert _close(report.defect, worst) and report.witness == witness, (report, witness)
    assert worst > 1.0


# ---------------------------------------------------------------------------
# the exact class: graded models of a commutation factor

# orders and bicharacter exponents; each is normalized, Z3 x Z3's and Z4 x Z4's complex
_GRADING_GROUPS = {
    "Z2": ([2], [["1/2"]]),
    "Z2xZ2": ([2, 2], [["1/2", "1/2"], ["1/2", "0"]]),
    "Z6": ([6], [["1/2"]]),
    "Z3xZ3": ([3, 3], [["0", "1/3"], ["-1/3", "0"]]),
    "Z4xZ4": ([4, 4], [["0", "1/4"], ["-1/4", "1/2"]]),
}
_TILTED = [[1, 0.3], [0.3, 1.7]]


def _graded_model(label: str, seed: int) -> ParticleModel:
    """Two or three generators of random grades, with a random pairing, complex for
    odd seeds, that links only letters of one grade."""
    orders, exponents = _GRADING_GROUPS[label]
    group, rng = make_group(orders), np.random.default_rng(seed)
    elements, n_gen = list(group.elements()), int(rng.integers(2, 4))
    grades = [elements[k] for k in rng.integers(len(elements), size=n_gen)]
    raw = rng.uniform(-1, 1, (n_gen, n_gen))
    if seed % 2:
        raw = raw + 1j * rng.uniform(-1, 1, (n_gen, n_gen))
    pairing = np.where([[a == b for b in grades] for a in grades], raw, 0)
    return make_model(group, make_bicharacter(group, exponents), grades, pairing)


def test_exact_class_of_the_zoo():
    assert {name for name in ZOO_NAMES if load_zoo(name).exchange_relations_exact} \
        == {"boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"}


@pytest.mark.parametrize("seed", range(20261019, 20261023))
@pytest.mark.parametrize("label", _GRADING_GROUPS)
def test_graded_models_satisfy_every_exchange_relation_exactly(label, seed):
    # the dense oracle computes each line and reads roundoff (the root of a
    # roundoff-sized form); the engine reports the exact 0 of the proof
    model = _graded_model(label, seed)
    n_max = 4 if model.n_generators == 2 else 3
    assert model.exchange_relations_exact
    lines, worst, _ = dense_exchange_nullity(model, n_max)
    assert worst <= 9e-7, lines
    report = check_braid_exchange_relations(model, n_max=n_max)
    assert (report.status, report.defect, report.witness) == ("pass", 0.0, None)
    assert report.data == {"lines": dict.fromkeys(lines, 0.0), "n_max": n_max}


def _near_misses() -> dict[str, ParticleModel]:
    """Models that fail one condition of the exact class each."""
    trivial, z2 = make_group([]), make_group([2])
    half = make_bicharacter(z2, [["1/2"]])
    return {
        "pairing-across-grades": make_model(z2, half, [[1], [0]], _TILTED),
        "anyon_z4": load_zoo("anyon_z4"),          # not normalized
        "quon_05": load_zoo("quon_05"),            # an explicit braid matrix
        "fermion2-minus": make_model(z2, half, [[1], [1]], _TILTED, expansion_sign=-1),
        "q-swap-tilted": make_model(trivial, Bicharacter.trivial(trivial), [[], []], _TILTED,
                                    q_swap_braid(2, 1.0)),
        **_minus_models(),
    }


@pytest.mark.parametrize("label", ["pairing-across-grades", "anyon_z4", "quon_05", "fermion2-minus",
                                   "q-swap-tilted", "quon-minus", "fermion3-minus"])
def test_near_misses_of_the_exact_class_are_computed(label):
    # q-swap-tilted's relations hold, yet its create-create line is computed:
    # both sides read the same 3.37e-07, the root of a roundoff-sized form
    model = _near_misses()[label]
    assert not model.exchange_relations_exact
    n_max = 4 if model.n_generators <= 2 else 3
    lines, worst, witness = dense_exchange_nullity(model, n_max)
    report = check_braid_exchange_relations(model, n_max=n_max)
    assert all(_close(report.data["lines"][k], lines[k]) for k in lines), (report.data, lines)
    assert _close(report.defect, worst) and report.witness == witness, (report, witness)
    assert worst > (1e-7 if label == "q-swap-tilted" else 1.0)


def test_tilted_fermion2_passes_exchange_nullity(tmp_path, capsys):
    # fermion2 with a pairing inside its one grade: the computed create-create
    # line read 7.857e-09, the root of a roundoff-sized form, and failed
    from braidstat.cli import main as cli_main
    doc = json.loads(zoo_path("fermion2").read_text())
    doc["generators"]["pairing"] = _TILTED
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check", str(path), "--json"]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
    assert (rows["exchange-nullity"]["status"], rows["exchange-nullity"]["defect"]) == ("pass", 0.0)


@pytest.mark.parametrize("name", ["boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"])
def test_the_exact_class_builds_nothing_for_its_exchange_row(monkeypatch, name):
    # the tower to n_max was built and thrown away: boson at 14 was refused, its
    # Gram blocks of sectors 0..14 needing 320070024 bytes, over the guard
    def refused(*args, **kwargs):
        raise AssertionError("built for an exact 0")

    monkeypatch.setattr(fock, "GramResult", refused)
    monkeypatch.setattr(fock, "_tower", refused)
    model = load_zoo(name)
    report = check_braid_exchange_relations(model, n_max=3)
    assert (report.status, report.defect, report.witness) == ("pass", 0.0, None)
    assert report.data == {"lines": dict.fromkeys(("create-create", "annihilate-annihilate", "mixed"), 0.0),
                           "n_max": 3}
    with pytest.raises(ValueError, match="sector must be >= 0, got -1"):
        check_braid_exchange_relations(model, n_max=-1)
    if name == "boson":
        report = check_braid_exchange_relations(model, n_max=14)
        assert (report.status, report.defect, report.data["n_max"]) == ("pass", 0.0, 14)
        with pytest.raises(ResourceLimitError, match="sector size 2\\^17 exceeds the guard of 100000"):
            check_braid_exchange_relations(model, n_max=17)


# ---------------------------------------------------------------------------
# the contractive q-models: positive definite by theorem


def _q_model(q, pairing=None, sign=1) -> ParticleModel:
    """Generators of the trivial grading with the braid ``R[i, j, j, i] = q[i][j]``, whose
    derived cross term of ``(i, j)`` is ``(i, j, q[i][j])``, and the unit pairing unless given."""
    q = np.asarray(q, dtype=complex)
    n_gen, trivial = len(q), make_group([])
    coupling = np.zeros((n_gen,) * 4, dtype=complex)
    for i in range(n_gen):
        for j in range(n_gen):
            coupling[i, j, j, i] = q[i, j]
    return make_model(trivial, Bicharacter.trivial(trivial), [[]] * n_gen,
                      np.eye(n_gen) if pairing is None else pairing, BraidMatrix(coupling),
                      expansion_sign=sign)


def _contractive_model(seed: int) -> ParticleModel:
    """Two or three generators with ``q_ji = conj(q_ij)``, complex off the diagonal and
    real on it, each ``|q| <= 0.95``, and a diagonal pairing in [0.3, 3]."""
    rng = np.random.default_rng(seed)
    n_gen = int(rng.integers(2, 4))
    upper = np.triu(0.95 * np.sqrt(rng.uniform(size=(n_gen, n_gen)))
                    * np.exp(2j * np.pi * rng.uniform(size=(n_gen, n_gen))), 1)
    q = upper + upper.conj().T + np.diag(rng.uniform(-0.95, 0.95, n_gen))
    return _q_model(q, np.diag(rng.uniform(0.3, 3, n_gen)))


_Q05 = [[0.5, 0.5], [0.5, 0.5]]


def _contractive_near_misses() -> dict[str, ParticleModel]:
    """Models that fail one condition of the contractive class each."""
    trivial = make_group([])
    two_terms = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            two_terms[i, j, i, j], two_terms[i, j, j, i] = 0.5, 0.1
    return {
        "q-swap-1": _q_model([[1, 1], [1, 1]]),                     # |q| = 1: boson's Gram
        "unit-modulus": _q_model([[0.5, 1j], [-1j, 0.5]]),          # |q_12| = 1 exactly
        "not-conjugate": _q_model([[0.5, 0.5j], [0.5j, 0.5]]),      # q_21 != conj(q_12)
        "two-cross-terms": make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                                      q_swap_braid(2, 0.5), CrossMatrix(two_terms)),
        "minus": _q_model(_Q05, sign=-1),
        "complex-pairing": _q_model(_Q05, np.diag([1 + 0.5j, 1.0])),  # not Hermitian
        "mixed-tilted": _mixed_quon(0.9, 0.5),                         # links different q-rows
    }


def test_contractive_class_of_the_zoo():
    assert {name for name in ZOO_NAMES if (load_zoo(name).gram_class or [None])[0] == "contractive"} \
        == {"quon_03", "quon_05", "quon_09"}
    # an explicit cross coupling with no term for (1, 1) or (2, 2): q = 0 there
    trivial, cross = make_group([]), np.zeros((2, 2, 2, 2), dtype=complex)
    cross[0, 1, 0, 1], cross[1, 0, 1, 0] = 0.3j, -0.3j
    model = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.diag([2.0, 0.5]),
                       q_swap_braid(2, 0.5), CrossMatrix(cross))
    assert model.cross_terms[1, 1] == () and model.gram_class[0] == "contractive"
    assert [sector_dimension(model, n) for n in range(4)] == [(2 ** n, 2 ** n) for n in range(4)]
    assert all(gram_matrix(model, n).quotient_rank(1e-9) == 2 ** n for n in range(6))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, -0.7])
def test_distinct_letter_block_has_zagiers_determinant(q):
    # n generators, one q: the block of the words of n distinct letters is Zagier's matrix
    for n in range(1, 5):
        model = _q_model(np.full((n, n), q))
        assert model.gram_class[0] == "contractive"
        block = next(b for b in gram_matrix(model, n).blocks if len(set(b.words[0])) == n)
        assert len(block.words) == math.factorial(n)
        sign, logdet = np.linalg.slogdet(block.matrix)
        assert sign == 1 and logdet == pytest.approx(math.log(zagier_determinant(q, n)), abs=1e-9), n


def test_the_tower_is_positive_definite_where_the_theorem_answers():
    # 60 random class models: the computed spectrum agrees with the theorem, every
    # sector counted full rank with a positive least eigenvalue
    for seed in range(20261020, 20261080):
        model = _contractive_model(seed)
        assert model.gram_class[0] == "contractive", seed
        for result, _ in fock._tower(model, 5 if model.n_generators == 2 else 4):
            rows = model.n_generators ** result.sector
            rank, report = result.quotient_rank(1e-9), result.psd_report(1e-9)
            assert fock._rank(None, lambda: result, 1e-9)[0] == rank == rows, seed
            assert report.passed and report.data["min_eigenvalue"] > 0, seed
            assert sector_dimension(model, result.sector) == (rows, rows)


@pytest.mark.parametrize("label", list(_contractive_near_misses()))
def test_near_misses_of_the_contractive_class_are_computed(label, monkeypatch):
    model, towers = _contractive_near_misses()[label], []
    tower = fock._tower
    monkeypatch.setattr(fock, "_tower", lambda *args: towers.append(args[1]) or tower(*args))
    assert model.gram_class is None
    for n in range(5):
        towers.clear()
        _compare_with_dense_oracle(model, n, rel=1e-14)
        assert gram_matrix(model, n).theorem is None and n in towers


def _refused(*args, **kwargs):
    raise AssertionError("built for a rank the theorem gives")


@pytest.mark.parametrize("name", ["quon_03", "quon_05", "quon_09"])
def test_the_contractive_class_builds_nothing_for_its_rank(monkeypatch, name):
    # quon_09 read 252, 458 and 752 at sectors 8-10, and quon_05 at sector 14 was refused
    model = load_zoo(name)
    assert model.gram_class[0] == "contractive"  # the pairing's eigenvalues, read once per model
    monkeypatch.setattr(fock, "_tower", _refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refused)
    for n in range(17):  # 2^16 words, the last sector the word guard admits
        assert sector_dimension(model, n) == (2 ** n, 2 ** n)
    assert sector_dimension(model, 4, tol=0.5) == (16, 16)  # tol does not enter the theorem's rank
    with pytest.raises(ValueError, match="sector must be >= 0, got -1"):
        sector_dimension(model, -1)
    with pytest.raises(ResourceLimitError, match=r"sector size 2\^17 exceeds the guard"):
        sector_dimension(model, 17)


@pytest.mark.parametrize("q, pairing, n", [
    (0.5, np.diag([0.01, 0.01]), 6),    # read 0 at sectors 5 and 6
    (0.9, np.diag([0.01, 1.0]), 6),     # read 27 at sector 6
    (0.5, np.diag([1e-6, 1.0]), 4),     # read 5 at sector 4
    (0.9, np.eye(2), 8),                # quon_09: read 252 at sector 8
])
def test_every_reading_of_a_contractive_rank_is_the_theorems(q, pairing, n):
    model = _q_model(np.full((2, 2), q), pairing)
    dims = fock._fock_checks(model, n, 1e-9)[1]
    assert [row["quotient"] for row in dims] == [2 ** k for k in range(n + 1)]
    assert fock._rank(gram_matrix(model, n).theorem, None, 1e-9) == (2 ** n, "contractive")
    assert gram_matrix(model, n).quotient_rank(1e-9) == 2 ** n
    assert sector_dimension(model, n) == (2 ** n, 2 ** n)


_ORTHOGONAL = {2: [[(1, 1), (1, -1)], [(1, 0), (0, 1)]],
               3: [[(1, 1, 0), (1, -1, 0)], [(1, 1, 1), (1, 1, -2)], [(1, 1, 1), (1, -1, 0)]]}


def _factorized_model(seed: int) -> ParticleModel:
    """A contractive q-model of two or three generators: one q from [-0.9, 0.9] on a positive
    definite diagonal, singular positive semidefinite, indefinite, complex Hermitian or tilted
    positive definite pairing; or, on a diagonal pairing of the first three kinds (singular of
    either sign), a q-matrix with ``q_ji = conj(q_ij)`` and ``|q| <= 0.9``, each letter its own
    block.  Every nonzero eigenvalue of the pairing has a magnitude in [0.5, 2], so the tower's
    count is reliable to sector 5; a singular tilted pairing is ``sum_k c_k v_k v_k^T`` over
    orthogonal integer vectors with dyadic ``c_k``, so its zero eigenvalues are exact."""
    rng = np.random.default_rng(seed)
    n_gen, kind, uniform = 2 + seed % 2, seed // 2 % 5, seed // 10 % 2 == 0
    sizes = rng.uniform(0.5, 2, n_gen)
    if uniform:
        q = np.full((n_gen, n_gen), rng.uniform(-0.9, 0.9))
    else:
        kind %= 3
        shape = (n_gen, n_gen)
        upper = np.triu(0.9 * rng.uniform(size=shape) * np.exp(2j * np.pi * rng.uniform(size=shape)), 1)
        q = upper + upper.conj().T + np.diag(rng.uniform(-0.9, 0.9, n_gen))
    if kind == 0:
        return _q_model(q, np.diag(sizes))
    if kind == 1:
        if not uniform:
            return _q_model(q, np.diag(rng.permutation([0.0, *sizes[1:] * rng.choice([-1, 1], n_gen - 1)])))
        pairs = _ORTHOGONAL[n_gen]
        vectors = np.array(pairs[rng.integers(len(pairs))])[:rng.integers(1, n_gen), rng.permutation(n_gen)]
        return _q_model(q, sum(rng.integers(1, 4) / 4 * np.outer(v, v) for v in vectors).astype(float))
    signs = np.resize([-1, 1], n_gen) if kind == 2 else rng.choice([-1, 1], n_gen) if kind == 3 \
        else np.ones(n_gen)
    if not uniform:
        return _q_model(q, np.diag(signs * sizes))
    raw = rng.normal(size=(n_gen, n_gen)) + (1j * rng.normal(size=(n_gen, n_gen)) if kind == 3 else 0)
    u = np.linalg.qr(raw)[0]
    pairing = u @ np.diag(signs * sizes) @ u.conj().T
    return _q_model(q, (pairing + pairing.conj().T) / 2)


_TWIST = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2  # unitary, with dyadic entries


def _dense_factorized_model(seed: int) -> ParticleModel:
    """A one-q model of four or five generators on a dense complex Hermitian pairing ``U D U^H``:
    positive definite, exactly singular of either sign, or indefinite.  ``U`` is a product of ``_TWIST``s and
    phases ``i^k`` on random letter pairs, so its entries and those of the pairing are dyadic and
    exact, and the pairing's eigenvalues are exactly the ``D`` drawn from {0, +-0.5, +-1, +-2}."""
    rng = np.random.default_rng(seed)
    n_gen, kind = 4 + seed % 2, seed // 2 % 3
    u = np.eye(n_gen, dtype=complex)
    for _ in range(3 * n_gen):
        j, k = rng.choice(n_gen, 2, replace=False)
        u[[j, k]] = np.diag([1, 1j ** rng.integers(4)]) @ _TWIST @ u[[j, k]]
    signs = np.resize([-1, 1], n_gen) if kind == 2 else rng.choice([-1, 1], n_gen) if kind == 1 \
        else np.ones(n_gen)
    d = rng.choice([0.5, 1.0, 2.0], n_gen) * rng.permutation(signs)
    if kind == 1:
        d[rng.permutation(n_gen)[:rng.integers(1, n_gen)]] = 0
    return _q_model(np.full((n_gen, n_gen), rng.uniform(-0.9, 0.9)), (u * d) @ u.conj().T)


@pytest.mark.filterwarnings("error")
def test_the_factorization_equals_the_tower_on_random_contractive_models():
    # the tower, with no theorem, stays the oracle: its count, sign, asymmetry and least eigenvalue
    kinds = set()
    sweep = [(seed, _factorized_model) for seed in range(20261401, 20261601)] \
        + [(seed, _dense_factorized_model) for seed in range(20263501, 20263531)]
    for seed, build in sweep:
        model = build(seed)
        assert model.gram_class[0] == "contractive", seed
        theorems = fock._theorems(model, 5)
        for result, _ in fock._tower(model, {2: 5, 3: 4}.get(model.n_generators, 3)):
            n, theorem = result.sector, theorems[result.sector]
            assert result.theorem == theorem and result.asymmetry == 0.0, (seed, n)
            bare = fock.GramResult(n, model.n_generators, result._layout, result._matrices, result.dtype)
            assert bare.asymmetry <= 1e-12 * bare.scale, (seed, n)
            least, cut = float(np.concatenate(bare.spectrum).min()), 1e-9 * bare.scale
            counted = fock._rank(None, lambda: bare, 1e-9)[0]
            assert theorem.rank == counted == sector_dimension(model, n).quotient, (seed, n)
            assert theorem.negative == (least < -cut) == gram_psd_check(model, n).failed, (seed, n)
            assert theorem.negative or least > -cut, (seed, n)
            if theorem.least is not None:
                assert abs(theorem.least - least) <= cut, (seed, n)
            kinds.add((build, theorem.rank < model.n_generators ** n, theorem.negative))
    assert kinds == {(build, singular, negative) for _, build in sweep
                     for singular in (False, True) for negative in (False, True)}


@pytest.mark.parametrize("pairing, ranks", [
    (_TILTED, {8: 256, 9: 512, 10: 1024}),        # read 227, 352 and 493
    (np.diag([-1.0, 1.0]), {8: 256}),             # read 252
    ([[1.0, 2.0], [2.0, 1.0]], {7: 128, 8: 256}),  # read 122 and 195
    (np.diag([0.0, 1.0]), {8: 1}),                # singular: the least eigenvalue is exactly 0
])
def test_quon_09_on_a_tilted_or_indefinite_pairing_ranks_by_the_theorem(pairing, ranks, monkeypatch):
    model = _q_model(np.full((2, 2), 0.9), pairing)
    monkeypatch.setattr(fock, "_tower", _refused)
    for n, rank in ranks.items():
        assert sector_dimension(model, n) == (2 ** n, rank), n
        if rank < 2 ** n:
            assert gram_psd_check(model, n).data == {"sector": n, "min_eigenvalue": 0.0}
    monkeypatch.undo()
    negative = np.linalg.eigvalsh(pairing).min() < 0
    for tol in (1e-9, 1.0, 1e9):  # an indefinite pairing fails gram-psd at any tol
        assert gram_psd_check(model, 3, tol).failed == negative, tol


def test_check_reads_no_least_eigenvalue_where_the_theorem_rules_out_a_negative_one(monkeypatch):
    reads, spectrum, least_in = [], fock.GramResult.spectrum.func, fock.GramResult._least_in
    monkeypatch.setattr(fock.GramResult, "spectrum",
                        property(lambda self: reads.append(self.sector) or spectrum(self)))
    monkeypatch.setattr(fock.GramResult, "_least_in",
                        lambda self, key: reads.append(self.sector) or least_in(self, key))
    rows, _ = fock._fock_checks(load_zoo("quon_05"), 5, 1e-9)
    psd = next(row for row in rows if row.name == "gram-psd")
    assert reads == [0]
    assert (psd.status, psd.defect, psd.data) == ("pass", 0.0, {"sector": 0, "min_eigenvalue": 1.0})
    reads.clear()
    rows, _ = fock._fock_checks(_q_model(_Q05, np.diag([-1.0, 1.0])), 5, 1e-9)
    assert reads == list(range(6)) and next(row for row in rows if row.name == "gram-psd").failed


def test_the_contractive_class_is_hermitian_by_the_theorem(capsys):
    # quon_03's sector 4 has a roundoff asymmetry of 2.8e-17: at --tol 0 it failed
    # gram-hermitian and skipped its rank, and quotient_rank(0.0) raised
    from braidstat.cli import main as cli_main
    model = load_zoo("quon_03")
    assert gram_matrix(model, 4).quotient_rank(0.0) == 16
    assert cli_main(["check", str(zoo_path("quon_03")), "--tol", "0", "--nmax", "4", "--json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
    assert (rows["gram-hermitian"]["status"], rows["gram-hermitian"]["defect"]) == ("pass", 0.0)
    assert rows["gram-psd"]["status"] == "pass"


# ---------------------------------------------------------------------------
# the colour-symmetric class: each sector in closed form from the pairing's grade blocks

_EIGENVALUES = (1.0, -1.0, 0.0, 2.5, 0.3)


def _colour_model(seed: int) -> tuple[ParticleModel, list[tuple[float, bool]]]:
    """A graded model of a commutation factor of 2-4 generators whose grade blocks are
    Hermitian, complex for odd seeds, with eigenvalues drawn from ``_EIGENVALUES``, and those
    eigenvalues as ``(mu, self-phase -1)``.  Each block is a diagonal with disjoint pairs of
    entries ``x, y`` mixed into ``[[p, q c], [q conj(c), p]]``, ``p = (x + y) / 2``,
    ``q = (x - y) / 2``, ``c`` in {1, -1} or {i, -i}, then permuted: where ``x`` or ``y`` is
    0 the stored block has the exact 0, and the other eigenvalues move by roundoff."""
    rng = np.random.default_rng(seed)
    orders, exponents = _GRADING_GROUPS[list(_GRADING_GROUPS)[seed % len(_GRADING_GROUPS)]]
    group = make_group(orders)
    eps = make_bicharacter(group, exponents)
    elements = list(group.elements())
    pool = [elements[k] for k in rng.integers(len(elements), size=2)]
    n_gen = int(rng.integers(2, 5))
    grades = [pool[k] for k in rng.integers(2, size=n_gen)]
    pairing, eigenvalues = np.zeros((n_gen, n_gen), dtype=complex), []
    for grade in dict.fromkeys(grades):
        at = [i for i, g in enumerate(grades) if g == grade]
        mu = rng.choice(_EIGENVALUES, size=len(at))
        block = np.diag(mu).astype(complex)
        for a in range(0, len(at) - 1, 2):
            if rng.integers(2):
                p, q = (mu[a] + mu[a + 1]) / 2, (mu[a] - mu[a + 1]) / 2
                c = (1j if seed % 2 else 1) * (-1) ** int(rng.integers(2))
                block[a:a + 2, a:a + 2] = [[p, q * c], [q * c.conjugate(), p]]
        order = rng.permutation(len(at))
        pairing[np.ix_(at, at)] = block[np.ix_(order, order)]
        once = eps.phase(grade, grade).exponent != 0
        eigenvalues += [(float(x), once) for x in mu]
    return make_model(group, eps, grades, pairing), eigenvalues


def _closed_form_spectrum(eigenvalues: list[tuple[float, bool]], n: int) -> list[float]:
    """The nonzero eigenvalues of ``G_n``: ``n!`` times each product over a multiset of ``n``
    eigenvalue letters in which no letter of self-phase -1 repeats."""
    spectrum = []
    for letters in itertools.combinations_with_replacement(range(len(eigenvalues)), n):
        if all(letters.count(k) == 1 for k in set(letters) if eigenvalues[k][1]):
            value = math.factorial(n) * math.prod(eigenvalues[k][0] for k in letters)
            if value:
                spectrum.append(value)
    return sorted(spectrum)


def test_the_closed_form_equals_the_tower_on_random_class_models():
    # 200 models over five grading groups: the tower, which stays the oracle, has the
    # closed form's rank, inertia and nonzero spectrum to 1e-9 relative
    for seed in range(20261101, 20261301):
        model, eigenvalues = _colour_model(seed)
        assert model.gram_class[0] == "colour-symmetric", seed
        theorems = fock._theorems(model, 4)
        for result, _ in fock._tower(model, 4):
            n, rows = result.sector, model.n_generators ** result.sector
            want = _closed_form_spectrum(eigenvalues, n)
            computed = np.sort(np.concatenate(result.spectrum))
            scale = max(1.0, float(np.abs(computed).max()))
            nonzero = computed[np.abs(computed) > 1e-9 * scale]
            assert len(nonzero) == len(want) == theorems[n].rank == fock._rank(None, lambda: result, 1e-9)[0], (seed, n)
            assert np.allclose(nonzero, want, rtol=0, atol=1e-9 * scale), (seed, n)
            assert theorems[n].negative == (nonzero < 0).any() == (min(want, default=0.0) < 0), (seed, n)
            least = min(want + [0.0] * (len(want) < rows))
            assert abs(theorems[n].least - least) <= 1e-9 * scale, (seed, n)
            assert sector_dimension(model, n).quotient == len(want), (seed, n)
            assert gram_psd_check(model, n).failed == theorems[n].negative, (seed, n)


@pytest.mark.parametrize("name", ["boson", "fermion1", "fermion2", "fermion3", "z2z2_fermion"])
def test_the_colour_symmetric_class_builds_no_tower_for_its_rank_or_gram_psd(monkeypatch, name):
    # sector_dimension(boson, 13) took 2.0 s, and boson at sector 14 was refused
    def refused(*args, **kwargs):
        raise AssertionError("built for a sector the closed form reads")

    model = load_zoo(name)
    monkeypatch.setattr(fock, "_tower", refused)
    last = {1: 100_000, 2: 16, 3: 10}[model.n_generators]  # the last sector the word guard admits
    for n in list(range(9)) + [last]:
        rows, want = model.n_generators ** n, colour_symmetric_dimension(model, n)
        assert sector_dimension(model, n) == (rows, want), n
        report = gram_psd_check(model, n)  # eigenvalues n! and 0, the unit pairing's
        assert report.passed, n
        assert report.data["min_eigenvalue"] == (0.0 if want < rows else math.factorial(n)), n
    with pytest.raises(ResourceLimitError, match="exceeds the guard"):
        sector_dimension(model, last + 1)
    assert model.gram_class[0] == fock._theorems(model, 2)[2].source == "colour-symmetric"


@pytest.mark.parametrize("name, n_max", [("fermion1", 100_000), ("fermion2", 5), ("fermion3", 6),
                                         ("boson", 5), ("z2z2_fermion", 5)])
def test_check_builds_no_tower_on_the_colour_symmetric_class(monkeypatch, name, n_max):
    # check fermion1.json --nmax 100000 built a tower to sector 1 and read the rest off the
    # closed form; boson's gram-psd row reported sector 4 at a roundoff of -1.6e-15
    def refused(*args, **kwargs):
        raise AssertionError("built for a sector the closed form reads")

    monkeypatch.setattr(fock, "_tower", refused)
    model = load_zoo(name)
    rows, dims = fock._fock_checks(model, n_max, 1e-9)
    assert len(dims) == n_max + 1
    assert [row["quotient"] for row in dims[:7] + dims[-1:]] == [
        colour_symmetric_dimension(model, n) for n in [*range(min(7, n_max + 1)), n_max]]
    assert all(row.status == "pass" for row in rows), name
    psd = next(row for row in rows if row.name == "gram-psd")
    assert (psd.defect, psd.data) == (0.0, {"sector": 0, "min_eigenvalue": 1.0})


def _boson(pairing) -> ParticleModel:
    trivial = make_group([])
    return make_model(trivial, Bicharacter.trivial(trivial), [[], []], pairing)


@pytest.mark.parametrize("pairing, sectors, ranks", [
    (np.diag([1e-6, 1.0]), range(2, 9), [3, 4, 5, 6, 7, 8, 9]),   # read 2 at every n >= 2
    (0.01 * np.eye(2), range(6, 9), [7, 8, 9]),                    # read 0 from sector 6
])
def test_every_reading_of_a_class_rank_is_the_closed_forms(pairing, sectors, ranks):
    model, n = _boson(pairing), max(sectors)
    assert [sector_dimension(model, k).quotient for k in sectors] == ranks
    dims = fock._fock_checks(model, n, 1e-9)[1]
    assert [dims[k]["quotient"] for k in sectors] == ranks
    assert fock._rank(gram_matrix(model, n).theorem, None, 1e-9) == (n + 1, "colour-symmetric")
    assert gram_matrix(model, n).quotient_rank(1e-9) == n + 1


@pytest.mark.parametrize("tol", [1e-9, 1.0, 1e9])
def test_a_negative_grade_eigenvalue_fails_gram_psd_at_any_tol(tol):
    # boson with pairing diag(-1, 1): G_n has the eigenvalue -n! from sector 1 on;
    # relative to its largest entry, a tol of 1 or more passed it
    model = _boson(np.diag([-1.0, 1.0]))
    assert gram_psd_check(model, 0, tol).passed
    for n in range(1, 6):
        report = gram_psd_check(model, n, tol)
        assert report.failed and report.data["min_eigenvalue"] == -math.factorial(n), n
        assert gram_matrix(model, n).psd_report(tol).failed, n
    rows = fock._fock_checks(model, 5, tol)[0]
    assert next(row for row in rows if row.name == "gram-psd").failed


def test_grade_block_inertia_is_exact():
    # the eigenvalue 2^-54 of [[1, 1], [1, 1 + 2^-52]] lies below roundoff, yet is positive,
    # and a complex block is read through its real form
    from braidstat.models import _inertia
    tiny = 1 + 2.0 ** -52
    cases = [(np.eye(3), (3, 0)), (np.diag([1.0, -2.0, 0.0]), (1, 1)), (np.zeros((2, 2)), (0, 0)),
             (np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 1)), (np.array([[1.0, 1.0], [1.0, tiny]]), (2, 0)),
             (np.array([[1.0, 1.0], [1.0, 1.0]]), (1, 0)), (np.array([[1, 1j], [-1j, 1]]), (1, 0)),
             (np.array([[2, 1j], [-1j, -3]]), (1, 1)), (np.array([[1, 1j], [-1j, -1]]), (1, 1))]
    for block, want in cases:
        assert _inertia(block) == want, block
    model = _boson([[1.0, 1.0], [1.0, tiny]])
    assert [sector_dimension(model, n).quotient for n in range(5)] == [1, 2, 3, 4, 5]


def test_a_congruent_block_has_the_inertia_of_its_diagonal():
    # Sylvester's law: S D S^H, S invertible, has the inertia of the diagonal D.  Seeded blocks of
    # 1 to 8 letters: S unit lower triangular times a permutation over the integers (real) or the
    # Gaussian integers (complex), so every entry is an exact integer, and D an integer diagonal
    # with zeros; S = I carries zeros, -0.0, subnormals and +-1e300.  A Hadamard matrix with its
    # rows times i^k on a diagonal of pairs k, -k makes a zero diagonal
    from braidstat.models import _inertia
    rng = np.random.default_rng(20261035)
    pool = [0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, 2.0 ** -1040, -(2.0 ** -1030), 1e300, -1e300, -1e-300]
    for trial in range(300):
        n, complex_ = int(rng.integers(1, 9)), trial % 2
        if trial % 3 == 0:
            d = rng.choice(pool, n)
            block = np.diag(d)
        else:
            d = rng.integers(-3, 4, n)
            lower = rng.integers(-2, 3, (n, n)) + (1j * rng.integers(-2, 3, (n, n)) if complex_ else 0)
            s = (np.tril(lower, -1) + np.eye(n))[rng.permutation(n)]
            block = (s * d) @ s.conj().T
        block = block.astype(complex if complex_ else float)
        assert _inertia(block) == (int(np.sum(d > 0)), int(np.sum(d < 0))), (trial, d)
    hadamard = np.array([[1, 1], [1, -1]])
    assert _inertia((hadamard * [1.0, -1.0]) @ hadamard.T) == (1, 1)
    for h in [hadamard] * 10 + [np.kron(hadamard, hadamard)] * 10:
        pairs = len(h) // 2
        d = rng.permutation(np.repeat(rng.integers(1, 4, pairs), 2) * np.resize([1, -1], len(h)))
        s = 1j ** rng.integers(4, size=(len(h), 1)) * h
        block = (s * d) @ s.conj().T
        assert not block.diagonal().any() and _inertia(block) == (pairs, pairs), block
    assert _inertia(np.array([[1.0, 5e-324], [5e-324, -1.0]])) == (1, 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-3])
@pytest.mark.parametrize("call", [
    lambda tol: sector_dimension(load_zoo("quon_05"), 4, tol),
    lambda tol: gram_psd_check(load_zoo("quon_05"), 4, tol),
    lambda tol: commutator_defect(load_zoo("quon_05"), 1, 2, 2, tol),
    lambda tol: check_braid_exchange_relations(load_zoo("fermion2"), 3, tol),
    lambda tol: check_infinite_statistics(load_zoo("boson"), 3, tol),
], ids=["sector-dimension", "gram-psd", "commutator-defect", "exchange-relations", "infinite-statistics"])
def test_public_fock_functions_hold_tol_to_the_tol_rule(call, tol):
    # a NaN tol raised a HermiticityError of asymmetry 0, skipped gram-psd, and
    # failed an exchange-nullity defect of exactly 0
    with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol!r}"):
        call(tol)
    call(0.0)


# ---------------------------------------------------------------------------
# the arithmetic type


def test_scalar_type_of_the_zoo():
    # +-1 gradings and real q are real; anyon_z4's phases are not
    assert {name: load_zoo(name).scalar_type for name in ZOO_NAMES} \
        == {name: complex if name == "anyon_z4" else float for name in ZOO_NAMES}


@pytest.mark.parametrize("name", ["boson", "quon_05", "anyon_z4"])
def test_engine_computes_and_hands_out_grams_in_the_scalar_type(name):
    model = load_zoo(name)
    dtype = np.dtype(model.scalar_type)
    grams, _, forms = fock._fock_pass(model, 2)
    assert {hop.dtype for _, hops in fock._tower(model, 4, 2) for block in hops
            for _, hop, _ in block.values()} == {dtype}
    if (model.gram_class or [None])[0] == "colour-symmetric":  # the closed form reads every Gram row
        assert grams == []
    else:
        assert {g.dtype for result in grams for g in result._matrices.values()} == {dtype}
    assert {g.dtype for result, _ in fock._tower(model, 2) for g in result._matrices.values()} == {dtype}
    if model.exchange_relations_exact:  # every line is exactly 0: no form is allocated
        assert forms == []
    else:
        assert {form.dtype for form in forms} == {dtype}
    result = gram_matrix(model, 3)
    assert result.matrix.dtype == dtype
    assert all(block.matrix.dtype == dtype for block in result.blocks)
    out = annihilate_twisted(model, 1, FockVector.basis((model.n_generators, 1, 1)))
    assert not out.is_zero and all(type(a) is complex for _, a in out.items())


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_every_gram_is_handed_out_in_the_scalar_type(name):
    # in every sector, including one that stores no block (fermion3 at 4)
    model = load_zoo(name)
    dtype = np.dtype(model.scalar_type)
    assert (dtype == np.complex128) == (name == "anyon_z4")
    for n in range(5):
        result = gram_matrix(model, n)
        assert result.matrix.dtype == dtype, n
        assert {block.matrix.dtype for block in result.blocks} == {dtype}, n
    assert name != "fermion3" or not result._matrices


def test_dense_gram_of_a_real_model_takes_8_bytes_an_entry():
    # quon_05's sector 10: a 1024 x 1024 float64 matrix is 8 MiB (16 MiB as
    # complex128); the bound leaves 1 MiB for the index arrays that fill it
    import tracemalloc
    result = gram_matrix(load_zoo("quon_05"), 10)
    tracemalloc.start()
    try:
        result.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 << 20


def _one_complex_entry_models():
    """Real q-swap models but for one non-real entry, in the pairing or in the
    cross coupling."""
    trivial = make_group([])
    eps = Bicharacter.trivial(trivial)
    braid = q_swap_braid(2, 0.5)
    cross = braid.coupling.transpose(0, 1, 3, 2).copy()
    cross[0, 1, 1, 0] = 0.4j
    return {
        "complex-pairing": make_model(trivial, eps, [[], []], [[1, 0.3j], [-0.3j, 1]], braid),
        "complex-cross-term": make_model(trivial, eps, [[], []], np.eye(2), braid,
                                         CrossMatrix(cross)),
    }


@pytest.mark.parametrize("label", ["complex-pairing", "complex-cross-term"])
def test_one_non_real_entry_keeps_a_model_complex(label):
    model = _one_complex_entry_models()[label]
    assert model.scalar_type is complex
    for n in range(5):
        _compare_with_dense_oracle(model, n, rel=1e-12)
    for n in range(4):
        defects = np.linalg.norm(dense_commutator_residuals(model, n), axis=2)
        for i in (1, 2):
            for j in (1, 2):
                assert _close(commutator_defect(model, i, j, n).defect,
                              float(defects[i - 1, j - 1].max())), (i, j, n)
    lines, worst, _ = dense_exchange_nullity(model, 3)
    report = check_braid_exchange_relations(model, n_max=3)
    assert all(_close(report.data["lines"][k], lines[k]) for k in lines), (report.data, lines)
    assert _close(report.defect, worst)


def test_ladder_guard_trips_before_the_level_is_allocated(monkeypatch):
    import tracemalloc
    # a dense cross coupling and one block per sector: the two complex annihilator
    # blocks of sector m take 2 x 2^(m-1) x 2^m x 16 bytes, 1 MiB at sector 8 and
    # 4 MiB at sector 9; s = -1, since commutator_defect builds no block for s = +1.
    # The residual of sector n is the hop terms of the blocks of sector n + 1, and
    # the guard counts them so
    model = _mixing_models()["minus-expansion"]
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 1 << 21)
    commutator_defect(model, 1, 1, 7)                 # the residual's blocks are those of sector 8
    assert commutator_defect(_mixing_models()["random-R"], 1, 1, 9).passed  # s = +1: no block
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="annihilator blocks of sector 9 need 4194304 bytes"):
            commutator_defect(model, 1, 1, 8)         # the residual's blocks
        with pytest.raises(ResourceLimitError, match="annihilator blocks of sector 9 need 4194304 bytes"):
            commutator_defect(model, 1, 1, 9)         # the blocks themselves
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # sector 8's blocks (1 MiB), the first block of sector 9, which the guard admits
    # (2 MiB), and the temporaries that build and read it: the second block, 2 MiB
    # more, is refused before it is allocated
    assert peak < 4.75 * (1 << 20), peak


# ---------------------------------------------------------------------------
# programs


def test_apply_program_examples():
    m = load_zoo("fermion2")
    assert apply_program(m, [Create(1), Create(2)], FockVector.vacuum()) \
        == FockVector.basis((2, 1))
    assert apply_program(m, [Create(1), Create(2), Exchange(1)], FockVector.vacuum()) \
        == FockVector({(1, 2): -1.0})
    assert apply_program(m, [Create(1), Create(2), Exchange(1), AnnihilateTwisted(2)],
                         FockVector.vacuum()) == FockVector.basis((1,))


def test_apply_program_refuses_an_unknown_step():
    with pytest.raises(ValueError, match="unknown program step 'c1'"):
        apply_program(load_zoo("fermion2"), ["c1"], FockVector.vacuum())


def test_a_layout_cut_to_one_weight_block_places_no_word():
    layout = fock._layout(load_zoo("quon_05"), 4, within=(1, 1, 2, 2))
    assert layout.keys[-1] == (1, 1, 2, 2)
    with pytest.raises(ValueError, match="places no word"):
        layout.block


def test_an_exchange_step_sums_its_words_in_one_vector(monkeypatch):
    # adding one braided word at a time to a FockVector copied the growing sum
    # per word: 4,096 terms took 2.2 s.  A random real braid mixes every pair,
    # so x1..x7 spread one word over the 2^8 words of its first 8 letters
    trivial = make_group([])
    model = make_model(trivial, Bicharacter.trivial(trivial), [[], []], np.eye(2),
                       BraidMatrix(np.random.default_rng(1).normal(size=(4, 4)) + 3 * np.eye(4)))
    program = [Exchange(p) for p in range(1, 8)]
    state = FockVector.basis((1, 2, 1, 2, 2, 1, 1, 2, 1, 2))
    want = state
    for step in program:  # per word, term by term, as the step documents
        out = {}
        for w, a in want.items():
            for k, l, t in model.braid_terms[w[step.position - 1], w[step.position]]:
                u = w[:step.position - 1] + (k, l) + w[step.position + 1:]
                out[u] = out.get(u, 0.0) + a * complex(t)
        want = FockVector(out)
    monkeypatch.setattr(FockVector, "__add__", lambda self, other: pytest.fail("a vector sum per word"))
    got = apply_program(model, program, state)
    assert got.n_terms == 2 ** 8 and got == want


def test_apply_program_errors():
    m = load_zoo("fermion2")
    with pytest.raises(ValueError, match="out of range"):
        apply_program(m, [Exchange(1)], FockVector.vacuum())


def test_operators_check_the_letters_of_their_input():
    # a letter the model does not have is an error, not a word carried along
    m = load_zoo("fermion2")
    calls = [lambda v: create(m, 1, v), lambda v: annihilate_free(m, 1, v),
             lambda v: apply_program(m, [], v), lambda v: apply_program(m, [Create(1)], v)]
    for call in calls:
        for word, letter in (((0, 7), 0), ((2, 9), 9), ((9,), 9)):
            with pytest.raises(ValueError, match=f"generator index {letter} out of range 1..2"):
                call(FockVector.basis(word))


def test_fock_vector_prunes_tiny_amplitudes():
    v = FockVector({(1,): 1e-16, (2,): 1.0})
    assert v.sorted_items() == [((2,), 1.0)]
    assert (v - v).is_zero
