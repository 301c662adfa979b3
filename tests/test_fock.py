import json
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
from braidstat.fock import MAX_GRAM_BYTES, MAX_SECTOR_SIZE, _guard_ladder
from braidstat.modelfile import model_from_dict

from oracles import (banded_witness, bosonic_dimension, colour_symmetric_dimension,
                     dense_annihilators, dense_commutator_residuals, dense_exchange_nullity,
                     dense_gram, fermionic_dimension, permutation_gram_entry, q_factorial,
                     quon_gram_entry, svd_rank)


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
    # 2^70 words of length 70: the ladder indexes them with Python integers
    q = 0.9
    m = load_zoo("quon_09")
    w = (1, 2) * 35
    expected = FockVector({w[:k] + w[k + 1:]: q ** k for k in range(0, 70, 2)})
    assert (annihilate_twisted(m, 1, FockVector.basis(w)) - expected).norm() < 1e-12


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
        with pytest.raises(ResourceLimitError, match="59049x59049 complex128"):
            gram_matrix(f3, 10)                  # about 56 GB
        with pytest.raises(ResourceLimitError, match=f"6561x6561 complex128 .* {MAX_GRAM_BYTES}"):
            gram_matrix(f3, 8)                   # 689 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the block path holds blocks of at most 8!/(3!3!2!) = 560 rows
    assert sector_dimension(f3, 8) == (6561, 0)


def _z4_anyons():
    z4 = make_group([4])
    return make_model(z4, make_bicharacter(z4, [["1/4"]]), [[1]] * 3, np.eye(3))


def test_byte_guards_count_the_scalar_type():
    anyons = _z4_anyons()
    f3 = load_zoo("fermion3")
    assert (f3.scalar_type, anyons.scalar_type) == (float, complex)
    # a ladder entry is a value and two int64 index words
    entries = MAX_GRAM_BYTES // 24
    _guard_ladder(f3, 9, entries)
    with pytest.raises(ResourceLimitError, match=f"{24 * (entries + 1)} bytes"):
        _guard_ladder(f3, 9, entries + 1)
    _guard_ladder(anyons, 9, MAX_GRAM_BYTES // 32)
    with pytest.raises(ResourceLimitError, match=f"{32 * entries} bytes"):
        _guard_ladder(anyons, 9, entries)


def test_tower_byte_guard_counts_every_block_held(monkeypatch, capsys):
    # quon_05's sector m stores blocks of C(m, k) rows, C(2m, m) entries of 8
    # bytes in all: 4,707 entries for sectors 0..7, and 12,870 at sector 8,
    # whose largest block has 70 rows
    from braidstat.cli import main as cli_main
    model = load_zoo("quon_05")
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 100_000)
    assert sector_dimension(model, 7) == (128, 128)
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.8 need 108736 bytes"):
        sector_dimension(model, 8)               # 37,656 bytes below, then blocks of 8, 512,
                                                 # 6,272, 25,088 and 39,200 bytes
    # a Fock pass to sector 7: sectors 0..6 hold 10,200 bytes, and sector 7's
    # blocks take 8, 392, 3,528, 9,800 and 9,800 bytes before the guard trips
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 30_000)
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.7 need 33728 bytes"):
        check_braid_exchange_relations(model, n_max=5)
    assert cli_main(["check", str(zoo_path("quon_05")), "--nmax", "5"]) == 2
    assert "sectors 0..7 need 33728 bytes" in capsys.readouterr().err
    # complex blocks take 16 bytes an entry: the three-letter anyons' sectors
    # 0..4 allocate blocks of 1, 3, 15, 93 and 639 entries, 12,016 bytes in all
    # (their ladder levels take at most 8,640)
    anyons = _z4_anyons()
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 12_016)
    assert gram_psd_check(anyons, 4).status == "skipped"  # the Gram is not Hermitian
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 12_015)
    with pytest.raises(ResourceLimitError, match=r"sectors 0\.\.4 need 12016 bytes"):
        gram_psd_check(anyons, 4)                # the last block, of 1 entry, trips it


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


def test_zero_sectors_draw_no_further_ladder_level():
    # fermion3's Gram is exactly 0 from sector 4 on, so no block of sector 5
    # reads a product: the tower stops drawing levels after sector 4
    model = load_zoo("fermion3")
    drawn = []

    def counting(ladder):
        for m, hops in enumerate(ladder):
            drawn.append(m)
            yield hops

    grams = list(fock._tower(model, counting(fock._levels(model, 8)), 8))
    assert drawn == [0, 1, 2, 3, 4]
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
        assert all(block.matrix.dtype == np.complex128 and not block.matrix.any()
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
    # fermion2 stores no Gram block from sector 3 on, so only the create-create
    # line of sector 0 (on sector 2) and the annihilate-annihilate lines of
    # sectors 2..4 (on sectors 0..2) take a Gram norm; the mixed line has no
    # residual for s = +1
    sectors = []
    gram_norms = fock._gram_norms
    monkeypatch.setattr(fock, "_gram_norms", lambda g, e: sectors.append(g.sector) or gram_norms(g, e))
    report = check_braid_exchange_relations(load_zoo("fermion2"), n_max=4)
    assert report.passed and sectors == [2, 0, 1, 2]


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
    one = fock.GramResult(1, 2, fock._layout(model, 1), {0: np.array([[0.0, 0.0], [1.0, 0.0]])})
    shapes.clear()
    assert one.spectrum[0].tolist() == [-0.5, 0.5]
    assert shapes == [(2, 2)]


def _zoo_model(name, sign):
    doc = json.loads(zoo_path(name).read_text())
    doc["options"] = {"expansion_sign": sign}
    return model_from_dict(doc).model


def _certified_and_counted(model, n, tol=1e-9):
    """Per Hermitian sector ``0..n``: whether the shifted Cholesky proves it full
    rank, the rank it certifies, and the rank counted from the spectrum."""
    rows = []
    for result in fock._tower(model, fock._levels(model, n), n):
        assert "asymmetry" not in vars(result) and "spectrum" not in vars(result)
        if result.hermitian_within(tol):
            proved, certified = result._full_rank(tol), result.quotient_rank(tol)
            result.spectrum
            rows.append((proved, certified, result.quotient_rank(tol)))
    return rows


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_certified_rank_equals_the_spectrum_count_on_the_zoo(name, sign):
    rows = _certified_and_counted(_zoo_model(name, sign), 6 if name == "fermion3" else 8)
    assert any(proved for proved, _, _ in rows)  # sectors 0 and 1 at least
    assert all(certified == counted for _, certified, counted in rows), rows


@pytest.mark.parametrize("label", ["random-R", "self-adjoint-T", "off-diagonal-pairing",
                                   "minus-expansion", "quon-minus", "fermion3-minus"])
def test_certified_rank_equals_the_spectrum_count_on_random_models(label):
    model = {**_mixing_models(), **_minus_models()}[label]
    rows = _certified_and_counted(model, 6 if model.n_generators == 2 else 5)
    assert all(certified == counted for _, certified, counted in rows), rows


def test_certified_rank_needs_no_eigensolver(monkeypatch):
    def refuse(a):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert sector_dimension(load_zoo("quon_05"), 10) == (1024, 1024)
    # tol = 0 counts every exact zero of a missing block: no proof applies
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        sector_dimension(load_zoo("fermion2"), 2, tol=0.0)


def test_check_and_gram_take_the_rank_from_the_spectrum(monkeypatch, capsys):
    from braidstat.cli import main
    argvs = [["check", str(zoo_path("quon_05")), "--nmax", "5", "--json"],
             ["gram", str(zoo_path("quon_05")), "--sector", "4", "--json"]]
    want = [(main(argv), capsys.readouterr()) for argv in argvs]

    def refuse(a):
        raise AssertionError("cholesky ran")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert [(main(argv), capsys.readouterr()) for argv in argvs] == want


@pytest.mark.parametrize("name", ["boson", "quon_09"])
def test_rank_falls_back_to_the_spectrum(name, monkeypatch):
    # boson's blocks have rank 1, and a block of quon_09 at sector 8 has an
    # eigenvalue below the rank cut: no proof, so the eigenvalues are counted
    counted = gram_matrix(load_zoo(name), 8)
    counted.spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    result = gram_matrix(load_zoo(name), 8)
    assert not result._full_rank(1e-9) and not calls
    assert result.quotient_rank(1e-9) == counted.quotient_rank(1e-9) and calls


@pytest.mark.filterwarnings("error")
def test_non_finite_ladders_and_grams_name_their_sector():
    # finite pairings whose products overflow: the quon ladder reaches inf at
    # sector 4 and its Gram at sector 2; fermion2's Gram reaches NaN at sector 3.
    # commutator_defect reads a ladder for s = -1 only, and q = -0.5 with s = -1
    # gives the ladder of q = 0.5 with s = +1
    trivial, z2 = make_group([]), make_group([2])
    big = [[1e308, 0], [0, 1]]
    quon = make_model(trivial, Bicharacter.trivial(trivial), [[], []], big, q_swap_braid(2, 0.5))
    minus = make_model(trivial, Bicharacter.trivial(trivial), [[], []], big, q_swap_braid(2, -0.5),
                       expansion_sign=-1)
    with pytest.raises(fock.NonFiniteError, match="the annihilators of sector 4 "):
        commutator_defect(minus, 1, 1, 3)
    with pytest.raises(fock.NonFiniteError, match="the Gram blocks of sector 2 "):
        sector_dimension(quon, 5)
    fermion2 = make_model(z2, make_bicharacter(z2, [["1/2"]]), [[1], [1]], big)
    with pytest.raises(fock.NonFiniteError, match="the Gram blocks of sector 3 "):
        gram_psd_check(fermion2, 4)
    # sector 2 holds the finite block [[1e308, -1e308], [-1e308, 1e308]], of eigenvalue 2e308
    with pytest.raises(fock.NonFiniteError, match="the eigenvalues of sector 2 "):
        sector_dimension(fermion2, 2)
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


def test_no_ladder_outlives_a_call():
    import gc
    import tracemalloc
    model = load_zoo("quon_05")
    sector_dimension(model, 2)  # builds the model's term tables, which are kept
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sector_dimension(model, 10) == (1024, 1024)
        assert commutator_defect(model, 1, 2, 8).passed
        assert check_braid_exchange_relations(model, n_max=5).failed
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1e6  # the sector-10 ladder alone holds 0.36 MB


# ---------------------------------------------------------------------------
# the ladder engine against the dense oracles


def _dense(hop, shape):
    out = np.zeros(shape, dtype=complex)
    out[hop.rows, hop.cols] = hop.vals
    return out


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_ladder_equals_dense_annihilators_on_the_zoo(name):
    model = load_zoo(name)
    n = 4 if model.n_generators == 3 else 5
    expected = dense_annihilators(model, n)
    for m, hops in enumerate(list(fock._levels(model, n))[1:], start=1):
        for i, hop in enumerate(hops):
            assert np.array_equal(_dense(hop, expected[m][i].shape), expected[m][i]), (m, i)


def _coalesce_reference(parts, n_rows, n_cols, floor=0.0):
    """Coalescing as np.unique and np.add.at do it: the sums start at 0 and add
    each position's entries in the order given."""
    rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
    if n_rows * n_cols >= 1 << 63:
        rows, cols = rows.astype(object), cols.astype(object)
    key, inverse = np.unique(cols * n_rows + rows, return_inverse=True)
    summed = np.zeros(len(key), dtype=vals.dtype)
    np.add.at(summed, inverse, vals)
    keep = np.abs(summed) > floor
    cols = (key[keep] // n_rows).astype(np.int64)
    return np.searchsorted(cols, np.arange(n_cols + 1)), key[keep] % n_rows, cols, summed[keep]


def _random_parts(rng, n_rows, n_cols, dtype, sizes):
    """Parts whose entries repeat few positions, with magnitudes far apart, so
    that the order of summation shows in the last bits, and with signed zeros."""
    parts = []
    for size in sizes:
        vals = rng.choice([1e16, 1.0, -1e16, 3e-16, -1e-16, -0.0, 0.1], size) * rng.random(size)
        if dtype is complex:
            vals = vals + 1j * rng.choice([1e16, -1.0, -1e16, 0.0, 2e-16], size)
        parts.append((rng.integers(0, 3, size) * (n_rows // 3), rng.integers(0, n_cols, size), vals))
    return parts


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("floor", [0.0, fock.PRUNE_EPS, 0.5])
@pytest.mark.parametrize("n_rows", [6, 1 << 60], ids=["int64", "object"])
def test_coalesce_equals_unique_and_add_at_bit_for_bit(dtype, floor, n_rows):
    rng = np.random.default_rng(20261019)
    n_cols = 8  # 2^63 positions and more are Python integers
    for sizes in ([40, 0, 25, 60], [0], [0, 0], [1], [200]):
        parts = _random_parts(rng, n_rows, n_cols, dtype, sizes)
        got, want = fock._coalesce(parts, n_rows, n_cols, floor), \
            _coalesce_reference(parts, n_rows, n_cols, floor)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, sizes
            assert a.tobytes() == b.tobytes() if a.dtype != object else a.tolist() == b.tolist(), sizes


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
def test_whole_sector_level_equals_the_suffix_ladder(label, monkeypatch):
    # random-R has s = +1, minus-expansion the same R with s = -1; no model of
    # _mixing_models conserves letters
    model = {**_mixing_models(), **_minus_models()}[label]
    n_gen = model.n_generators
    # per level: the entries the ladder guard counts, and those coalesced into the b-_i
    guarded, built = [], []
    coalesce = fock._coalesce

    def guard(model, m, entries):
        guarded.append(entries)
        built.append(0)

    def counting(parts, *args):
        built[-1] += sum(len(p[0]) for p in parts)
        return coalesce(parts, *args)

    monkeypatch.setattr(fock, "_guard_ladder", guard)
    monkeypatch.setattr(fock, "_coalesce", counting)
    depth = 4 if n_gen == 2 else 3
    ladder = list(fock._levels(model, depth))
    assert guarded == built and len(built) == depth
    for m in range(1, depth + 1):
        for w, word in enumerate(basis_words(n_gen, m)):
            for i, hop in enumerate(ladder[m], start=1):
                guarded[:], built[:] = [], []
                got = annihilate_twisted(model, i, FockVector.basis(word))
                assert guarded == built and len(built) == m
                column = slice(hop.start[w], hop.start[w + 1])
                want = {basis_words(n_gen, m - 1)[r]: complex(v)
                        for r, v in zip(hop.rows[column], hop.vals[column])
                        if abs(v) > fock.PRUNE_EPS}
                assert dict(got.items()) == want, (m, word, i)


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


# ---------------------------------------------------------------------------
# the arithmetic type


def test_scalar_type_of_the_zoo():
    # +-1 gradings and real q are real; anyon_z4's phases are not
    assert {name: load_zoo(name).scalar_type for name in ZOO_NAMES} \
        == {name: complex if name == "anyon_z4" else float for name in ZOO_NAMES}


@pytest.mark.parametrize("name", ["boson", "quon_05", "anyon_z4"])
def test_engine_computes_in_the_scalar_type_and_hands_out_complex(name):
    model = load_zoo(name)
    dtype = np.dtype(model.scalar_type)
    ladder, grams, residuals = fock._fock_pass(model, 2)
    assert {hop.vals.dtype for hops in ladder for hop in hops} == {dtype}
    assert {g.dtype for result in grams for g in result._matrices.values()} == {dtype}
    assert {entries.vals.dtype for entries in residuals} == {dtype}
    result = gram_matrix(model, 3)
    assert result.matrix.dtype == np.complex128
    assert all(block.matrix.dtype == np.complex128 for block in result.blocks)
    out = annihilate_twisted(model, 1, FockVector.basis((model.n_generators, 1, 1)))
    assert not out.is_zero and all(type(a) is complex for _, a in out.items())


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
    # a dense cross coupling fills the b- arrays in: sector m holds about 2^(2m+1)
    # entries before they are summed, 1.05 MB at sector 7 and 4.2 MB at sector 8;
    # s = -1, since commutator_defect builds no ladder for s = +1
    model = _mixing_models()["minus-expansion"]
    monkeypatch.setattr(fock, "MAX_GRAM_BYTES", 1 << 21)
    commutator_defect(model, 1, 1, 6)                 # the ladder reaches sector 7
    assert commutator_defect(_mixing_models()["random-R"], 1, 1, 7).passed  # s = +1: no ladder
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="annihilators on sector 8"):
            commutator_defect(model, 1, 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * (2 ** 8 + 2 ** 17)


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
