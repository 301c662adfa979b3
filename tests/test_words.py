import pytest

from braidstat import FockVector, basis_words, word_index


@pytest.mark.parametrize("n_generators", [1, 2, 3])
@pytest.mark.parametrize("length", range(5))
def test_word_index_inverts_the_basis_order(n_generators, length):
    words = basis_words(n_generators, length)
    assert [word_index(w, n_generators) for w in words] == list(range(n_generators ** length))


def test_the_repr_names_the_zero_vector_and_cuts_after_six_terms():
    assert repr(FockVector()) == "FockVector(0)"
    assert repr(FockVector({(1,): 1e-16})) == "FockVector(0)"  # pruned
    assert repr(FockVector.vacuum() + 2 * FockVector.basis((2, 1))) \
        == "FockVector((1+0j)*|0> + (2+0j)*|2,1>)"
    seven = FockVector({(i,): i for i in range(1, 8)})
    assert repr(seven) == ("FockVector(" + " + ".join(f"({i}+0j)*|{i}>" for i in range(1, 7))
                           + " + ...)")
    assert repr(FockVector({(i,): i for i in range(1, 7)})).endswith("*|6>)")


def test_negation_and_scaling_from_either_side():
    v = FockVector({(): 1.0, (1, 2): 2j})
    assert -v == FockVector({(): -1.0, (1, 2): -2j})
    assert v * 3 == 3 * v == FockVector({(): 3.0, (1, 2): 6j})
    assert v * 0 == FockVector() and (v + -v).is_zero
    assert (1j * v).amplitude((1, 2)) == -2
