import random
from collections import Counter
from itertools import accumulate

import pytest

from braidstat import (Atom, Dual, ExprSyntaxError, Tensor, UNIT, coherence,
                       coherence_fuzz, equal_up_to_coherence, normalize, parse_expr, render_expr)
from braidstat.coherence import (DEFAULT_RULES, RewriteLoopError, apply_rule,
                                 expr_to_normal_form, node_count, random_expr, redexes,
                                 rewrite_normalize)

from oracles import reference_lex, reference_redexes, reference_rewrite_normalize

RULE_ORDERS = {
    "default": DEFAULT_RULES,
    "without dual-dual": tuple(r for r in DEFAULT_RULES if r != "dual-dual"),
    "reversed": tuple(reversed(DEFAULT_RULES)),
}


def test_parse_examples():
    assert parse_expr("A (x) B") == Tensor(Atom("A"), Atom("B"))
    assert parse_expr("((A (x) B) (x) I)^") \
        == Dual(Tensor(Tensor(Atom("A"), Atom("B")), UNIT))
    with pytest.raises(ExprSyntaxError, match="position 6"):
        parse_expr("A (x) ")


def test_parse_left_associative_chain():
    assert parse_expr("A (x) B (x) C") == Tensor(Tensor(Atom("A"), Atom("B")), Atom("C"))


def test_parse_postfix_dual_stacks():
    assert parse_expr("A^^") == Dual(Dual(Atom("A")))
    assert parse_expr("I^") == Dual(UNIT)


def test_parse_error_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("A (x")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("A @ B")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(A (x) B")
    assert err.value.position == 8


def test_parse_whitespace_insensitive():
    assert parse_expr(" A(x)B ") == parse_expr("A (x) B")
    # the literal three characters "(x)" always lex as the operator, so a
    # parenthesized atom named x needs spaces
    assert parse_expr("( x )") == Atom("x")


# the operator's pieces, whitespace that str.isspace() knows (\x1c, an em space),
# and characters that start no token although they are letters or digits elsewhere
_LEX_ALPHABET = ("(x)", "(x", "x)", "(", ")", "^", "A", "I", "x", "B_2", "_", "0", "7", " ", "\t",
                 "\x1c", "\u2003", "\u00e9", "\u00df", "\uff58", "\u0663", "%")


def _outcome(read, text):
    try:
        return read(text)
    except ExprSyntaxError as err:
        return str(err), err.position


def test_lexer_and_parser_match_the_reference_scanner(monkeypatch):
    rng = random.Random(2023)
    ends = list(accumulate(rng.choices(range(10), k=100_000)))  # 0 to 9 pieces a text
    pieces = rng.choices(_LEX_ALPHABET, k=ends[-1])
    texts = ["".join(pieces[start:end]) for start, end in zip([0] + ends, ends)]
    want_tokens = [_outcome(reference_lex, text) for text in texts]
    assert [_outcome(coherence._lex, text) for text in texts] == want_tokens
    trees = [_outcome(parse_expr, text) for text in texts]
    monkeypatch.setattr(coherence, "_lex", reference_lex)
    for text, tokens, tree in zip(texts, want_tokens, trees):
        # a text that the reference cannot lex must fail with the reference's lexing error
        assert tree == (tokens if isinstance(tokens, tuple) else _outcome(parse_expr, text)), text
    assert sum(not isinstance(tree, tuple) for tree in trees) > 5000  # some texts parse


def test_normalize_paper_identities():
    assert normalize(parse_expr("(A (x) B) (x) C")).render() == "A (x) B (x) C"
    assert normalize(parse_expr("A (x) (B (x) C)")) == normalize(parse_expr("(A (x) B) (x) C"))
    assert normalize(parse_expr("(A (x) B)^")).render() == "B^ (x) A^"
    assert normalize(parse_expr("I (x) A^^")).render() == "A"
    assert normalize(parse_expr("A (x) I")).render() == "A"
    assert normalize(parse_expr("I^")).is_unit


def test_normalize_unit_only():
    assert normalize(parse_expr("I (x) I")).render() == "I"
    assert normalize(parse_expr("(I (x) I)^")).is_unit


def test_equal_up_to_coherence_examples():
    assert equal_up_to_coherence(parse_expr("(A(x)B)(x)C"), parse_expr("A(x)(B(x)C)"))
    assert not equal_up_to_coherence(parse_expr("A(x)B"), parse_expr("B(x)A"))
    assert equal_up_to_coherence(parse_expr("(I(x)A)^"), parse_expr("A^"))


def test_normalize_is_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        e = random_expr(rng, rng.randint(1, 25))
        nf = normalize(e)
        assert normalize(nf.to_expr()) == nf


def test_rewrite_engine_agrees_with_direct_normalizer():
    rng = random.Random(4)
    for _ in range(150):
        e = random_expr(rng, rng.randint(1, 20))
        result = rewrite_normalize(e, rng=rng)
        assert expr_to_normal_form(result) == normalize(e)
        assert not redexes(result)


def test_rewrite_step_counts_stay_under_cap():
    rng = random.Random(9)
    for _ in range(100):
        e = random_expr(rng, 30)
        # rewrite_normalize raises RewriteLoopError if 10*m^2 is exceeded
        rewrite_normalize(e, rng=rng)


def test_rewrite_cap_can_trip():
    wide = parse_expr("(" + " (x) ".join("A" * 1 for _ in range(6)) + ")^")
    with pytest.raises(RewriteLoopError):
        rewrite_normalize(wide, max_steps=1)


def test_leaf_multiset_with_dual_parity_is_invariant():
    rng = random.Random(6)
    for _ in range(150):
        e = random_expr(rng, rng.randint(1, 25))

        def leaf_parities(node, dual):
            if isinstance(node, Atom):
                return Counter({(node.name, dual): 1})
            if isinstance(node, Tensor):
                return leaf_parities(node.left, dual) + leaf_parities(node.right, dual)
            if isinstance(node, Dual):
                return leaf_parities(node.inner, not dual)
            return Counter()

        assert leaf_parities(e, False) == Counter(normalize(e).factors)


def test_coherence_fuzz_passes():
    report = coherence_fuzz(seed=1, size=10, trials=300)
    assert report.passed and report.defect == 0.0


def test_coherence_fuzz_single_atoms():
    report = coherence_fuzz(seed=3, size=1, trials=50)
    assert report.passed


def test_coherence_fuzz_validates_arguments():
    with pytest.raises(ValueError):
        coherence_fuzz(seed=1, size=10, trials=0)
    with pytest.raises(ValueError):
        coherence_fuzz(seed=1, size=-1, trials=10)


def test_coherence_fuzz_broken_rules_fail():
    rules = tuple(r for r in DEFAULT_RULES if r != "dual-dual")
    report = coherence_fuzz(seed=5, size=12, trials=300, rules=rules)
    assert report.failed
    assert report.witness is not None
    assert "^^" in report.witness["random_order"] or "^^" in report.witness["canonical_order"]


def test_render_round_trips():
    rng = random.Random(8)
    for _ in range(200):
        e = random_expr(rng, rng.randint(1, 20))
        assert parse_expr(render_expr(e)) == e


def test_node_count():
    assert node_count(parse_expr("A (x) B^")) == 4


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_redexes_match_the_reference_enumerator(order):
    rules = RULE_ORDERS[order]
    rng = random.Random(11)
    for _ in range(400):
        e = random_expr(rng, rng.randint(1, 30))
        assert redexes(e, rules) == reference_redexes(e, rules), render_expr(e)


@pytest.mark.parametrize("order", RULE_ORDERS)
def test_seeded_rewriting_matches_the_reference_loop(order):
    rules = RULE_ORDERS[order]
    rng = random.Random(12)
    for k in range(150):
        e = random_expr(rng, rng.randint(1, 25))
        ours, theirs = random.Random(k), random.Random(k)
        assert rewrite_normalize(e, rules, rng=ours) \
            == reference_rewrite_normalize(e, rules, theirs), render_expr(e)
        assert ours.getstate() == theirs.getstate()


def test_unknown_rule_names_are_value_errors():
    e = parse_expr("(A (x) B)^")
    for call in (lambda: redexes(e, ("assoc", "bogus")),
                 lambda: rewrite_normalize(e, ("bogus",)),
                 lambda: coherence_fuzz(1, 10, 5, rules=("bogus",)),
                 lambda: apply_rule(e, (), "bogus")):
        with pytest.raises(ValueError, match="unknown rewrite rule 'bogus'"):
            call()
    with pytest.raises(ValueError, match="does not apply"):
        apply_rule(e, (), "assoc")
    with pytest.raises(ValueError, match="path descends into a leaf"):
        apply_rule(e, (0, 0, 0), "dual-dual")


def test_every_scan_but_the_last_is_followed_by_one_step(monkeypatch):
    # the benchmark's traced run counts scans and steps by wrapping these two names
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("redexes", "apply_rule"):
        monkeypatch.setattr(coherence, name, counted(name, getattr(coherence, name)))
    rng = random.Random(13)
    for _ in range(50):
        counts.clear()
        e = random_expr(rng, rng.randint(1, 25))
        rewrite_normalize(e, rng=rng)
        assert counts["redexes"] == counts["apply_rule"] + 1
    counts.clear()
    coherence_fuzz(seed=1, size=10, trials=20)
    assert counts["redexes"] == counts["apply_rule"] + 2 * 20
    assert counts["apply_rule"] > 0


def test_deep_expressions_parse_and_normalize():
    chain = " (x) ".join(["A", "B^"] * 1500)
    assert normalize(parse_expr(chain)).factors == (("A", False), ("B", True)) * 1500
    assert normalize(parse_expr("A" + "^" * 5001)).render() == "A^"
    # rendered and counted as deep as they parse; a chain nests to the left
    atoms = ["A", "B^"] * 750
    chained = parse_expr(" (x) ".join(atoms))
    rendered = render_expr(chained)
    assert rendered == "(" * 1498 + "A (x) B^" + "".join(f") (x) {a}" for a in atoms[2:])
    assert normalize(parse_expr(rendered)) == normalize(chained)
    assert node_count(chained) == 1500 + 750 + 1499
    duals = parse_expr("A" + "^" * 5000)
    assert (render_expr(duals), node_count(duals)) == ("A" + "^" * 5000, 5001)
    nested = "(" * 3000 + "A (x) B^" + ")" * 3000 + "^"
    assert normalize(parse_expr(nested)).render() == "B (x) A^"
    with pytest.raises(ExprSyntaxError, match="position 3007"):
        parse_expr("(" * 3000 + "A (x) B")
    # a rewrite step as deep as the expression: the deepest redex, and a random
    # one, whose run the step cap stops after one step to keep the test short
    deep = parse_expr("A" + "^" * 3001)
    path, rule = max(redexes(deep), key=lambda found: len(found[0]))
    assert (len(path), rule) == (2999, "dual-dual")
    assert render_expr(apply_rule(deep, path, rule)) == "A" + "^" * 2999
    with pytest.raises(RewriteLoopError, match="exceeded 1 rewrite steps"):
        rewrite_normalize(deep, rng=random.Random(1), max_steps=1)


def test_deep_expressions_compare_and_hash():
    duals, copy = parse_expr("A" + "^" * 3001), parse_expr("A" + "^" * 3001)
    assert duals is not copy and duals == copy and hash(duals) == hash(copy)
    assert duals != parse_expr("A" + "^" * 3000) and duals != parse_expr("B" + "^" * 3001)
    atoms = [f"A{k % 7}" for k in range(3000)]
    chain = parse_expr(" (x) ".join(atoms))
    assert chain == parse_expr(" (x) ".join(atoms))
    assert chain != parse_expr(" (x) ".join(atoms[:-1] + ["A"]))
    assert hash(chain) == hash(parse_expr(" (x) ".join(atoms)))


def test_equality_is_structural_on_random_pairs():
    # small sizes so that equal pairs occur; a printed copy is equal, not identical
    rng = random.Random(20261019)
    equal = 0
    for _ in range(2000):
        a = random_expr(rng, rng.randint(1, 4))
        b = random_expr(rng, rng.randint(1, 4)) if rng.random() < 0.8 else parse_expr(render_expr(a))
        assert (a == b) == (render_expr(a) == render_expr(b)) == (not a != b), (a, b)
        if a == b:
            equal += 1
            assert hash(a) == hash(b), (a, b)
    assert 200 < equal < 1800, equal
    assert Tensor(Atom("A"), UNIT) != Dual(Atom("A")) and Dual(Atom("A")) != Atom("A")
    assert Tensor(Atom("A"), UNIT).__eq__("A (x) I") is NotImplemented
