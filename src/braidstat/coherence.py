"""Monoidal expressions with unit and duality, and their canonical normal form.

Surface syntax: ``(x)`` is the tensor operator, ``^`` a postfix dual, ``I``
the unit, and any other identifier an atom.  Parenthesized subexpressions use
plain ``(`` ... ``)``; note that the three characters ``(x)`` always lex as
the tensor operator, so the atom ``x`` needs whitespace inside parentheses
(``( x )``).  The lexer reads one token pattern, as the rewriter reads one rule
table.

The rewrite system

    (a (x) b) (x) c  ->  a (x) (b (x) c)
    I (x) a          ->  a
    a (x) I          ->  a
    (a (x) b)^       ->  b^ (x) a^
    a^^              ->  a
    I^               ->  I

is terminating and confluent; every expression has a unique normal form: the
unit, or a right-nested chain of atoms and dualized atoms.  Two expressions
are equal up to coherence iff their normal forms coincide — coherence never
permutes tensor factors.

The step-by-step engine reads the rules from one table, :data:`RULES`: each
name maps to the node kind it matches, the child slot it inspects, that
child's kind, and its rewrite.  :func:`redexes` turns the caller's rule order
into a map from node shape to rule names once, then looks up each node once:
nodes in preorder (a node, its left or inner subtree, its right subtree), the
rules at one node in the caller's order.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .report import CheckReport, FAIL, PASS


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


class RewriteLoopError(RuntimeError):
    """The step cap was exceeded; the rewrite system should terminate, so this is a bug."""


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Unit:
    pass


class _Node:
    """``==`` and ``hash`` of the composite nodes, with the dataclass meaning: equal
    when the node kinds match and the children are equal.  Node pairs wait on an
    explicit stack, so no nesting depth overflows."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if isinstance(a, _Node):
                pairs += zip(vars(a).values(), vars(b).values())
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(render_expr(self))  # equal expressions print equal


@dataclass(frozen=True, eq=False)
class Tensor(_Node):
    left: "TensorExpr"
    right: "TensorExpr"


@dataclass(frozen=True, eq=False)
class Dual(_Node):
    inner: "TensorExpr"


TensorExpr = Atom | Unit | Tensor | Dual

UNIT = Unit()

#: the tokens in the order tried; a character that starts none is matched alone by ``\S``
_TOKEN = re.compile(r"\(x\)|[()^]|[A-Za-z_][A-Za-z0-9_]*|\S")
_PUNCTUATION = {"(x)": "tensor", "(": "lparen", ")": "rparen", "^": "dual"}


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        value = m.group()
        kind = _PUNCTUATION.get(value)
        if kind is None:
            if not (value.isascii() and value.isidentifier()):
                raise ExprSyntaxError(f"unexpected character {value!r}", m.start())
            kind = "ident"
        tokens.append((kind, value, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def parse_expr(text: str) -> TensorExpr:
    """Parse the surface syntax; chained ``(x)`` associates to the left.

    Open parentheses wait on an explicit stack, so no nesting depth overflows.
    """
    tokens = _lex(text)
    pos = 0
    opened: list[TensorExpr | None] = []  # the chain read before each open '('
    chain = None  # the chain read so far at the current depth
    while True:
        kind, value, at = tokens[pos]
        pos += 1
        if kind == "lparen":
            opened.append(chain)
            chain = None
            continue
        if kind != "ident":
            what = "end of input" if kind == "end" else repr(value)
            raise ExprSyntaxError(f"expected an atom, 'I', or '(', found {what}", at)
        node = UNIT if value == "I" else Atom(value)
        while True:  # node is a complete primary: take its duals, then what follows
            while tokens[pos][0] == "dual":
                pos += 1
                node = Dual(node)
            chain = node if chain is None else Tensor(chain, node)
            kind, value, at = tokens[pos]
            pos += 1
            if kind == "tensor":
                break
            if not opened:
                if kind != "end":
                    raise ExprSyntaxError(f"unexpected trailing input {value!r}", at)
                return chain
            if kind != "rparen":
                raise ExprSyntaxError("expected ')'", at)
            node, chain = chain, opened.pop()


def render_expr(e: TensorExpr) -> str:
    """Print an expression in the surface syntax (round-trips through parse).

    Nodes and text wait on an explicit stack, so no nesting depth overflows.
    """
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Tensor, Dual)):
            parts = (node.left, " (x) ", node.right) if isinstance(node, Tensor) else (node.inner, "^")
            for part in reversed(parts):  # a tensor operand goes in parentheses
                stack += (")", part, "(") if isinstance(part, Tensor) else (part,)
        else:
            out.append(node if isinstance(node, str) else "I" if isinstance(node, Unit) else node.name)
    return "".join(out)


def node_count(e: TensorExpr) -> int:
    nodes = [e]
    for node in nodes:  # the list grows while it is read, so no depth overflows
        if type(node) is Tensor:
            nodes += (node.left, node.right)
        elif type(node) is Dual:
            nodes.append(node.inner)
    return len(nodes)


# ---------------------------------------------------------------------------
# Canonical normal form (direct computation)


@dataclass(frozen=True)
class NormalForm:
    """Right-nested, unit-free chain of leaves ``(atom_name, dualled)``.

    The empty chain is the unit.
    """

    factors: tuple[tuple[str, bool], ...]

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def render(self) -> str:
        if self.is_unit:
            return "I"
        return " (x) ".join(name + ("^" if dual else "") for name, dual in self.factors)

    def to_expr(self) -> TensorExpr:
        if self.is_unit:
            return UNIT
        leaves = [Dual(Atom(name)) if dual else Atom(name) for name, dual in self.factors]
        node = leaves[-1]
        for leaf in reversed(leaves[:-1]):
            node = Tensor(leaf, node)
        return node


def normalize(e: TensorExpr) -> NormalForm:
    """Unique normal form of an expression under the rewrite rules."""
    leaves: list[tuple[str, bool]] = []
    stack = [(e, False)]  # (node, under an odd number of duals), explicit so no depth overflows
    while stack:
        node, dual = stack.pop()
        if isinstance(node, Atom):
            leaves.append((node.name, dual))
        elif isinstance(node, Dual):
            stack.append((node.inner, not dual))
        elif isinstance(node, Tensor):
            first, second = (node.right, node.left) if dual else (node.left, node.right)
            stack += ((second, dual), (first, dual))
    return NormalForm(tuple(leaves))


def expr_to_normal_form(e: TensorExpr) -> NormalForm | None:
    """Read an expression *already in normal shape* as a NormalForm, else None."""
    if isinstance(e, Unit):
        return NormalForm(())
    factors = []
    while isinstance(e, Tensor):
        factors.append(_as_leaf(e.left))
        e = e.right
    factors.append(_as_leaf(e))
    return None if None in factors else NormalForm(tuple(factors))


def _as_leaf(node: TensorExpr) -> tuple[str, bool] | None:
    if isinstance(node, Atom):
        return (node.name, False)
    if isinstance(node, Dual) and isinstance(node.inner, Atom):
        return (node.inner.name, True)
    return None


def equal_up_to_coherence(e1: TensorExpr, e2: TensorExpr) -> bool:
    return normalize(e1) == normalize(e2)


# ---------------------------------------------------------------------------
# Step-by-step rewrite engine (used to validate confluence by fuzzing)


#: name -> (node kind, child slot, child kind, rewrite): a rule applies at a node
#: of its kind whose child in that slot has the child kind
RULES: dict[str, tuple[type, str, type, Callable[..., TensorExpr]]] = {
    "assoc": (Tensor, "left", Tensor, lambda e: Tensor(e.left.left, Tensor(e.left.right, e.right))),
    "unit-left": (Tensor, "left", Unit, lambda e: e.right),
    "unit-right": (Tensor, "right", Unit, lambda e: e.left),
    "dual-tensor": (Dual, "inner", Tensor,
                    lambda e: Tensor(Dual(e.inner.right), Dual(e.inner.left))),
    "dual-dual": (Dual, "inner", Dual, lambda e: e.inner.inner),
    "dual-unit": (Dual, "inner", Unit, lambda e: UNIT),
}

DEFAULT_RULES: tuple[str, ...] = tuple(RULES)

Path = tuple[int, ...]

_KINDS = (Atom, Unit, Tensor, Dual)


def _check_rules(rules: Sequence[str]) -> tuple[str, ...]:
    rules = tuple(rules)
    for name in rules:
        if name not in RULES:
            raise ValueError(f"unknown rewrite rule {name!r}; the rules are {', '.join(RULES)}")
    return rules


@functools.lru_cache(maxsize=64)
def _scan_table(rules: tuple[str, ...]) -> dict[tuple[type, ...], tuple[str, ...]]:
    """``(Tensor, left kind, right kind)`` or ``(Dual, inner kind)`` -> the rules
    that apply at such a node, in the order of ``rules``."""
    rules = _check_rules(rules)
    shapes = [(Tensor, {"left": left, "right": right}) for left in _KINDS for right in _KINDS]
    shapes += [(Dual, {"inner": inner}) for inner in _KINDS]
    table = {}
    for kind, children in shapes:
        names = tuple(name for name in rules if RULES[name][0] is kind
                      and children.get(RULES[name][1]) is RULES[name][2])
        if names:
            table[(kind, *children.values())] = names
    return table


def redexes(e: TensorExpr, rules: Sequence[str] = DEFAULT_RULES) -> list[tuple[Path, str]]:
    """All (position, rule) pairs where a rule applies: nodes in preorder, and
    the rules at one node in the order of ``rules``."""
    table = _scan_table(tuple(rules))
    found = []
    # only Tensor and Dual nodes go on the stack: a leaf holds no redex
    stack = [((), e)] if type(e) is Tensor or type(e) is Dual else []
    while stack:
        path, node = stack.pop()
        if type(node) is Tensor:
            left, right = node.left, node.right
            names = table.get((Tensor, type(left), type(right)), ())
            if type(right) is Tensor or type(right) is Dual:
                stack.append((path + (1,), right))
            if type(left) is Tensor or type(left) is Dual:
                stack.append((path + (0,), left))
        else:
            inner = node.inner
            names = table.get((Dual, type(inner)), ())
            if type(inner) is Tensor or type(inner) is Dual:
                stack.append((path + (0,), inner))
        for name in names:
            found.append((path, name))
    return found


def apply_rule(e: TensorExpr, path: Path, rule: str) -> TensorExpr:
    """Rewrite the node at ``path`` by ``rule``.  The walk down keeps the
    ancestors and the walk back up rebuilds them, so no path depth recurses."""
    _check_rules((rule,))
    kind, slot, child, rewrite = RULES[rule]
    ancestors = []
    node = e
    for step in path:
        ancestors.append((node, step))
        if type(node) is Tensor:
            node = node.right if step else node.left
        elif type(node) is Dual:
            node = node.inner
        else:
            raise ValueError("path descends into a leaf")
    if type(node) is not kind or type(getattr(node, slot)) is not child:
        raise ValueError(f"rule {rule} does not apply at {path}")
    node = rewrite(node)
    for parent, step in reversed(ancestors):
        if type(parent) is Dual:
            node = Dual(node)
        else:
            node = Tensor(parent.left, node) if step else Tensor(node, parent.right)
    return node


def rewrite_normalize(e: TensorExpr,
                      rules: Sequence[str] = DEFAULT_RULES,
                      rng: random.Random | None = None,
                      max_steps: int | None = None) -> TensorExpr:
    """Rewrite to a fixed point, choosing redexes canonically or at random.

    The step cap defaults to ``10 * m^2`` for ``m`` input nodes; exceeding it
    means the rewrite system lost termination and raises.
    """
    if max_steps is None:
        max_steps = 10 * node_count(e) ** 2
    steps = 0
    while True:
        candidates = redexes(e, rules)
        if not candidates:
            return e
        path, rule = candidates[0] if rng is None else rng.choice(candidates)
        e = apply_rule(e, path, rule)
        steps += 1
        if steps > max_steps:
            raise RewriteLoopError(f"exceeded {max_steps} rewrite steps; termination bug")


# ---------------------------------------------------------------------------
# Confluence fuzzing


_ATOM_POOL = ("A", "B", "C", "D", "E", "F")


def random_expr(rng: random.Random, size: int) -> TensorExpr:
    """Random expression with roughly ``size`` nodes."""
    if size <= 1:
        return UNIT if rng.random() < 0.15 else Atom(rng.choice(_ATOM_POOL))
    roll = rng.random()
    if roll < 0.55:
        left_size = rng.randint(1, size - 2) if size > 2 else 1
        return Tensor(random_expr(rng, left_size), random_expr(rng, size - 1 - left_size))
    if roll < 0.85:
        return Dual(random_expr(rng, size - 1))
    return UNIT if roll < 0.9 else Atom(rng.choice(_ATOM_POOL))


def coherence_fuzz(seed: int, size: int, trials: int,
                   rules: Sequence[str] = DEFAULT_RULES) -> CheckReport:
    """Random-order rewriting must reach the canonical normal form.

    For each random expression the engine runs once with random redex choice
    and once canonically (first redex); both results must be structurally
    valid normal forms equal to :func:`normalize`.  With the full rule set
    this is the operational content of coherence; dropping a rule makes the
    check fail on a witness.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if size < 0:
        raise ValueError("size must be >= 0")
    rules = _check_rules(rules)
    rng = random.Random(seed)
    failures = 0
    witness = None
    for _ in range(trials):
        e = random_expr(rng, rng.randint(1, size) if size > 1 else 1)
        expected = normalize(e)
        shuffled = rewrite_normalize(e, rules, rng=rng)
        canonical = rewrite_normalize(e, rules)
        ok = (expr_to_normal_form(shuffled) == expected
              and expr_to_normal_form(canonical) == expected)
        if not ok:
            failures += 1
            if witness is None:
                witness = {
                    "expr": render_expr(e),
                    "random_order": render_expr(shuffled),
                    "canonical_order": render_expr(canonical),
                    "expected": expected.render(),
                }
    status = PASS if failures == 0 else FAIL
    return CheckReport("coherence-fuzz", status, float(failures), witness,
                       {"seed": seed, "size": size, "trials": trials, "rules": list(rules)})
