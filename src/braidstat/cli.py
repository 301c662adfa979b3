"""Batch front end.

Commands: ``check``, ``gram``, ``apply``, ``transmute``, ``normalize``.
Exit codes: 0 all executed checks pass, 1 some check failed, 2 input error.
``--json`` switches standard output to a machine-readable report
``{"checks": [...], "results": {...}}``; reports are deterministic for
identical inputs.  Each command imports the modules it runs when it runs, so
``normalize`` loads neither numpy nor the Fock layer.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .report import FAIL, PASS, CheckReport, jsonable

if TYPE_CHECKING:
    from .fock import ProgramStep
    from .words import FockVector
INPUT_ERRORS = (ValueError, OSError)

_STEP_RE = re.compile(r"([cabx])([0-9]+)")
#: A vector letter: ASCII digits, an optional sign, whitespace around them
_LETTER_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_program(text: str) -> list[ProgramStep]:
    """Parse ``"c1;a2;b1;x1"``: c=create, a=free annihilate, b=twisted, x=exchange."""
    from .fock import AnnihilateFree, AnnihilateTwisted, Create, Exchange
    steps = {"c": Create, "a": AnnihilateFree, "b": AnnihilateTwisted, "x": Exchange}
    program: list[ProgramStep] = []
    for raw in text.split(";"):
        token = raw.strip()
        if not token:
            continue
        m = _STEP_RE.fullmatch(token)
        if not m:
            raise ValueError(f"bad program step {token!r}; expected c<i>, a<i>, b<i>, or x<k>")
        program.append(steps[m.group(1)](int(m.group(2))))
    return program


def parse_vector(text: str) -> FockVector:
    """Empty string is the vacuum; otherwise comma-separated letters of one word."""
    from .words import FockVector
    if not text.strip():
        return FockVector.vacuum()
    letters = []
    for tok in text.split(","):
        if not _LETTER_RE.fullmatch(tok):
            raise ValueError(f"bad vector letter {tok!r}; a vector is comma-separated generator indices")
        letters.append(int(tok))
    return FockVector.basis(letters)


class _Rows(list):
    """A complex matrix that the JSON encoder writes as nested ``[re, im]``
    lists, making one row at a time."""

    def __init__(self, matrix):
        super().__init__()
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return ([[v.real, v.imag] for v in row.tolist()] for row in self.matrix)


def _dump(value, indent: int | None = None) -> None:
    """Write ``json.dumps(value, sort_keys=True, indent=indent)`` in chunks of at most 4096
    pieces, one ``write`` each; ``iterencode`` takes the pure-Python encoder, which reads
    :class:`_Rows` lazily."""
    pieces = json.JSONEncoder(sort_keys=True, indent=indent).iterencode(value)
    for chunk in iter(lambda: list(itertools.islice(pieces, 4096)), []):
        sys.stdout.write("".join(chunk))
    sys.stdout.write("\n")


def _emit(args, checks: list[CheckReport], results: dict, text: str | None = None) -> int:
    """Print a command's report, in text mode ``text`` where given; exit 1 when a
    check failed, else 0, even if the reader closes the pipe before the report ends."""
    try:
        if args.json:
            _dump({"command": args.command,
                   "input": str(args.model) if "model" in args else args.expr,
                   "checks": [c.as_dict() for c in checks],
                   "results": results}, indent=2)
        elif text is not None:
            print(text)
        else:
            for check in checks:
                line = f"  {check.status.upper():7s} {check.name:24s} defect={check.defect:.3e}"
                if check.status != PASS and check.witness is not None:
                    line += f"  witness={json.dumps(jsonable(check.witness), sort_keys=True)}"
                print(line)
            for key, value in results.items():
                sys.stdout.write(f"  {key}: ")
                _dump(value)
        sys.stdout.flush()
    except BrokenPipeError:  # the rest goes to the null device, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if any(c.status == FAIL for c in checks) else 0


def _model(args):
    """The model of ``args.model`` with its tolerance and ``n_max``: ``--tol`` and
    ``--nmax`` where given, else the file's options.  ``--tol`` is held to the
    file's tolerance rule; the sector guard rejects a negative ``--nmax``."""
    from .modelfile import _tolerance, load_model_file
    loaded = load_model_file(args.model)
    tol, n_max = getattr(args, "tol", None), getattr(args, "nmax", None)
    return (loaded.model, loaded.tolerance if tol is None else _tolerance(tol, "--tol"),
            loaded.n_max if n_max is None else n_max)


def cmd_check(args) -> int:
    from .fock import _fock_checks
    from .models import check_symmetry, check_yang_baxter
    model, tol, n_max = _model(args)
    fock_checks, dims = _fock_checks(model, n_max, tol)
    normalized = model.eps.is_normalized()
    checks = [
        CheckReport("bicharacter-wellformed", PASS, 0.0, None, {"group": str(model.group)}),
        CheckReport("bicharacter-normalized", PASS if normalized.ok else FAIL, 0.0,
                    normalized.witness),
        check_yang_baxter(model, max(tol, 1e-12)),
        check_symmetry(model, tol),
        *fock_checks,
    ]
    return _emit(args, checks, {
        "sector_dimensions": dims,
        "model": {"generators": model.n_generators,
                  "group_orders": list(model.group.orders),
                  "braid": "grade-diagonal" if model.is_grade_diagonal else "matrix"},
        "tolerance": tol,
        "n_max": n_max,
    })


def cmd_gram(args) -> int:
    from .fock import HermiticityError, gram_matrix
    model, tol, _ = _model(args)
    result = gram_matrix(model, args.sector)
    try:  # the rank first: a counted spectrum also serves the gram-psd row
        rank = result.quotient_rank(tol)
    except HermiticityError:  # no rank, and no gram-psd row
        rank = None
    psd = result.psd_report(tol)
    hermitian = CheckReport("gram-hermitian", FAIL if rank is None else PASS, result.asymmetry)
    return _emit(args, [hermitian] if rank is None else [hermitian, psd], {
        "sector": args.sector,
        "full": model.n_generators ** args.sector,
        "rank": rank,
        "min_eigenvalue": psd.data.get("min_eigenvalue"),
        "basis": [list(w) for w in result.words],
        "matrix": _Rows(result.matrix),
    })


def cmd_apply(args) -> int:
    from .fock import apply_program
    model, _, _ = _model(args)
    program = parse_program(args.program)
    vector = parse_vector(args.vector)
    out = apply_program(model, program, vector)
    return _emit(args, [], {
        "program": args.program,
        "vector": [{"word": list(w), "amplitude": jsonable(a)} for w, a in out.sorted_items()],
    })


def cmd_transmute(args) -> int:
    from .groups import check_transmutation
    from .modelfile import load_bicharacter_file, load_hom_file, model_to_dict
    from .transmute import check_cross_symmetric, check_relation_transport, make_transmutation
    model, tol, n_max = _model(args)
    hom, _target_group = load_hom_file(args.hom, model.group)
    eps_target = load_bicharacter_file(args.target_bichar, hom.target)

    transport = check_transmutation(hom, model.eps, eps_target)
    checks = [CheckReport(
        "bicharacter-transport", PASS if transport.ok else FAIL, 0.0,
        None if transport.ok else {"pair": transport.witness,
                                   "source_phase": transport.source_phase,
                                   "target_phase": transport.target_phase})]
    t = make_transmutation(model, hom, eps_target)
    checks.append(check_cross_symmetric(t, tol))
    checks.append(check_relation_transport(t, n_max, tol))

    out_path = None
    if all(c.status == PASS for c in checks):
        out_path = Path(args.out) if args.out else Path(Path(args.model).stem + ".transmuted.json")
        out_path.write_text(json.dumps(model_to_dict(t.target, tol, n_max),
                                       sort_keys=True, indent=2) + "\n")
    return _emit(args, checks, {
        "hom_images": [list(im.residues) for im in hom.images],
        "target_group": list(hom.target.orders),
        "target_grades": [list(g.residues) for g in t.target.grades],
        "output_file": str(out_path) if out_path else None,
    })


def cmd_normalize(args) -> int:
    from .coherence import normalize, parse_expr
    nf = normalize(parse_expr(args.expr))
    form = nf.render()
    return _emit(args, [], {"normal_form": form, "is_unit": nf.is_unit}, form)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a rejected flag is an input error: one ``error:`` line
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="braidstat", description="checks and computations for graded statistics models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("model", help="model JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable report on stdout")

    p_check = sub.add_parser("check", help="run the full check suite on a model file")
    add_common(p_check)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--nmax", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_gram = sub.add_parser("gram", help="sector Gram matrix, rank, and min eigenvalue")
    add_common(p_gram)
    p_gram.add_argument("--sector", type=int, required=True)
    p_gram.add_argument("--tol", type=float, default=None)
    p_gram.set_defaults(func=cmd_gram)

    p_apply = sub.add_parser("apply", help="apply a process program to a vector")
    add_common(p_apply)
    p_apply.add_argument("--program", required=True, help='e.g. "c1;c2;x1;b2"')
    p_apply.add_argument("--vector", default="", help="comma-separated word; empty = vacuum")
    p_apply.set_defaults(func=cmd_apply)

    p_trans = sub.add_parser("transmute", help="push a model along a group homomorphism")
    add_common(p_trans)
    p_trans.add_argument("--hom", required=True, help="homomorphism JSON file")
    p_trans.add_argument("--target-bichar", required=True, help="target bicharacter JSON file")
    p_trans.add_argument("--out", default=None, help="where to write the transmuted model")
    p_trans.add_argument("--tol", type=float, default=None)
    p_trans.add_argument("--nmax", type=int, default=None)
    p_trans.set_defaults(func=cmd_transmute)

    p_norm = sub.add_parser("normalize", help="normal form of a monoidal expression")
    add_common(p_norm, model=False)
    p_norm.add_argument("--expr", required=True, help='e.g. "(A (x) B)^"')
    p_norm.set_defaults(func=cmd_normalize)

    return parser


#: the parser of :func:`main`, built on its first call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
