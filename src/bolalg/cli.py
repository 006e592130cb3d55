"""Command-line interface.

Each subcommand takes the flags its handler reads, and no other:

    bol check FILE      [--json]
    bol info FILE       [--json] [--form] [--invariance]
    bol radical FILE    [--json] [--form]
    bol envelope FILE   [--json] [--emit PATH]
    bol decompose FILE  [--json] [--form] [--invariance]
    bol examples NAME   [--emit PATH]

`COMMANDS` holds this table and also dispatches; any other flag is a
usage error, shown with the subcommand's usage.  Exit codes: 0 success/decided, 1 not a Bol algebra or
verification failure, 2 undecided/uncertified result, 3 input error (a
malformed document or command line, an --emit path that cannot be written,
or a result past the int-to-str digit limit).  All numbers in any output are exact fraction strings; there are no floats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The analysis layers are reached through the package, which imports each
# on first use: `bol check` and a rejected document load none of them.
import bolalg
from bolalg.core import center, check_axioms, ideal_closure
from bolalg.errors import BolError, DocumentError, FatalInconsistency, NotASubsystem, PreconditionViolation
from bolalg.fileio import emit_bol_document, emit_lie_document, parse_bol_document
from bolalg.linalg import basis_vec, full_space, rank, span

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_bol_document(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _num(c) -> str:
    """An exact number as the CLI prints it; one past the interpreter's int-to-str digit limit is an input error."""
    try:
        return str(c)
    except ValueError:
        raise DocumentError(f"a number in the result has more than {sys.get_int_max_str_digits()} digits") from None


def _vec_strs(v) -> list[str]:
    return [_num(c) for c in v]


def _subspace_json(S) -> dict:
    return {"dim": S.dim, "basis": [_vec_strs(row) for row in S.basis]}


def _gram_strs(g) -> list[list[str]]:
    return [_vec_strs(row) for row in g]


def _print(data: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_check(args) -> int:
    B, name = _load(args.file)
    report = check_axioms(B)
    data = {
        "name": name,
        "dim": B.n,
        "pass": report.ok,
        "identities": {
            c.name: {
                "ok": c.ok,
                "witness": list(c.witness) if c.witness else None,
                "defect": _vec_strs(c.defect) if c.defect else None,
                "failures": c.failures,
            }
            for c in report.identities
        },
    }
    lines = [f"{name}: dimension {B.n}"]
    for c in report.identities:
        if c.ok:
            lines.append(f"  {c.name}: ok")
        else:
            lines.append(
                f"  {c.name}: FAIL at basis tuple {c.witness}, defect {_vec_strs(c.defect)}"
                f" ({c.failures} failing tuples)"
            )
    lines.append("PASS" if report.ok else "FAIL")
    _print(data, args.json, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def _require_bol(args):
    B, name = _load(args.file)
    report = check_axioms(B)
    if not report.ok:
        bad = ", ".join(c.name for c in report.identities if not c.ok)
        raise NotASubsystem(f"{name}: not a Bol algebra (identities {bad} fail); run `bol check` for witnesses")
    return B, name


def cmd_info(args) -> int:
    B, name = _require_bol(args)
    full = full_space(B.n)
    c = center(B)
    lts = bolalg.lts_derived_series(B, full)
    bol = bolalg.bol_derived_series(B, full)
    tf = bolalg.trace_form(B)
    ef = bolalg.envelope_form(B)
    inv = bolalg.invariance_check(B, ef if args.form == "env" else tf, args.invariance)
    closures = [
        {"generator": label, "dim": ideal_closure(B, span([basis_vec(i, B.n)], B.n)).dim} for i, label in enumerate(B.labels)
    ]
    data = {
        "name": name,
        "dim": B.n,
        "center": _subspace_json(c),
        "series": {
            "lts": {"dims": [s.dim for s in lts.chain], "solvable": lts.solvable},
            "bol": {"dims": [s.dim for s in bol.chain], "solvable": bol.solvable},
        },
        "solvable": bol.solvable,
        "form_trace": _gram_strs(tf.gram),
        "form_envelope": _gram_strs(ef.gram),
        "forms_equal": tf.gram == ef.gram,
        "form_ranks": {"trace": rank(tf.gram), "envelope": rank(ef.gram)},
        "invariance": {"form": args.form, "variant": args.invariance, "ok": inv.ok},
        "ideal_closures": closures,
    }
    lines = [
        f"{name}: dimension {B.n}",
        f"  center: dim {c.dim}" + (f", basis {[_vec_strs(r) for r in c.basis]}" if c.dim else ""),
        f"  ternary derived series dims: {[s.dim for s in lts.chain]} (reaches zero: {lts.solvable})",
        f"  full derived series dims:    {[s.dim for s in bol.chain]} (solvable: {bol.solvable})",
        f"  Killing-Ricci (trace form):    {data['form_trace']} rank {data['form_ranks']['trace']}",
        f"  Killing-Ricci (envelope form): {data['form_envelope']} rank {data['form_ranks']['envelope']}",
        f"  forms agree entrywise: {data['forms_equal']}",
        f"  invariance of {args.form} form ({args.invariance} variant): {inv.ok}",
        "  basis-vector ideal closures: "
        + ", ".join(f"{x['generator']}->dim {x['dim']}" for x in closures),
    ]
    _print(data, args.json, lines)
    return EXIT_OK


def cmd_radical(args) -> int:
    B, name = _require_bol(args)
    cert = bolalg.radical(B, form_kind=args.form)
    data = {
        "name": name,
        "decided": cert.decided,
        "strategy": cert.strategy,
        "radical": _subspace_json(cert.radical) if cert.radical is not None else None,
        "checks": {
            "is_ideal": cert.is_ideal_ok,
            "solvable": cert.solvable_ok,
            "quotient_semisimple": cert.quotient_semisimple_ok,
        },
        "strategies": [
            {
                "strategy": s.strategy,
                "candidate_dim": s.candidate.dim if s.candidate is not None else None,
                "is_ideal": s.is_ideal_ok,
                "solvable": s.solvable_ok,
                "quotient_semisimple": s.quotient_semisimple_ok,
                "error": s.error,
            }
            for s in cert.details
        ],
        "form": args.form,
    }
    lines = [f"{name}: radical " + ("decided" if cert.decided else "UNDECIDED")]
    if cert.radical is not None:
        lines.append(f"  dim {cert.radical.dim}, basis {[_vec_strs(r) for r in cert.radical.basis]}")
        lines.append(f"  strategy: {cert.strategy}")
    for s in cert.details:
        stat = "error: " + s.error if s.error else (
            f"candidate dim {s.candidate.dim}, ideal={s.is_ideal_ok}, solvable={s.solvable_ok},"
            f" quotient-semisimple={s.quotient_semisimple_ok}"
        )
        lines.append(f"  [{s.strategy}] {stat}")
    _print(data, args.json, lines)
    return EXIT_OK if cert.decided else EXIT_UNDECIDED


def cmd_envelope(args) -> int:
    B, name = _require_bol(args)
    E = bolalg.envelope(B)
    rep = bolalg.structure_report(B)
    data = {
        "name": name,
        "b_dim": E.b_dim,
        "h_dim": len(E.h_basis),
        "total_dim": E.total_dim,
        "verified": {"jacobi": True, "projection": True, "recovery": True},
        "lie_solvable": rep.lie_solvable,
        "structure": {
            "lie_solvable": rep.lie_solvable,
            "beta_orthogonal_to_triple_span": rep.beta_orthogonal_to_triple_span,
            "item1_biconditional": rep.item1_biconditional,
            "lie_semisimple": rep.lie_semisimple,
            "beta_nondegenerate": rep.beta_nondegenerate,
            "item2_biconditional": rep.item2_biconditional,
            "component_dims": list(rep.component_dims),
            "triple_span_is_everything": rep.triple_span_is_everything,
            "note": rep.note,
        },
    }
    lines = [
        f"{name}: envelope has dimension {E.total_dim} = {E.b_dim} + {len(E.h_basis)}",
        "  verified: Jacobi, projection, recovery (exhaustive basis sweeps)",
        f"  Lie-solvable: {data['lie_solvable']}, Lie-semisimple: {rep.lie_semisimple}",
        f"  base orthogonal to triple span: {rep.beta_orthogonal_to_triple_span}"
        f" (matches solvability: {rep.item1_biconditional})",
        f"  Killing-Ricci nondegenerate: {rep.beta_nondegenerate}"
        f" (matches semisimplicity: {rep.item2_biconditional})",
    ]
    if rep.decomposition_ran:
        lines.append(f"  simple components: {list(rep.component_dims)} (certified: {rep.decomposition_certified})")
    if args.emit:
        _write(args.emit, emit_lie_document(E.lie, f"{name}.envelope", env=E))
        lines.append(f"  wrote {args.emit}")
        data["emitted"] = args.emit
    _print(data, args.json, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    B, name = _require_bol(args)
    beta = bolalg.envelope_form(B) if args.form == "env" else bolalg.trace_form(B)
    try:
        dec = bolalg.decompose_semisimple(B, beta, args.invariance)
    except PreconditionViolation as exc:
        print(f"{name}: decomposition preconditions fail: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    data = {
        "name": name,
        "certified": dec.certified,
        "components": [
            {"dim": c.n, "embedding": _subspace_json(e)} for c, e in zip(dec.components, dec.embeddings)
        ],
        "orthogonality": [[bool(x) for x in row] for row in dec.orthogonality],
        "notes": list(dec.notes),
    }
    lines = [f"{name}: {len(dec.components)} component(s), certified: {dec.certified}"]
    for c, e in zip(dec.components, dec.embeddings):
        lines.append(f"  dim {c.n}: basis {[_vec_strs(r) for r in e.basis]}")
    lines.append(f"  pairwise orthogonal: {all(all(r) for r in dec.orthogonality)}")
    for note in dec.notes:
        lines.append(f"  note: {note}")
    _print(data, args.json, lines)
    return EXIT_OK if dec.certified else EXIT_UNDECIDED


def cmd_examples(args) -> int:
    try:
        B = bolalg.catalog(args.name)
    except BolError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    text = emit_bol_document(B, args.name)
    if args.emit:
        _write(args.emit, text)
        print(f"wrote {args.emit}")
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT: argparse's own code 2 would read as "undecided"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# The flags a subcommand can take, with their argparse settings.
FLAGS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--emit": {"metavar": "PATH", "default": None, "help": "write an output document here"},
    "--form": {"choices": ("env", "prop1"), "default": "env", "help": "which Killing-Ricci construction to use"},
    "--invariance": {"choices": ("skew", "paper"), "default": "skew", "help": "ternary invariance variant"},
}

_FILE = ("file", "Bol algebra JSON file")

# Each subcommand: its handler, its help, its positional argument and
# the flags the handler reads.  The parser offers exactly these.
COMMANDS = {
    "check": (cmd_check, "verify the defining identities", _FILE, ("--json",)),
    "info": (cmd_info, "center, derived series, forms", _FILE, ("--json", "--form", "--invariance")),
    "radical": (cmd_radical, "radical with certificates", _FILE, ("--json", "--form")),
    "envelope": (cmd_envelope, "construct and verify the enveloping Lie algebra", _FILE, ("--json", "--emit")),
    "decompose": (cmd_decompose, "split into orthogonal simple ideals", _FILE, ("--json", "--form", "--invariance")),
    "examples": (cmd_examples, "emit a catalog algebra", ("name", "the catalog names"), ("--emit",)),
}


class _HelpFormatter(argparse.HelpFormatter):
    """Spells out the catalog names in the help of `bol examples`, loading the catalog only when that help is shown."""

    def _get_help_string(self, action):
        if action.help == COMMANDS["examples"][2][1]:
            return f"one of: {', '.join(bolalg.catalog_names())}"
        return super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bol",
        description="Exact computer algebra for finite-dimensional Bol algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, (arg, arg_help), flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, formatter_class=_HelpFormatter)
        p.add_argument(arg, help=arg_help)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(handler=handler, parser=p)
    return parser


def main(argv=None) -> int:
    # argparse hands a subcommand's unknown flags to the top parser; that subcommand reports them
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.handler(args)
    except DocumentError as exc:
        field = f" (at {exc.field})" if exc.field else ""
        print(f"input error{field}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FatalInconsistency as exc:
        print(f"fatal inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
