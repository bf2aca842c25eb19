"""Command-line interface over the document formats.

Exit codes: 0 success, 1 validation or domain error (diagnostic on
stderr), 2 usage error, 3 internal error: a failed internal cross-check,
which is a bug and never a bad input ("internal error: ..." on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .classify import plumbing_description, recognize_four, recognize_three
from .errors import DomainError, InternalInconsistency
from .generate import gen_random_family
from .invariants import chi_y_report
from .multifan import (
    ROTATIONS,
    ROTATIONS_AND_REVERSAL,
    blow_down_in_family,
    blow_up_in_family,
    canonical_form,
)
from .reduction import normalize_complex, reduce_to_minimal, replay
from .render import render_fan_svg, render_graph_dot, render_graph_tikz
from .serialize import (
    FORMAT_FAMILY,
    FORMAT_GRAPH,
    FORMAT_LOG,
    document_for,
    emit_classification,
    emit_document,
    emit_normal_form,
    is_decimal,
    parse_document,
)
from .torusgraph import family_to_graph, graph_to_family


def integer(text):
    """An integer argument, spelled as in documents: an optional "-" and
    ASCII digits only, where int() takes any Unicode digit."""
    if not is_decimal(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _load_document(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_document(text)


def _load_family(path):
    doc = _load_document(path)
    if doc.format == FORMAT_FAMILY:
        return doc.payload
    if doc.format == FORMAT_GRAPH:
        return graph_to_family(doc.payload)
    raise DomainError(f"{path}: expected a family or graph document, got {doc.format}")


def _load_graph(path):
    doc = _load_document(path)
    if doc.format == FORMAT_GRAPH:
        return doc.payload
    if doc.format == FORMAT_FAMILY:
        return family_to_graph(doc.payload)
    raise DomainError(f"{path}: expected a family or graph document, got {doc.format}")


def _emit(payload):
    sys.stdout.write(emit_document(document_for(payload)))


def _cmd_validate(args):
    doc = _load_document(args.file)
    print(f"ok: {doc.format}")
    return 0


def _cmd_convert(args):
    if args.to == "fan":
        _emit(_load_family(args.file))
    else:
        _emit(_load_graph(args.file))
    return 0


def _cmd_invariants(args):
    _emit(chi_y_report(_load_family(args.file)))
    return 0


def _cmd_rewrite(args):
    doc = _load_document(args.file)
    if doc.format != FORMAT_FAMILY:
        raise DomainError(
            f"{args.file}: this command needs a family document (convert graphs first)")
    _emit(args.rewrite(doc.payload, args.fan, args.pos))
    return 0


def _cmd_minimize(args):
    final, log = reduce_to_minimal(_load_family(args.file))
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write(emit_document(document_for(log)))
    _emit(final)
    return 0


def _cmd_normalize_complex(args):
    fam = _load_family(args.file)
    if len(fam.fans) != 1:
        raise DomainError("normalize-complex needs a single-fan family")
    sys.stdout.write(emit_normal_form(*normalize_complex(fam.fans[0])))
    return 0


def _cmd_classify(args):
    rows = []
    for fan in _load_family(args.file).fans:
        k = len(fan.vectors)
        if k == 3:
            form = recognize_three(fan)
        elif k == 4:
            form = recognize_four(fan)
        else:
            form = None
        rows.append((fan, form, plumbing_description(fan)))
    sys.stdout.write(emit_classification(rows))
    return 0


def _cmd_equiv(args):
    def key(fam):
        return sorted(canonical_form(f, args.mode).vectors for f in fam.fans)

    same = key(_load_family(args.a)) == key(_load_family(args.b))
    print("true" if same else "false")
    return 0 if same else 1


def _cmd_render(args):
    if args.format == "svg":
        sys.stdout.write(render_fan_svg(_load_family(args.file)))
    elif args.format == "dot":
        sys.stdout.write(render_graph_dot(_load_graph(args.file)))
    else:
        sys.stdout.write(render_graph_tikz(_load_graph(args.file)))
    return 0


def _cmd_generate(args):
    signs = None
    if args.signs:
        try:
            signs = [integer(s) for s in args.signs.split(",")]
        except ValueError:
            raise DomainError(f"--signs must be a comma list of +1/-1, "
                              f"got {args.signs!r}") from None
    _emit(gen_random_family(args.seed, args.components, args.blowups, signs))
    return 0


def _cmd_replay(args):
    doc = _load_document(args.log)
    if doc.format != FORMAT_LOG:
        raise DomainError(f"{args.log}: expected a move-log document, got {doc.format}")
    log, family = doc.payload, _load_family(args.file)
    # reading the log replayed its moves from its initial family already
    _emit(log.final if family == log.initial else replay(family, log.moves))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acx4",
        description="Validate, rewrite, reduce, and measure fan families "
                    "and their labeled graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *positionals, **defaults):
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=handler, **defaults)
        return p

    command("validate", _cmd_validate, "parse and validate any document", "file")
    p = command("convert", _cmd_convert, "convert between fan and graph documents",
                "file")
    p.add_argument("--to", choices=("fan", "graph"), required=True)
    command("invariants", _cmd_invariants, "emit the invariant report of a family",
            "file")
    for name, rewrite, about in (
            ("blowup", blow_up_in_family, "insert the sum of an adjacent vector pair"),
            ("blowdown", blow_down_in_family,
             "delete a vector equal to its neighbor sum")):
        p = command(name, _cmd_rewrite, about, "file", rewrite=rewrite)
        p.add_argument("--fan", type=integer, required=True)
        p.add_argument("--pos", type=integer, required=True)
    p = command("minimize", _cmd_minimize, "reduce a family to unit vectors", "file")
    p.add_argument("--log", help="also write the replayable move log here")
    command("normalize-complex", _cmd_normalize_complex,
            "reduce a winding-one fan to the unit 4-fan", "file")
    command("classify", _cmd_classify, "normal forms and plumbing data of each fan",
            "file")
    p = command("equiv", _cmd_equiv, "compare two families up to rotation", "a", "b")
    p.add_argument("--mode", choices=(ROTATIONS, ROTATIONS_AND_REVERSAL),
                   default=ROTATIONS)
    p = command("render", _cmd_render, "draw a document as svg, dot, or tikz", "file")
    p.add_argument("--format", choices=("svg", "dot", "tikz"), required=True)
    p = command("generate", _cmd_generate, "seeded random family from unit fans")
    p.add_argument("--seed", type=integer, required=True)
    p.add_argument("--components", type=integer, default=1)
    p.add_argument("--blowups", type=integer, default=0)
    p.add_argument("--signs", help="comma list of +1/-1, one per component")
    p = command("replay", _cmd_replay, "apply a move log to a family", "file")
    p.add_argument("--log", required=True)

    return parser


_parser = None


def cli_main(argv=None) -> int:
    # building the parser costs far more than a parse, so it is built once
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():
    raise SystemExit(cli_main(sys.argv[1:]))
