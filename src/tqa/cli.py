"""Command line interface.

Commands: tag, classify, decompose, answer, eval, pack-validate.  All
configuration is explicit (no environment variables, no wall clock); the
reference date defaults to the fixture or testbed file's own and finally
to 2008-01-01.

Exit codes: 0 success (an empty answer list is a valid outcome), 1
processing diagnostics, 2 usage (a blank question included), I/O or schema
errors.

Each command imports the modules it runs, so a start-up pays only for
those: ``answer`` never loads corpus or evaluation, ``tag`` never loads
the backend.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date

from . import __version__
from .errors import (
    Diagnostic,
    MalformedValue,
    PackInvalid,
    SchemaViolation,
    TqaError,
)
from .packs import compile_patterns, get_pack

DEFAULT_REF = date(2008, 1, 1)


def _add_common(parser, ref=True):
    parser.add_argument("--lang", default="en",
                        help="language pack code (default: en)")
    parser.add_argument("--pack", metavar="DIR",
                        help="directory with <lang>.xml pack files")
    if ref:
        parser.add_argument("--ref", metavar="YYYY-MM-DD",
                            help="reference date for deictic expressions")


def _resolve_ref(args, fallback=None) -> date:
    if args.ref:
        try:
            return date.fromisoformat(args.ref)
        except ValueError:
            raise SchemaViolation(f"bad reference date {args.ref!r}")
    return fallback or DEFAULT_REF


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqa",
        description="Temporal question decomposition and answering layer.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("tag", help="tag temporal expressions")
    _add_common(p)
    p.add_argument("question")

    p = commands.add_parser("classify", help="print the question type (1-4)")
    _add_common(p)
    p.add_argument("question")

    p = commands.add_parser("decompose",
                            help="print the decomposition as a Q block")
    _add_common(p)
    p.add_argument("question")

    p = commands.add_parser("answer", help="answer through the fixture backend")
    _add_common(p)
    p.add_argument("--fixtures", metavar="FILE",
                   help="fixture XML (default: fixtures shipped for --lang)")
    p.add_argument("question")

    p = commands.add_parser("eval", help="run the evaluation harness")
    _add_common(p, ref=False)
    p.add_argument("--testbed", metavar="FILE",
                   help="testbed XML (default: testbed shipped for --lang)")
    p.add_argument("--fixtures", metavar="FILE",
                   help="fixture XML enabling end-to-end answer rows")
    p.add_argument("--gold-te", action="store_true",
                   help="also evaluate with gold temporal expressions injected")
    p.add_argument("--format", choices=("text", "xml"), default="text")

    p = commands.add_parser("pack-validate", help="validate a language pack")
    p.add_argument("--lang", default="en")
    p.add_argument("--pack", metavar="DIR")
    return parser


def cmd_tag(args) -> int:
    from .tagger import tag
    pack = get_pack(args.lang, args.pack)
    for t in tag(args.question, pack, _resolve_ref(args)):
        print(f'<TE value="{t.value.canonical}">{t.surface}</TE>')
    return 0


def cmd_classify(args) -> int:
    from .decomposition import decompose
    pack = get_pack(args.lang, args.pack)
    print(decompose(args.question, pack, _resolve_ref(args)).qtype)
    return 0


def cmd_decompose(args) -> int:
    from .corpus import decomposition_to_element, format_q_block
    from .decomposition import decompose
    pack = get_pack(args.lang, args.pack)
    analysis = decompose(args.question, pack, _resolve_ref(args))
    if Diagnostic.UNSPLITTABLE in analysis.diagnostics:
        print(Diagnostic.UNSPLITTABLE.value, file=sys.stderr)
        return 1
    print(format_q_block(decomposition_to_element(analysis)))
    return 0


def cmd_answer(args) -> int:
    from .backend import (answer_complex_question, load_fixtures,
                          shipped_fixtures)
    pack = get_pack(args.lang, args.pack)
    if args.fixtures:
        store = load_fixtures(args.fixtures)
    else:
        store = shipped_fixtures(args.lang)
    result = answer_complex_question(args.question, pack,
                                     _resolve_ref(args, store.ref), store)
    for diagnostic in result.diagnostics:
        print(diagnostic.value, file=sys.stderr)
    if not result.answers:
        print("NOACT", file=sys.stderr)
    for answer in result.answers:
        print(answer.text)
    return 0


def cmd_eval(args) -> int:
    from .backend import load_fixtures
    from .corpus import load_testbed, shipped_testbed
    from .evaluation import render_text, render_xml, run_evaluation
    pack = get_pack(args.lang, args.pack)
    testbed = load_testbed(args.testbed) if args.testbed \
        else shipped_testbed(args.lang)
    store = load_fixtures(args.fixtures) if args.fixtures else None
    reports = [run_evaluation(testbed, pack, store=store)]
    if args.gold_te:
        reports.append(run_evaluation(testbed, pack, store=store,
                                      gold_te_injection=True))
    if args.format == "xml":
        for report in reports:
            sys.stdout.write(render_xml(report).decode("utf-8") + "\n")
        return 0
    for report in reports:
        print(render_text(report))
    if args.gold_te:
        base, injected = reports
        print("Gold expression injection delta (correct counts)")
        for before, after in zip(base.aspect_rows, injected.aspect_rows):
            delta = after.counts.corr - before.counts.corr
            print(f"{before.label:8} {before.counts.corr} -> "
                  f"{after.counts.corr} ({delta:+d})")
    return 0


def cmd_pack_validate(args) -> int:
    from .tagger import rule_op
    pack = get_pack(args.lang, args.pack)
    compile_patterns(pack)
    for rule in pack.te_rules:
        rule_op(rule)
    print(f"OK {pack.code}: {len(pack.signals)} signals, "
          f"{len(pack.te_rules)} expression rules, "
          f"{len(pack.clause_templates)} clause templates")
    return 0


_COMMANDS = {
    "tag": cmd_tag,
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "answer": cmd_answer,
    "eval": cmd_eval,
    "pack-validate": cmd_pack_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    question = getattr(args, "question", None)
    if question is not None and not question.strip():
        print("error: question is empty", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (SchemaViolation, PackInvalid, MalformedValue, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
