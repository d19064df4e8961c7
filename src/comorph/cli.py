"""Command-line front end. Every command is a thin wrapper over the library."""

import argparse
import sys

from .gradation import PATTERNS, Grade
from .generator import NounCase, generate
from .pipeline import VOWEL_STAGE, Pipeline, gradation_pipeline, run_pipeline


def _cmd_grad(args: argparse.Namespace) -> int:
    pipeline = gradation_pipeline(Grade(args.grade))
    if args.trace:
        for row in pipeline.trace(args.word):
            print(row.render())
    else:
        print(pipeline.run(args.word))
    return 0


def _cmd_harmony(args: argparse.Namespace) -> int:
    print(Pipeline((VOWEL_STAGE,)).run(args.word))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    print(run_pipeline(args.word, Grade(args.grade)))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    print(generate(args.lemma, NounCase(args.case), possessive_3=args.poss3))
    return 0


def _cmd_cg(args: argparse.Namespace) -> int:
    # Imported here, not at the top, so that other commands start faster.
    import io
    import shutil
    from tempfile import TemporaryFile

    from .cg import format_reading_set, format_sentences, iter_readings, parse_rules, run_cg

    with open(args.rules, encoding="utf-8-sig") as fh:
        rules = parse_rules(fh.read())

    def trace(rule_no: int, token_idx: int, before, after) -> None:
        before, after = format_reading_set(before), format_reading_set(after)
        log.write(f"rule {rule_no} fired at token {token_idx + 1}: {before} → {after}\n")

    # Sentence by sentence. Output and trace wait in unnamed temporary files and are
    # copied out only once all of the input parsed, so a bad line prints nothing.
    on_fire = trace if args.trace else None
    with (
        open(args.input, encoding="utf-8-sig") as fh,
        TemporaryFile() as copy,
        TemporaryFile("w+", encoding="utf-8", newline="") as out,
        TemporaryFile("w+", encoding="utf-8", newline="") as log,
    ):
        if not fh.seekable():  # a pipe: parsed from a copy, so that every input can seek
            shutil.copyfileobj(fh.buffer, copy)
            copy.seek(0)
            fh = io.TextIOWrapper(copy, encoding="utf-8-sig")
        try:
            for n, s in enumerate(iter_readings(fh)):
                piece = format_sentences([run_cg(s, rules, on_fire=on_fire)])
                out.write(f"\n{piece}\n" if n else f"{piece}\n")
        except ValueError:  # as read whole: a bad byte anywhere comes first, at its offset
            fh.seek(0)
            fh.read()
            raise
        for spool, stream in ((log, sys.stderr), (out, sys.stdout)):
            spool.seek(0)
            shutil.copyfileobj(spool, stream)
    return 0


def _cmd_laws(args: argparse.Namespace) -> int:
    from .laws import run_all  # as in _cmd_cg

    reports = run_all(seed=args.seed, cases=args.cases)
    for report in reports:
        if report.passed:
            print(f"ok   {report.name} ({report.cases} cases)")
        else:
            print(f"FAIL {report.name}:")
            for example in report.counterexamples:
                print(f"     {example}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import format_table, run_benchmarks  # as in _cmd_cg

    rows = run_benchmarks(iterations=args.iterations)
    print(f"iterations per component: {args.iterations}")
    print(format_table(rows))
    return 0


def _cmd_dump_patterns(args: argparse.Namespace) -> int:
    def window(cells: tuple[str | None, str | None]) -> str:
        rendered = "".join(c for c in cells if c is not None)
        return rendered if rendered else "∅"

    for pat in sorted(PATTERNS, key=lambda p: p.kotus_index):
        strong, weak = pat.example
        print(
            f"{pat.kotus_index}\t{window(pat.strong)}\t{window(pat.weak)}"
            f"\t{pat.kind}\t{strong}→{weak}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comorph",
        description="Finnish morphophonology and reading disambiguation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grad", help="apply consonant gradation to one word")
    p.add_argument("word")
    p.add_argument("--grade", choices=[g.value for g in Grade], required=True)
    p.add_argument("--trace", action="store_true", help="print the stage trace")
    p.set_defaults(func=_cmd_grad)

    p = sub.add_parser("harmony", help="resolve A/O/U/V placeholders in one word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_harmony)

    p = sub.add_parser("pipeline", help="run gradation, harmony and possessive copy")
    p.add_argument("word")
    p.add_argument("--grade", choices=[g.value for g in Grade], required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("generate", help="inflect a vowel-final lemma")
    p.add_argument("lemma")
    p.add_argument("--case", choices=[c.value for c in NounCase], required=True)
    p.add_argument("--poss3", action="store_true", help="add the 3rd-person possessive")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cg", help="disambiguate a readings file with a rule file")
    p.add_argument("rules")
    p.add_argument("input")
    p.add_argument("--trace", action="store_true", help="report rule firings on stderr")
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("laws", help="run the randomized algebraic law suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=1000)
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("bench", help="run the latency microbenchmarks")
    p.add_argument("--iterations", type=int, default=10_000)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("dump-patterns", help="print the gradation table as TSV")
    p.set_defaults(func=_cmd_dump_patterns)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
