"""Named mutants of comorph's source, each with the tests that must fail on it.

Run from anywhere; it finds the checkout from its own path::

    python tests/mutants.py              # every mutant in the table
    python tests/mutants.py NAME [NAME]  # only these

For each mutant it copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, replaces the mutant's snippet in the copy and runs
pytest there on the mutant's tests, so a test that starts a fresh interpreter
on ``src/`` sees the mutant too. It prints one line per mutant: ``killed``
or ``survived``, with the number of failing tests. A mutant whose tests run
longer than ``TIMEOUT_S`` is stopped and reported ``timed out``. It exits 1
when a mutant is not killed, when its snippet does not occur exactly once in
its file, or when pytest cannot run its tests; so code that moves must move
its mutant too.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seconds one mutant's tests may run: the slowest took 8.5 s on a 2-core VM, so
# only a mutant that loops (a shrink or scan that never ends) reaches this.
TIMEOUT_S = 120

# file is relative to src/comorph; tests are pytest paths from the checkout's root.
Mutant = namedtuple("Mutant", ("name", "file", "snippet", "replacement", "tests"))

CG_TESTS = ("tests/test_cg.py",)
BENCH_TESTS = ("tests/test_bench.py",)
PARADIGM_TESTS = ("tests/test_paradigm_table.py",)

MUTANTS = (
    # The rule plan, the readings parser, the formatter and streaming `comorph cg`.
    Mutant(
        "plan-drops-negated",
        "cg.py",
        "c.test.value, c.negated)",
        "c.test.value, False)",
        CG_TESTS,
    ),
    Mutant(
        "apply-rule-compares-not-equal-to-negated",
        "cg.py",
        "cells[j].readings)) == negated:",
        "cells[j].readings)) != negated:",
        CG_TESTS,
    ),
    Mutant("parser-keeps-the-blank-feature", "cg.py", "features -= _BLANK", "pass", CG_TESTS),
    Mutant(
        "format-reading-set-skips-its-sort",
        "cg.py",
        "    keys.sort()\n",
        "",
        CG_TESTS,
    ),
    Mutant(
        "feature-sets-not-shared",
        "cg.py",
        "@lru_cache(maxsize=_CACHE_SIZE)\ndef _features(",
        "def _features(",
        CG_TESTS,
    ),
    Mutant(
        "format-orders-by-joined-feature-text",
        "cg.py",
        "    keys.sort()\n",
        '    keys.sort(key=lambda k: (k[0], k[1], ",".join(k[2])))\n',
        CG_TESTS,
    ),
    Mutant(
        "cg-command-prints-each-sentence-as-it-goes",
        "cli.py",
        '                out.write(f"\\n{piece}\\n" if n else f"{piece}\\n")\n',
        '                sys.stdout.write(f"\\n{piece}\\n" if n else f"{piece}\\n")\n',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cg-command-reads-the-whole-input",
        "cli.py",
        "enumerate(iter_readings(fh))",
        "enumerate(iter_readings((fh.read(),)))",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cg-command-reads-a-pipe-in-place",
        "cli.py",
        "        if not fh.seekable():",
        "        if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cg-command-skips-the-whole-decode-on-error",
        "cli.py",
        "            fh.seek(0)\n            fh.read()\n",
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cg-command-keeps-its-output-in-memory",
        "cli.py",
        'TemporaryFile("w+", encoding="utf-8", newline="") as out,',
        "io.StringIO() as out,",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cg-command-keeps-its-trace-in-memory",
        "cli.py",
        'TemporaryFile("w+", encoding="utf-8", newline="") as log,',
        "io.StringIO() as log,",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "readings-pieces-split-on-newline-only",
        "cg.py",
        'unicodedata.normalize("NFC", p).splitlines()',
        'unicodedata.normalize("NFC", p).split("\\n")',
        ("tests/test_cli.py",),
    ),
    # CG mutants of earlier changes.
    Mutant(
        "parser-keeps-spaces-around-the-pos",
        "cg.py",
        "pos, baseform = pos.strip(), baseform.strip()",
        "baseform = baseform.strip()",
        CG_TESTS,
    ),
    Mutant(
        "parser-keeps-spaces-around-features",
        "cg.py",
        'frozenset(map(str.strip, field.split(",")))',
        'frozenset(field.split(","))',
        CG_TESTS,
    ),
    Mutant(
        "format-key-leaves-features-unsorted",
        "cg.py",
        "sorted(features) if features else []",
        "list(features)",
        CG_TESTS,
    ),
    Mutant(
        "reach-trusts-the-index-for-changed-tokens",
        "cg.py",
        "            if token is not indexed[i]:\n",
        "            if False:\n",
        CG_TESTS,
    ),
    Mutant(
        "reach-keeps-a-token-the-target-no-longer-splits",
        "cg.py",
        "if len(here) < 2 or value not in here:",
        "if value not in here:",
        CG_TESTS,
    ),
    Mutant(
        "apply-rule-builds-through-the-checking-constructor",
        "cg.py",
        "return _tuple_new(ReadingSet, (focus.surface, frozenset(keep)))",
        "return ReadingSet(focus.surface, frozenset(keep))",
        CG_TESTS,
    ),
    Mutant(
        "trace-skips-the-first-reached-token",
        "cg.py",
        "            for i in compress(count(), map(is_not, cells, before)):\n",
        "            for i in list(compress(count(), map(is_not, cells, before)))[1:]:\n",
        CG_TESTS,
    ),
    Mutant(
        "cg-pass-hands-rules-its-output",
        "cg.py",
        "        token = arrow(cells, i)\n",
        "        token = arrow(out, i)\n",
        (
            "tests/test_cg.py::"
            "test_a_cg_pass_hands_each_rule_its_input_cells_at_reach_positions_in_order",
        ),
    ),
    Mutant(
        "reading-keeps-features-unfrozen",
        "cg.py",
        "        features = features if isinstance(features, frozenset) else frozenset(features)\n",
        "",
        CG_TESTS,
    ),
    Mutant(
        "reading-accepts-a-string-of-features",
        "cg.py",
        "        if isinstance(features, str):\n",
        "        if False:\n",
        CG_TESTS,
    ),
    Mutant(
        "reading-set-accepts-non-readings",
        "cg.py",
        "            if not isinstance(r, Reading):\n",
        "            if False:\n",
        CG_TESTS,
    ),
    Mutant(
        "cg-rule-accepts-any-action",
        "cg.py",
        '_typed(("action", action, RuleAction), ("target", target, ReadingTest))',
        '_typed(("target", target, ReadingTest))',
        ("tests/test_cg.py::test_a_rule_field_of_the_wrong_type_is_refused",),
    ),
    Mutant(
        "condition-accepts-a-bool-offset",
        "cg.py",
        " or (isinstance(value, bool) and kind is int):",
        ":",
        ("tests/test_cg.py::test_a_rule_field_of_the_wrong_type_is_refused",),
    ),
    # The word path.
    Mutant(
        "writer-extend-returns-its-input-when-no-cell-changed",
        "writer.py",
        "    if log is wz.log and out is wz.cells:\n",
        "    if out is wz.cells:\n",
        ("tests/test_writer.py::test_weak_gradation_defers_deletion",),
    ),
    Mutant(
        "pass-hands-rules-its-output",
        "writer.py",
        "            deletions, ch = table[c](cells, i)\n",
        "            deletions, ch = table[c](out, i)\n",
        (
            "tests/test_pipeline.py::"
            "test_a_pass_hands_each_rule_its_input_cells_at_support_cells_in_order",
        ),
    ),
    Mutant(
        "writer-zipper-keeps-the-log-unfrozen",
        "writer.py",
        "        log = frozenset(log)\n",
        "",
        ("tests/test_writer.py",),
    ),
    Mutant(
        "writer-zipper-accepts-a-bool-position",
        "writer.py",
        "            if not isinstance(p, int) or isinstance(p, bool):\n",
        "            if not isinstance(p, int):\n",
        ("tests/test_writer.py",),
    ),
    Mutant(
        "from-sequence-accepts-any-focus",
        "zipper.py",
        "    if not isinstance(focus_index, int) or isinstance(focus_index, bool):\n",
        "    if False:\n",
        ("tests/test_zipper.py",),
    ),
    Mutant(
        "extend-always-rebuilds",
        "zipper.py",
        "return z if out is None else _at(tuple(out), z.index)",
        "return _at(tuple(cells if out is None else out), z.index)",
        ("tests/test_zipper.py",),
    ),
    Mutant(
        "start-accepts-upper-case-letters",
        "writer.py",
        "        if c != c.lower() and c not in PLACEHOLDERS:\n",
        "        if False:\n",
        (
            "tests/test_pipeline.py::test_an_upper_case_letter_is_rejected_at_its_position",
            "tests/test_gradation.py::test_upper_case_letters_are_rejected",
        ),
    ),
    Mutant(
        "copy-skips-harmony-placeholders",
        "vowels.py",
        "            if c in HARMONY_PLACEHOLDERS:\n"
        "                c = _harmonize(cells, j)\n"
        "                break\n",
        "",
        ("tests/test_vowels.py::test_vowel_stages_match_the_grammar",),
    ),
    # The one stage-order condition: with the reads check gone the constructor
    # accepts any later stage, and one pass and the staged passes part.
    Mutant(
        "pipeline-accepts-any-later-stage",
        "pipeline.py",
        "            if first is not None:\n",
        "            if False:\n",
        (
            "tests/test_pipeline.py::"
            "test_trace_ends_in_what_run_gives_for_every_accepted_stage_list",
        ),
    ),
    Mutant(
        "pipeline-skips-the-stage-shape-check",
        "pipeline.py",
        "            if not (isinstance(stage, tuple) and len(stage) == 5):\n",
        "            if False:\n",
        ("tests/test_pipeline.py::test_a_stage_of_the_wrong_shape_is_a_type_error",),
    ),
    Mutant(
        "gradation-reads-no-vowel",
        "gradation.py",
        "support.union(VOWELS, *exact)",
        "support.union(*exact)",
        ("tests/test_pipeline.py::test_pipeline_refuses_stages_one_pass_cannot_run",),
    ),
    Mutant(
        "trace-shows-the-full-pass-on-every-row",
        "pipeline.py",
        "        passes = [_pass(t, cells, EMPTY_DELETIONS) for t in self._tables[:-1]] + [done]\n",
        "        passes = [done] * len(self._tables)\n",
        ("tests/test_pipeline.py::test_trace_row_k_is_the_pass_of_the_first_k_stages",),
    ),
    Mutant(
        "weaken-grades-toward-strong",
        "pipeline.py",
        "return gradation_pipeline(Grade.WEAK).run(word)",
        "return gradation_pipeline(Grade.STRONG).run(word)",
        ("tests/test_gradation.py",),
    ),
    Mutant(
        "gradation-reads-any-grade-as-strong",
        "gradation.py",
        "    if not isinstance(grade, Grade):\n",
        "    if False:\n",
        ("tests/test_pipeline.py::test_a_grade_that_is_not_a_grade_is_refused",),
    ),
    # The one refusal route of generate: start on the lemma, then the lemma checks, then the case.
    Mutant(
        "generate-checks-the-case-before-the-lemma",
        "generator.py",
        '        lemma = "".join(start(lemma))\n',
        "        if not isinstance(case, NounCase):\n"
        '            raise TypeError(f"case must be a NounCase, not {case!r}")\n'
        '        lemma = "".join(start(lemma))\n',
        ("tests/test_generator.py::test_bad_lemma_error_type_and_message",),
    ),
    Mutant(
        "generate-skips-start-on-its-error-path",
        "generator.py",
        '        lemma = "".join(start(lemma))\n',
        "",
        ("tests/test_generator.py",),
    ),
    # The case table, checked against paradigms written from Finnish grammar.
    Mutant(
        "partitive-runs-the-weak-pipeline",
        "generator.py",
        'CaseTemplate("A", "AVn", _STRONG)',
        'CaseTemplate("A", "AVn", _WEAK)',
        PARADIGM_TESTS,
    ),
    Mutant(
        "essive-runs-the-weak-pipeline",
        "generator.py",
        'CaseTemplate("nA", "nAVn", _STRONG)',
        'CaseTemplate("nA", "nAVn", _WEAK)',
        (*PARADIGM_TESTS, "tests/test_grammar_ratchet.py"),
    ),
    Mutant(
        "allative-ending-takes-harmony",
        "generator.py",
        'CaseTemplate("lle", "lleVn", _WEAK)',
        'CaseTemplate("llA", "llAVn", _WEAK)',
        PARADIGM_TESTS,
    ),
    Mutant(
        "inessive-poss3-cell-drops-its-ending",
        "generator.py",
        'CaseTemplate("ssA", "ssAVn", _WEAK)',
        'CaseTemplate("ssA", "ssA", _WEAK)',
        PARADIGM_TESTS,
    ),
    # The law suites: criterion 3 names every suite in SUITES; failures are shrunk.
    Mutant(
        "laws-table-drops-compose-equivalence",
        "laws.py",
        '    ("writer-compose-equivalence", _holds_compose_equivalence),\n',
        "",
        ("tests/test_acceptance.py", "tests/test_cli.py"),
    ),
    Mutant(
        "laws-report-the-unshrunk-case",
        "laws.py",
        "small = _shrink(case, lambda c: not holds(c))",
        "small = case",
        ("tests/test_cli.py",),
    ),
    # Records and lazy loading.
    Mutant(
        "record-allows-deleting-a-field",
        "record.py",
        "    __delattr__ = __setattr__\n",
        "",
        ("tests/test_records.py",),
    ),
    Mutant(
        "eager-cg-import-in-the-package",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\nfrom . import cg  # noqa: E402\n',
        ("tests/test_records.py",),
    ),
    Mutant(
        "eager-cg-import-in-the-cli",
        "cli.py",
        "import sys\n\n",
        "import sys\n\nfrom . import cg  # noqa: F401\n",
        ("tests/test_records.py",),
    ),
    Mutant(
        "lazy-export-not-stored",
        "__init__.py",
        "    globals()[name] = value\n",
        "",
        ("tests/test_exports.py",),
    ),
    Mutant(
        "lazy-exports-without-the-submodules",
        "__init__.py",
        "_HOME.update((module, module) for module in _EXPORTS)\n",
        "",
        ("tests/test_records.py", "tests/test_exports.py"),
    ),
    # comorph bench: one row function over the calls the program makes.
    Mutant(
        "bench-row-drops-the-first-input",
        "bench.py",
        "            for op in fs:\n",
        "            for op in fs[1:]:\n",
        BENCH_TESTS,
    ),
    Mutant(
        "bench-row-times-each-input-once",
        "bench.py",
        "for _ in range(iterations):",
        "for _ in range(1):",
        BENCH_TESTS,
    ),
    Mutant(
        "bench-row-reports-the-sample-std",
        "bench.py",
        "statistics.pstdev(samples)",
        "statistics.stdev(samples)",
        BENCH_TESTS,
    ),
    Mutant(
        "bench-row-reports-the-mean-as-the-median",
        "bench.py",
        "statistics.median(samples)",
        "statistics.fmean(samples)",
        BENCH_TESTS,
    ),
    # The harmony row runs what the possessive row runs: the stage on copy words.
    Mutant(
        "bench-harmony-row-runs-the-possessive-stage",
        "bench.py",
        "vowels.run(w)) for w in HARMONY_WORDS]",
        "vowels.run(w)) for w in POSSESSIVE_WORDS]",
        BENCH_TESTS,
    ),
    Mutant(
        "bench-possessive-row-runs-the-full-pipeline",
        "bench.py",
        '"possessive": [(lambda w=w: vowels.run(w))',
        '"possessive": [(lambda w=w: run_pipeline(w, Grade.WEAK))',
        BENCH_TESTS,
    ),
    # The single CG rule row times run_cg's one-rule pass, not a whole run of one rule.
    Mutant(
        "bench-cg-rule-row-runs-a-whole-run-per-rule",
        "bench.py",
        "(lambda r=r: _rule_pass(r, index, cells))",
        "(lambda r=r: run_cg(cells, [r]))",
        BENCH_TESTS,
    ),
)


def source(mutant: Mutant, root: Path = ROOT) -> str:
    return (root / "src" / "comorph" / mutant.file).read_text(encoding="utf-8")


def run(mutant: Mutant) -> tuple[str, int]:
    """``(outcome, failing tests)``: ``killed``, ``survived``, ``timed out`` or an error."""
    found = source(mutant).count(mutant.snippet)
    if found != 1:
        return f"snippet found {found} times", 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "comorph" / mutant.file
        path.write_text(source(mutant, copy).replace(mutant.snippet, mutant.replacement), "utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "--hypothesis-profile=mutants", *mutant.tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timed out", 0
    failing = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", done.stdout))
    if done.returncode == 0:
        return "survived", 0
    if done.returncode == 1 and failing:
        return "killed", failing
    return f"pytest exited {done.returncode}", failing


def main(names: list[str]) -> int:
    table = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in [table[name] for name in names] or MUTANTS:
        outcome, failing = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:<10} {failing:>3} failing  {mutant.name}", flush=True)
    print(f"{len(names) or len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
