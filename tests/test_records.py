"""The record types: built without ``dataclasses``, and loaded without it.

Also what each import loads: only the submodules a call uses.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from comorph import (
    PATTERNS,
    CaseTemplate,
    CgRule,
    Condition,
    GradationPattern,
    Grade,
    Pipeline,
    ReadingTest,
    RuleAction,
    standard_pipeline,
)
from comorph.bench import BenchRow
from comorph.laws import SuiteReport
from comorph.pipeline import VOWEL_STAGE, TraceRow
from comorph.writer import WriterZipper
from comorph.zipper import from_sequence

SRC = Path(__file__).resolve().parents[1] / "src"
NOUN = ReadingTest("pos", "noun")

# (class, fields in order, the same fields with the last one changed, repr)
RECORDS = [
    (ReadingTest, ("pos", "noun"), ("pos", "verb"), "ReadingTest(field='pos', value='noun')"),
    (
        Condition,
        (-1, NOUN, True),
        (-1, NOUN, False),
        "Condition(offset=-1, test=ReadingTest(field='pos', value='noun'), negated=True)",
    ),
    (
        CgRule,
        (RuleAction.SELECT, NOUN, Condition(1, NOUN)),
        (RuleAction.SELECT, NOUN, None),
        "CgRule(action=<RuleAction.SELECT: 'SELECT'>, target=ReadingTest(field='pos', "
        "value='noun'), condition=Condition(offset=1, test=ReadingTest(field='pos', "
        "value='noun'), negated=False))",
    ),
    (
        GradationPattern,
        (1, ("p", "p"), ("p", None), "quantitative", ("kaappi", "kaapi")),
        (1, ("p", "p"), ("p", None), "quantitative", ("kaappi", "kaapia")),
        "GradationPattern(kotus_index=1, strong=('p', 'p'), weak=('p', None), "
        "kind='quantitative', example=('kaappi', 'kaapi'))",
    ),
    (
        CaseTemplate,
        ("ssA", "ssAVn", Pipeline(())),
        ("ssA", "ssAVn", Pipeline((VOWEL_STAGE,))),
        "CaseTemplate(suffix='ssA', poss3='ssAVn', pipeline=Pipeline(stages=()))",
    ),
    (
        TraceRow,
        ("gradation", "kaapi", frozenset({3})),
        ("gradation", "kaapi", frozenset()),
        "TraceRow(stage='gradation', chars='kaapi', deletions=frozenset({3}))",
    ),
    (Pipeline, ((),), ((VOWEL_STAGE,),), "Pipeline(stages=())"),
    (
        WriterZipper,
        (frozenset({1}), from_sequence("abc", 1)),
        (frozenset({1}), from_sequence("abc", 2)),
        "WriterZipper(log=frozenset({1}), zipper=from_sequence(('a', 'b', 'c'), 1))",
    ),
]


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_is_its_fields(cls, fields, other, text):
    record = cls(*fields)
    assert tuple(getattr(record, name) for name in cls._fields) == fields
    assert record == cls(*fields) and hash(record) == hash(cls(*fields))
    assert record != cls(*other)
    # A record is not a tuple: it equals no tuple, not even that of its fields.
    assert record != fields and not isinstance(record, tuple)
    assert hash(record) == hash(fields)
    assert repr(record) == text
    assert cls(**dict(zip(cls._fields, fields))) == record
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    assert not hasattr(record, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls._fields) == fields


def test_records_keep_their_defaults_and_checks():
    assert Condition(1, NOUN) == Condition(1, NOUN, False)
    assert CgRule(RuleAction.REMOVE, NOUN) == CgRule(RuleAction.REMOVE, NOUN, None)
    with pytest.raises(ValueError, match="a test reads pos or baseform, not 'features'"):
        ReadingTest("features", "sg")
    with pytest.raises(TypeError):
        Condition(1)
    with pytest.raises(TypeError):
        CaseTemplate("n", "nVn", Pipeline(()), "extra")
    # Records of different classes never compare equal, whatever their fields.
    assert ReadingTest("pos", "noun") != CaseTemplate("pos", "noun", None)


def test_shipped_records_survive_a_pickle():
    for record in (*PATTERNS, *standard_pipeline(Grade.WEAK).trace("kaappiAn")):
        assert pickle.loads(pickle.dumps(record)) == record
    pipeline = standard_pipeline(Grade.STRONG)
    rebuilt = Pipeline(pipeline.stages)
    assert pipeline == rebuilt and hash(pipeline) == hash(rebuilt)


def test_bench_and_law_rows_are_named_tuples():
    row = BenchRow("full pipeline", 1.5, 0.25, 1.25)
    assert row == ("full pipeline", 1.5, 0.25, 1.25) and row.mean_us == 1.5
    assert repr(row) == "BenchRow(label='full pipeline', mean_us=1.5, std_us=0.25, median_us=1.25)"
    report = SuiteReport("deletion-monoid", 10, ())
    assert report.passed and not SuiteReport("x", 1, ("word='a'",)).passed
    assert pickle.loads(pickle.dumps(report)) == report


def _new_modules(*imports: str) -> list[list[str]]:
    """The modules each import statement loads, in a fresh interpreter."""
    code = "\n".join(
        ["import sys", "seen = set(sys.modules)"]
        + [
            f"{stmt}; print(' '.join(sorted(set(sys.modules) - seen))); seen = set(sys.modules)"
            for stmt in imports
        ]
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
        check=True,
    )
    return [line.split() for line in done.stdout.splitlines()]


def test_import_loads_neither_dataclasses_nor_the_bench_modules():
    library, cli = _new_modules("import comorph", "import comorph.cli")
    assert "comorph" in library and "comorph.cli" in cli
    assert not {"dataclasses", "inspect"} & set(library)
    assert not {"dataclasses", "statistics", "comorph.bench", "comorph.laws"} & set(cli)
    # No submodule until a name is read; the CLI loads CG only for `comorph cg`.
    assert [m for m in library if m.startswith("comorph.")] == []
    assert "comorph.cg" not in cli


def test_the_word_and_cg_paths_load_only_their_own_modules():
    (word,) = _new_modules("from comorph import generate")
    assert "comorph.generator" in word and "comorph.cg" not in word
    (cg,) = _new_modules("from comorph import run_cg")
    word_modules = {f"comorph.{m}" for m in ("gradation", "writer", "vowels", "pipeline", "generator")}
    assert "comorph.cg" in cg and not word_modules & set(cg)


def test_no_program_path_loads_the_zipper_module():
    # Each in its own interpreter: a call, or the cg_stream chain, after the import.
    readings = "kuusi\\tnum:kuusi;noun:kuusi\\nkoiraa\\tnoun:koira\\n"
    paths = (
        "from comorph import NounCase, generate; generate('kala', NounCase.GENITIVE, True)",
        "from comorph import Grade, run_pipeline; run_pipeline('kukkaA', Grade.WEAK)",
        "from comorph import parse_readings, parse_rules, run_cg;"
        " from comorph.cg import format_sentences;"
        " rules = parse_rules('SELECT POS=num IF (+1 POS=noun)');"
        f" format_sentences([run_cg(s, rules) for s in parse_readings('{readings}')])",
    )
    for path in paths:
        (loaded,) = _new_modules(path)
        assert "comorph.record" in loaded and "comorph.zipper" not in loaded, path


def test_the_comonad_objects_load_the_zipper_module_on_first_use():
    imported, lifted, _ = _new_modules(
        "from comorph.writer import WriterZipper, lift_pure, materialize, writer_extend",
        "rule = lift_pure(lambda z: z.focus.upper())",
        "from comorph.zipper import extract, from_sequence;"
        " wz = WriterZipper(frozenset({1}), from_sequence('kala', 0));"
        " assert writer_extend(lift_pure(extract), wz) == wz and materialize(wz) == 'kla';"
        " assert materialize(writer_extend(rule, wz)) == 'KLA'",
    )
    assert "comorph.writer" in imported and "comorph.zipper" not in imported
    assert "comorph.zipper" in lifted


def test_a_bare_import_still_reaches_the_submodules():
    submodules = [f"comorph.{m}" for m in ("cg", "gradation", "generator", "pipeline")]
    submodules += [f"comorph.{m}" for m in ("record", "vowels", "writer", "zipper")]
    # Reading each as an attribute: an AttributeError fails the child.
    (loaded,) = _new_modules("import comorph; " + ", ".join(submodules))
    assert set(submodules) <= set(loaded)
