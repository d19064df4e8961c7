"""A seeded differential transcript of the CG and word layers, for comparing two trees.

    python tests/differential.py --seed N [--scale k]

prints one canonical transcript. The CG sections: random rule and readings
files, with NFD text, padding, duplicate readings, empty feature lists and a
few malformed lines, and after them a few fixed files, through
``parse_rules``, ``parse_readings``, ``run_cg`` with an ``on_fire`` trace and
``format_sentences``, then through ``comorph cg`` and ``comorph cg --trace``
by way of ``cli.main``. The word sections:
random words of the contract alphabet, with NFD text, upper-case letters,
U+212A KELVIN SIGN, non-letters and the empty word, through ``run_pipeline``
and ``Pipeline.trace`` at both grades, ``weaken`` and ``strengthen``; lemmas,
bad ones among them, through ``generate`` in every case, plain and with the
possessive; then ``comorph grad [--trace]``, ``comorph pipeline`` and
``comorph harmony`` by way of ``cli.main``, on one list of words, and
``comorph dump-patterns``. Last comes a fixed list of inputs that must raise.
An exception is printed as its type and message. Every set is printed in
sorted order, so the transcript depends on the seed and the scale only, never
on ``PYTHONHASHSEED``.

The script imports ``comorph`` from the ``src`` directory of the tree it sits
in. To compare a change with its parent, run it in both trees at one seed
and scale and compare the outputs (copy it into a parent that predates it)::

    git worktree add ../parent HEAD~1
    python tests/differential.py --seed 0 --scale 1 | sha256sum
    python ../parent/tests/differential.py --seed 0 --scale 1 | sha256sum
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import sys
import tempfile
import unicodedata

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from comorph.cg import (  # noqa: E402
    Reading,
    ReadingSet,
    format_sentences,
    parse_readings,
    parse_rules,
    run_cg,
)
from comorph.cli import main as cli_main  # noqa: E402
from comorph.generator import NounCase, generate  # noqa: E402
from comorph.gradation import Grade  # noqa: E402
from comorph.pipeline import run_pipeline, standard_pipeline, strengthen, weaken  # noqa: E402

# Cases per unit of --scale.
FILE_PAIRS = 150
CLI_PAIRS = 25
WORDS = 400
LEMMAS = 30
CLI_WORDS = 25

POS_TAGS = ("noun", "verb", "adj", "adv", "num", "pron")
ALIASES = ("lukusana", "nimisana", "teonsana", "laatusana", "seikkasana")
BASEFORMS = ("kuusi", "voi", "voida", "pöytä", "kenkä", "ei")
# Two tags and two baseforms: early rules shrink tokens that later rules
# look at again, so run_cg's index goes stale.
TINY_POS = ("noun", "verb")
TINY_BASEFORMS = ("kuusi", "pöytä")
FEATURES = ("sg", "pl", "gen", "px3", "a:b", "ä", "Sg")
SURFACES = ("kuusi", "voi", "pöydällä", "kenkä", "ei", "talo")
BAD_RULE_LINES = (
    "DISCARD POS=adj",
    "SELECT POS=",
    "REMOVE BASEFORM=",
    "SELECT substantiivi",
    "SELECT POS=num IF (+1)",
    "SELECT POS=num IF (+1 POS=noun",
)
BAD_READINGS = ("nounvoi", ":voi", "noun:", "noun")
BAD_TOKEN_LINES = ("voi", "voi\t", "\tnoun:voi", "kuusi\t;", "kuusi\t ; ", "  \tnoun:voi")
# (rules, readings) files run after the random ones: spaces around the fields
# of a reading, and fields that stripping leaves empty.
FIXED_FILES = (
    ("SELECT POS=num\n", "kuusi\tnum :kuusi;noun:kuusi: sg\n"),
    ("SELECT POS=num\n", "kuusi\t :kuusi\n"),
    ("SELECT POS=num\n", "kuusi\tnoun:kuusi;num: :sg\n"),
)


# Word onsets: every gradation window of both grades, single consonants and none.
ONSETS = (
    "pp", "tt", "kk", "mp", "lt", "nt", "rt", "nk",
    "mm", "ll", "nn", "rr", "ng", "p", "t", "k", "v", "d", "g",
    "h", "j", "l", "m", "n", "r", "s", "",
)
NUCLEI = ("a", "o", "u", "ä", "ö", "y", "e", "i", "aa", "ie", "uo", "äi")
SUFFIXES = ("", "n", "A", "ssA", "stA", "Vn", "llA", "ltA", "lle", "nA", "ksi", "ssAVn")
KELVIN = "\u212a"
NON_LETTERS = ("1", " ", ".", "'", "_", "\t")
FIXED_LEMMAS = (
    "kala", "talo", "kaappi", "kukka", "tupakka", "papukaija", "kenkä", "pöytä",
    "kampa", "ranta", "kivi", "sade", "Kaappi", "KAAPPI", "KALA", KELVIN + "issa",
    "", "kala1", "kal1a", "kalan", "1", unicodedata.normalize("NFD", "kenkä"),
)


def _maybe_nfd(rng: random.Random, text: str) -> str:
    return unicodedata.normalize("NFD", text) if rng.random() < 0.1 else text


def _rule_test(rng: random.Random, tags, bases) -> str:
    k = rng.random()
    if k < 0.45:
        return f"POS={rng.choice(tags)}"
    if k < 0.8:
        return f"BASEFORM={rng.choice(bases)}"
    return rng.choice(ALIASES)


def rules_text(rng: random.Random, tags, bases) -> str:
    lines = []
    for _ in range(rng.randint(0, 14)):
        k = rng.random()
        if k < 0.01:
            lines.append(rng.choice(BAD_RULE_LINES))
            continue
        if k < 0.05:
            lines.append(rng.choice(("", "# a comment", "   ")))
            continue
        line = f"{rng.choice(('SELECT', 'REMOVE'))} {_rule_test(rng, tags, bases)}"
        if rng.random() < 0.7:
            negated = "NOT " if rng.random() < 0.3 else ""
            line += f" IF ({negated}{rng.randint(-4, 4):+d} {_rule_test(rng, tags, bases)})"
        if rng.random() < 0.05:
            line += "  # trailing comment"
        lines.append(line)
    return _maybe_nfd(rng, "\n".join(lines) + "\n")


def _reading_text(rng: random.Random, tags, bases) -> str:
    if rng.random() < 0.003:
        return rng.choice(BAD_READINGS)
    text = f"{rng.choice(tags)}:{rng.choice(bases)}"
    k = rng.random()
    if k < 0.4:
        text += ":" + ",".join(rng.choice(FEATURES) for _ in range(rng.randint(1, 3)))
    elif k < 0.5:
        text += rng.choice((":", ":,,", ":sg,,pl", ":,sg"))
    if rng.random() < 0.1:
        text = f" {text}  "
    return text


def _token_line(rng: random.Random, tags, bases) -> str:
    if rng.random() < 0.002:
        return rng.choice(BAD_TOKEN_LINES)
    readings = [_reading_text(rng, tags, bases) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.15:
        readings.append(rng.choice(readings))
    if rng.random() < 0.05:
        readings.append("")
    surface = rng.choice(SURFACES)
    if rng.random() < 0.1:
        surface = f" {surface} "
    return f"{surface}\t{';'.join(readings)}"


def readings_text(rng: random.Random, tags, bases) -> str:
    sentences = []
    for _ in range(rng.randint(1, 3)):
        tokens = [_token_line(rng, tags, bases) for _ in range(rng.randint(1, 8))]
        sentences.append("\n".join(tokens))
    separator = rng.choice(("\n\n", "\n\n", "\n \n"))
    return _maybe_nfd(rng, separator.join(sentences) + "\n")


def file_pair(rng: random.Random) -> tuple[str, str]:
    tags, bases = (TINY_POS, TINY_BASEFORMS) if rng.random() < 0.5 else (POS_TAGS, BASEFORMS)
    return rules_text(rng, tags, bases), readings_text(rng, tags, bases)


def show_reading(r: Reading) -> str:
    return f"{r.pos}:{r.baseform}:{sorted(r.features)!r}"


def show_set(rs: ReadingSet) -> str:
    return f"{rs.surface!r} {sorted(map(show_reading, rs.readings))!r}"


def show_error(exc: Exception) -> str:
    return f"error {type(exc).__name__}: {exc}"


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"exit {code}\nstdout {out.getvalue()!r}\nstderr {err.getvalue()!r}"


def library_sections(rng: random.Random, pairs: int) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {
        "parse_rules": [],
        "parse_readings": [],
        "run_cg": [],
        "format_sentences": [],
    }
    files = [file_pair(rng) for _ in range(pairs)] + list(FIXED_FILES)
    for case, (rules_src, readings_src) in enumerate(files):
        sections["parse_rules"].append(f"case {case} {rules_src!r}")
        sections["parse_readings"].append(f"case {case} {readings_src!r}")
        try:
            rules = parse_rules(rules_src)
            sections["parse_rules"].extend(f"  {rule!r}" for rule in rules)
        except ValueError as exc:
            sections["parse_rules"].append(f"  {show_error(exc)}")
            rules = None
        try:
            sentences = parse_readings(readings_src)
            for number, sentence in enumerate(sentences):
                sections["parse_readings"].append(f"  sentence {number}")
                sections["parse_readings"].extend(f"    {show_set(rs)}" for rs in sentence)
        except ValueError as exc:
            sections["parse_readings"].append(f"  {show_error(exc)}")
            sentences = None
        if rules is None or sentences is None:
            continue
        results = []
        sections["run_cg"].append(f"case {case}")
        for number, sentence in enumerate(sentences):
            fired = []
            result = run_cg(
                sentence, rules, on_fire=lambda *event: fired.append(event)
            )
            results.append(result)
            sections["run_cg"].append(f"  sentence {number}")
            for rule_no, idx, before, after in fired:
                sections["run_cg"].append(
                    f"    fire rule {rule_no} token {idx}: {show_set(before)} -> {show_set(after)}"
                )
            sections["run_cg"].extend(f"    {show_set(rs)}" for rs in result)
        sections["format_sentences"].append(f"case {case} {format_sentences(results)!r}")
    return sections


def cli_sections(rng: random.Random, pairs: int) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {"comorph cg": [], "comorph cg --trace": []}
    with tempfile.TemporaryDirectory() as tmp:
        rules_path = os.path.join(tmp, "rules.txt")
        readings_path = os.path.join(tmp, "readings.tsv")
        files = [
            (*file_pair(rng), "utf-8-sig" if rng.random() < 0.1 else "utf-8") for _ in range(pairs)
        ]
        files += [(*pair, "utf-8") for pair in FIXED_FILES]
        for case, (rules_src, readings_src, encoding) in enumerate(files):
            with open(rules_path, "w", encoding=encoding) as fh:
                fh.write(rules_src)
            with open(readings_path, "w", encoding=encoding) as fh:
                fh.write(readings_src)
            for name, flags in (("comorph cg", []), ("comorph cg --trace", ["--trace"])):
                result = _cli(["cg", *flags, rules_path, readings_path])
                sections[name].append(f"case {case} {encoding}\n{result}")
    return sections


def stem(rng: random.Random) -> str:
    return "".join(rng.choice(ONSETS) + rng.choice(NUCLEI) for _ in range(rng.randint(1, 4)))


def contract_word(rng: random.Random) -> str:
    """A stem and a suffix, sometimes with a cell swapped for an odd one."""
    if rng.random() < 0.02:
        return ""
    cells = list(stem(rng) + rng.choice(SUFFIXES))
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(cells))
        k = rng.random()
        if k < 0.5:
            cells[i] = cells[i].upper()
        elif k < 0.7:
            cells[i] = KELVIN
        elif k < 0.9:
            cells[i] = rng.choice("AOUV")
        else:
            cells[i] = rng.choice(NON_LETTERS)
    return _maybe_nfd(rng, "".join(cells))


def _outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return show_error(exc)


def _trace(word: str, grade: Grade) -> list[str]:
    try:
        return [row.render() for row in standard_pipeline(grade).trace(word)]
    except ValueError as exc:
        return [show_error(exc)]


def word_sections(rng: random.Random, words: int, lemmas: int) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {
        "run_pipeline": [],
        "Pipeline.trace": [],
        "weaken": [],
        "strengthen": [],
        "generate": [],
    }
    for case in range(words):
        word = contract_word(rng)
        for grade in Grade:
            out = _outcome(run_pipeline, word, grade)
            sections["run_pipeline"].append(f"case {case} {grade.value} {word!r} -> {out}")
            sections["Pipeline.trace"].append(f"case {case} {grade.value} {word!r}")
            sections["Pipeline.trace"].extend(f"  {line!r}" for line in _trace(word, grade))
        sections["weaken"].append(f"case {case} {word!r} -> {_outcome(weaken, word)}")
        sections["strengthen"].append(f"case {case} {word!r} -> {_outcome(strengthen, word)}")
    for lemma in FIXED_LEMMAS + tuple(stem(rng) for _ in range(lemmas)):
        sections["generate"].append(f"lemma {lemma!r}")
        for noun_case in NounCase:
            for poss3 in (False, True):
                out = _outcome(generate, lemma, noun_case, possessive_3=poss3)
                sections["generate"].append(f"  {noun_case.value} poss3={poss3} -> {out}")
    return sections


def word_cli_sections(rng: random.Random, words: int) -> dict[str, list[str]]:
    commands = {
        "comorph grad": ["grad"],
        "comorph grad --trace": ["grad", "--trace"],
        "comorph pipeline": ["pipeline"],
    }
    sections: dict[str, list[str]] = {name: [] for name in [*commands, "comorph harmony"]}
    for case in range(words):
        word = contract_word(rng)
        for name, argv in commands.items():
            for grade in Grade:
                result = _cli([*argv, word, "--grade", grade.value])
                sections[name].append(f"case {case} {grade.value} {word!r}\n{result}")
        sections["comorph harmony"].append(f"case {case} {word!r}\n{_cli(['harmony', word])}")
    return sections


def exception_section() -> list[str]:
    calls = [
        ("parse_rules", lambda: parse_rules("SELECT POS=noun\nDISCARD POS=adj")),
        ("parse_rules", lambda: parse_rules("SELECT POS=")),
        ("parse_rules", lambda: parse_rules("REMOVE BASEFORM=")),
        ("parse_rules", lambda: parse_rules("SELECT substantiivi IF (+1 POS=noun)")),
        ("parse_rules", lambda: parse_rules("SELECT POS=num IF (+1)")),
        ("parse_readings", lambda: parse_readings("voi\n")),
        ("parse_readings", lambda: parse_readings("ei\tverb:ei\nvoi\t\n")),
        ("parse_readings", lambda: parse_readings("kuusi\t;")),
        ("parse_readings", lambda: parse_readings("\n\nvoi\tnounvoi\n")),
        ("parse_readings", lambda: parse_readings("voi\tnoun:voi;:voi\n")),
        ("parse_readings", lambda: parse_readings("voi\tnoun:\n")),
        ("parse_readings", lambda: parse_readings("  \tnoun:voi\n")),
        ("run_cg", lambda: run_cg([], parse_rules("SELECT POS=noun"))),
        ("Reading", lambda: Reading("", "noun")),
        ("Reading", lambda: Reading("voi", "")),
        ("ReadingSet", lambda: ReadingSet("voi", frozenset())),
        ("ReadingSet", lambda: ReadingSet("voi", [])),
        ("Reading", lambda: Reading("koira", "noun", "sg")),
        ("ReadingSet", lambda: ReadingSet("koira", "ab")),
        ("ReadingSet", lambda: ReadingSet("koira", [("koira", "noun", frozenset())])),
        ("run_pipeline", lambda: run_pipeline("kukka", "weak")),
        ("generate", lambda: generate("kala", "genitive")),
    ]
    lines = []
    for name, call in calls:
        try:
            call()
            lines.append(f"{name}: no error")
        except (ValueError, TypeError) as exc:
            lines.append(f"{name}: {show_error(exc)}")
    return lines


def transcript(seed: int, scale: int) -> str:
    rng = random.Random(seed)
    sections = library_sections(rng, FILE_PAIRS * scale)
    sections.update(cli_sections(rng, CLI_PAIRS * scale))
    sections.update(word_sections(rng, WORDS * scale, LEMMAS * scale))
    sections.update(word_cli_sections(rng, CLI_WORDS * scale))
    sections["comorph dump-patterns"] = [_cli(["dump-patterns"])]
    sections["exceptions"] = exception_section()
    return "".join(
        f"== {name}\n" + "".join(f"{line}\n" for line in lines)
        for name, lines in sections.items()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help=f"cases, in units of {FILE_PAIRS} file pairs, {WORDS} words and {LEMMAS} lemmas",
    )
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error("--scale must be at least 1")
    sys.stdout.write(transcript(args.seed, args.scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
