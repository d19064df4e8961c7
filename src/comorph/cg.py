"""Sentence-level reading disambiguation.

Each token carries a non-empty set of candidate readings. A rule is a local
decision over the focused token's reading set, with optional access to a
neighbour at a fixed offset; running a rule is one full pass over the
sentence, and rules run in file order. A rule may shrink a reading set but
never empties it, so later passes always have something to look at.

Rule file format (UTF-8, ``#`` comments, one rule per line)::

    ACTION TARGET [IF ( [NOT] OFFSET TEST )]

with ACTION one of SELECT / REMOVE, TARGET and TEST one of ``POS=tag``,
``BASEFORM=form`` or a bare Finnish tag alias (see FINNISH_TAG_ALIASES),
and OFFSET a signed integer such as -1, +1 or 0 (0 is the focus itself).
Each TARGET and TEST parses to one ``ReadingTest``: it compares one reading
field, ``pos`` or ``baseform``, with a value, and an alias is a ``pos`` test.

Readings file format (UTF-8 TSV, blank line between sentences)::

    surface<TAB>reading(;reading)*

where a reading is ``pos:baseform`` or ``pos:baseform:feat(,feat)*``.
Both parsers normalize their text to NFC, so a rule and a reading written in
different Unicode forms still match.
"""

from __future__ import annotations

import re
import unicodedata
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .zipper import Zipper, extend, from_sequence, to_sequence


class RuleSyntaxError(ValueError):
    """A rule line that does not parse; the message carries the line number."""


class ReadingsFormatError(ValueError):
    """A readings line that does not parse; the message carries the line number."""


# Canonical short tags for the Finnish CG tag names, so published-style
# rules parse as written.
FINNISH_TAG_ALIASES = {
    "lukusana": "num",
    "nimisana": "noun",
    "teonsana": "verb",
    "laatusana": "adj",
    "seikkasana": "adv",
}


class Reading(namedtuple("Reading", ("baseform", "pos", "features"))):
    """One analysis of a token: ``Reading(baseform, pos, features=frozenset())``.

    A tuple, so hashing and comparing one in a reading set runs no Python code;
    it also equals the plain tuple of its three fields.
    """

    __slots__ = ()

    def __new__(cls, baseform: str, pos: str, features: frozenset[str] = frozenset()) -> Reading:
        if not baseform or not pos:
            raise ValueError("a reading needs a non-empty baseform and POS tag")
        return tuple.__new__(cls, (baseform, pos, features))

    @classmethod
    def _make(cls, fields: Iterable) -> Reading:
        # namedtuple's _make, and so _replace, would skip the check above.
        return cls(*fields)


@dataclass(frozen=True, slots=True)
class ReadingSet:
    """The candidates still standing for one token. Never empty."""

    surface: str
    readings: frozenset[Reading]

    def __post_init__(self) -> None:
        if not isinstance(self.readings, frozenset):
            object.__setattr__(self, "readings", frozenset(self.readings))
        if not self.readings:
            raise ValueError(f"token {self.surface!r} has no readings")


Sentence = list[ReadingSet]


class RuleAction(Enum):
    SELECT = "SELECT"
    REMOVE = "REMOVE"


@dataclass(frozen=True, slots=True)
class ReadingTest:
    """Passes a reading whose ``field`` (``pos`` or ``baseform``) equals ``value``."""

    field: str
    value: str

    def __post_init__(self) -> None:
        if self.field not in ("pos", "baseform"):
            raise ValueError(f"a test reads pos or baseform, not {self.field!r}")


def reading_matches(test: ReadingTest, reading: Reading) -> bool:
    return getattr(reading, test.field) == test.value


@dataclass(frozen=True, slots=True)
class Condition:
    offset: int  # relative token position; 0 is the focus
    test: ReadingTest
    negated: bool = False


class TagIndex(dict):
    """The values a ``ReadingTest`` can compare, indexed over a sentence.

    ``index[field]`` is ``(values, split)``: each token's set of values of
    that field, and for each value the ascending positions of the tokens
    whose readings it splits (some but not all have it), which is where the
    token has it and some other value. A field is indexed from the cells
    given, on first use, so a field no rule reads costs nothing. Readings
    only shrink while rules run, so a token never gains a value or a split:
    built once per ``run_cg`` call and never updated, the index stays a
    superset of the truth.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: Sequence[ReadingSet]) -> None:
        super().__init__()
        self.cells = cells

    def __missing__(self, field: str) -> tuple[list[set[str]], dict[str, list[int]]]:
        get = attrgetter(field)
        values = [set(map(get, token.readings)) for token in self.cells]
        split: dict[str, list[int]] = {}
        for i, here in enumerate(values):
            if len(here) > 1:
                for v in here:
                    split.setdefault(v, []).append(i)
        self[field] = (values, split)
        return values, split


@dataclass(frozen=True, slots=True)
class CgRule:
    """A rule as data.

    ``run_cg`` runs it as ``extend(z, rule.arrow, rule.reach(index, z.cells))``,
    with ``index = TagIndex(z.cells)`` built once per sentence.
    """

    action: RuleAction
    target: ReadingTest
    condition: Condition | None = None

    def arrow(self, z: Zipper[ReadingSet]) -> ReadingSet:
        return apply_rule(z, self)

    def support(self, rs: ReadingSet) -> bool:
        """The target matches some but not all readings: the only tokens it can change."""
        field, value, n = self.target.field, self.target.value, len(rs.readings)
        return n > 1 and 0 < [getattr(r, field) for r in rs.readings].count(value) < n

    def reach(self, index: TagIndex, cells: Sequence[ReadingSet]) -> list[int]:
        """The ascending positions of ``cells`` where the rule may change a token.

        ``index``, built on ``cells`` or an earlier state of them, names the
        candidates: the tokens whose readings the target splits and, under a
        condition that is not negated, whose token at the offset has the
        tested value. ``support`` then checks each against its readings now.
        """
        _, split = index[self.target.field]
        positions = split.get(self.target.value)
        if positions is None:
            return []
        condition, support = self.condition, self.support
        if condition is None or condition.negated:
            return [i for i in positions if support(cells[i])]
        values, _ = index[condition.test.field]
        tag, offset, n = condition.test.value, condition.offset, len(values)
        return [
            i
            for i in positions
            if 0 <= i + offset < n and tag in values[i + offset] and support(cells[i])
        ]


_RULE_RE = re.compile(
    r"""^(?P<action>SELECT|REMOVE)\s+(?P<target>\S+)
        (?:\s+IF\s*\(\s*(?P<negated>NOT\s+)?(?P<offset>[+-]?\d+)\s+(?P<test>\S+)\s*\))?
        \s*$""",
    re.VERBOSE,
)


# Rule-file prefix -> (reading field, what an empty value is called).
_TEST_PREFIXES = {"POS=": ("pos", "POS tag"), "BASEFORM=": ("baseform", "baseform")}


def _parse_test(token: str, line_no: int) -> ReadingTest:
    for prefix, (field, name) in _TEST_PREFIXES.items():
        if token.startswith(prefix):
            value = token[len(prefix) :]
            if not value:
                raise RuleSyntaxError(f"line {line_no}: empty {name}")
            return ReadingTest(field, value)
    alias = FINNISH_TAG_ALIASES.get(token)
    if alias is not None:
        return ReadingTest("pos", alias)
    raise RuleSyntaxError(
        f"line {line_no}: unknown predicate {token!r} "
        "(expected POS=tag, BASEFORM=form, or a known tag alias)"
    )


def parse_rules(text: str) -> list[CgRule]:
    """Parse a rule file; raises RuleSyntaxError with the offending line."""
    rules: list[CgRule] = []
    text = unicodedata.normalize("NFC", text)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        first = line.split(None, 1)[0]
        if first not in (a.value for a in RuleAction):
            raise RuleSyntaxError(f"line {line_no}: unknown action {first!r}")
        m = _RULE_RE.match(line)
        if m is None:
            raise RuleSyntaxError(f"line {line_no}: cannot parse rule {line!r}")
        condition = None
        if m.group("offset") is not None:
            condition = Condition(
                offset=int(m.group("offset")),
                test=_parse_test(m.group("test"), line_no),
                negated=m.group("negated") is not None,
            )
        rules.append(
            CgRule(
                action=RuleAction(m.group("action")),
                target=_parse_test(m.group("target"), line_no),
                condition=condition,
            )
        )
    return rules


def eval_condition(z: Zipper[ReadingSet], condition: Condition) -> bool:
    """Check a positional condition from the focus of ``z``.

    The base result is true when some reading at focus+offset satisfies the
    test, false when none does or the offset leaves the sentence; NOT flips
    that final result, so a negated test fires at the boundary too.
    """
    other = z.peek(condition.offset)
    hit = other is not None and any(
        reading_matches(condition.test, r) for r in other.readings
    )
    return hit != condition.negated


def apply_rule(z: Zipper[ReadingSet], rule: CgRule) -> ReadingSet:
    """One rule at one token; never returns an empty reading set."""
    focus = z.focus
    if rule.condition is not None and not eval_condition(z, rule.condition):
        return focus
    readings = focus.readings
    matching = {r for r in readings if reading_matches(rule.target, r)}
    keep = matching if rule.action is RuleAction.SELECT else readings - matching
    if not keep or keep == readings:
        return focus
    return ReadingSet(focus.surface, keep)


# Called for every token a rule changed: (rule number, token index, before, after).
FireCallback = Callable[[int, int, ReadingSet, ReadingSet], None]


def run_cg(
    sentence: Sequence[ReadingSet],
    rules: Iterable[CgRule],
    on_fire: FireCallback | None = None,
) -> Sentence:
    """Run every rule in order, one pass per rule over the tokens it can change."""
    if not sentence:
        raise ValueError("cannot disambiguate an empty sentence")
    z = from_sequence(tuple(sentence), 0)
    index = TagIndex(z.cells)
    for number, rule in enumerate(rules, start=1):
        positions = rule.reach(index, z.cells)
        if not positions:
            continue
        before = z
        z = extend(z, rule.arrow, positions)
        if on_fire is not None and z is not before:
            # An unchanged token is the very object it was before the pass.
            for idx, (old, new) in enumerate(zip(to_sequence(before), to_sequence(z))):
                if old is not new:
                    on_fire(number, idx, old, new)
    return list(to_sequence(z))


def _parse_reading(token: str, line_no: int) -> Reading:
    parts = token.split(":", 2)
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ReadingsFormatError(
            f"line {line_no}: malformed reading {token!r} "
            "(expected pos:baseform or pos:baseform:feat,feat)"
        )
    features = frozenset(f for f in parts[2].split(",") if f) if len(parts) == 3 else frozenset()
    return Reading(baseform=parts[1], pos=parts[0], features=features)


def parse_readings(text: str) -> list[Sentence]:
    """Parse a readings file into sentences.

    Raises ReadingsFormatError for a token with no readings or a malformed
    reading.
    """
    sentences: list[Sentence] = []
    current: Sentence = []
    text = unicodedata.normalize("NFC", text)
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        surface, sep, rest = line.partition("\t")
        if not sep or not surface.strip() or not rest.strip():
            raise ReadingsFormatError(
                f"line {line_no}: expected 'surface<TAB>reading(;reading)*'"
            )
        readings = frozenset(
            _parse_reading(tok.strip(), line_no)
            for tok in rest.split(";")
            if tok.strip()
        )
        if not readings:
            raise ReadingsFormatError(f"line {line_no}: token has no readings")
        current.append(ReadingSet(surface=surface.strip(), readings=readings))
    if current:
        sentences.append(current)
    return sentences


def format_reading(reading: Reading) -> str:
    base = f"{reading.pos}:{reading.baseform}"
    if reading.features:
        return f"{base}:{','.join(sorted(reading.features))}"
    return base


def format_reading_set(rs: ReadingSet) -> str:
    ordered = sorted(rs.readings, key=lambda r: (r.pos, r.baseform, sorted(r.features)))
    return ";".join(format_reading(r) for r in ordered)


def format_sentences(sentences: Iterable[Sentence]) -> str:
    """Render sentences back to the TSV format, deterministically ordered."""
    blocks = []
    for sentence in sentences:
        blocks.append(
            "\n".join(f"{rs.surface}\t{format_reading_set(rs)}" for rs in sentence)
        )
    return "\n\n".join(blocks)
