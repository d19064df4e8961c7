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

where a reading is ``pos:baseform`` or ``pos:baseform:feat(,feat)*``, with
spaces around each field stripped. Both parsers normalize their text to NFC, so
a rule and a reading written in different Unicode forms still match.

A reading is validated once, where it enters: ``parse_readings`` checks each
line, then builds through private trusted constructors, as ``apply_rule``
does for the non-empty subset of a checked set that it keeps. The public
``Reading(...)`` and ``ReadingSet(...)`` keep every check.
"""

from __future__ import annotations

import re
import unicodedata
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

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
    it also equals the plain tuple of its three fields. Features are frozen.
    """

    __slots__ = ()

    def __new__(cls, baseform: str, pos: str, features: Iterable[str] = frozenset()) -> Reading:
        if not baseform or not pos:
            raise ValueError("a reading needs a non-empty baseform and POS tag")
        features = features if isinstance(features, frozenset) else frozenset(features)
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


# Trusted construction, for fields already checked: a Reading is
# _tuple_new(Reading, (baseform, pos, features)), a ReadingSet _reading_set(...).
_tuple_new, _new, _set = tuple.__new__, object.__new__, object.__setattr__
# A field's slot in a Reading tuple, and the C getter that reads it.
_SLOT = {"baseform": 0, "pos": 1}
_GET = {field: itemgetter(slot) for field, slot in _SLOT.items()}
_BLANK = frozenset(("",))  # the feature that "pos:base:" and ",," leave


def _reading_set(surface: str, readings: frozenset[Reading]) -> ReadingSet:
    # Callers guarantee a non-empty frozenset of Readings.
    rs = _new(ReadingSet)
    _set(rs, "surface", surface)
    _set(rs, "readings", readings)
    return rs


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
        self.cells = cells

    def __missing__(self, field: str) -> tuple[list[set[str]], dict[str, list[int]]]:
        get = _GET[field]
        values: list[set[str]] = []
        split: dict[str, list[int]] = {}
        for i, token in enumerate(self.cells):
            here = set(map(get, token.readings))
            values.append(here)
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

    def reach(self, index: TagIndex, cells: Sequence[ReadingSet]) -> list[int]:
        """The ascending positions of ``cells`` where the rule may change a token.

        ``index``, built on ``cells`` or an earlier state of them, names the
        candidates: the tokens whose readings the target splits and, under a
        condition that is not negated, whose token at the offset has the
        tested value. A candidate the run has changed since is kept only if the
        target still splits its readings, tested inline with no call per candidate.
        """
        field, value = self.target.field, self.target.value
        positions = index[field][1].get(value)
        if positions is None:
            return []
        condition = self.condition
        narrow = condition is not None and not condition.negated
        if narrow:
            values = index[condition.test.field][0]
            tag, offset, n = condition.test.value, condition.offset, len(values)
        get, indexed, reached = _GET[field], index.cells, []
        for i in positions:
            if narrow and not (0 <= i + offset < n and tag in values[i + offset]):
                continue
            token = cells[i]
            if token is not indexed[i]:
                here = set(map(get, token.readings))
                if len(here) < 2 or value not in here:
                    continue
            reached.append(i)
        return reached


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
    i, cells, test = z.index + condition.offset, z.cells, condition.test
    hit = 0 <= i < len(cells) and test.value in map(_GET[test.field], cells[i].readings)
    return hit != condition.negated


def apply_rule(z: Zipper[ReadingSet], rule: CgRule) -> ReadingSet:
    """One rule at one token; never returns an empty reading set."""
    focus = z.focus
    if rule.condition is not None and not eval_condition(z, rule.condition):
        return focus
    readings = focus.readings
    slot, value = _SLOT[rule.target.field], rule.target.value
    select = rule.action is RuleAction.SELECT
    keep = []
    for r in readings:
        if (r[slot] == value) == select:
            keep.append(r)
    if not keep or len(keep) == len(readings):
        return focus
    return _reading_set(focus.surface, frozenset(keep))


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
        surface = surface.strip()
        if not sep or not surface or not rest.strip():
            raise ReadingsFormatError(
                f"line {line_no}: expected 'surface<TAB>reading(;reading)*'"
            )
        readings = set()
        for token in rest.split(";"):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":", 2)
            pos, baseform = parts[0].strip(), (parts[1].strip() if len(parts) > 1 else "")
            if not pos or not baseform:
                raise ReadingsFormatError(
                    f"line {line_no}: malformed reading {token!r} "
                    "(expected pos:baseform or pos:baseform:feat,feat)"
                )
            features = frozenset()
            if len(parts) == 3:
                features = frozenset(map(str.strip, parts[2].split(","))) - _BLANK
            readings.add(_tuple_new(Reading, (baseform, pos, features)))
        if not readings:
            raise ReadingsFormatError(f"line {line_no}: token has no readings")
        current.append(_reading_set(surface, frozenset(readings)))
    if current:
        sentences.append(current)
    return sentences


def format_reading_set(rs: ReadingSet) -> str:
    # Ordered by (pos, baseform, sorted features), each key built once.
    out = []
    for pos, baseform, features in sorted([(r[1], r[0], sorted(r[2])) for r in rs.readings]):
        out.append(f"{pos}:{baseform}:{','.join(features)}" if features else f"{pos}:{baseform}")
    return ";".join(out)


def format_sentences(sentences: Iterable[Sentence]) -> str:
    """Render sentences back to the TSV format, deterministically ordered."""
    return "\n\n".join(
        ["\n".join([f"{rs.surface}\t{format_reading_set(rs)}" for rs in s]) for s in sentences]
    )
