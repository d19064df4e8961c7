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

Readings file format (UTF-8 TSV, blank line between sentences)::

    surface<TAB>reading(;reading)*

where a reading is ``pos:baseform`` or ``pos:baseform:feat(,feat)*``.
Both parsers normalize their text to NFC, so a rule and a reading written in
different Unicode forms still match.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True, slots=True)
class Reading:
    baseform: str
    pos: str
    features: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.baseform or not self.pos:
            raise ValueError("a reading needs a non-empty baseform and POS tag")


@dataclass(frozen=True)
class ReadingSet:
    """The candidates still standing for one token. Never empty."""

    surface: str
    readings: frozenset[Reading]

    def __post_init__(self) -> None:
        object.__setattr__(self, "readings", frozenset(self.readings))
        if not self.readings:
            raise ValueError(f"token {self.surface!r} has no readings")


Sentence = list[ReadingSet]


class RuleAction(Enum):
    SELECT = "SELECT"
    REMOVE = "REMOVE"


@dataclass(frozen=True, slots=True)
class PosIs:
    tag: str


@dataclass(frozen=True, slots=True)
class BaseformIs:
    form: str


ReadingTest = PosIs | BaseformIs


def reading_matches(test: ReadingTest, reading: Reading) -> bool:
    match test:
        case PosIs(tag):
            return reading.pos == tag
        case BaseformIs(form):
            return reading.baseform == form
    raise TypeError(f"unknown reading test {test!r}")


@dataclass(frozen=True, slots=True)
class Condition:
    offset: int  # relative token position; 0 is the focus
    test: ReadingTest
    negated: bool = False


@dataclass(frozen=True, slots=True)
class CgRule:
    action: RuleAction
    target: ReadingTest
    condition: Condition | None = None


_RULE_RE = re.compile(
    r"""^(?P<action>SELECT|REMOVE)\s+(?P<target>\S+)
        (?:\s+IF\s*\(\s*(?P<negated>NOT\s+)?(?P<offset>[+-]?\d+)\s+(?P<test>\S+)\s*\))?
        \s*$""",
    re.VERBOSE,
)


def _parse_test(token: str, line_no: int) -> ReadingTest:
    if token.startswith("POS="):
        tag = token[len("POS=") :]
        if not tag:
            raise RuleSyntaxError(f"line {line_no}: empty POS tag")
        return PosIs(tag)
    if token.startswith("BASEFORM="):
        form = token[len("BASEFORM=") :]
        if not form:
            raise RuleSyntaxError(f"line {line_no}: empty baseform")
        return BaseformIs(form)
    alias = FINNISH_TAG_ALIASES.get(token)
    if alias is not None:
        return PosIs(alias)
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
    return not hit if condition.negated else hit


def apply_rule(z: Zipper[ReadingSet], rule: CgRule) -> ReadingSet:
    """One rule at one token; never returns an empty reading set."""
    focus = z.focus
    if rule.condition is not None and not eval_condition(z, rule.condition):
        return focus
    matching = frozenset(r for r in focus.readings if reading_matches(rule.target, r))
    if rule.action is RuleAction.SELECT:
        if matching and matching != focus.readings:
            return ReadingSet(focus.surface, matching)
        return focus
    survivors = focus.readings - matching
    if not survivors or survivors == focus.readings:
        return focus
    return ReadingSet(focus.surface, survivors)


# Called for every token a rule changed: (rule number, token index, before, after).
FireCallback = Callable[[int, int, ReadingSet, ReadingSet], None]


def run_cg(
    sentence: Sequence[ReadingSet],
    rules: Iterable[CgRule],
    on_fire: FireCallback | None = None,
) -> Sentence:
    """Run every rule in order, one full pass per rule."""
    if not sentence:
        raise ValueError("cannot disambiguate an empty sentence")
    z = from_sequence(tuple(sentence), 0)
    for number, rule in enumerate(rules, start=1):
        before = to_sequence(z)
        z = extend(z, lambda w, _rule=rule: apply_rule(w, _rule))
        if on_fire is not None:
            for idx, (old, new) in enumerate(zip(before, to_sequence(z))):
                if old != new:
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
