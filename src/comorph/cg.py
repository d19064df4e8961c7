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

A reading is validated once, where it enters: ``iter_readings`` checks each
line, yielding a sentence at a time (``parse_readings`` lists them), and builds
through private trusted constructors, as ``CgRule.arrow`` does for the non-empty
subset of a checked set that it keeps. The public ``Reading(...)`` and
``ReadingSet(...)`` keep every check. Readings that write the same feature field
share one frozenset, kept in an LRU cache of ``_CACHE_SIZE`` field texts. A rule
is read once too: ``CgRule`` computes a plan from its fields, and ``arrow``
and ``reach`` read that.
"""

import re
import unicodedata
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import lru_cache
from itertools import chain, compress, count
from operator import is_not, itemgetter

from .record import Record, _set


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

# namedtuple's _make, and so _replace, would skip the checks in __new__.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class Reading(namedtuple("Reading", ("baseform", "pos", "features"))):
    """One analysis of a token: ``Reading(baseform, pos, features=frozenset())``.

    A tuple, so hashing and comparing one in a reading set runs no Python code;
    it also equals the plain tuple of its three fields. Features are frozen.
    """

    __slots__ = ()

    def __new__(cls, baseform: str, pos: str, features: Iterable[str] = frozenset()) -> "Reading":
        if not baseform or not pos:
            raise ValueError("a reading needs a non-empty baseform and POS tag")
        if isinstance(features, str):
            raise TypeError(f"features must be feature strings, not the string {features!r}")
        features = features if isinstance(features, frozenset) else frozenset(features)
        return tuple.__new__(cls, (baseform, pos, features))

    _make = _checked_make


class ReadingSet(namedtuple("ReadingSet", ("surface", "readings"))):
    """The candidates still standing for one token, never empty: a tuple equal to
    ``(surface, readings)``, compared and hashed in C, whose readings are frozen ``Reading``s."""

    __slots__ = ()

    def __new__(cls, surface: str, readings: Iterable[Reading]) -> "ReadingSet":
        if isinstance(readings, str):
            raise TypeError(f"readings must be Readings, not the string {readings!r}")
        readings = readings if isinstance(readings, frozenset) else frozenset(readings)
        if not readings:
            raise ValueError(f"token {surface!r} has no readings")
        for r in readings:
            if not isinstance(r, Reading):
                raise TypeError(f"readings must be Readings, not {r!r}")
        return tuple.__new__(cls, (surface, readings))

    _make = _checked_make


# Trusted construction of checked fields: _tuple_new(Reading or ReadingSet, fields).
_tuple_new = tuple.__new__
# A field's slot in a Reading tuple, and the C getter that reads it.
_SLOT = {"baseform": 0, "pos": 1}
_GET = {field: itemgetter(slot) for field, slot in _SLOT.items()}
_BLANK = frozenset(("",))  # the feature that "pos:base:" and ",," leave
_NO_FEATURES = frozenset()  # shared by every reading written without features
_CACHE_SIZE = 1024  # field texts in the feature cache below; one costs 0.4-1 KB


Sentence = list[ReadingSet]


class RuleAction(Enum):
    SELECT = "SELECT"
    REMOVE = "REMOVE"


def _typed(*fields: tuple[str, object, type]) -> None:
    # A field of another type, a bool offset too, would run as another rule or fail mid-run.
    for name, value, kind in fields:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
            raise TypeError(f"{name} must be {kind.__name__}, not {value!r}")


class ReadingTest(Record):
    """Passes a reading whose ``field`` (pos or baseform) equals ``value``, a non-empty str."""

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: str) -> None:
        if field not in ("pos", "baseform"):
            raise ValueError(f"a test reads pos or baseform, not {field!r}")
        _typed(("value", value, str))
        if not value:
            raise ValueError(f"a {field} test needs a non-empty value")
        super().__init__(field, value)


class Condition(Record):
    __slots__ = ("offset", "test", "negated")  # offset: relative token position; 0 is the focus

    def __init__(self, offset: int, test: ReadingTest, negated: bool = False) -> None:
        _typed(("offset", offset, int), ("test", test, ReadingTest), ("negated", negated, bool))
        super().__init__(offset, test, negated)


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


class CgRule(Record):
    """A rule as data.

    ``run_cg`` runs its local rule, ``arrow(cells, i)``, in ``_rule_pass``, with
    ``index = TagIndex(cells)`` built once per sentence. Building a rule
    also computes its plan, ``(select, field, slot, value, condition)``, with
    ``condition`` None or ``(offset, field, get, value, negated)``.
    """

    __slots__ = ("action", "target", "condition", "_plan")  # _plan: derived, not a field

    def __init__(
        self, action: RuleAction, target: ReadingTest, condition: Condition | None = None
    ) -> None:
        _typed(("action", action, RuleAction), ("target", target, ReadingTest))
        super().__init__(action, target, condition)
        c = condition
        if c is not None:
            _typed(("condition", c, Condition))
            c = (c.offset, c.test.field, _GET[c.test.field], c.test.value, c.negated)
        select, field = action is RuleAction.SELECT, target.field
        _set(self, "_plan", (select, field, _SLOT[field], target.value, c))

    def arrow(self, cells: Sequence[ReadingSet], i: int) -> ReadingSet:
        """The rule at token ``i`` of ``cells``; never returns an empty reading set.
        The condition holds when some reading at ``i + offset`` passes its test, and
        not when none does or the offset leaves the sentence; NOT flips that result,
        so a negated condition holds at the boundary too."""
        select, _, slot, value, condition = self._plan
        focus = cells[i]
        if condition is not None:
            offset, _, get, tag, negated = condition
            j = i + offset
            if (0 <= j < len(cells) and tag in map(get, cells[j].readings)) == negated:
                return focus
        readings = focus.readings
        keep = []
        for r in readings:
            if (r[slot] == value) == select:
                keep.append(r)
        if not keep or len(keep) == len(readings):
            return focus
        return _tuple_new(ReadingSet, (focus.surface, frozenset(keep)))

    def reach(self, index: TagIndex, cells: Sequence[ReadingSet]) -> list[int]:
        """The ascending positions of ``cells`` where the rule may change a token.

        ``index``, built on ``cells`` or an earlier state of them, names the
        candidates: the tokens whose readings the target splits and, under a
        condition that is not negated, whose token at the offset has the
        tested value. A candidate the run has changed since is kept only if the
        target still splits its readings, tested inline with no call per candidate.
        """
        _, field, _, value, condition = self._plan
        positions = index[field][1].get(value)
        if positions is None:
            return []
        indexed, reached = index.cells, []
        narrow = condition is not None and not condition[4]  # a NOT is not narrowed
        if narrow:
            offset, test_field, _, tag, _ = condition
            values, n = index[test_field][0], len(indexed)
        for i in positions:
            if narrow and not (0 <= i + offset < n and tag in values[i + offset]):
                continue
            token = cells[i]
            if token is not indexed[i]:
                here = set(map(_GET[field], token.readings))
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
        if m["offset"] is not None:
            test = _parse_test(m["test"], line_no)
            condition = Condition(int(m["offset"]), test, m["negated"] is not None)
        rules.append(CgRule(RuleAction(m["action"]), _parse_test(m["target"], line_no), condition))
    return rules


def apply_rule(z: "Zipper[ReadingSet]", rule: CgRule) -> ReadingSet:
    """``rule.arrow`` read at a zipper's focus: the one adapter to ``extend``."""
    return rule.arrow(z.cells, z.index)


def _rule_pass(rule: CgRule, index: TagIndex, cells: tuple[ReadingSet, ...]) -> tuple:
    # One rule's pass: ``rule.arrow`` on the input ``cells`` at reach's positions,
    # ascending; the cells are copied at the first change, else returned as given.
    arrow, out = rule.arrow, cells
    for i in rule.reach(index, cells):
        token = arrow(cells, i)
        if token is not cells[i]:
            if out is cells:
                out = list(cells)
            out[i] = token
    return cells if out is cells else tuple(out)


# Called for every token a rule changed: (rule number, token index, before, after).
FireCallback = Callable[[int, int, ReadingSet, ReadingSet], None]


def run_cg(
    sentence: Sequence[ReadingSet],
    rules: Iterable[CgRule],
    on_fire: FireCallback | None = None,
) -> Sentence:
    """Run every rule in order, one pass per rule over the tokens it can change.
    A rule that is not a ``CgRule`` raises ``TypeError``, told apart once its pass fails."""
    cells = tuple(sentence)
    if not cells:
        raise ValueError("cannot disambiguate an empty sentence")
    index, number = TagIndex(cells), 0
    try:
        for number, rule in enumerate(rules, start=1):
            before, cells = cells, _rule_pass(rule, index, cells)
            if on_fire is not None and cells is not before:
                # An unchanged token is the very object it was before the pass.
                for i in compress(count(), map(is_not, cells, before)):
                    on_fire(number, i, before[i], cells[i])
    except AttributeError:
        if not number or isinstance(rule, CgRule):
            raise
        raise TypeError(f"rule {number} must be a CgRule, not {rule!r}") from None
    return list(cells)


def iter_readings(pieces: Iterable[str]) -> Iterator[Sentence]:
    """Parse a readings file one sentence at a time, yielding each as it ends.

    The file comes as pieces that each end at a line break: an open file, or ``(text,)``.
    Raises ReadingsFormatError, with the line number in the whole text, for a
    token with no readings or a malformed reading, once it reaches that line.
    """
    current: Sentence = []
    lines = chain.from_iterable(unicodedata.normalize("NFC", p).splitlines() for p in pieces)
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            if current:
                yield current
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
            pos, _, tail = token.partition(":")
            baseform, colon, features = tail.partition(":")
            pos, baseform = pos.strip(), baseform.strip()
            if not pos or not baseform:
                if not token.strip():
                    continue
                raise ReadingsFormatError(
                    f"line {line_no}: malformed reading {token.strip()!r} "
                    "(expected pos:baseform or pos:baseform:feat,feat)"
                )
            features = _features(features) if colon else _NO_FEATURES
            readings.add(_tuple_new(Reading, (baseform, pos, features)))
        if not readings:
            raise ReadingsFormatError(f"line {line_no}: token has no readings")
        current.append(_tuple_new(ReadingSet, (surface, frozenset(readings))))
    if current:
        yield current


@lru_cache(maxsize=_CACHE_SIZE)
def _features(field: str) -> frozenset[str]:
    """The features written after a reading's second ``:``, one frozenset per field text."""
    features = frozenset(map(str.strip, field.split(",")))
    if "" in features:
        features -= _BLANK
    return features


def parse_readings(text: str) -> list[Sentence]:
    """Parse a whole readings file into sentences; see ``iter_readings``."""
    return list(iter_readings((text,)))


def format_reading_set(rs: ReadingSet) -> str:
    # Ordered by (pos, baseform, sorted features), each key built once.
    keys = []
    for baseform, pos, features in rs.readings:
        keys.append((pos, baseform, sorted(features) if features else []))
    keys.sort()
    out = []
    for pos, baseform, features in keys:
        out.append(f"{pos}:{baseform}:{','.join(features)}" if features else f"{pos}:{baseform}")
    return ";".join(out)


def format_sentences(sentences: Iterable[Sentence]) -> str:
    """Render sentences, drawn one at a time, back to the TSV format, deterministically ordered."""
    out = []
    for sentence in sentences:
        lines = []
        for rs in sentence:
            lines.append(f"{rs.surface}\t{format_reading_set(rs)}")
        out.append("\n".join(lines))
    return "\n\n".join(out)
