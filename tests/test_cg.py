from __future__ import annotations

import io
import pickle
import random
import re
import sys
import unicodedata
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comorph.bench import demo_rules
from comorph.cg import (
    CgRule,
    Condition,
    Reading,
    ReadingSet,
    ReadingTest,
    ReadingsFormatError,
    RuleAction,
    RuleSyntaxError,
    TagIndex,
    _CACHE_SIZE,
    _features,
    _rule_pass,
    apply_rule,
    format_sentences,
    iter_readings,
    parse_readings,
    parse_rules,
    run_cg,
)
from comorph.zipper import extend, from_sequence, to_sequence
from oracles import cg_reference, format_sentences_reference, parse_readings_reference, passes


def rs(surface, *readings):
    return ReadingSet(surface, frozenset(Reading(b, p) for p, b in readings))


KUUSI = rs("kuusi", ("num", "kuusi"), ("noun", "kuusi"))
KOIRAA = rs("koiraa", ("noun", "koira"))
KASVAA = rs("kasvaa", ("verb", "kasvaa"))
EI = rs("ei", ("verb", "ei"))
VOI = rs("voi", ("noun", "voi"), ("verb", "voida"))


# --- parsing ---------------------------------------------------------------


def test_parse_select_with_pos_condition():
    rules = parse_rules("SELECT POS=num IF (+1 POS=noun)")
    assert rules == [
        CgRule(
            RuleAction.SELECT,
            ReadingTest("pos", "num"),
            Condition(1, ReadingTest("pos", "noun")),
        )
    ]


def test_parse_select_with_baseform_condition():
    rules = parse_rules("SELECT POS=verb IF (-1 BASEFORM=ei)")
    assert rules == [
        CgRule(
            RuleAction.SELECT,
            ReadingTest("pos", "verb"),
            Condition(-1, ReadingTest("baseform", "ei")),
        )
    ]


def test_parse_negated_condition():
    rules = parse_rules("REMOVE POS=adj IF (NOT -1 POS=num)")
    assert rules == [
        CgRule(
            RuleAction.REMOVE,
            ReadingTest("pos", "adj"),
            Condition(-1, ReadingTest("pos", "num"), negated=True),
        )
    ]


def test_parse_finnish_alias_rules_verbatim():
    rules = parse_rules("SELECT lukusana IF (+1 nimisana)")
    assert rules == [
        CgRule(
            RuleAction.SELECT,
            ReadingTest("pos", "num"),
            Condition(1, ReadingTest("pos", "noun")),
        )
    ]


def test_parse_unconditional_rule_and_comments():
    text = "# drop stray adverbs\n\nREMOVE POS=adv\n"
    assert parse_rules(text) == [
        CgRule(RuleAction.REMOVE, ReadingTest("pos", "adv"), None)
    ]


def test_parse_unknown_action_reports_line():
    with pytest.raises(RuleSyntaxError, match="line 2"):
        parse_rules("REMOVE POS=adv\nDISCARD POS=adj")


def test_parse_unknown_predicate_reports_line():
    with pytest.raises(RuleSyntaxError, match="line 1"):
        parse_rules("SELECT substantiivi")
    with pytest.raises(RuleSyntaxError, match="line 1: empty POS tag"):
        parse_rules("SELECT POS=")
    with pytest.raises(RuleSyntaxError, match="line 2: empty baseform"):
        parse_rules("REMOVE POS=adv\nREMOVE BASEFORM=")


def test_parse_malformed_condition_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rules("SELECT POS=num IF (+1)")


VERB = ReadingTest("pos", "verb")


@pytest.mark.parametrize(
    "build,message",
    [
        # Accepted, it ran as REMOVE: on tuuli noun;verb it kept noun.
        (lambda: CgRule("SELECT", VERB), "action must be RuleAction, not 'SELECT'"),
        (lambda: CgRule(RuleAction.SELECT, "POS=verb"), "target must be ReadingTest, not 'POS=verb'"),
        (lambda: CgRule(RuleAction.SELECT, VERB, VERB), f"condition must be Condition, not {VERB!r}"),
        # Accepted, the condition was ignored: the rule acted at every token.
        (lambda: Condition(-1, VERB, "NOT"), "negated must be bool, not 'NOT'"),
        # Accepted, it failed only in apply_rule, adding the index to the offset.
        (lambda: Condition("1", VERB), "offset must be int, not '1'"),
        (lambda: Condition(1, "POS=verb"), "test must be ReadingTest, not 'POS=verb'"),
        # Accepted, a bool is an int: Condition(True, ...) ran as offset +1.
        (lambda: Condition(True, VERB), "offset must be int, not True"),
        (lambda: Condition(False, VERB, True), "offset must be int, not False"),
        # Accepted, no reading's value could equal it: the rule never fired.
        (lambda: ReadingTest("pos", 3), "value must be str, not 3"),
        (lambda: ReadingTest("baseform", None), "value must be str, not None"),
    ],
    ids=["action", "target", "condition", "negated", "offset", "test", "offset-true",
         "offset-false", "value-int", "value-none"],
)
def test_a_rule_field_of_the_wrong_type_is_refused(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("field", ["pos", "baseform"])
def test_an_empty_test_value_is_refused_as_parse_rules_refuses_it(field):
    with pytest.raises(ValueError, match=f"^a {field} test needs a non-empty value$"):
        ReadingTest(field, "")


def test_iter_readings_yields_a_sentence_before_a_later_malformed_line():
    text = "kuusi\tnum:kuusi;noun:kuusi\n\nkoiraa\tnoun:koira\n\nkoira\tnoun\n"
    sentences = iter_readings(text.splitlines(keepends=True))
    assert next(sentences) == [KUUSI]
    assert next(sentences) == [KOIRAA]
    with pytest.raises(ReadingsFormatError, match=r"^line 5: malformed reading 'noun' "):
        next(sentences)


class PieceError(Exception):
    pass


def test_iter_readings_yields_a_sentence_before_it_pulls_a_later_piece():
    def pieces():
        yield "kuusi\tnum:kuusi;noun:kuusi\n"
        yield "\n"
        raise PieceError("a piece after the first sentence was pulled")

    sentences = iter_readings(pieces())
    assert next(sentences) == [KUUSI]
    with pytest.raises(PieceError):
        next(sentences)


def test_parse_readings_two_sentences():
    text = "kuusi\tnum:kuusi;noun:kuusi\nkoiraa\tnoun:koira\n\nei\tverb:ei\nvoi\tnoun:voi;verb:voida\n"
    sentences = parse_readings(text)
    assert sentences == [[KUUSI, KOIRAA], [EI, VOI]]


def test_parse_readings_features():
    [sentence] = parse_readings("koiralle\tnoun:koira:all,sg\n")
    [reading] = sentence[0].readings
    assert reading.features == frozenset({"all", "sg"})


def test_parsers_normalize_to_nfc():
    rules = "SELECT BASEFORM=kenkä IF (-1 BASEFORM=pöytä)\n"
    readings = "pöytä\tnoun:pöytä\nkenkä\tnoun:kenkä;verb:kenkä\n"
    nfd = lambda text: unicodedata.normalize("NFD", text)
    assert parse_rules(nfd(rules)) == parse_rules(rules)
    assert parse_readings(nfd(readings)) == parse_readings(readings)


def test_parse_readings_rejects_empty_reading_list():
    with pytest.raises(ReadingsFormatError, match="line 1"):
        parse_readings("voi\t\n")
    with pytest.raises(ReadingsFormatError, match="line 1: token has no readings"):
        parse_readings("kuusi\t;")


def test_parse_readings_rejects_malformed_reading():
    with pytest.raises(ReadingsFormatError, match="line 2"):
        parse_readings("ei\tverb:ei\nvoi\tnounvoi\n")


def test_parse_readings_strips_spaces_around_each_field():
    # A POS of "num " would never pass SELECT POS=num, and would be written back.
    [[token]] = parse_readings("kuusi\tnum :kuusi;noun:kuusi: sg\n")
    assert token == ReadingSet("kuusi", [Reading("kuusi", "num"), Reading("kuusi", "noun", ["sg"])])
    [selected] = run_cg([token], parse_rules("SELECT POS=num"))
    assert format_sentences([[selected]]) == "kuusi\tnum:kuusi"
    [[token]] = parse_readings("voi\t noun : voi : sg , pl ; verb :voida\n")
    assert token == ReadingSet(
        "voi", [Reading("voi", "noun", ["sg", "pl"]), Reading("voida", "verb")]
    )


@pytest.mark.parametrize("reading", [" :kuusi", "num: :sg", "num :\t:sg"])
def test_parse_readings_rejects_a_field_that_stripping_empties(reading):
    with pytest.raises(ReadingsFormatError, match="line 2: malformed reading"):
        parse_readings(f"ei\tverb:ei\nkuusi\tnoun:kuusi;{reading}\n")


def test_readings_that_write_one_feature_field_share_its_frozenset():
    text = "koira\tnoun:koira:sg,nom\nkissa\tnoun:kissa:sg,nom;verb:kissata:sg,nom\n"
    [[koira, kissa]] = parse_readings(text)
    [first] = koira.readings
    assert first.features == {"sg", "nom"}
    assert all(r.features is first.features for r in kissa.readings)
    [[again, _]] = parse_readings(text)  # a second call
    [reading] = again.readings
    assert reading.features is first.features


def test_feature_cache_stays_at_its_bound():
    parse_readings("".join(f"w\tnoun:w:f{n}\n\n" for n in range(_CACHE_SIZE + 10)))
    info = _features.cache_info()
    assert (info.maxsize, info.currsize) == (_CACHE_SIZE, _CACHE_SIZE)


def test_reading_set_never_born_empty():
    with pytest.raises(ValueError):
        ReadingSet("x", frozenset())
    with pytest.raises(ValueError):
        ReadingSet("x", [])


def test_reading_set_keeps_a_frozenset_and_freezes_any_other_iterable():
    readings = frozenset({Reading("kuusi", "num"), Reading("kuusi", "noun")})
    assert ReadingSet("kuusi", readings).readings is readings
    listed = ReadingSet("kuusi", [Reading("kuusi", "num"), Reading("kuusi", "noun")])
    assert type(listed.readings) is frozenset and listed.readings == readings
    assert not hasattr(listed, "__dict__")


def test_reading_keeps_a_frozenset_and_freezes_any_other_iterable():
    features = frozenset({"sg", "nom"})
    assert Reading("koira", "noun", features).features is features
    listed = Reading("koira", "noun", ["sg", "nom"])
    assert type(listed.features) is frozenset and listed.features == features
    assert ReadingSet("koira", [listed]).readings == {Reading("koira", "noun", features)}
    replaced = listed._replace(features=("pl",))
    assert type(replaced.features) is frozenset and replaced.features == {"pl"}


def test_reading_is_the_tuple_of_its_three_fields():
    r = Reading(baseform="koira", pos="noun")
    assert (r.baseform, r.pos, r.features) == ("koira", "noun", frozenset())
    assert repr(r) == "Reading(baseform='koira', pos='noun', features=frozenset())"
    assert r == ("koira", "noun", frozenset())
    assert pickle.loads(pickle.dumps(r)) == r
    for baseform, pos in (("", "noun"), ("koira", "")):
        with pytest.raises(ValueError, match="non-empty baseform and POS tag"):
            Reading(baseform, pos)
    with pytest.raises(ValueError, match="non-empty baseform and POS tag"):
        r._replace(pos="")


def test_readings_hash_without_a_python_call():
    """``Reading`` and ``ReadingSet`` are tuples, hashed and compared in C.

    Parsing and every rule pass put readings into sets; a frozen dataclass
    would run its generated ``__hash__``, Python code, each time, and its
    ``__eq__`` for every comparison of results. Parsing and rule passes
    build them through the trusted constructor, so no checking ``__new__``
    runs either.
    """
    rules = parse_rules("SELECT POS=num IF (+1 POS=noun)\nREMOVE BASEFORM=voi")
    text = "kuusi\tnum:kuusi;noun:kuusi:sg,nom\nvoi\tnoun:voi;verb:voida\n"
    expected = [run_cg(sentence, rules) for sentence in parse_readings(text)]
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__hash__", "__eq__", "__new__"):
            calls.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        results = [run_cg(sentence, rules) for sentence in parse_readings(text)]
        same = results == expected
    finally:
        sys.setprofile(None)
    assert calls == []
    assert same and results[0][0] is not expected[0][0]


def test_public_reading_constructors_refuse_strings_and_non_readings():
    with pytest.raises(TypeError, match="features must be feature strings, not the string 'sg'"):
        Reading("koira", "noun", "sg")
    with pytest.raises(TypeError, match="readings must be Readings, not the string 'ab'"):
        ReadingSet("koira", "ab")
    with pytest.raises(TypeError, match="readings must be Readings, not \\('koira', 'noun'"):
        ReadingSet("koira", [("koira", "noun", frozenset())])
    with pytest.raises(TypeError, match="features must be feature strings"):
        Reading("koira", "noun")._replace(features="pl")
    with pytest.raises(TypeError, match="readings must be Readings"):
        KOIRAA._replace(readings="koira")
    with pytest.raises(ValueError, match="token 'koiraa' has no readings"):
        KOIRAA._replace(readings=())


def test_reading_set_is_the_tuple_of_its_two_fields():
    readings = frozenset({Reading("kuusi", "num"), Reading("kuusi", "noun")})
    token = ReadingSet("kuusi", readings)
    assert (token.surface, token.readings) == ("kuusi", readings)
    assert token == ("kuusi", readings) and hash(token) == hash(("kuusi", readings))
    assert token == KUUSI and token != ReadingSet("kuusi", [Reading("kuusi", "num")])
    assert ReadingSet(surface="kuusi", readings=readings) == token
    assert repr(ReadingSet("koira", [Reading("koira", "noun")])) == (
        "ReadingSet(surface='koira', readings=frozenset("
        "{Reading(baseform='koira', pos='noun', features=frozenset())}))"
    )
    copy = pickle.loads(pickle.dumps(token))
    assert type(copy) is ReadingSet and copy == token
    with pytest.raises(AttributeError):
        token.surface = "kuuse"
    with pytest.raises(AttributeError):
        token.extra = 1


# --- predicates and conditions ----------------------------------------------


def test_predicates_match_readings():
    # SELECT keeps exactly the readings its target passes.
    z = from_sequence((VOI,), 0)
    for field, value, kept in (
        ("pos", "noun", ("noun", "voi")),
        ("pos", "verb", ("verb", "voida")),
        ("baseform", "voi", ("noun", "voi")),
        ("baseform", "voida", ("verb", "voida")),
    ):
        assert apply_rule(z, CgRule(RuleAction.SELECT, ReadingTest(field, value))) == rs("voi", kept)
    # No reading passes: the token is left as it is.
    for field, value in (("pos", "adj"), ("baseform", "noun")):
        assert apply_rule(z, CgRule(RuleAction.SELECT, ReadingTest(field, value))) is VOI


def test_reading_test_compares_only_pos_or_baseform():
    with pytest.raises(ValueError, match="not 'features'"):
        ReadingTest("features", "sg")


def select_num_if(condition):
    # Splits KUUSI's readings, so at KUUSI it acts exactly when the condition holds.
    return CgRule(RuleAction.SELECT, ReadingTest("pos", "num"), condition)


def test_condition_looks_ahead():
    z = from_sequence((KUUSI, KOIRAA), 0)
    noun_next = select_num_if(Condition(1, ReadingTest("pos", "noun")))
    assert apply_rule(z, noun_next) == rs("kuusi", ("num", "kuusi"))
    assert apply_rule(z, select_num_if(Condition(1, ReadingTest("pos", "verb")))) is KUUSI


def test_condition_out_of_bounds_is_false():
    z = from_sequence((KOIRAA, KUUSI), 1)
    assert apply_rule(z, select_num_if(Condition(1, ReadingTest("pos", "noun")))) is KUUSI


def test_negated_condition_fires_at_boundary():
    z = from_sequence((KOIRAA, KUUSI), 1)
    no_noun_next = select_num_if(Condition(1, ReadingTest("pos", "noun"), negated=True))
    assert apply_rule(z, no_noun_next) == rs("kuusi", ("num", "kuusi"))


# --- rule application --------------------------------------------------------


def select_num_before_noun():
    return CgRule(
        RuleAction.SELECT,
        ReadingTest("pos", "num"),
        Condition(1, ReadingTest("pos", "noun")),
    )


def test_apply_select_keeps_matching_readings():
    z = from_sequence((KUUSI, KOIRAA), 0)
    out = apply_rule(z, select_num_before_noun())
    assert out == rs("kuusi", ("num", "kuusi"))


def test_apply_skips_when_condition_false():
    z = from_sequence((KUUSI, KASVAA), 0)
    out = apply_rule(z, select_num_before_noun())
    assert out == KUUSI


def test_apply_select_without_match_is_identity():
    rule = CgRule(RuleAction.SELECT, ReadingTest("pos", "adj"), None)
    z = from_sequence((KUUSI,), 0)
    assert apply_rule(z, rule) == KUUSI


def test_remove_never_empties_a_set():
    rule = CgRule(RuleAction.REMOVE, ReadingTest("pos", "noun"), None)
    z = from_sequence((KOIRAA,), 0)
    assert apply_rule(z, rule) == KOIRAA


def test_remove_drops_matching_readings():
    rule = CgRule(RuleAction.REMOVE, ReadingTest("pos", "noun"), None)
    z = from_sequence((VOI,), 0)
    assert apply_rule(z, rule) == rs("voi", ("verb", "voida"))


# --- whole-sentence runs ------------------------------------------------------


def test_scenario_numeral_before_noun():
    out = run_cg([KUUSI, KOIRAA], parse_rules("SELECT POS=num IF (+1 POS=noun)"))
    assert out[0] == rs("kuusi", ("num", "kuusi"))
    assert out[1] == KOIRAA


def test_scenario_noun_before_verb():
    out = run_cg([KUUSI, KASVAA], parse_rules("SELECT POS=noun IF (+1 POS=verb)"))
    assert out[0] == rs("kuusi", ("noun", "kuusi"))


def test_scenario_verb_after_negation():
    out = run_cg([EI, VOI], parse_rules("SELECT POS=verb IF (-1 BASEFORM=ei)"))
    assert out[1] == rs("voi", ("verb", "voida"))


def cascade_sentence():
    return [
        rs("koira", ("noun", "koira")),
        rs(
            "tuuli",
            ("noun", "tuuli"),
            ("verb", "tuulla"),
            ("adj", "tuulinen"),
            ("adv", "tuulisesti"),
        ),
        rs("kasvaa", ("verb", "kasvaa")),
    ]


CASCADE_RULES = """\
REMOVE POS=adj IF (NOT -1 POS=num)
REMOVE POS=adv IF (-1 POS=noun)
SELECT POS=verb IF (+1 POS=verb)
"""


def test_cascade_reduces_four_ways_to_one():
    sentence = cascade_sentence()
    rules = parse_rules(CASCADE_RULES)
    assert len(sentence[1].readings) == 4
    out = run_cg(sentence, rules)
    assert out[1] == rs("tuuli", ("verb", "tuulla"))


def test_cascade_shrinks_stepwise():
    sentence = cascade_sentence()
    rules = parse_rules(CASCADE_RULES)
    sizes = []
    for i in range(len(rules) + 1):
        out = run_cg(sentence, rules[:i])
        sizes.append(len(out[1].readings))
    assert sizes == [4, 3, 2, 1]


def test_empty_rule_list_is_identity():
    sentence = [KUUSI, KOIRAA]
    assert run_cg(sentence, []) == sentence


def test_empty_sentence_rejected():
    # One message whatever the sentence is given as; an iterator is not tested for truth.
    for sentence in ([], (), iter(())):
        with pytest.raises(ValueError, match="^cannot disambiguate an empty sentence$"):
            run_cg(sentence, parse_rules("SELECT POS=noun"))


@pytest.mark.parametrize("item", ["SELECT", None, 3, Condition(1, ReadingTest("pos", "noun"))])
def test_a_rule_that_is_not_a_cg_rule_is_a_type_error_that_names_it(item):
    rules = [*parse_rules("SELECT POS=num IF (+1 POS=noun)"), item]
    with pytest.raises(TypeError) as info:
        run_cg([KUUSI, KOIRAA], rules)
    assert str(info.value) == f"rule 2 must be a CgRule, not {item!r}"


def test_an_attribute_error_raised_in_a_cg_rule_pass_is_not_renamed():
    def arrow(self, cells, i):
        raise AttributeError("raised in the pass")

    def rules():
        raise AttributeError("raised by the rules")
        yield

    def on_fire(*event):
        raise AttributeError("raised by on_fire")

    with mock.patch.object(CgRule, "arrow", arrow):
        with pytest.raises(AttributeError, match="^raised in the pass$"):
            run_cg([KUUSI, KOIRAA], parse_rules("SELECT POS=num"))
    with pytest.raises(AttributeError, match="^raised by the rules$"):
        run_cg([KUUSI, KOIRAA], rules())
    with pytest.raises(AttributeError, match="^raised by on_fire$"):
        run_cg([KUUSI, KOIRAA], parse_rules("SELECT POS=num"), on_fire=on_fire)


def test_on_fire_reports_changes():
    fired = []
    run_cg(
        [KUUSI, KOIRAA],
        parse_rules("SELECT POS=num IF (+1 POS=noun)"),
        on_fire=lambda n, m, before, after: fired.append((n, m)),
    )
    assert fired == [(1, 0)]


# --- randomized structure ------------------------------------------------------

POS_POOL = ("noun", "verb", "adj", "adv", "num", "pron")
BASE_POOL = ("koira", "kuusi", "voi", "ei", "talo", "iso")


def random_sentence(rng: random.Random) -> list[ReadingSet]:
    length = rng.randint(1, 8)
    sentence = []
    for t in range(length):
        readings = frozenset(
            Reading(rng.choice(BASE_POOL), rng.choice(POS_POOL))
            for _ in range(rng.randint(1, 4))
        )
        sentence.append(ReadingSet(f"w{t}", readings))
    return sentence


def random_rule(rng: random.Random) -> CgRule:
    def test():
        if rng.random() < 0.5:
            return ReadingTest("pos", rng.choice(POS_POOL))
        return ReadingTest("baseform", rng.choice(BASE_POOL))

    condition = None
    if rng.random() < 0.7:
        condition = Condition(
            offset=rng.randint(-2, 2), test=test(), negated=rng.random() < 0.3
        )
    action = RuleAction.SELECT if rng.random() < 0.5 else RuleAction.REMOVE
    return CgRule(action, test(), condition)


def test_safety_invariant_random_sweep():
    rng = random.Random(20_26)
    for _ in range(2000):
        sentence = random_sentence(rng)
        rules = [random_rule(rng) for _ in range(rng.randint(1, 3))]
        stage = sentence
        for rule in rules:
            stage = run_cg(stage, [rule])
            assert all(token.readings for token in stage)


def test_monotonic_random_sweep():
    rng = random.Random(7)
    for _ in range(500):
        sentence = random_sentence(rng)
        out = run_cg(sentence, [random_rule(rng) for _ in range(2)])
        for before, after in zip(sentence, out):
            assert after.readings <= before.readings


def test_two_rules_sequential_equals_composed():
    rng = random.Random(99)
    for _ in range(500):
        sentence = random_sentence(rng)
        r1, r2 = random_rule(rng), random_rule(rng)
        sequential = run_cg(sentence, [r1, r2])
        z = from_sequence(tuple(sentence), 0)
        first = lambda w: apply_rule(w, r1)
        second = lambda w: apply_rule(w, r2)
        composed = lambda w: second(extend(w, first))
        assert tuple(sequential) == to_sequence(extend(z, composed))


def test_bench_demo_rules_are_the_cascade():
    assert demo_rules() == parse_rules(CASCADE_RULES) == [
        CgRule(
            RuleAction.REMOVE,
            ReadingTest("pos", "adj"),
            Condition(-1, ReadingTest("pos", "num"), negated=True),
        ),
        CgRule(
            RuleAction.REMOVE,
            ReadingTest("pos", "adv"),
            Condition(-1, ReadingTest("pos", "noun")),
        ),
        CgRule(
            RuleAction.SELECT,
            ReadingTest("pos", "verb"),
            Condition(+1, ReadingTest("pos", "verb")),
        ),
    ]


# The README's alias table, written out here rather than read from comorph.cg.
ALIAS_TAGS = {
    "lukusana": "num",
    "nimisana": "noun",
    "teonsana": "verb",
    "laatusana": "adj",
    "seikkasana": "adv",
}
# Each draw is (rule-file spelling, the test it should parse to).
rule_tests = st.one_of(
    st.sampled_from(POS_POOL).map(lambda tag: (f"POS={tag}", ReadingTest("pos", tag))),
    st.sampled_from(BASE_POOL).map(
        lambda form: (f"BASEFORM={form}", ReadingTest("baseform", form))
    ),
    st.sampled_from(sorted(ALIAS_TAGS)).map(
        lambda alias: (alias, ReadingTest("pos", ALIAS_TAGS[alias]))
    ),
)


@st.composite
def rule_lines(draw):
    """A rule line and the rule it should parse to."""
    action = draw(st.sampled_from(RuleAction))
    target_text, target = draw(rule_tests)
    line = f"{action.value} {target_text}"
    condition = None
    if draw(st.booleans()):
        negated = draw(st.booleans())
        offset = draw(st.integers(-3, 3))
        test_text, test = draw(rule_tests)
        line += f" IF ({'NOT ' if negated else ''}{offset:+d} {test_text})"
        condition = Condition(offset, test, negated)
    return line, CgRule(action, target, condition)


@st.composite
def sentences(draw, bases=BASE_POOL, tags=POS_POOL, max_size=8):
    reading = st.builds(Reading, st.sampled_from(bases), st.sampled_from(tags))
    sets = st.frozensets(reading, min_size=1, max_size=4)
    tokens = draw(st.lists(sets, min_size=1, max_size=max_size))
    return [ReadingSet(f"w{t}", readings) for t, readings in enumerate(tokens)]


@given(sentences(), st.lists(rule_lines(), min_size=1, max_size=4))
def test_run_cg_matches_list_indexing_oracle(sentence, drawn):
    lines, expected = zip(*drawn)
    rules = parse_rules("\n".join(lines))
    assert rules == list(expected)
    assert run_cg(sentence, rules) == cg_reference(sentence, expected)


@given(sentences(), rule_lines(), st.data())
def test_supported_pass_equals_full_apply_rule_pass(sentence, drawn, data):
    [rule] = parse_rules(drawn[0])
    z = from_sequence(tuple(sentence), data.draw(st.integers(0, len(sentence) - 1)))
    passed = _rule_pass(rule, TagIndex(z.cells), z.cells)  # run_cg's pass
    assert passed == to_sequence(extend(z, lambda w: apply_rule(w, rule)))
    assert list(passed) == cg_reference(sentence, [rule])


@given(sentences(), rule_lines(), rule_lines())
def test_support_holds_where_the_target_splits_the_readings(sentence, drawn, earlier):
    [rule] = parse_rules(drawn[0])
    unconditional = CgRule(rule.action, rule.target)

    def support(token):
        # The only tokens the target can change: it passes some but not all readings.
        hits = sum(passes(rule.target, r) for r in token.readings)
        return 0 < hits < len(token.readings)

    for token in sentence:
        assert unconditional.reach(TagIndex([token]), [token]) == ([0] if support(token) else [])
    # On the sentence it was built from, the index splits exactly there.
    index = TagIndex(sentence)
    _, split = index[rule.target.field]
    supported = [i for i, token in enumerate(sentence) if support(token)]
    assert split.get(rule.target.value, []) == supported
    # After an earlier rule shrank some tokens, reach's own split test on the
    # stale index keeps exactly the tokens where support still holds.
    shrunk = cg_reference(sentence, parse_rules(earlier[0]))
    supported = [i for i, token in enumerate(shrunk) if support(token)]
    assert unconditional.reach(index, shrunk) == supported


@given(rule_lines())
def test_rules_pickle_as_their_three_fields(drawn):
    [rule] = parse_rules(drawn[0])
    assert pickle.loads(pickle.dumps(rule)) == rule
    assert rule._fields == ("action", "target", "condition")


def apply_rule_passes(sentence, rules):
    """One full ``extend`` of ``apply_rule`` per rule: the changes, then the result."""
    changes = []
    z = from_sequence(tuple(sentence), 0)
    for number, rule in enumerate(rules, start=1):
        passed = extend(z, lambda w, _rule=rule: apply_rule(w, _rule))
        for i, (old, new) in enumerate(zip(to_sequence(z), to_sequence(passed))):
            if old != new:
                changes.append((number, i, old, new))
        z = passed
    return changes, list(to_sequence(z))


@given(sentences(), st.lists(rule_lines(), min_size=1, max_size=4))
def test_on_fire_reports_the_changes_of_the_apply_rule_passes(sentence, drawn):
    rules = parse_rules("\n".join(line for line, _ in drawn))
    fired = []
    run_cg(sentence, rules, on_fire=lambda *event: fired.append(event))
    assert fired == apply_rule_passes(sentence, rules)[0]


# Two tags and two baseforms: early rules often shrink a token before a later
# rule on the same key, so the index run_cg built at the start is stale.
TINY_POS = ("noun", "verb")
TINY_BASE = ("kuusi", "voi")
tiny_tests = st.one_of(
    st.sampled_from(TINY_POS).map(lambda tag: ReadingTest("pos", tag)),
    st.sampled_from(TINY_BASE).map(lambda form: ReadingTest("baseform", form)),
)
tiny_rules = st.builds(
    CgRule,
    st.sampled_from(RuleAction),
    tiny_tests,
    st.none() | st.builds(Condition, st.integers(-3, 3), tiny_tests, st.booleans()),
)
tiny_sentences = sentences(TINY_BASE, TINY_POS, max_size=6)


@given(tiny_sentences, st.lists(tiny_rules, min_size=2, max_size=8))
def test_run_cg_with_a_stale_index_equals_the_apply_rule_passes(sentence, rules):
    changes, result = apply_rule_passes(sentence, rules)
    fired = []
    assert run_cg(sentence, rules, on_fire=lambda *event: fired.append(event)) == result
    assert fired == changes
    assert result == cg_reference(sentence, rules)


@given(tiny_sentences, st.lists(tiny_rules, min_size=1, max_size=8))
@example(  # the second rule's key no longer splits the token the first one shrank
    sentence=[rs("kuusi", ("noun", "kuusi"), ("verb", "kuusi"))],
    rules=parse_rules("SELECT POS=noun\nREMOVE POS=verb"),
)
def test_apply_rule_is_reached_only_where_the_rule_can_act(sentence, rules):
    """Never at an unambiguous token or one whose readings the target does not
    split, and under a condition that is not negated, never where the token at
    the offset had no reading passing the test when the run began."""
    wasted = []
    arrow = CgRule.arrow

    def counting_arrow(rule, cells, i):
        readings = cells[i].readings
        hits = sum(passes(rule.target, r) for r in readings)
        can_act = 0 < hits < len(readings)
        c = rule.condition
        if c is not None and not c.negated:
            j = i + c.offset
            can_act = can_act and 0 <= j < len(sentence) and any(
                passes(c.test, r) for r in sentence[j].readings
            )
        if not can_act:
            wasted.append((rule, i))
        return arrow(rule, cells, i)

    with mock.patch.object(CgRule, "arrow", counting_arrow):
        run_cg(sentence, rules)
    assert wasted == []


def test_run_cg_makes_no_call_per_stale_candidate():
    """Python calls during ``run_cg`` are bounded by the rules and the
    ``arrow`` calls, not by the candidates a stale index names.

    The first rule leaves every token one reading, so each later rule's
    index entry names all 40 tokens and none can change.
    """
    sentence = [rs(f"w{i}", ("noun", "voi"), ("verb", "voida")) for i in range(40)]
    rules = parse_rules("SELECT POS=noun\n" + "REMOVE POS=verb\n" * 10)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = run_cg(sentence, rules)
    finally:
        sys.setprofile(None)
    assert out == [rs(f"w{i}", ("noun", "voi")) for i in range(40)]
    applied = calls.count("arrow")
    assert applied == 40
    assert "support" not in calls
    assert len(calls) <= 5 * (len(rules) + applied)


def four_tokens():
    return [
        rs("koira", ("noun", "koira")),
        rs("voi", ("noun", "voi"), ("verb", "voida")),
        rs("kuusi", ("num", "kuusi"), ("noun", "kuusi")),
        rs("tuuli", ("verb", "tuulla"), ("adj", "tuuli")),
    ]


def test_tag_index_indexes_a_field_on_first_use():
    sentence = four_tokens()
    index = TagIndex(sentence)
    assert parse_rules("SELECT POS=noun IF (+1 POS=num)")[0].reach(index, sentence) == [1]
    assert list(index) == ["pos"]
    values, split = index["baseform"]
    assert values == [{"koira"}, {"voi", "voida"}, {"kuusi"}, {"tuulla", "tuuli"}]
    assert split == {"voi": [1], "voida": [1], "tuulla": [3], "tuuli": [3]}


@pytest.mark.parametrize(
    "line, reached",
    [
        ("SELECT POS=noun", [1, 2]),
        ("SELECT POS=noun IF (-1 POS=num)", []),  # no num before either
        ("SELECT POS=noun IF (+1 POS=num)", [1]),
        ("REMOVE POS=adj IF (+2 POS=noun)", []),  # 3 + 2 is past the end
        ("REMOVE POS=noun IF (-2 POS=noun)", [2]),  # 1 - 2 is before the start
        ("REMOVE POS=verb IF (NOT +1 POS=adv)", [1, 3]),  # NOT is not narrowed
        ("SELECT POS=adv IF (0 POS=num)", []),  # no token has an adv
        ("SELECT POS=noun IF (0 POS=num)", [2]),
    ],
)
def test_apply_rule_calls_on_a_fixed_sentence(line, reached):
    sentence = four_tokens()
    calls = []
    arrow = CgRule.arrow

    def counting_arrow(rule, cells, i):
        calls.append(i)
        return arrow(rule, cells, i)

    with mock.patch.object(CgRule, "arrow", counting_arrow):
        run_cg(sentence, parse_rules(line))
    assert calls == reached


@given(sentences(), st.lists(rule_lines(), min_size=1, max_size=4))
@example(  # the first token changes, then the pass reaches the second
    sentence=[VOI, VOI], drawn=[("SELECT POS=noun IF (NOT -1 POS=noun)", None)]
)
def test_a_cg_pass_hands_each_rule_its_input_cells_at_reach_positions_in_order(sentence, drawn):
    """The pass contract: ``arrow`` is called only at ``reach``'s positions, in
    ascending order, each time with the pass's input tuple, never its output so far."""
    rules = parse_rules("\n".join(line for line, _ in drawn))
    calls = []
    arrow = CgRule.arrow

    def recording_arrow(rule, cells, i):
        calls.append((rule, cells, i))
        return arrow(rule, cells, i)

    with mock.patch.object(CgRule, "arrow", recording_arrow):
        out = run_cg(sentence, rules)
    assert out == cg_reference(sentence, rules)
    cells = tuple(sentence)
    index = TagIndex(cells)
    for rule in rules:
        positions = rule.reach(index, cells)
        mine, calls = calls[: len(positions)], calls[len(positions) :]
        assert [(r, i) for r, _, i in mine] == [(rule, i) for i in positions]
        assert positions == sorted(positions)
        if mine:
            given_cells = mine[0][1]
            assert type(given_cells) is tuple and given_cells == cells
            assert all(c is given_cells for _, c, _ in mine)
        cells = tuple(cg_reference(cells, [rule]))
    assert calls == []


def test_runs_are_deterministic():
    sentence = cascade_sentence()
    rules = parse_rules(CASCADE_RULES)
    assert run_cg(sentence, rules) == run_cg(sentence, rules)


def test_format_roundtrips_through_parse():
    koiralle = Reading("koira", "noun", frozenset({"sg", "all"}))
    # Six readings: their set order depends on the hash seed, so only sorting
    # gives one line for every seed.
    voit = [
        Reading("voida", "verb", frozenset({"sg3", "pres", "act"})),
        Reading("voi", "noun", frozenset({"sg", "nom"})),
        Reading("voida", "verb", frozenset({"neg", "act"})),
        Reading("voi", "interj"),
        Reading("voida", "verb", frozenset({"sg2", "imp", "act"})),
        Reading("voi", "noun", frozenset({"pl", "nom"})),
    ]
    sentences = [
        [KUUSI, KOIRAA],
        [EI, VOI],
        [ReadingSet("voi", frozenset(voit))],
        [ReadingSet("koiralle", frozenset({koiralle}))],
    ]
    text = format_sentences(sentences)
    assert text.split("\n\n")[2] == (
        "voi\tinterj:voi;noun:voi:nom,pl;noun:voi:nom,sg;"
        "verb:voida:act,imp,sg2;verb:voida:act,neg;verb:voida:act,pres,sg3"
    )
    assert text.endswith("koiralle\tnoun:koira:all,sg")
    assert parse_readings(text) == sentences
    assert format_sentences(parse_readings(text)) == text


def test_format_orders_features_as_sorted_lists_not_as_joined_text():
    # The first features "a" < "a!" decide, though as text "a,b" > "a!": "," is above "!".
    token = ReadingSet("a", [Reading("a", "noun", ["a", "b"]), Reading("a", "noun", ["a!"])])
    expected = "a\tnoun:a:a,b;noun:a:a!"
    assert format_sentences([[token]]) == format_sentences_reference([[token]]) == expected


# Pieces of readings files: NFD text, padding around readings and their
# fields, duplicate readings, empty feature lists (``n:b:``, ``,,``),
# features containing ``:`` and malformed readings and lines.
NFD_POYTA = unicodedata.normalize("NFD", "pöytä")
reading_items = st.one_of(
    st.builds(
        "{3}{0}{4}:{4}{1}{2}{3}".format,
        st.sampled_from(("noun", "verb", "n")),
        st.sampled_from(("voi", "pöytä", NFD_POYTA, "b")),
        st.sampled_from(("", ":", ":,,", ":sg", ":pl,sg,", ":a:b", ":ä,a,,Sg", ": sg , pl", ":a : b, ")),
        st.sampled_from(("", " ", "\t")),
        st.sampled_from(("", "", " ")),
    ),
    st.sampled_from(("", " ", "nounvoi", ":voi", "noun:", "n::", "noun", "n: :sg")),
)
token_lines = st.builds(
    "{0}\t{1}".format,
    st.sampled_from(("voi", " voi ", "pöytä", NFD_POYTA)),
    st.lists(reading_items, min_size=1, max_size=4).map(";".join),
)
readings_lines = st.one_of(
    token_lines,
    token_lines,
    st.sampled_from(("", "  ", "voi", "\tnoun:voi", "voi\t", "voi\t ;", " \tn:b")),
)
readings_texts = st.one_of(
    st.lists(readings_lines, max_size=8).map("\n".join),
    st.text(alphabet="nb:;, \t\na\u0308", max_size=40),
)


def _error_line(exc: Exception) -> str:
    return re.match(r"line (\d+):", str(exc))[1]


@given(readings_texts)
@example("voi\tn:b:;n:b:,,;n:b:a:b;n:b;n:b:a:b\n\n pöytä \tn:b:,x,\n")
@example("voi\tn:b\nvoi\tn::\n")
@example("kuusi\tnum :kuusi;noun:kuusi: sg\n")
def test_parse_readings_matches_the_reference_parser(text):
    """The trusted constructors build what the public ones would, or the
    parser raises the reference's error type at the same line."""
    try:
        expected = parse_readings_reference(text)
    except ReadingsFormatError as exc:
        with pytest.raises(ReadingsFormatError) as raised:
            parse_readings(text)
        assert _error_line(raised.value) == _error_line(exc)
        return
    parsed = parse_readings(text)
    assert parsed == expected
    for token in (token for sentence in parsed for token in sentence):
        assert type(token) is ReadingSet and type(token.readings) is frozenset
        for reading in token.readings:
            assert type(reading) is Reading and type(reading.features) is frozenset
            assert all(type(field) is str for field in (reading.baseform, reading.pos))


# Every line break str.splitlines knows, and two a text-mode file translates to "\n".
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@given(st.lists(st.tuples(readings_lines, st.sampled_from(LINE_BREAKS)), max_size=8))
@example([("voi\tn:b", "\r\n"), ("", "\x1c"), ("\u0308\tn:b", "\u2028"), ("voi", "\n")])
def test_iter_readings_on_a_text_mode_file_parses_as_the_whole_text(lines):
    """Pieces cut where a text-mode file cuts its lines give the sentences, or
    the error at the same line, that the whole text gives."""
    text = "".join(line + brk for line, brk in lines)
    try:
        expected = parse_readings(text)
    except ReadingsFormatError as exc:
        with pytest.raises(ReadingsFormatError) as raised:
            list(iter_readings(io.StringIO(text, newline=None)))
        assert str(raised.value) == str(exc)
        return
    assert list(iter_readings(io.StringIO(text, newline=None))) == expected


feature_readings = st.builds(
    Reading,
    st.sampled_from(("voi", "pöytä")),
    st.sampled_from(("noun", "verb")),
    st.frozensets(st.sampled_from(("sg", "Sg", "a", "a:b", "ä", "pl", "b")), max_size=3),
)
feature_sentences = st.lists(
    st.builds(ReadingSet, st.sampled_from(("voi", "pöytä")), st.frozensets(feature_readings, min_size=1)),
    min_size=1,
    max_size=4,
)


@given(st.lists(feature_sentences, max_size=3))
def test_format_sentences_matches_the_reference_formatter(sentences):
    assert format_sentences(sentences) == format_sentences_reference(sentences)
