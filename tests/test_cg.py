from __future__ import annotations

import random
import unicodedata

import pytest

from comorph.cg import (
    BaseformIs,
    CgRule,
    Condition,
    PosIs,
    Reading,
    ReadingSet,
    ReadingsFormatError,
    RuleAction,
    RuleSyntaxError,
    apply_rule,
    eval_condition,
    format_sentences,
    parse_readings,
    parse_rules,
    run_cg,
    reading_matches,
)
from comorph.zipper import extend, from_sequence, to_sequence


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
        CgRule(RuleAction.SELECT, PosIs("num"), Condition(1, PosIs("noun")))
    ]


def test_parse_select_with_baseform_condition():
    rules = parse_rules("SELECT POS=verb IF (-1 BASEFORM=ei)")
    assert rules == [
        CgRule(RuleAction.SELECT, PosIs("verb"), Condition(-1, BaseformIs("ei")))
    ]


def test_parse_negated_condition():
    rules = parse_rules("REMOVE POS=adj IF (NOT -1 POS=num)")
    assert rules == [
        CgRule(
            RuleAction.REMOVE,
            PosIs("adj"),
            Condition(-1, PosIs("num"), negated=True),
        )
    ]


def test_parse_finnish_alias_rules_verbatim():
    rules = parse_rules("SELECT lukusana IF (+1 nimisana)")
    assert rules == [
        CgRule(RuleAction.SELECT, PosIs("num"), Condition(1, PosIs("noun")))
    ]


def test_parse_unconditional_rule_and_comments():
    text = "# drop stray adverbs\n\nREMOVE POS=adv\n"
    assert parse_rules(text) == [CgRule(RuleAction.REMOVE, PosIs("adv"), None)]


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


def test_reading_set_never_born_empty():
    with pytest.raises(ValueError):
        ReadingSet("x", frozenset())


# --- predicates and conditions ----------------------------------------------


def test_predicates_match_readings():
    r = Reading("koira", "noun")
    assert reading_matches(PosIs("noun"), r)
    assert not reading_matches(PosIs("verb"), r)
    assert reading_matches(BaseformIs("koira"), r)


def test_condition_looks_ahead():
    z = from_sequence((KUUSI, KOIRAA), 0)
    assert eval_condition(z, Condition(1, PosIs("noun")))
    assert not eval_condition(z, Condition(1, PosIs("verb")))


def test_condition_out_of_bounds_is_false():
    z = from_sequence((KUUSI, KOIRAA), 1)
    assert not eval_condition(z, Condition(1, PosIs("noun")))


def test_negated_condition_fires_at_boundary():
    z = from_sequence((KUUSI, KOIRAA), 1)
    assert eval_condition(z, Condition(1, PosIs("noun"), negated=True))


# --- rule application --------------------------------------------------------


def select_num_before_noun():
    return CgRule(RuleAction.SELECT, PosIs("num"), Condition(1, PosIs("noun")))


def test_apply_select_keeps_matching_readings():
    z = from_sequence((KUUSI, KOIRAA), 0)
    out = apply_rule(z, select_num_before_noun())
    assert out == rs("kuusi", ("num", "kuusi"))


def test_apply_skips_when_condition_false():
    z = from_sequence((KUUSI, KASVAA), 0)
    out = apply_rule(z, select_num_before_noun())
    assert out == KUUSI


def test_apply_select_without_match_is_identity():
    rule = CgRule(RuleAction.SELECT, PosIs("adj"), None)
    z = from_sequence((KUUSI,), 0)
    assert apply_rule(z, rule) == KUUSI


def test_remove_never_empties_a_set():
    rule = CgRule(RuleAction.REMOVE, PosIs("noun"), None)
    z = from_sequence((KOIRAA,), 0)
    assert apply_rule(z, rule) == KOIRAA


def test_remove_drops_matching_readings():
    rule = CgRule(RuleAction.REMOVE, PosIs("noun"), None)
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
    with pytest.raises(ValueError):
        run_cg([], [])


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
            return PosIs(rng.choice(POS_POOL))
        return BaseformIs(rng.choice(BASE_POOL))

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


def test_runs_are_deterministic():
    sentence = cascade_sentence()
    rules = parse_rules(CASCADE_RULES)
    assert run_cg(sentence, rules) == run_cg(sentence, rules)


def test_format_roundtrips_through_parse():
    koiralle = Reading("koira", "noun", frozenset({"sg", "all"}))
    sentences = [[KUUSI, KOIRAA], [EI, VOI], [ReadingSet("koiralle", frozenset({koiralle}))]]
    text = format_sentences(sentences)
    assert text.endswith("koiralle\tnoun:koira:all,sg")
    assert parse_readings(text) == sentences
    assert format_sentences(parse_readings(text)) == text
