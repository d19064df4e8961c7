from __future__ import annotations

import comorph

# One name per operation: a new export, or a second spelling of one that is
# already here, has to be added to this list on purpose.
PUBLIC_API = [
    "CaseTemplate",
    "CgRule",
    "Condition",
    "DeletionSet",
    "Grade",
    "GradationPattern",
    "NounCase",
    "PATTERNS",
    "Pipeline",
    "Reading",
    "ReadingSet",
    "ReadingTest",
    "ReadingsFormatError",
    "RuleAction",
    "RuleSyntaxError",
    "UnsupportedStemError",
    "WriterZipper",
    "Zipper",
    "compose",
    "extend",
    "extract",
    "from_sequence",
    "generate",
    "lift_pure",
    "materialize",
    "parse_readings",
    "parse_rules",
    "run_cg",
    "run_pipeline",
    "standard_pipeline",
    "strengthen",
    "to_sequence",
    "weaken",
    "writer_extend",
]


def test_public_api_is_exactly_the_listed_names():
    assert sorted(comorph.__all__) == sorted(PUBLIC_API)
    for name in PUBLIC_API:
        assert getattr(comorph, name) is not None, name
