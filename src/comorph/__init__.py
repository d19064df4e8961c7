"""Context-window rule engine for Finnish morphophonology.

Local rules read a focused context window and emit one output segment;
running a rule over a whole word (or sentence) is a single ``extend`` pass.
Deleting rules log positions instead of shortening anything, and one
materialization at the end applies the log.
"""

from .cg import (
    CgRule,
    Condition,
    Reading,
    ReadingSet,
    ReadingTest,
    ReadingsFormatError,
    RuleAction,
    RuleSyntaxError,
    parse_readings,
    parse_rules,
    run_cg,
)
from .gradation import Grade, GradationPattern, PATTERNS, strengthen, weaken
from .generator import CaseTemplate, NounCase, UnsupportedStemError, generate
from .pipeline import Pipeline, compose, run_pipeline, standard_pipeline
from .vowels import HarmonyClass, detect_harmony
from .writer import DeletionSet, WriterZipper, lift_pure, materialize, writer_extend
from .zipper import Zipper, extend, extract, from_sequence, to_sequence

__version__ = "0.1.0"

__all__ = [
    "CaseTemplate",
    "CgRule",
    "Condition",
    "DeletionSet",
    "Grade",
    "GradationPattern",
    "HarmonyClass",
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
    "detect_harmony",
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
