"""Context-window rule engine for Finnish morphophonology.

Local rules read a focused context window and emit one output segment;
running a rule over a whole word (or sentence) is a single ``extend`` pass.
Deleting rules log positions instead of shortening anything, and one
materialization at the end applies the log.

``import comorph`` loads no submodule: reading a public name (or one of the
submodules below) the first time imports the submodule that defines it and
binds the name here, so a later read is a plain attribute lookup.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "cg": "CgRule Condition Reading ReadingSet ReadingTest ReadingsFormatError RuleAction "
    "RuleSyntaxError parse_readings parse_rules run_cg",
    "generator": "CaseTemplate NounCase UnsupportedStemError generate",
    "gradation": "Grade GradationPattern PATTERNS",
    "pipeline": "Pipeline compose run_pipeline standard_pipeline strengthen weaken",
    "record": "",
    "vowels": "",
    "writer": "DeletionSet WriterZipper lift_pure materialize writer_extend",
    "zipper": "Zipper extend extract from_sequence to_sequence",
}
# Public name or submodule -> the submodule to import for it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
_HOME.update((module, module) for module in _EXPORTS)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
