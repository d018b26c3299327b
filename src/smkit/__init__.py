"""S-machine toolkit: machines over relator presentations, the compiler
from rules to group relators, and the verification combinatorics around
them (bands, trapezia, x-flanks, Dyck pairings)."""

from .hardware import AdmissibleWord, EEPresentation, Hardware, load_ee, load_ee_file
from .smachine import Machine, Trace, brief_history, is_historical_form
from .presentation import (
    Presentation, emit, read_presentation, rule_relations, write_presentation,
)
from .words import CyclicWord, RuleId, Word, parse_rule, parse_word, word_to_text

__all__ = [
    "AdmissibleWord", "EEPresentation", "Hardware", "load_ee", "load_ee_file",
    "Machine", "Trace", "brief_history", "is_historical_form",
    "Presentation", "emit", "read_presentation", "rule_relations", "write_presentation",
    "CyclicWord", "RuleId", "Word", "parse_rule", "parse_word", "word_to_text",
]

__version__ = "0.1.0"
