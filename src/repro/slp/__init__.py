"""SLP-compressed documents: representation, building, balancing, editing,
and spanner evaluation without decompression (paper Section 4)."""

from repro.slp.access import Fingerprinter, char_at, extract
from repro.slp.arena_index import ArenaIndex
from repro.slp.balance import (
    assert_strongly_balanced,
    concat_balanced,
    extract_balanced,
    rebalance,
    split_balanced,
)
from repro.slp.build import (
    balanced_node,
    fibonacci_node,
    lz78_node,
    power_node,
    repair_node,
    repeat_node,
)
from repro.slp.cde import (
    CDE,
    Concat,
    Copy,
    Delete,
    Doc,
    Editor,
    Extract,
    Insert,
    apply_cde,
    eval_cde,
    format_cde,
    parse_cde,
)
from repro.slp.lce import FactorHasher, compare_suffixes, longest_common_extension
from repro.slp.membership import CompressedMembership, simulate_uncompressed
from repro.slp.serialize import (
    dump_database,
    dump_snapshot,
    dumps_database,
    dumps_snapshot,
    load_database,
    loads_database,
    read_journal,
)
from repro.slp.pattern import CompressedPatternMatcher
from repro.slp.slp import SLP, DocumentDatabase, figure_1_database, figure_1_slp
from repro.slp.spanner_eval import SLPSpannerEvaluator

__all__ = [
    "ArenaIndex",
    "CDE",
    "CompressedMembership",
    "CompressedPatternMatcher",
    "Concat",
    "Copy",
    "Delete",
    "Doc",
    "DocumentDatabase",
    "Editor",
    "Extract",
    "FactorHasher",
    "Fingerprinter",
    "Insert",
    "SLP",
    "SLPSpannerEvaluator",
    "apply_cde",
    "assert_strongly_balanced",
    "balanced_node",
    "char_at",
    "compare_suffixes",
    "concat_balanced",
    "dump_database",
    "dump_snapshot",
    "dumps_database",
    "dumps_snapshot",
    "eval_cde",
    "format_cde",
    "extract",
    "extract_balanced",
    "fibonacci_node",
    "figure_1_database",
    "figure_1_slp",
    "longest_common_extension",
    "load_database",
    "loads_database",
    "lz78_node",
    "parse_cde",
    "power_node",
    "read_journal",
    "rebalance",
    "repair_node",
    "repeat_node",
    "simulate_uncompressed",
    "split_balanced",
]
