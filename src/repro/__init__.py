"""spanlib — a document spanner library.

A from-scratch reproduction of the system landscape surveyed in
"Document Spanners — A Brief Overview of Concepts, Results, and Recent
Developments" (Schmid & Schweikardt, PODS 2022):

* the span / span-tuple / span-relation data model of Fagin et al. [9]
  (:mod:`repro.core`);
* regular spanners — vset-automata, extended vset-automata, spanner
  regexes — with linear-preprocessing constant-delay enumeration
  (:mod:`repro.automata`, :mod:`repro.regex`, :mod:`repro.enumeration`);
* the core-spanner algebra with a constructive core-simplification lemma
  and refl-spanners (:mod:`repro.spanners`);
* the decision problems of Section 2.4 (:mod:`repro.decision`);
* SLP-compressed documents: balanced grammars, complex document editing,
  and spanner evaluation without decompression (:mod:`repro.slp`);
* word-combinatorial gadgets (:mod:`repro.wordeq`).

Quickstart::

    from repro import RegularSpanner
    spanner = RegularSpanner.from_regex("!x{(a|b)*}!y{b}!z{(a|b)*}")
    print(spanner.evaluate("ababbab").to_table())
"""

from repro.db import SpannerDB
from repro.errors import (
    CDEError,
    CircuitOpenError,
    DeadlineExceededError,
    EvaluationLimitError,
    FaultInjectedError,
    InvalidMarkedWordError,
    InvalidSpanError,
    JournalError,
    MemoryLimitError,
    NotFunctionalError,
    OverloadedError,
    PersistenceError,
    QueryError,
    QuerySyntaxError,
    RegexSyntaxError,
    SchemaError,
    ServeError,
    ServiceStoppedError,
    SLPError,
    SpanlibError,
    StreamError,
    TransactionError,
    UnsupportedSpannerError,
    WindowOverrunError,
)
from repro.serve import ServeConfig, SpannerService
from repro.util import Budget, Deadline
from repro.core import (
    CharClass,
    Close,
    DOT,
    MarkedWord,
    Marker,
    Open,
    Ref,
    Span,
    SpanRelation,
    SpanTuple,
    Spanner,
    fuse,
    fuse_tuple,
    mark_document,
)
from repro.enumeration import Enumerator
from repro.regex import compile_nfa, parse, spanner_from_regex
from repro.spanners import (
    CoreSpanner,
    ReflSpanner,
    RegularSpanner,
    core_to_refl_concat,
    prim,
)

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "CDEError",
    "CharClass",
    "CircuitOpenError",
    "Close",
    "CoreSpanner",
    "DOT",
    "Deadline",
    "DeadlineExceededError",
    "Enumerator",
    "EvaluationLimitError",
    "FaultInjectedError",
    "InvalidMarkedWordError",
    "InvalidSpanError",
    "JournalError",
    "MarkedWord",
    "Marker",
    "MemoryLimitError",
    "NotFunctionalError",
    "Open",
    "OverloadedError",
    "PersistenceError",
    "QueryError",
    "QuerySyntaxError",
    "Ref",
    "ReflSpanner",
    "RegexSyntaxError",
    "RegularSpanner",
    "SLPError",
    "SchemaError",
    "ServeConfig",
    "ServeError",
    "ServiceStoppedError",
    "Span",
    "SpanRelation",
    "SpanTuple",
    "Spanner",
    "SpannerDB",
    "SpannerService",
    "SpanlibError",
    "StreamError",
    "TransactionError",
    "UnsupportedSpannerError",
    "WindowOverrunError",
    "__version__",
    "compile_nfa",
    "core_to_refl_concat",
    "fuse",
    "fuse_tuple",
    "mark_document",
    "parse",
    "prim",
    "spanner_from_regex",
]
