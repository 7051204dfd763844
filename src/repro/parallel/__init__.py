"""The associative fold of plain text.

The ``(σ, T, T_em)`` algebra that powers compressed spanner evaluation
(Schmid & Schweikardt [39]) is associative, so a plain-text document's
entry is a fold of its per-character entries.  This package holds the
exact, batched fold kernel (:mod:`repro.parallel.fold`), which advances
a whole reduction level per numpy call; the stream guard on
:meth:`repro.stream.WindowedSpannerStream.rebuild` folds the document
with it and compares the result bit for bit with the SLP root entry.

Every entry is bit-for-bit equal across chunk splits; the differential
test suite asserts this against the SLP ``preprocess`` path rather than
assuming it.
"""

from repro.parallel.fold import combine, identity_entry, text_entry

__all__ = [
    "combine",
    "identity_entry",
    "live_segments",
    "shutdown_pool",
    "text_entry",
]


# perfbench/run.py and perfbench/test_perfbench.py (a read-only benchmark
# harness) still import these two names for their teardown check; with no
# process pool there is nothing to shut down and no segment alive.
def live_segments() -> list[str]:
    """Names of live shared-memory segments: always none."""
    return []


def shutdown_pool() -> None:
    """Stop the process pool: there is none, so this does nothing."""
