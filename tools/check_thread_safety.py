#!/usr/bin/env python3
"""Lint: shared evaluator-cache/arena state mutates only inside the
coordination layer's owners.

The serving layer (``repro.serve``) runs queries and edits concurrently.
Its safety argument (see ``docs/RELIABILITY.md``, "Serving runbook") rests
on a small set of owners being the only code that touches the shared
mutable state of the evaluation pipeline:

* the per-arena node caches (``_arena_entries``) are owned by
  ``slp/arena_index.py``; the pattern matcher's ``_node_data`` and the
  evaluator's ``_char_tables_cache`` by their own modules;
* arena truncation (``.truncate(``) is owned by ``slp/slp.py`` (the
  definition) and ``db.py`` (rollback);
* cache invalidation (``invalidate_from``) is owned by
  ``slp/arena_index.py`` (the definition) and ``slp/slp.py`` — truncation
  invalidates every live index of the arena, so no other module calls it;
* breaker grants are settled only by ``CircuitBreaker.guard``: the
  ``record_success(`` / ``record_failure(`` calls it wraps appear in
  ``util/breaker.py`` alone, so no call site can leak a half-open probe
  slot by missing an exception type;
* every *other* module must reach this state through
  ``serve/coordination.py``'s read/write lock, never directly.

This check greps ``src/`` for those tokens outside the allowlist — coarse
but effective: new code that pokes the caches or the arena from a module
without a safety argument fails CI until it is either moved behind the
coordinator or added here with a review.  A line may opt out with a
trailing ``# thread-safety-ok`` comment.

Usage::

    python tools/check_thread_safety.py        # exits 1 on violations
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = "src"

#: token -> set of repo-relative files allowed to use it
GUARDED = {
    re.compile(r"\b_node_data\b"): {
        "src/repro/slp/pattern.py",  # per-instance matcher cache, not served
    },
    re.compile(r"\b_arena_entries\b"): {
        "src/repro/slp/arena_index.py",
    },
    re.compile(r"\b_char_tables_cache\b"): {
        "src/repro/slp/spanner_eval.py",
    },
    re.compile(r"\binvalidate_from\s*\("): {
        "src/repro/slp/arena_index.py",
        "src/repro/slp/slp.py",  # truncate invalidates every live index
    },
    re.compile(r"\brecord_(success|failure)\s*\("): {
        "src/repro/util/breaker.py",  # guard() is the one settle site
    },
    re.compile(r"\.truncate\s*\("): {
        "src/repro/slp/slp.py",
        "src/repro/db.py",
        "src/repro/util/faults.py",  # torn-write simulation on plain files
    },
}
WAIVER = "# thread-safety-ok"


def violations() -> list[str]:
    found = []
    for path in sorted((ROOT / SCANNED).rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if WAIVER in line:
                continue
            for pattern, allowed in GUARDED.items():
                if pattern.search(line) and rel not in allowed:
                    found.append(
                        f"{rel}:{lineno}: {pattern.pattern} outside its owners "
                        f"({', '.join(sorted(allowed))})\n    {line.strip()}"
                    )
    return found


def main() -> int:
    found = violations()
    if found:
        print("unguarded shared-state access outside the coordination layer:")
        for item in found:
            print(item)
        return 1
    print("check_thread_safety: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
