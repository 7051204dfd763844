#!/usr/bin/env python3
"""Lint: every metric name used in ``src/`` is in the central catalog.

Dashboards, the Prometheus export surface, and ``docs/OBSERVABILITY.md``
all treat ``repro/obs/catalog.py`` as the complete inventory of metric
names.  This check walks the AST of every library module and verifies
that each ``.counter(...)`` / ``.gauge(...)`` / ``.histogram(...)`` call
whose name is statically known appears there:

* a plain string literal must be an exact ``METRIC_NAMES`` entry (or
  start with an allowed prefix);
* an f-string (``f"serve.failed.{type(exc).__name__}"``) or a ``"stem." + var``
  concatenation must *start* with a ``METRIC_PREFIXES`` entry — dynamic
  names are allowed only as one classifying suffix on a reviewed stem;
* a non-constant name (a variable) is skipped — those sites pass
  catalogued names along, and the literal at their call sites is what
  gets checked.

The other direction is checked too: every exact ``METRIC_NAMES`` entry
must appear as a string-literal argument of at least one ``src/`` call —
an instrument call, or a call that hands the name on (``shed_metric=
"serve.shed"``) — unless it falls under a ``METRIC_PREFIXES`` stem
(those may be built from the stem).  A typo'd metric name therefore
fails CI instead of silently forking a time series that no dashboard is
watching, and a name whose last emitter was deleted fails instead of
lingering in the catalog.

Usage::

    python tools/check_metric_names.py        # exits 1 on violations
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ["src"]
INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}

sys.path.insert(0, str(ROOT / "src"))
from repro.obs.catalog import (  # noqa: E402
    METRIC_NAMES,
    METRIC_PREFIXES,
    is_catalogued,
)


def _static_name(node: ast.expr) -> tuple[str, bool] | None:
    """``(name_or_prefix, is_prefix)`` when statically known, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        # the leading constant run of an f-string is the checkable stem
        prefix = ""
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix += value.value
            else:
                break
        return prefix, True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _static_name(node.left)
        if left is not None:
            return left[0], True
    return None


def violations() -> list[str]:
    found = []
    emitted = set()
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            rel = path.relative_to(ROOT)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    emitted.update(
                        arg.value
                        for arg in [*node.args, *(kw.value for kw in node.keywords)]
                        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    )
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INSTRUMENT_METHODS
                    and node.args
                ):
                    continue
                known = _static_name(node.args[0])
                if known is None:
                    continue
                name, is_prefix = known
                if is_prefix:
                    ok = any(
                        name.startswith(prefix) for prefix in METRIC_PREFIXES
                    )
                    kind = f"dynamic metric name with stem {name!r}"
                else:
                    ok = is_catalogued(name)
                    kind = f"metric name {name!r}"
                if not ok:
                    found.append(
                        f"{rel}:{node.lineno}: {kind} is not in"
                        " repro/obs/catalog.py"
                    )
    for name in sorted(METRIC_NAMES - emitted):
        if not name.startswith(METRIC_PREFIXES):
            found.append(
                f"src/repro/obs/catalog.py: metric name {name!r} is passed as"
                " a literal by no src/ call"
            )
    return found


def main() -> int:
    found = violations()
    if found:
        print("metric names out of step with the catalog:")
        for item in found:
            print(f"  {item}")
        print(
            "add them to src/repro/obs/catalog.py (or fix the typo), and drop"
            " catalog names nothing emits"
        )
        return 1
    print("check_metric_names: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
