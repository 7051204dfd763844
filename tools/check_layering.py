#!/usr/bin/env python3
"""Lint: import boundaries inside ``src/``.

* ``repro.parallel`` and ``repro.serve`` do not import each other.  The
  shard fold (``src/repro/parallel/``) is an evaluation kernel; the
  serving layer (``src/repro/serve/``) is a request lifecycle over the
  store.  Neither needs the other, and an import either way drags one
  layer's state and start-up cost into the other.  What the serving
  layer shares with other callers — the circuit breaker, the
  retry-after hint — lives in ``repro.util``.
* No module imports ``multiprocessing`` (shared memory included).  A
  supervised process pool and its shared-memory transport were measured
  and deleted: nothing in the system folds a raw document large enough
  to pay for worker processes.  A new process path needs a measured
  reason and a deliberate change to this rule.

This check walks the AST of every module, lazy imports inside functions
included, and fails on any forbidden import: ``import repro.serve``,
``from repro.serve.x import y``, ``from repro import serve``, the
relative spellings of the same, and ``import multiprocessing`` /
``from multiprocessing.shared_memory import ...``.

Usage::

    python tools/check_layering.py        # exits 1 on violations
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src"

#: package -> packages it must not import
FORBIDDEN = {
    "repro": ("multiprocessing",),
    "repro.parallel": ("repro.serve",),
    "repro.serve": ("repro.parallel",),
}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(node: ast.AST, module: str, is_package: bool) -> list[str]:
    """The absolute module names one import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        base = module.split(".")
        # a package's __init__ resolves relative imports from itself
        keep = len(base) - node.level + (1 if is_package else 0)
        base = base[: max(keep, 0)]
        stem = ".".join(base + ([node.module] if node.module else []))
    else:
        stem = node.module or ""
    # `from repro import serve` imports the submodule repro.serve
    return [stem] + [f"{stem}.{alias.name}" for alias in node.names]


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def violations() -> list[str]:
    found = []
    for package, forbidden in FORBIDDEN.items():
        directory = PACKAGE_ROOT.joinpath(*package.split("."))
        for path in sorted(directory.rglob("*.py")):
            module = _module_name(path)
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                names = _imported(node, module, path.name == "__init__.py")
                for other in forbidden:
                    if any(_within(name, other) for name in names):
                        rel = path.relative_to(ROOT).as_posix()
                        found.append(f"{rel}:{node.lineno}: imports {other}")
    return found


def main() -> int:
    found = violations()
    if found:
        print("layering violations (repro.parallel and repro.serve must not"
              " import each other; nothing imports multiprocessing):")
        for item in found:
            print(item)
        return 1
    print("check_layering: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
