#!/usr/bin/env python3
"""Lint: every shared-memory creation site is paired with a registered
unlink path.

The leak-proofing contract of ``repro.parallel.shm`` is structural:

* ``SharedMemory`` is constructed in exactly one module,
  ``src/repro/parallel/shm.py`` — nowhere else in the library.  Workers
  receive descriptors and *attach*; only the parent creates, so no
  worker death can leak a segment.
* Every ``create=True`` construction happens inside a function that
  registers the fresh segment in the module's ``_live`` table — the
  table both ``SegmentRegistry.close()`` and the ``atexit`` sweep
  unlink from, so the unlink survives success, failure, and interpreter
  exit alike.
* The attach-side constructor never passes ``create=True``.
* Only the flight recorder and the pool that owns its rings import
  ``repro.parallel.shm`` (plus the package ``__init__`` re-exporting the
  leak oracle): shard data travels through the workers' pipes, so any
  other importer is a second shared-memory path growing back.

This script asserts all four by AST walk, so a refactor that quietly
adds a second creation site (or drops the registration, or ships data
through shared memory again) fails CI rather than leaking ``/dev/shm``
segments in production.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SHM_MODULE = SRC / "repro" / "parallel" / "shm.py"
SHM_IMPORTERS = {
    SRC / "repro" / "parallel" / name
    for name in ("__init__.py", "flight.py", "procpool.py")
}


def _imports_shm(path: pathlib.Path, tree: ast.Module) -> list[int]:
    """Line numbers where *path* imports ``repro.parallel.shm`` (lazy
    imports inside functions included, relative imports resolved)."""
    package = list(path.relative_to(SRC).parent.parts)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            name == "repro.parallel.shm" or name.startswith("repro.parallel.shm.")
            for name in modules
        ):
            lines.append(node.lineno)
    return lines


def _is_shared_memory_call(node: ast.Call) -> bool:
    func = node.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return name == "SharedMemory"


def _creates(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return False


def _enclosing_functions(tree: ast.Module) -> list[tuple[ast.AST, ast.Call]]:
    """Every SharedMemory call, paired with its innermost def."""
    found: list[tuple[ast.AST, ast.Call]] = []

    def walk(node: ast.AST, enclosing: ast.AST | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_shared_memory_call(child):
                found.append((enclosing, child))
            walk(child, enclosing)

    walk(tree, None)
    return found


def _registers_live(function: ast.AST | None) -> bool:
    """Does *function* assign into the module's ``_live`` table?"""
    if function is None:
        return False
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, ast.Store
        ):
            target = node.value
            if getattr(target, "id", None) == "_live":
                return True
    return False


def main() -> int:
    problems: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path != SHM_MODULE and path not in SHM_IMPORTERS:
            for lineno in _imports_shm(path, tree):
                problems.append(
                    f"{path.relative_to(SRC)}:{lineno}: imports"
                    " repro.parallel.shm — only the flight recorder and the"
                    " pool may; shard data travels through the worker pipes"
                )
        sites = _enclosing_functions(tree)
        if not sites:
            continue
        if path != SHM_MODULE:
            for _, call in sites:
                problems.append(
                    f"{path.relative_to(SRC)}:{call.lineno}: SharedMemory"
                    " constructed outside repro/parallel/shm.py — all"
                    " segment lifecycle must go through SegmentRegistry"
                )
            continue
        creations = 0
        for function, call in sites:
            if _creates(call):
                creations += 1
                if not _registers_live(function):
                    problems.append(
                        f"{path.relative_to(SRC)}:{call.lineno}: segment"
                        " created without registering in _live — the"
                        " atexit sweep cannot unlink it after a crash"
                    )
        if creations == 0:
            problems.append(
                f"{path.relative_to(SRC)}: expected the single creation"
                " site (SegmentRegistry.create) — none found"
            )
        elif creations > 1:
            problems.append(
                f"{path.relative_to(SRC)}: {creations} creation sites;"
                " the contract is exactly one (SegmentRegistry.create)"
            )

    if problems:
        print("shm hygiene check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "shm hygiene ok: one registered creation site, attach-only workers,"
        " flight rings the only importer"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
