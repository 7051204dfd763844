"""Trace context: the identity that stitches multi-process traces.

A :class:`TraceContext` names one *logical request* — a trace id minted
once at the request's admission point (``repro.serve`` admission, or
:func:`repro.parallel.document_matrices` entry as the fallback) — plus the coordinates a
*child process* needs to hang its spans under the parent's tree: the
parent's currently-open span id and the parent's process label.

The context is deliberately tiny and picklable: it rides inside
:class:`~repro.parallel.procpool.ProcCall` dispatch messages to worker
processes, where :func:`repro.obs.use_context` activates it for the
duration of the task.  While a context is active, every emitted record
carries ``"trace": trace_id``, and a span with no *local* parent adopts
``parent_span_id`` (annotated with ``"parent_proc"``) as its
cross-process parent — which is exactly what :mod:`repro.obs.stitch`
needs to reassemble one ordered tree from per-process JSONL files.

Trace ids come from :func:`secrets.token_hex` — no wall clock, no
coordination, collision-free in practice across processes and restarts.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, replace

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one logical request, shippable across processes.

    Attributes
    ----------
    trace_id:
        Hex token shared by every span/event of the request, in every
        process that worked on it.
    parent_span_id:
        The span (in process *process*) under which a receiving child
        process's spans nest; ``None`` at the admission point.
    process:
        Label of the process that owns *parent_span_id* (``"main"`` for
        the serving parent, ``"w<id>"`` for pool workers).
    """

    trace_id: str
    parent_span_id: int | None = None
    process: str = "main"

    @classmethod
    def mint(cls, process: str = "main") -> "TraceContext":
        """A fresh trace rooted in *process* (no parent span yet)."""
        return cls(trace_id=secrets.token_hex(8), process=process)

    def child_of(self, span_id: int | None, process: str) -> "TraceContext":
        """The context to ship to a child process whose spans should nest
        under span *span_id* of process *process*."""
        return replace(self, parent_span_id=span_id, process=process)
