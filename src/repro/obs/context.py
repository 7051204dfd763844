"""Trace context: the identity of one logical request.

A :class:`TraceContext` names one request with a trace id minted once at
its admission point (:class:`repro.serve.SpannerService` admission).
While a context is active on a thread (:func:`repro.obs.use_context`),
every record the tracer emits carries ``"trace": trace_id``, so one
request's spans and events can be picked out of a shared trace file even
when the service's worker threads interleave them.

Trace ids come from :func:`secrets.token_hex` — no wall clock, no
coordination, collision-free in practice across processes and restarts.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

__all__ = ["TraceContext"]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one logical request.

    Attributes
    ----------
    trace_id:
        Hex token shared by every span/event of the request.
    """

    trace_id: str

    @classmethod
    def mint(cls) -> "TraceContext":
        """A fresh trace id."""
        return cls(trace_id=secrets.token_hex(8))
