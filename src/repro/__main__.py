"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``eval``      evaluate a spanner regex on a document and print the table::

    python -m repro eval '!x{(a|b)*}!y{b}!z{(a|b)*}' ababbab
    python -m repro eval '(.|\\n)*!user{[a-z]+}@!host{[a-z.]+}(.|\\n)*' --file mail.txt

``refl``      evaluate a refl-spanner regex (with ``&x`` references)::

    python -m repro refl '!x{(a|b)+}&x' abab

``compress``  build an SLP for a document and report compression stats::

    python -m repro compress --file corpus.txt --builder repair

``check``     model-check one span tuple, e.g. ``x=1:4 y=4:5``::

    python -m repro check '!x{a+}!y{b+}' aab x=1:3 y=3:4

``serve``     drive a concurrent query workload through the serving layer::

    python -m repro serve store.slpdb '!x{[a-z]+}' logs --requests 100 --workers 4
    python -m repro serve store.slpdb '!x{[a-z]+}' logs --fault-rate 0.3 --seed 7

    Opens (or builds, with ``--doc``) a store, registers the pattern,
    and pushes ``--requests`` queries through a
    :class:`~repro.serve.SpannerService` thread pool — optionally with
    seeded chaos faults injected into the compressed path — then prints
    completion/shed/degraded counts, latency percentiles, and the
    circuit-breaker state.

``db``        operate on a persistent, crash-safe SpannerDB store::

    python -m repro db store.slpdb add logs "error at line 3"
    python -m repro db store.slpdb edit head 'extract(doc(logs),1,6)'
    python -m repro db store.slpdb query '!x{[a-z]+}' logs --deadline 2.0
    python -m repro db store.slpdb bulk '!x{[a-z]+}' logs head
    python -m repro db store.slpdb text head
    python -m repro db store.slpdb ls
    python -m repro db store.slpdb stats
    python -m repro db store.slpdb metrics
    python -m repro db store.slpdb query '!x{[a-z]+}' logs --trace out.jsonl

All ``db`` subcommands accept ``--deadline SECONDS``, ``--max-steps N``,
and ``--max-bytes N`` resource-governance flags; exceeding a limit exits
with a typed error instead of hanging.  ``--trace FILE`` switches
:mod:`repro.obs` on and writes the operation's spans/events as JSONL to
FILE; the ``metrics`` action runs the store open (including any
journal recovery) under observability and prints the metrics registry —
``--format json`` for the raw snapshot, ``--format prom`` for Prometheus
text exposition.

``stream``    tail a live feed through the streaming ingestion layer::

    tail -f app.log | python -m repro stream '(.|\\n)*!x{error}(.|\\n)*'
    python -m repro stream '!x{[ab]+}' --file feed.txt --window-deadline 0.5
    python -m repro stream '!x{[ab]+}' --file feed.txt --fault-rate 0.3 --seed 7

    Reads chunks from a file or stdin (incremental UTF-8 decoding, so
    torn multi-byte sequences span chunk boundaries safely), pushes them
    through a :class:`~repro.serve.StreamSession` — bounded ingest queue
    with backpressure, per-window deadlines, circuit-broken rebuild
    fallback — and prints each window's result delta.  ``--fault-rate``/
    ``--tear-rate``/``--burst-rate`` enable the seeded feed-chaos
    schedule; ``--follow`` keeps tailing a growing file until interrupted.

``obs``       observability tooling::

    python -m repro obs stitch out.jsonl out.jsonl.w*.jsonl
    python -m repro obs stitch out.jsonl out.jsonl.w*.jsonl --trace 2e4e9f55a117f753

    ``stitch`` merges per-process trace files into one tree per trace
    id, ordered by start time (workers share the parent's monotonic
    epoch), with orphaned subtrees — a SIGKILLed worker's spans whose
    parent never closed — marked ``~``.
"""

from __future__ import annotations

import argparse
import sys

from repro import ReflSpanner, RegularSpanner, Span, SpanTuple
from repro.errors import InvalidSpanError, SpanlibError


def _document(args) -> str:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    if args.doc is None:
        raise SystemExit("error: provide a document argument or --file")
    return args.doc


def _print_relation(relation, doc: str, args) -> None:
    fmt = getattr(args, "format", "table")
    with_contents = args.contents
    if fmt == "json":
        print(relation.to_json(doc if with_contents else None, indent=2))
    elif fmt == "csv":
        print(relation.to_csv(doc if with_contents else None), end="")
    elif with_contents:
        for tup in relation:
            print(tup.contents(doc))
    else:
        print(relation.to_table())


def _cmd_eval(args) -> int:
    doc = _document(args)
    spanner = RegularSpanner.from_regex(args.pattern)
    if args.limit:
        import itertools

        for tup in itertools.islice(spanner.enumerate(doc), args.limit):
            print(tup if not args.contents else tup.contents(doc))
        return 0
    _print_relation(spanner.evaluate(doc), doc, args)
    return 0


def _cmd_refl(args) -> int:
    doc = _document(args)
    spanner = ReflSpanner.from_regex(args.pattern)
    _print_relation(spanner.evaluate(doc), doc, args)
    return 0


def _cmd_compress(args) -> int:
    from repro.slp import SLP, balanced_node, lz78_node, repair_node

    doc = _document(args)
    builders = {"repair": repair_node, "lz78": lz78_node, "balanced": balanced_node}
    slp = SLP()
    node = builders[args.builder](slp, doc)
    size = slp.size(node)
    print(f"document length : {len(doc)}")
    print(f"slp nodes (|S|) : {size}")
    print(f"ratio           : {size / len(doc):.4f}")
    print(f"order (depth+1) : {slp.order(node)}")
    print(f"strongly balanced: {slp.is_strongly_balanced(node)}")
    return 0


def _binding_bound(text: str) -> int:
    """Parse one span bound as a plain ASCII decimal.

    Bare ``int()`` accepts every Unicode decimal-digit class (``٣``,
    superscripts, fullwidth digits) plus signs and surrounding
    whitespace — the same bug class PR 5 fixed in the regex parser's
    ``number()``; the CLI span-binding path must reject them with a typed
    error too, never parse ``x=٣:5`` as the span ``[3,5⟩``.
    """
    if not text or any(ch not in "0123456789" for ch in text):
        raise InvalidSpanError(f"span bounds must be ASCII digits, got {text!r}")
    return int(text)


def _parse_binding(text: str) -> tuple[str, Span]:
    try:
        var, bounds = text.split("=", 1)
        start, end = bounds.split(":", 1)
        return var, Span(_binding_bound(start), _binding_bound(end))
    except (ValueError, SpanlibError) as exc:
        raise SystemExit(f"error: bad span binding {text!r} (want var=start:end): {exc}")


def _cmd_check(args) -> int:
    doc = _document(args)
    spanner = RegularSpanner.from_regex(args.pattern)
    tup = SpanTuple(dict(_parse_binding(b) for b in args.bindings))
    verdict = spanner.model_check(doc, tup)
    print("MATCH" if verdict else "NO MATCH")
    return 0 if verdict else 1


def _budget(args):
    from repro.util import Budget, Deadline

    if args.deadline is None and args.max_steps is None and args.max_bytes is None:
        return None
    deadline = Deadline.after(args.deadline) if args.deadline is not None else None
    return Budget(
        deadline=deadline, max_steps=args.max_steps, max_bytes=args.max_bytes
    )


def _print_metrics(snapshot: dict) -> None:
    for name, value in snapshot["counters"].items():
        print(f"counter   {name} = {value}")
    for name, value in snapshot["gauges"].items():
        print(f"gauge     {name} = {value}")
    for name, summary in snapshot["histograms"].items():
        print(
            f"histogram {name} count={summary['count']} mean={summary['mean']:.0f} "
            f"p50={summary['p50']:.0f} p90={summary['p90']:.0f} p99={summary['p99']:.0f}"
        )


def _print_stats(stats: dict, indent: str = "") -> None:
    for key, value in stats.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_stats(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


def _cmd_db(args) -> int:
    from repro import obs

    observing = args.trace is not None or args.action == "metrics"
    if observing:
        obs.configure(enabled=True, sink=args.trace)
    try:
        return _run_db_action(args)
    finally:
        if observing:
            # flush the JSONL sink and return the process to zero-cost mode
            obs.configure(enabled=False)


def _run_db_action(args) -> int:
    import os

    from repro import obs
    from repro.db import SpannerDB
    from repro.slp import parse_cde

    budget = _budget(args)
    store = SpannerDB.open(args.store) if os.path.exists(args.store) else SpannerDB()
    action = args.action

    if action == "add":
        if len(args.operands) != 2:
            raise SystemExit("usage: db STORE add NAME TEXT")
        with_save = store._journal_path is None
        store.add_document(args.operands[0], args.operands[1], budget)
        if with_save:
            store.save(args.store)
        print(f"added {args.operands[0]!r} ({store.document_length(args.operands[0])} chars)")
    elif action == "edit":
        if len(args.operands) != 2:
            raise SystemExit("usage: db STORE edit NEW_NAME CDE_EXPRESSION")
        with_save = store._journal_path is None
        store.edit(args.operands[0], parse_cde(args.operands[1]), budget)
        if with_save:
            store.save(args.store)
        print(f"edited -> {args.operands[0]!r} ({store.document_length(args.operands[0])} chars)")
    elif action == "query":
        if len(args.operands) == 1:
            # one operand = a spanner-algebra statement sequence (the
            # repro.query language); `expr ON name` picks the document,
            # defaulting to the store's only document when unambiguous
            from repro.query import QuerySession

            session = QuerySession(store, budget=budget)
            if len(store.documents()) == 1:
                session.default_document = store.documents()[0]
            for result in session.execute(args.operands[0], budget):
                if result.relation is not None:
                    print(result.relation.to_table())
        elif len(args.operands) == 2:
            store.register_spanner("__cli__", args.operands[0], budget)
            for tup in store.query("__cli__", args.operands[1], budget):
                print(tup)
        else:
            raise SystemExit(
                "usage: db STORE query PATTERN DOCUMENT"
                "  |  db STORE query \"<algebra expr [ON doc]>\""
            )
    elif action == "bulk":
        if len(args.operands) < 2:
            raise SystemExit("usage: db STORE bulk PATTERN DOCUMENT [DOCUMENT ...]")
        store.register_spanner("__cli__", args.operands[0], budget)
        relations = store.query_bulk("__cli__", args.operands[1:], budget=budget)
        for name, relation in relations.items():
            for tup in relation:
                print(f"{name}\t{tup}")
    elif action == "text":
        if len(args.operands) != 1:
            raise SystemExit("usage: db STORE text NAME")
        print(store.document_text(args.operands[0], budget=budget))
    elif action == "ls":
        for name in store.documents():
            print(f"{name}\t{store.document_length(name)}")
    elif action == "stats":
        _print_stats(store.stats())
    elif action == "metrics":
        fmt = getattr(args, "format", "text")
        if fmt == "json":
            import json

            print(json.dumps(obs.metrics().snapshot(), indent=2))
        elif fmt == "prom":
            print(obs.export_prometheus(), end="")
        else:
            _print_metrics(obs.metrics().snapshot())
    elif action == "save":
        store.save(args.store)
        print(f"snapshot written to {args.store}")
    else:
        raise SystemExit(f"unknown db action {action!r}")
    return 0


def _query_store(args):
    import os

    from repro.db import SpannerDB

    store_path = getattr(args, "store", None)
    if store_path and os.path.exists(store_path):
        store = SpannerDB.open(store_path)
    else:
        store = SpannerDB()
    if getattr(args, "doc", None) is not None:
        store.add_document("doc", args.doc)
    return store


def _cmd_query(args) -> int:
    from repro.query import QuerySession
    from repro.query.repl import run_script

    budget = _budget(args)
    store = _query_store(args)
    if args.file:
        return run_script(args.file, store, budget=budget)
    if not args.expression:
        raise SystemExit("error: provide statements or --file SCRIPT")
    session = QuerySession(store, budget=budget)
    if len(store.documents()) == 1:
        session.default_document = store.documents()[0]
    for result in session.execute(args.expression, budget):
        if args.plan and result.plan is not None:
            print(result.plan.describe())
        if result.relation is not None:
            print(result.relation.to_table())
            count = len(result.relation)
            print(f"({count} tuple{'s' if count != 1 else ''})")
    return 0


def _cmd_repl(args) -> int:
    from repro.query.repl import Repl

    store = _query_store(args)
    shell = Repl(store, budget=_budget(args))
    if len(store.documents()) == 1:
        shell.session.default_document = store.documents()[0]
    return shell.run()


def _cmd_stream(args) -> int:
    import codecs
    import threading
    import time as _time

    from repro.errors import OverloadedError
    from repro.serve import StreamSession, StreamSessionConfig
    from repro.stream import StreamConfig
    from repro.util import FeedChaos

    stream_config = StreamConfig(
        window_deadline=args.window_deadline,
        max_steps=args.max_steps,
        frontier_max_bytes=args.max_bytes,
    )
    chaos = None
    if args.fault_rate > 0.0 or args.tear_rate > 0.0 or args.burst_rate > 0.0:
        chaos = FeedChaos(
            seed=args.seed,
            fault_rate=args.fault_rate,
            tear_rate=args.tear_rate,
            burst_rate=args.burst_rate,
        )
    session_config = StreamSessionConfig(
        queue_limit=args.queue_limit,
        drain_deadline=args.drain_deadline,
        chaos=chaos,
    )

    def chunks():
        decoder = codecs.getincrementaldecoder("utf-8")("replace")
        handle = open(args.file, "rb") if args.file else sys.stdin.buffer
        try:
            while True:
                data = handle.read(args.chunk_bytes)
                if data:
                    text = decoder.decode(data)
                    if text:
                        yield text
                elif args.follow and args.file:
                    _time.sleep(0.2)
                else:
                    tail = decoder.decode(b"", final=True)
                    if tail:
                        yield tail
                    return
        finally:
            if args.file:
                handle.close()

    feed = chunks()
    if chaos is not None:
        feed = chaos.perturb(feed)

    session = StreamSession(args.pattern, session_config, stream_config).start()

    def produce():
        try:
            for chunk in feed:
                while True:
                    try:
                        session.feed(chunk)
                        break
                    except OverloadedError as exc:
                        _time.sleep(exc.retry_after)
        finally:
            session.close(args.drain_deadline)

    producer = threading.Thread(target=produce, name="stream-feed", daemon=True)
    producer.start()
    added = retracted = 0
    try:
        for window in session.results():
            added += len(window.added)
            retracted += len(window.retracted)
            flags = ""
            if window.rebuilt:
                flags += " [rebuilt]"
            if window.overrun:
                flags += f" [OVERRUN: {window.error}]"
            print(
                f"window {window.window}: +{len(window.added)} "
                f"-{len(window.retracted)} doc={window.document_chars}{flags}"
            )
            if args.tuples:
                for tup in window.added:
                    print(f"  + {tup}")
                for tup in window.retracted:
                    print(f"  - {tup}")
    except KeyboardInterrupt:
        session.close(args.drain_deadline)
    producer.join(timeout=args.drain_deadline + 1.0)
    stats = session.stats()
    print(f"windows   : {stats['windows']}")
    print(f"results   : {added} added, {retracted} retracted, "
          f"{stats['stream']['frontier_tuples']} final")
    print(f"overruns  : {stats['overruns']}")
    print(f"shed      : {stats['shed']}")
    print(f"rebuilds  : {stats['rebuilds']} (breaker {stats['breaker']['state']})")
    print(f"discarded : {stats['discarded']}")
    if stats["faults"]:
        print(f"faults    : {stats['faults']}")
    return 0


def _cmd_obs(args) -> int:
    from repro.obs.stitch import load_records, render_tree, stitch

    if args.action == "stitch":
        if not args.operands:
            raise SystemExit("usage: obs stitch FILE [FILE ...] [--trace ID]")
        records = load_records(args.operands)
        if args.trace is not None:
            roots = stitch(records, trace=args.trace)
            if not roots:
                raise SystemExit(f"error: no records for trace {args.trace!r}")
            print(f"trace {args.trace}")
            print(render_tree(roots, indent="  "))
            return 0
        traces = sorted(
            {r["trace"] for r in records if r.get("trace") is not None}
        )
        if not traces:
            # no trace ids at all (e.g. single-process files): render
            # everything as one tree rather than printing nothing
            roots = stitch(records)
            if not roots:
                raise SystemExit("error: no trace records found")
            print(render_tree(roots, indent="  "))
            return 0
        for position, trace_id in enumerate(traces):
            if position:
                print()
            print(f"trace {trace_id}")
            print(render_tree(stitch(records, trace=trace_id), indent="  "))
    else:
        raise SystemExit(f"unknown obs action {args.action!r}")
    return 0


def _cmd_serve(args) -> int:
    import os

    from repro import SpannerDB
    from repro.errors import OverloadedError, SpanlibError as _SpanlibError
    from repro.serve import ServeConfig, SpannerService, serve_queries

    if os.path.exists(args.store):
        store = SpannerDB.open(args.store)
    elif args.doc is not None:
        store = SpannerDB()
    else:
        raise SystemExit(f"error: no store at {args.store!r} (use --doc to build one)")
    if args.doc is not None and args.document not in store.documents():
        store.add_document(args.document, args.doc)
    if args.document not in store.documents():
        raise SystemExit(f"error: store has no document {args.document!r}")
    store.register_spanner("__serve__", args.pattern)

    config = ServeConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline=args.deadline,
        seed=args.seed,
    )
    injector = None
    chaos_scope = None
    if args.fault_rate > 0.0:
        from repro.slp.spanner_eval import SLPSpannerEvaluator
        from repro.util import ChaosInjector

        injector = ChaosInjector(seed=args.seed)
        chaos_scope = injector.chaos(
            SLPSpannerEvaluator,
            "enumerate",
            site="serve.enumerate",
            error_rate=args.fault_rate,
        )

    with SpannerService(store, config) as service:
        if chaos_scope is not None:
            chaos_scope.__enter__()
        try:
            outcomes = list(
                serve_queries(
                    service,
                    (("__serve__", args.document) for _ in range(args.requests)),
                    deadline=args.deadline,
                )
            )
        finally:
            if chaos_scope is not None:
                chaos_scope.__exit__(None, None, None)
        stats = service.stats()

    completed = [o for o in outcomes if not isinstance(o, _SpanlibError)]
    shed = sum(isinstance(o, OverloadedError) for o in outcomes)
    errors = len(outcomes) - len(completed) - shed
    degraded = sum(o.degraded for o in completed)
    print(f"requests  : {args.requests}")
    print(f"completed : {len(completed)}")
    print(f"shed      : {shed}")
    print(f"errors    : {errors}")
    print(f"degraded  : {degraded}")
    print(f"retries   : {stats['retries']}")
    print(f"p50       : {stats['p50_s'] * 1e3:.2f} ms")
    print(f"p99       : {stats['p99_s'] * 1e3:.2f} ms")
    print(f"breaker   : {stats['breaker']['state']} "
          f"(opened {stats['breaker']['times_opened']}x)")
    if injector is not None:
        print(f"faults    : {injector.fired()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="spanlib: document spanners from the command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, needs_limit in [
        ("eval", _cmd_eval, True),
        ("refl", _cmd_refl, False),
    ]:
        sub = commands.add_parser(name, help=f"{name} a spanner regex on a document")
        sub.add_argument("pattern", help="spanner regex (!x{...} captures, &x refs)")
        sub.add_argument("doc", nargs="?", help="the document (or use --file)")
        sub.add_argument("--file", help="read the document from a file")
        sub.add_argument(
            "--contents", action="store_true", help="print extracted strings, not spans"
        )
        sub.add_argument(
            "--format",
            choices=["table", "json", "csv"],
            default="table",
            help="output format for the relation",
        )
        if needs_limit:
            sub.add_argument(
                "--limit", type=int, default=0,
                help="stream only the first N tuples (constant-delay enumeration)",
            )
        sub.set_defaults(handler=handler)

    compress = commands.add_parser("compress", help="build an SLP and report stats")
    compress.add_argument("doc", nargs="?")
    compress.add_argument("--file")
    compress.add_argument(
        "--builder", choices=["repair", "lz78", "balanced"], default="repair"
    )
    compress.set_defaults(handler=_cmd_compress)

    check = commands.add_parser("check", help="model-check one span tuple")
    check.add_argument("pattern")
    check.add_argument("doc")
    check.add_argument("bindings", nargs="+", help="var=start:end (1-based spans)")
    check.set_defaults(handler=_cmd_check)

    serve = commands.add_parser(
        "serve", help="drive a concurrent query workload through repro.serve"
    )
    serve.add_argument("store", help="path of the snapshot file")
    serve.add_argument("pattern", help="spanner regex to register and query")
    serve.add_argument("document", help="document name to query")
    serve.add_argument(
        "--doc", default=None,
        help="document text (builds an in-memory store when STORE is absent)",
    )
    serve.add_argument("--requests", type=int, default=50, help="queries to issue")
    serve.add_argument("--workers", type=int, default=4, help="worker threads")
    serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission-control queue bound (requests beyond it are shed)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help="per-request wall-clock deadline in seconds",
    )
    serve.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="chaos: probability of an injected fault per compressed evaluation",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for the chaos schedule and retry jitter",
    )
    serve.set_defaults(handler=_cmd_serve)

    db = commands.add_parser(
        "db", help="operate on a persistent, crash-safe SpannerDB store"
    )
    db.add_argument("store", help="path of the snapshot file")
    db.add_argument(
        "action",
        choices=["add", "edit", "query", "bulk", "text", "ls", "stats", "metrics", "save"],
    )
    db.add_argument("operands", nargs="*", help="action-specific operands")
    db.add_argument(
        "--trace", default=None, metavar="FILE",
        help="enable repro.obs and write the operation's trace as JSONL",
    )
    db.add_argument(
        "--format",
        choices=["text", "json", "prom"],
        default="text",
        help="metrics: output format (prom = Prometheus text exposition)",
    )
    db.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget in seconds for the operation",
    )
    db.add_argument(
        "--max-steps", type=int, default=None,
        help="abstract step budget for evaluation/editing",
    )
    db.add_argument(
        "--max-bytes", type=int, default=None,
        help="decompression-bomb guard: refuse to materialise more bytes",
    )
    db.set_defaults(handler=_cmd_db)

    def budget_flags(sub) -> None:
        sub.add_argument(
            "--deadline", type=float, default=None,
            help="wall-clock budget in seconds",
        )
        sub.add_argument(
            "--max-steps", type=int, default=None,
            help="abstract step budget for evaluation",
        )
        sub.add_argument(
            "--max-bytes", type=int, default=None,
            help="decompression-bomb guard: refuse to materialise more bytes",
        )

    query = commands.add_parser(
        "query", help="run spanner-algebra statements (LET/DOC/π/⋈/∪/\\)"
    )
    query.add_argument(
        "expression", nargs="?",
        help="statements to run, ';'-separated (or use --file)",
    )
    query.add_argument("-f", "--file", help="run a .rq script file")
    query.add_argument("--store", help="SpannerDB snapshot to query (optional)")
    query.add_argument(
        "--doc", default=None,
        help="ad-hoc document text, stored as 'doc' and selected by default",
    )
    query.add_argument(
        "--plan", action="store_true",
        help="print each query's chosen plan before its results",
    )
    budget_flags(query)
    query.set_defaults(handler=_cmd_query)

    repl = commands.add_parser("repl", help="interactive query shell")
    repl.add_argument("--store", help="SpannerDB snapshot to open (optional)")
    repl.add_argument(
        "--doc", default=None,
        help="ad-hoc document text, stored as 'doc' and selected by default",
    )
    budget_flags(repl)
    repl.set_defaults(handler=_cmd_repl)

    stream = commands.add_parser(
        "stream", help="tail a live feed through the streaming ingestion layer"
    )
    stream.add_argument("pattern", help="spanner regex to evaluate over the feed")
    stream.add_argument(
        "--file", default=None,
        help="read the feed from a file (default: stdin)",
    )
    stream.add_argument(
        "--follow", action="store_true",
        help="keep tailing a growing file until interrupted",
    )
    stream.add_argument(
        "--chunk-bytes", type=int, default=4096,
        help="read granularity in bytes (one window per chunk)",
    )
    stream.add_argument(
        "--tuples", action="store_true",
        help="print each window's added (+) and retracted (-) tuples",
    )
    stream.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded ingest queue; beyond it the producer backs off",
    )
    stream.add_argument(
        "--window-deadline", type=float, default=None,
        help="per-window wall-clock deadline in seconds (overruns ship partial)",
    )
    stream.add_argument(
        "--max-steps", type=int, default=None,
        help="abstract step budget per window",
    )
    stream.add_argument(
        "--max-bytes", type=int, default=None,
        help="bound on the dedup frontier's accounted bytes",
    )
    stream.add_argument(
        "--drain-deadline", type=float, default=5.0,
        help="seconds close() may spend draining queued windows",
    )
    stream.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="chaos: probability of an injected fault per window",
    )
    stream.add_argument(
        "--tear-rate", type=float, default=0.0,
        help="chaos: probability a chunk arrives torn in two",
    )
    stream.add_argument(
        "--burst-rate", type=float, default=0.0,
        help="chaos: probability chunks coalesce into a burst",
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="seed for the feed-chaos schedule"
    )
    stream.set_defaults(handler=_cmd_stream)

    obs_cmd = commands.add_parser(
        "obs", help="observability tooling (stitch multi-process trace files)"
    )
    obs_cmd.add_argument("action", choices=["stitch"])
    obs_cmd.add_argument(
        "operands", nargs="*", metavar="FILE",
        help="JSONL trace files (the parent's sink plus its .w<pid> files)",
    )
    obs_cmd.add_argument(
        "--trace", default=None, metavar="ID",
        help="render only this trace id (default: every id found, in order)",
    )
    obs_cmd.set_defaults(handler=_cmd_obs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpanlibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
