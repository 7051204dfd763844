"""Streaming ingestion suite: windowed evaluation, session robustness,
and the differential fuzz lanes (acceptance tests of the streaming issue).

Three layers, matching the implementation:

* ``SLP.append_text`` — right-spine recompression must preserve the
  derived text, strong balance, and (through the evaluator) produce
  entries bit-for-bit equal to a rebuild;
* ``WindowedSpannerStream`` — per-window deltas reconcile to exactly the
  one-shot result set; overruns ship typed markers; the frontier byte
  bound and the differential guard raise typed errors;
* ``StreamSession`` — backpressure, drain, and the seeded 30 %-fault-rate
  chaos lane: no lost or duplicated results in non-overrun windows, only
  typed errors escape, close always drains within its deadline.

The 200-seed differential lane is under the ``slow_fuzz`` marker, like
every other deep fuzz suite in this repo.
"""

import random
import time

import numpy as np
import pytest

from repro import RegularSpanner, obs
from repro.errors import (
    EvaluationLimitError,
    MemoryLimitError,
    OverloadedError,
    ServiceStoppedError,
    StreamError,
    WindowOverrunError,
)
from repro.parallel import identity_entry
from repro.regex import spanner_from_regex
from repro.serve import StreamSession, StreamSessionConfig
from repro.slp import SLP, balanced_node
from repro.slp.balance import assert_strongly_balanced, rebalance
from repro.slp.build import repair_node
from repro.slp.spanner_eval import SLPSpannerEvaluator
from repro.stream import (
    StreamConfig,
    WindowedSpannerStream,
    span_tuple_bytes,
    stream_windows,
)
from repro.stream.windowed import _entries_equal
from repro.util.budget import Budget, Deadline
from repro.util.faults import FeedChaos

PATTERN = "(a|b)*!x{b}(a|b)*"
#: a span ending at the document boundary stops matching once the
#: document grows — the retraction-exercising pattern
BOUNDARY_PATTERN = "(a|b)*!x{b*}"

#: astral-plane and combining characters the feed lanes mix in
EXOTIC = "\U0001f600\U00010308́é世"


def one_shot(pattern: str, text: str) -> set:
    """Reference: the full result set of a one-shot query."""
    return {str(t) for t in RegularSpanner.from_regex(pattern).enumerate(text)}


def random_chunks(rng: random.Random, *, max_chunks: int = 12, exotic: bool = True):
    """A random append sequence: ab-alphabet plus astral/combining chars,
    with empty chunks (heartbeats) sprinkled in."""
    alphabet = "ab" + (EXOTIC if exotic else "")
    chunks = []
    for _ in range(rng.randint(0, max_chunks)):
        if rng.random() < 0.15:
            chunks.append("")
        else:
            chunks.append(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            )
    return chunks


# ---------------------------------------------------------------------------
# SLP.append_text
# ---------------------------------------------------------------------------
class TestAppendText:
    def test_appends_derive_the_concatenation_and_stay_balanced(self):
        rng = random.Random(9)
        for _ in range(25):
            slp = SLP()
            node, text = None, ""
            for chunk in random_chunks(rng):
                node = slp.append_text(node, chunk)
                text += chunk
                if node is not None:
                    assert slp.derive(node) == text
                    assert_strongly_balanced(slp, node)
                else:
                    assert text == ""

    def test_empty_chunk_is_identity(self):
        slp = SLP()
        node = slp.append_text(None, "ab")
        assert slp.append_text(node, "") == node
        assert slp.append_text(None, "") is None

    def test_entries_bit_for_bit_equal_rebuild(self):
        """Acceptance: append_text + preprocess produces the same root
        entry, bit for bit, as rebuild-from-scratch + preprocess."""
        rng = random.Random(31)
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        for _ in range(10):
            slp = SLP()
            node, text = None, ""
            for chunk in random_chunks(rng, max_chunks=8):
                node = slp.append_text(node, chunk)
                text += chunk
            if node is None:
                continue
            evaluator.preprocess(slp, node)
            fresh = SLP()
            rebuilt = rebalance(fresh, repair_node(fresh, text))
            evaluator.preprocess(fresh, rebuilt)
            left = evaluator.node_entry(slp, node)
            right = evaluator.node_entry(fresh, rebuilt)
            assert _entries_equal(left, right), text


# ---------------------------------------------------------------------------
# WindowedSpannerStream
# ---------------------------------------------------------------------------
class TestWindowedStream:
    def test_deltas_reconcile_to_one_shot_after_every_window(self):
        stream = WindowedSpannerStream(PATTERN)
        text = ""
        frontier = set()
        for chunk in ["ab", "", "abb", "b", "a" * 7, "bab"]:
            result = stream.append(chunk)
            text += chunk
            assert not result.overrun
            assert result.document_chars == len(text)
            added = {str(t) for t in result.added}
            retracted = {str(t) for t in result.retracted}
            assert not added & frontier, "duplicated result emission"
            assert retracted <= frontier, "retracted something never emitted"
            frontier = (frontier | added) - retracted
            assert frontier == one_shot(PATTERN, text)
        assert {str(t) for t in stream.results()} == frontier
        assert stream.frontier_complete

    def test_retraction_at_the_append_boundary(self):
        stream = WindowedSpannerStream(BOUNDARY_PATTERN)
        stream.append("ab")
        result = stream.append("a")
        # x{b*} spans that were maximal at the old boundary are not
        # results of the extended document: results are NOT monotone
        # under append, and the stream must emit the retractions
        assert result.retracted, "boundary retraction was not emitted"
        assert {str(t) for t in stream.results()} == one_shot(BOUNDARY_PATTERN, "aba")
        stream.append("b")
        assert {str(t) for t in stream.results()} == one_shot(BOUNDARY_PATTERN, "abab")

    def test_astral_unicode_chunks(self):
        stream = WindowedSpannerStream(PATTERN)
        text = ""
        for chunk in ["a" + EXOTIC, "b", EXOTIC, "ab"]:
            stream.append(chunk)
            text += chunk
        assert {str(t) for t in stream.results()} == one_shot(PATTERN, text)

    @pytest.mark.parametrize("pattern", ["(a|b)*!x{ab}(a|b)*", ".*!x{ab}.*"])
    def test_lone_surrogate_chunks_answer_like_slp_evaluation(self, pattern):
        """A lone surrogate is a legal ``str`` character; the guard fold
        must read it like the SLP path does instead of failing to encode."""
        stream = WindowedSpannerStream(pattern)
        text = ""
        for chunk in ["ab\ud800b", "ab"]:
            stream.append(chunk)
            text += chunk
            slp = SLP()
            evaluator = SLPSpannerEvaluator(spanner_from_regex(pattern))
            want = {str(t) for t in evaluator.evaluate(slp, balanced_node(slp, text))}
            assert {str(t) for t in stream.results()} == want

    def test_overrun_ships_typed_marker_and_later_window_reconciles(self):
        stream = WindowedSpannerStream(PATTERN)
        stream.append("ab")
        expired = Deadline.after(0.0)
        result = stream.append("ba", deadline=expired)
        assert result.overrun
        assert isinstance(result.error, WindowOverrunError)
        assert result.error.window == result.window == 1
        assert not stream.frontier_complete
        # the chunk IS part of the document (resumable partial state)
        assert stream.document_chars == 4
        # an unconstrained heartbeat window completes the evaluation
        final = stream.append("")
        assert not final.overrun
        assert stream.frontier_complete
        assert {str(t) for t in stream.results()} == one_shot(PATTERN, "abba")

    def test_frontier_byte_bound_is_typed_and_holds(self):
        bound = span_tuple_bytes(("x",)) * 2  # room for ~2 tuples
        stream = WindowedSpannerStream(
            PATTERN, StreamConfig(frontier_max_bytes=bound)
        )
        stream.append("ab")  # 1 result, fits
        assert stream.frontier_bytes <= bound
        with pytest.raises(MemoryLimitError):
            stream.append("bbbb")  # 5 results, over the bound
        # the frontier was not mutated past the bound
        assert stream.frontier_bytes <= bound
        assert {str(t) for t in stream.results()} == one_shot(PATTERN, "ab")

    def test_guard_trip_is_typed_and_rolls_back(self):
        stream = WindowedSpannerStream(PATTERN)
        stream.append("ab")
        # corrupt the checked prefix σ: the next ingest must detect the
        # disagreement with the SLP root, raise typed, and roll the chunk back
        sigma = list(stream._prefix_sigma)
        sigma[0] ^= 1
        stream._prefix_sigma = tuple(sigma)
        with pytest.raises(StreamError):
            stream.ingest("b")
        assert stream.document_chars == 2  # rolled back
        assert stream.stats()["guard_trips"] == 1
        # rebuild-from-scratch heals the corrupt guard state
        stream.rebuild("b")
        stream.append("")
        assert {str(t) for t in stream.results()} == one_shot(PATTERN, "abb")

    def test_guard_resumes_after_a_budget_overrun_in_preprocess(self):
        """A chunk whose preprocess overran its budget is checked by the
        next ingest, so the guard keeps checking the whole document."""
        stream = WindowedSpannerStream(PATTERN)
        stream.ingest("abab" * 4)
        with pytest.raises(EvaluationLimitError):
            stream.ingest("ab" * 50, Budget(max_steps=1))
        stream.ingest("ba")
        assert stream.document_chars == 118
        root = stream._evaluator.node_entry(stream.slp, stream.node)
        assert stream._prefix_sigma == tuple(root[0].tolist())
        # forget the checked prefix: the guard must notice on the next ingest
        stream._prefix_sigma = tuple(range(stream._q))
        with pytest.raises(StreamError):
            stream.ingest("b")
        assert stream.stats()["guard_trips"] == 1

    # "abba" + "bb" has the same σ as "abba" + "bbb": only the length
    # check can see that dropped character
    @pytest.mark.parametrize(
        "mutant, chunk", [("sigma", "baab"), ("dropped_char", "bbb")]
    )
    def test_window_check_catches_corrupt_sigma_and_dropped_char(
        self, monkeypatch, mutant, chunk
    ):
        """The σ-only window check trips, typed, on a fresh node whose σ is
        corrupt and on an append that loses the chunk's last character;
        the chunk is rolled back and the trip counted."""
        # a private evaluator (not the shared plan cache's), since the
        # sigma mutant patches it
        stream = WindowedSpannerStream(spanner_from_regex(PATTERN))
        stream.append("abba")
        if mutant == "sigma":
            evaluator = stream._evaluator
            combine_wave = evaluator._combine_wave

            def corrupt_first_entry(operands, intern, entry_pool):
                # the first fresh pair node of the pass: its first live
                # state loses its pure run
                entries = combine_wave(operands, intern, entry_pool)
                sigma = entries[0][0].copy()
                sigma[np.flatnonzero(sigma != -1)[0]] = -1
                return [(sigma,) + entries[0][1:]] + entries[1:]

            monkeypatch.setattr(evaluator, "_combine_wave", corrupt_first_entry)
        else:
            append_text = SLP.append_text
            monkeypatch.setattr(
                SLP,
                "append_text",
                lambda slp, node, text: append_text(slp, node, text[:-1]),
            )
        nodes, node = stream.slp.num_nodes(), stream.node
        with pytest.raises(StreamError):
            stream.ingest(chunk)
        assert stream.stats()["guard_trips"] == 1
        assert stream.document_chars == 4
        assert (stream.slp.num_nodes(), stream.node) == (nodes, node)
        monkeypatch.undo()
        stream.append(chunk)
        assert {str(t) for t in stream.results()} == one_shot(PATTERN, "abba" + chunk)

    def test_rebuild_guard_trip_reaches_the_metric(self, monkeypatch):
        """A guard trip on the rebuild path counts in the stat and in the
        ``stream.guard_trips`` counter operators alert on."""
        stream = WindowedSpannerStream(PATTERN)
        stream.append("abab")
        wrong = identity_entry(stream._q)  # the entry of "", not of "ababb"
        monkeypatch.setattr(
            "repro.stream.windowed.text_entry", lambda *args, **kwargs: wrong
        )
        obs.configure(enabled=True, reset=True)
        try:
            with pytest.raises(StreamError):
                stream.rebuild("b")
            counter = obs.metrics().counter("stream.guard_trips").value
        finally:
            obs.configure(enabled=False, reset=True)
        assert counter == 1
        assert stream.stats()["guard_trips"] == 1
        assert stream.document_chars == 4  # the failed rebuild committed nothing

    def test_regular_spanner_streams_like_its_regex(self):
        """Every stream entry point resolves a ``RegularSpanner`` the way
        ``SpannerDB.register_spanner`` does."""
        chunks = ["ab", "babb", "", "a" * 9, "bb"]
        spanner = RegularSpanner.from_regex(PATTERN)

        def deltas(windows):
            return [
                (w.window, {str(t) for t in w.added}, {str(t) for t in w.retracted})
                for w in windows
            ]

        want = deltas(stream_windows(PATTERN, chunks))
        assert deltas(stream_windows(spanner, chunks)) == want
        assert deltas(WindowedSpannerStream(spanner).windows(chunks)) == want
        results, _ = drive(StreamSession(spanner), chunks)
        assert deltas(results) == want

    def test_rebuild_matches_incremental_path(self):
        rng = random.Random(5)
        stream = WindowedSpannerStream(PATTERN)
        text = ""
        for index, chunk in enumerate(random_chunks(rng, max_chunks=10)):
            if index % 3 == 2:
                stream.rebuild(chunk)
                stream.append("")
            else:
                stream.append(chunk)
            text += chunk
            assert {str(t) for t in stream.results()} == one_shot(PATTERN, text)
        assert stream.stats()["rebuilds"] >= 1

    def test_rebuild_respects_the_decompression_guard(self):
        stream = WindowedSpannerStream(PATTERN, StreamConfig(rebuild_max_chars=4))
        stream.append("ab")
        with pytest.raises(MemoryLimitError):
            stream.rebuild("abc")  # 5 chars > guard
        assert stream.document_chars == 2  # untouched

    def test_stream_windows_convenience(self):
        windows = list(stream_windows(PATTERN, ["ab", "b"]))
        assert [w.window for w in windows] == [0, 1]
        assert windows[0].document_chars == 2
        frontier = set()
        for w in windows:
            frontier |= {str(t) for t in w.added}
            frontier -= {str(t) for t in w.retracted}
        assert frontier == one_shot(PATTERN, "abb")

    def test_stats_surface(self):
        stream = WindowedSpannerStream(PATTERN)
        stream.append("ab")
        stats = stream.stats()
        for key in [
            "windows",
            "document_chars",
            "frontier_tuples",
            "frontier_bytes",
            "frontier_complete",
            "rebuilds",
            "guard_trips",
            "arena_nodes",
            "cache_bytes",
        ]:
            assert key in stats, key
        assert stats["windows"] == 1
        assert stats["frontier_complete"] is True


# ---------------------------------------------------------------------------
# FeedChaos (the seeded schedule itself)
# ---------------------------------------------------------------------------
class TestFeedChaos:
    def test_schedule_is_deterministic_per_seed(self):
        chaos = FeedChaos(seed=7, fault_rate=0.3, stall_rate=0.2)
        verdicts = [chaos.decide(k) for k in range(64)]
        again = [FeedChaos(seed=7, fault_rate=0.3, stall_rate=0.2).decide(k) for k in range(64)]
        assert verdicts == again
        assert "fault" in verdicts and None in verdicts
        other = [FeedChaos(seed=8, fault_rate=0.3, stall_rate=0.2).decide(k) for k in range(64)]
        assert verdicts != other

    def test_perturb_preserves_concatenation(self):
        rng = random.Random(3)
        for seed in range(20):
            chunks = random_chunks(rng)
            chaos = FeedChaos(seed=seed, tear_rate=0.4, burst_rate=0.3, max_burst=3)
            perturbed = list(chaos.perturb(chunks))
            assert "".join(perturbed) == "".join(chunks), seed
            # replay is identical (pure function of the seed)
            assert perturbed == list(chaos.perturb(chunks))

    def test_perturb_tears_and_bursts(self):
        chunks = ["abcd"] * 32
        torn = list(FeedChaos(seed=1, tear_rate=1.0).perturb(chunks))
        assert len(torn) == 64  # every chunk split once
        assert all(chunk for chunk in torn)
        burst = list(FeedChaos(seed=1, burst_rate=1.0, max_burst=4).perturb(chunks))
        assert any(len(chunk) > 4 for chunk in burst)
        assert "".join(burst) == "".join(chunks)

    def test_empty_chunks_pass_through(self):
        chaos = FeedChaos(seed=2, tear_rate=1.0)
        assert list(chaos.perturb(["", "", ""])) == ["", "", ""]


# ---------------------------------------------------------------------------
# StreamSession
# ---------------------------------------------------------------------------
def drive(session: StreamSession, chunks, *, drain: float = 30.0):
    """Feed every chunk (backing off on OverloadedError), close, and
    return (results, stats).  Nothing is allowed to be lost to shedding —
    the producer retries exactly as the retry_after contract intends."""
    results = []
    with session:
        for chunk in chunks:
            for _ in range(2000):
                try:
                    session.feed(chunk)
                    break
                except OverloadedError as exc:
                    assert exc.retry_after > 0
                    time.sleep(min(exc.retry_after, 0.01))
            else:  # pragma: no cover - diagnostic
                pytest.fail("producer could not place a chunk in 2000 tries")
        stats = session.close(drain)
    return list(session.results()), stats


def replay(results, *, pattern: str, text: str, check_frontier=True):
    """Replay per-window deltas and assert the streaming invariants."""
    frontier = set()
    complete = True
    for result in results:
        assert result.error is None or isinstance(result.error, WindowOverrunError)
        added = {str(t) for t in result.added}
        retracted = {str(t) for t in result.retracted}
        if not result.overrun:
            assert not added & frontier, f"window {result.window} duplicated results"
            assert retracted <= frontier, f"window {result.window} phantom retraction"
        frontier = (frontier | added) - retracted
        complete = not result.overrun
    if check_frontier and complete:
        assert frontier == one_shot(pattern, text)
    return frontier


class TestStreamSession:
    def test_clean_run_matches_one_shot(self):
        chunks = ["ab", "babb", "", "a" * 9, "bb"]
        session = StreamSession(PATTERN)
        results, stats = drive(session, chunks)
        text = "".join(chunks)
        assert stats["windows"] == len(chunks)
        assert stats["overruns"] == 0
        assert stats["discarded"] == 0
        assert stats["internal_errors"] == 0
        assert len(results) == len(chunks)
        replay(results, pattern=PATTERN, text=text)
        assert {str(t) for t in session.frontier()} == one_shot(PATTERN, text)

    def test_feed_before_start_and_after_close_is_typed(self):
        session = StreamSession(PATTERN)
        with pytest.raises(ServiceStoppedError):
            session.feed("ab")
        with session:
            session.feed("ab")
        with pytest.raises(ServiceStoppedError):
            session.feed("ab")

    def test_backpressure_sheds_with_retry_after(self):
        # stall every window so the producer outruns the 1-slot queue
        config = StreamSessionConfig(
            queue_limit=1,
            chaos=FeedChaos(seed=4, stall_rate=1.0, stall_seconds=0.05),
        )
        session = StreamSession(PATTERN, config)
        shed = None
        with session:
            for _ in range(50):
                try:
                    session.feed("ab")
                except OverloadedError as exc:
                    shed = exc
                    break
            assert shed is not None, "queue never filled"
            assert shed.retry_after > 0
            session.close(10.0)
        assert session.stats()["shed"] >= 1

    def test_close_drains_within_deadline(self):
        # every window stalls well past the drain allowance: close must
        # come back inside deadline + join slack, discarding the backlog
        config = StreamSessionConfig(
            queue_limit=64,
            chaos=FeedChaos(seed=6, stall_rate=1.0, stall_seconds=0.1),
        )
        session = StreamSession(PATTERN, config)
        with session:
            for _ in range(30):
                session.feed("ab")
            t0 = time.monotonic()
            stats = session.close(0.3)
            elapsed = time.monotonic() - t0
        assert elapsed < 0.3 + 1.5, f"close took {elapsed:.2f}s"
        assert not stats["running"]
        # every chunk is accounted for: processed or counted discarded
        assert stats["windows"] + stats["discarded"] == 30

    def test_double_close_is_idempotent(self):
        session = StreamSession(PATTERN)
        session.start()
        session.feed("ab")
        first = session.close()
        second = session.close()
        assert not first["running"] and not second["running"]

    def test_untyped_window_error_is_counted_and_the_feed_goes_on(self, monkeypatch):
        # one untyped error inside a window must not kill the evaluation
        # thread: later chunks still produce windows, and every fed chunk
        # is accounted for as a window, an internal error, or a discard
        original = WindowedSpannerStream.ingest
        calls = {"n": 0}

        def ingest_failing_once(stream, chunk, budget=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("untyped bug in one window")
            return original(stream, chunk, budget)

        monkeypatch.setattr(WindowedSpannerStream, "ingest", ingest_failing_once)
        chunks = ["ab", "babb", "aab"]
        session = StreamSession(PATTERN)
        results, stats = drive(session, chunks)
        assert stats["internal_errors"] == 1
        # the failed window still ships one degraded result, so a consumer
        # pairing each feed() with one result never waits forever
        assert [result.chunk_chars for result in results] == [0, 4, 3]
        failed = results[0]
        assert failed.overrun and failed.added == [] and failed.retracted == []
        assert isinstance(failed.error, WindowOverrunError)
        assert isinstance(failed.error.__cause__, RuntimeError)
        assert stats["windows"] + stats["internal_errors"] + stats["discarded"] == len(chunks)
        text = "".join(chunks[1:])
        replay(results, pattern=PATTERN, text=text)
        assert {str(t) for t in session.frontier()} == one_shot(PATTERN, text)

    def test_fault_opens_breaker_and_rebuild_path_heals(self):
        # windows 0..: seed chosen so faults fire; breaker_failures=1
        # reroutes the retry through rebuild, which must stay correct
        chaos = FeedChaos(seed=11, fault_rate=0.5)
        assert any(chaos.decide(k) == "fault" for k in range(6))
        config = StreamSessionConfig(
            chaos=chaos, breaker_failures=1, breaker_reset_after=60.0
        )
        chunks = ["ab", "bb", "aab", "b", "aba", "bbb"]
        session = StreamSession(PATTERN, config)
        results, stats = drive(session, chunks)
        text = "".join(chunks)
        assert stats["faults"] >= 1
        assert stats["rebuilds"] >= 1
        assert stats["overruns"] == 0  # retries absorbed every fault
        replay(results, pattern=PATTERN, text=text)
        assert {str(t) for t in session.frontier()} == one_shot(PATTERN, text)

    def test_chaos_lane_30_percent(self):
        """The acceptance chaos lane: 30 % seeded feed faults plus torn
        and burst chunks.  Invariants: no lost or duplicated results in
        non-overrun windows, only typed errors escape, frontier bytes
        stay under the configured bound, close drains in deadline."""
        base = ["ab", "ba", "bbb", "", "aab", "abab", "b" * 5, "a", "bba"]
        for seed in [1, 7, 23]:
            chaos = FeedChaos(
                seed=seed, fault_rate=0.3, tear_rate=0.3, burst_rate=0.2
            )
            chunks = list(chaos.perturb(base))
            text = "".join(chunks)
            assert text == "".join(base)
            bound = span_tuple_bytes(("x",)) * (len(text) + 4)
            session = StreamSession(
                PATTERN,
                StreamSessionConfig(
                    chaos=chaos, breaker_failures=2, breaker_reset_after=0.05
                ),
                StreamConfig(frontier_max_bytes=bound),
            )
            results, stats = drive(session, chunks)
            assert stats["discarded"] == 0, seed
            assert stats["internal_errors"] == 0, seed
            assert len(results) == stats["windows"], seed
            for result in results:
                assert result.frontier_bytes <= bound, seed
            replay(results, pattern=PATTERN, text=text)
            assert {str(t) for t in session.frontier()} == one_shot(PATTERN, text), seed
            assert stats["stream"]["frontier_bytes"] <= bound, seed


# ---------------------------------------------------------------------------
# the deep differential lane (acceptance: >= 200 seeds)
# ---------------------------------------------------------------------------
@pytest.mark.slow_fuzz
class TestStreamDifferentialDeep:
    PATTERNS = [
        PATTERN,
        BOUNDARY_PATTERN,
        "!x{(a|b)*}",
        "(a|b)*!x{a}(a|b)*!y{b}(a|b)*",
        "(a|b)*!x{(ab)*}(a|b)*",
    ]

    def test_streamed_equals_one_shot_across_seeds(self):
        """Randomized append sequences (astral unicode, empty and torn
        chunks): streamed results over all windows equal a one-shot query
        over the final document, exact set equality, 200+ seeds."""
        for seed in range(220):
            rng = random.Random(20260808 + seed)
            pattern = rng.choice(self.PATTERNS)
            chunks = random_chunks(rng, max_chunks=10)
            if rng.random() < 0.5:
                chaos = FeedChaos(seed=seed, tear_rate=0.4, burst_rate=0.3)
                chunks = list(chaos.perturb(chunks))
            stream = WindowedSpannerStream(pattern)
            frontier = set()
            # a final heartbeat flushes feeds that end (or consist
            # entirely of) empty chunks — at least one window runs
            for chunk in chunks + [""]:
                result = stream.append(chunk)
                assert not result.overrun, (seed, pattern)
                frontier |= {str(t) for t in result.added}
                frontier -= {str(t) for t in result.retracted}
            text = "".join(chunks)
            assert frontier == one_shot(pattern, text), (seed, pattern, text)
            # the differential guard verified every window bit-for-bit
            assert stream.stats()["guard_trips"] == 0

    def test_append_entries_equal_rebuild_across_seeds(self):
        evaluator = SLPSpannerEvaluator(spanner_from_regex(PATTERN))
        for seed in range(60):
            rng = random.Random(777 + seed)
            chunks = random_chunks(rng, max_chunks=8)
            slp, node, text = SLP(), None, ""
            for chunk in chunks:
                node = slp.append_text(node, chunk)
                text += chunk
            if node is None:
                continue
            evaluator.preprocess(slp, node)
            fresh = SLP()
            rebuilt = rebalance(fresh, repair_node(fresh, text))
            evaluator.preprocess(fresh, rebuilt)
            assert _entries_equal(
                evaluator.node_entry(slp, node),
                evaluator.node_entry(fresh, rebuilt),
            ), (seed, text)
