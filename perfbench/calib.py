"""Host-speed calibration.

On a shared host the speed of the same code can drift by ±25 % from one
second to the next while CPU time stays equal to wall time, so raw
latencies measure the host as much as the program.  A fixed kernel that shares no code with ``repro`` —
pure-Python loop and dict work plus small numpy matmuls, about the mix
the engine itself runs — is timed at every batch boundary, while no
request is in flight, and between set-up phases.  Each batch's raw
timings are scaled by ``nominal / measured`` (the mean of the kernel
runs that bracket it), so a batch that ran while the host was 20 %
slow is reported at nominal host speed.  Set-up phases are scaled the
same way, phase by phase.

Every workload's requests pass between at least two threads (client
and service worker, producer and stream session, or two clients), so a
calibration runs the kernel in two concurrent threads that contend for
the GIL as those threads do: how fast the host runs two threads of one
process drifts too, and more than one thread's speed.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: concurrent kernel runs per calibration
THREADS = 2
_WORDS = [f"w{i}" for i in range(97)]
_RNG = np.random.default_rng(7)
_MATS = _RNG.random((12, 24, 24), dtype=np.float32)
_BITS = _RNG.random((12, 24, 24)) < 0.2
_INDEX = _RNG.integers(0, 24, size=(12, 24))


def _walk(depth: int):
    """A chain of delegating generators (the shape of an enumerator)."""
    if depth == 0:
        yield (0,)
        return
    for item in _walk(depth - 1):
        yield item + (depth,)
    yield (depth,)


def kernel() -> int:
    """The fixed calibration workload (about 2 ms); returns a checksum.

    Several small code paths rather than one tight loop: a tiny loop's
    speed depends on the process's memory layout as much as on the
    host, and a spread of paths averages that out."""
    total = 0
    # dict work: string keys, int keys and (int, int) tuple keys
    by_word: dict[str, int] = {}
    by_pair: dict[tuple[int, int], int] = {}
    for i in range(1800):
        word = _WORDS[i % 97]
        by_word[word] = by_word.get(word, 0) + i
        pair = (i & 31, i % 7)
        by_pair[pair] = by_pair.get(pair, 0) ^ i
    total += len(by_word) + len(by_pair)
    # sets of tuples, sorting and string building
    rows = [(i % 13, i % 7, _WORDS[i % 97]) for i in range(400)]
    total += len(frozenset(rows)) + len(sorted(rows))
    total += len(" ".join(f"{a}:{b}={c}" for a, b, c in rows[:200]).split())
    # delegating generators
    for _ in range(18):
        total += sum(len(item) for item in _walk(9))
    # small numpy products, clamps, gathers and bit packing
    acc = _MATS[0]
    for _ in range(45):
        acc = np.minimum(np.matmul(_MATS, acc)[3], 1.0)
    stack = np.matmul(_MATS, _MATS) > 0.5
    gathered = np.take_along_axis(stack[:, :, 0], _INDEX, axis=1)
    total += int(np.packbits(stack | _BITS, axis=-1).sum() & 0xFF)
    total += int(np.where(gathered, _INDEX, 0).sum() & 0xFF)
    return total + int(acc.sum() > 0)


class Calibrator:
    """Scales raw durations to nominal host speed.

    ``nominal_s`` is the kernel's time on the reference host (a constant
    of the benchmark's command line).  The kernel runs on
    :data:`THREADS` threads that live as long as the calibrator, so the
    memory their allocations keep is the same in every run; call
    :meth:`close` to stop them.  A boundary calibrates twice and keeps
    the faster time, so an interrupt during one run does not pass for a
    slow host.  Every boundary is kept so the scaling can be audited
    (``calib_ms`` in the run's detail line)."""

    def __init__(self, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._start = threading.Barrier(THREADS + 1)
        self._end = threading.Barrier(THREADS + 1)
        self._runners = [
            threading.Thread(target=self._run, name="calib") for _ in range(THREADS)
        ]
        for runner in self._runners:
            runner.start()

    def _run(self) -> None:
        try:
            while True:
                self._start.wait()
                kernel()
                self._end.wait()
        except threading.BrokenBarrierError:  # close()
            return

    def _once(self) -> float:
        """Seconds :data:`THREADS` concurrent kernel runs take now, per run."""
        start = time.perf_counter()
        self._start.wait()
        self._end.wait()
        return (time.perf_counter() - start) / THREADS

    def measure(self) -> float:
        seconds = min(self._once(), self._once())
        self.samples.append(seconds)
        return seconds

    def close(self) -> None:
        self._start.abort()
        self._end.abort()
        for runner in self._runners:
            runner.join()

    def factor(self, before: float, after: float) -> float:
        """Scale for work that ran between two kernel measurements."""
        return self.nominal_s / ((before + after) / 2)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


class SetupClock:
    """Times a set-up phase by phase, calibrating each phase on its own.

    A ~1.5 s set-up calibrated only at its two ends still spread
    0.96–1.37 s on a drifting host; a kernel run between phases keeps
    each phase's scale local."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._last = calibrator.measure()

    def phase(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        after = self.calibrator.measure()
        self.raw_s += elapsed
        self.calibrated_s += elapsed * self.calibrator.factor(self._last, after)
        self._last = after
        return result
