"""Host-speed sampling: fixed reference work interleaved with the program.

The benchmark host is a shared virtual machine whose speed drifts: the
same deterministic run takes 20-30% more or less wall time from one
second to the next, and up to twice as long a quarter of an hour later.
Every process on it slows alike, so a wall time alone says as much about
the host as about the program.

:class:`HostSpeed` measures the host while the program runs.  An
interval timer interrupts the program every :data:`INTERVAL_S` of wall
time, and its signal handler runs one chunk of :class:`ReferenceWork`, a
fixed piece of pure-Python work (integer arithmetic, scattered reads and
writes over two 2 MiB tables, dict stores) that no change to the program
can alter.  The handler times each chunk.  Over any window the benchmark
then knows

* the program's own time: the window's wall time minus the chunk time
  inside it, and
* the host's speed over the window: chunks done per chunk second,
  relative to :data:`NOMINAL_CHUNKS_PER_S` (:func:`speed`).

``program seconds x speed`` is the time the window would have taken on a
host of the nominal speed.  Because the chunks are spread through the
whole run, this follows drift on every time scale longer than a few
intervals.  The chunks cost about a tenth of the run; their tables add a
constant 4 MiB to the process's memory.

The handler runs between Python bytecodes of the main thread.  The
program runs on a virtual clock and never reads wall time, so the
interruptions change only how long it takes, never what it does; the
benchmark's reproduction checks prove that on every run.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from typing import Dict, Tuple

#: Wall time between two reference chunks.
INTERVAL_S = 0.05
#: Loop iterations in one reference chunk (about 5 ms at nominal speed).
CHUNK_ITERATIONS = 6_000
#: Entries of the reference chunk's two tables (4 MiB together: larger
#: than a core's private cache, so the chunk also feels a busy shared
#: cache, as the program does).
TABLE_SIZE = 1 << 18
#: Chunks a second on the nominal host: the 2-vCPU Xeon virtual machine
#: the benchmark was written on, at its usual speed.  Only fixes the
#: scale of the normalised times; any constant would do.
NOMINAL_CHUNKS_PER_S = 200.0


class ReferenceWork:
    """The reference work: a fixed walk of reads, writes and dict stores."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.values = array("q", (rng.randrange(1 << 16) for _ in range(TABLE_SIZE)))
        self.index = array("q", (rng.randrange(TABLE_SIZE) for _ in range(TABLE_SIZE)))
        self.position = 0

    def chunk(self, iterations: int = CHUNK_ITERATIONS) -> int:
        """One unit of reference work; the result only defeats dead-code removal."""
        values, index, mask = self.values, self.index, TABLE_SIZE - 1
        start = self.position
        total = 0
        table: Dict[int, int] = {}
        for k in range(iterations):
            j = index[(start + k) & mask]
            v = (values[j] * 31 + k) & 0xFFFF
            values[j] = v
            total += v % 7
            table[k & 1023] = total
        self.position = (start + iterations) & mask
        return total


class HostSpeed:
    """Interleaves :class:`ReferenceWork` chunks with the program and times it.

    Until :meth:`start` it only keeps the plain wall clock."""

    def __init__(self) -> None:
        self.work = None
        self.chunks = 0
        self.chunk_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.work.chunk()
        self.chunk_s += time.perf_counter() - t0
        self.chunks += 1

    def start(self) -> "HostSpeed":
        self.work = ReferenceWork()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Tuple[float, float, int]:
        """The start of a window: wall time, chunk time, chunks."""
        return time.perf_counter(), self.chunk_s, self.chunks

    def window(self, since: Tuple[float, float, int]) -> Tuple[float, int, float]:
        """The window since ``since`` (a :meth:`mark`): its wall time minus
        chunk time, and the chunks run in it with their time."""
        t0, chunk_s0, chunks0 = since
        chunk_s = self.chunk_s - chunk_s0
        return time.perf_counter() - t0 - chunk_s, self.chunks - chunks0, chunk_s


def speed(chunks: int, chunk_s: float) -> float:
    """Host speed relative to nominal, from chunks run and their time."""
    if not chunks:
        raise ValueError("no reference chunk ran; the window was too short to sample")
    return chunks / chunk_s / NOMINAL_CHUNKS_PER_S
