"""CPU speed probe: expresses measured CPU time at a fixed reference speed.

The benchmark's host shares its cores with other work, and how fast a core
runs the same code changes by half or more from second to second and drifts
over minutes. Process CPU time leaves out the time the process was not
running, but not a core that runs slower. So while an op runs, a real-time
timer interrupts the process every ``INTERVAL_S`` and its handler runs a
chunk, a fixed piece of work, in the same thread, between the program's own
bytecodes. The chunks' mean CPU time says how fast the core ran the program
over the same interval. ``Probe.factor`` turns the program's CPU time into
CPU time at the speed where one chunk takes ``REF_CHUNK_S``:

    scaled = (process CPU time - chunk CPU time) * REF_CHUNK_S / mean chunk time

The chunks cost about 4% of the process's CPU time and are subtracted.

An op's chunk is ``numpy_chunk``: small dense solves and products, like the
program's per-unit algebra. Of the chunks tried, it tracked the ops' speed
best. A fresh interpreter measures its own start-up and imports with
``python -c`` and ``child_code``, before numpy is loaded, so its chunk is
``python_chunk``, plain bytecode like an import's. The child prints the
chunk CPU time and count on its last line.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
REF_CHUNK_S = 1e-3  # one chunk's CPU time at the reference speed, either chunk
PYTHON_CHUNK_STEPS = 12000
NUMPY_CHUNK_STEPS = 55

_chunk_cpu = 0.0
_chunks = 0


def python_chunk() -> None:
    total = 0
    for i in range(PYTHON_CHUNK_STEPS):
        total += i * i


def _numpy_chunk_maker():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((12, 12))
    a = a @ a.T + 12.0 * np.eye(12)
    b = np.ones(12)

    def numpy_chunk() -> None:
        for _ in range(NUMPY_CHUNK_STEPS):
            np.linalg.solve(a, b)
            (a @ a).sum()

    return numpy_chunk


_chunk = python_chunk


def _tick(signum, frame) -> None:
    global _chunk_cpu, _chunks
    start = time.process_time()
    _chunk()
    _chunk_cpu += time.process_time() - start
    _chunks += 1


def program_cpu() -> float:
    """Process CPU seconds so far, less the chunks' own."""
    return time.process_time() - _chunk_cpu


def start(chunk=python_chunk) -> None:
    global _chunk
    _chunk = chunk
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(chunk_cpu: float, chunks: int) -> float | None:
    """Reference speed over measured speed; None when no chunk ran."""
    return REF_CHUNK_S * chunks / chunk_cpu if chunks and chunk_cpu > 0 else None


class Probe:
    """Runs numpy chunks while the ``with`` block runs; ``factor`` is read after."""

    _numpy_chunk = None

    def __enter__(self) -> "Probe":
        if Probe._numpy_chunk is None:
            Probe._numpy_chunk = _numpy_chunk_maker()
        self._begin = (_chunk_cpu, _chunks)
        start(Probe._numpy_chunk)
        return self

    def __exit__(self, *exc) -> None:
        stop()
        self.chunk_cpu = _chunk_cpu - self._begin[0]
        self.chunks = _chunks - self._begin[1]
        self.factor = factor(self.chunk_cpu, self.chunks)


def child_code(module: str, perfbench_dir: str) -> str:
    """``python -c`` source that imports ``module`` under the probe."""
    return (
        f"import sys; sys.path.insert(0, {perfbench_dir!r}); import speed; speed.start(); "
        f"import {module}; speed.stop(); print(speed._chunk_cpu, speed._chunks)"
    )
