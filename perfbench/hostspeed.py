"""Host speed, measured by fixed kernels timed between operations.

The shared virtual machines this benchmark was built on change speed by
up to twofold over tens of seconds, so a median over one run still moves
with whatever the host did during it. Interpreter-bound work (Python loops over
small arrays, float formatting) swings about twice as far as array-bound
work (large element-wise passes). The benchmark therefore times two fixed
kernels of its own, one of each kind, between operations, and scales a
timing by

    (NOMINAL_S["interpreter"] / median interpreter kernel) ** w
    * (NOMINAL_S["arrays"] / median arrays kernel) ** (1 - w)

where w is the workload's interpreter-bound share. Every timing it reports
is then a time at one reference host speed. The kernels use no code of the
program, so a change to the program cannot move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Kernel durations at the reference host speed.
NOMINAL_S = {"interpreter": 0.006, "arrays": 0.005}
EVERY_S = 0.4        # at most this long between two calibrations in the timed phase
# Kernel runs per calibration. A fixed count, not a time budget, keeps the
# benchmark's own allocations the same from run to run, so the program's
# peak memory does not depend on how fast the host was.
RUNS = 4

_rng = np.random.default_rng(12345)
_SMALL = _rng.random((5, 5)) + 5.0 * np.eye(5)
_RHS = np.ones(5)
_FLOATS = _rng.random(1500).tolist()
_QUERIES = _rng.random((50, 1, 4))
_TRAIN = _rng.random((1, 2000, 4))


def interpreter(scratch) -> float:
    """Small linear algebra in a Python loop, then float formatting and parsing."""
    acc = 0.0
    for i in range(120):
        x = np.linalg.solve(_SMALL + i * 1e-3 * np.eye(5), _RHS)
        s = np.linalg.svd(_SMALL, compute_uv=False)
        acc += float(x[i % 5]) + float(s[-1])
    text = ",".join(format(v, ".17g") for v in _FLOATS)
    return acc + sum(float(c) for c in text.split(","))


def arrays(scratch) -> float:
    """One large element-wise pass and a partition of its rows, in preallocated buffers.

    Fresh large arrays would cost page faults that depend on what the
    program left in the allocator, not on the host.
    """
    diff, dist = scratch
    np.subtract(_QUERIES, _TRAIN, out=diff)
    np.abs(diff, out=diff)
    np.sum(diff, axis=2, out=dist)
    dist.partition(10, axis=1)
    return float(dist[:, 10].sum())


KERNELS = {"interpreter": interpreter, "arrays": arrays}


class HostSpeed:
    """Calibration blocks over a run, and the factors that scale timings.

    The benchmark calibrates before the first operation, after the last,
    and between operations; each operation is scaled by the two blocks
    around it, so it follows the host through a change of speed mid-run.
    """

    def __init__(self):
        self.blocks = []      # per calibration: [(kernel, seconds), ...]
        self._last = None     # end of the last calibration
        self._scratch = (np.empty(np.broadcast_shapes(_QUERIES.shape, _TRAIN.shape)),
                         np.empty((_QUERIES.shape[0], _TRAIN.shape[1])))

    def due(self) -> bool:
        return perf_counter() - self._last >= EVERY_S

    def calibrate(self) -> None:
        """Run each kernel RUNS times, alternating."""
        block = []
        for _ in range(RUNS):
            for name, kernel in KERNELS.items():
                a = perf_counter()
                kernel(self._scratch)
                block.append((name, perf_counter() - a))
        self.blocks.append(block)
        self._last = perf_counter()

    def speed(self, blocks) -> dict:
        """Per kernel: reference duration over median duration (above 1 on a fast host)."""
        return {name: NOMINAL_S[name] / statistics.median(
                    [s for b in blocks for k, s in b if k == name])
                for name in KERNELS}

    def factor(self, before: int, interpreter_share: float) -> float:
        """Multiplier to the reference speed for a duration between blocks `before`, `before + 1`."""
        v = self.speed(self.blocks[before:before + 2])
        return v["interpreter"] ** interpreter_share * v["arrays"] ** (1.0 - interpreter_share)
