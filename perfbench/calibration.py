"""Host-speed calibration: a fixed reference computation run beside every timed piece.

On a shared host the cores this benchmark gets change speed by up to a factor
of two, in stretches of seconds to minutes, as other tenants' load comes and
goes.  Neither CPU time nor steal time shows it: the process keeps its core
and simply runs slower, and interpreter loops, numpy kernels and memory
traffic slow down about alike.  A median over one run then measures how busy
the neighbours were during that run as much as it measures the program.

So every timed piece of a measured operation is followed by one run of
:func:`reference_work`, a fixed computation whose code is part of the
benchmark, not of the program.  A piece's time is reported in *reference
seconds*: its wall time times :data:`REFERENCE_S` over the mean time of the
reference computations run just before and just after it.  A change to the
program moves the piece and not the reference, so it shows in full; a slower
host moves both, so it cancels.  The raw wall-clock figures are printed
beside the reported ones.
"""

from __future__ import annotations

import os
import random
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: :func:`reference_work`'s median time on the host the benchmark was built
#: on (2 vCPUs of a KVM guest on an Intel Xeon, family 6 model 207, Python
#: 3.11, numpy 2.4, one BLAS thread), measured while that host was quiet.
#: It only sets the scale: a reference second is a second of that host.
REFERENCE_S = 0.046

#: The reference computation's inputs: interpreter work on this many floats,
#: and numpy work on a matrix of this shape (3.2 MB, past the core's L2).
PYTHON_ITEMS = 40_000
MATRIX_SHAPE = (200, 2000)


def reference_work() -> float:
    """A fixed mix of interpreter and numpy work, about as the program mixes them."""
    import numpy as np

    draw = random.Random(12345)
    items = [draw.random() for _ in range(PYTHON_ITEMS)]
    table: Dict[int, List[int]] = {}
    for index, item in enumerate(items):
        table.setdefault(int(item * 997), []).append(index)
    order = sorted(items)
    matrix = np.random.default_rng(12345).random(MATRIX_SHAPE)
    ordered = np.take_along_axis(matrix, np.argsort(matrix, axis=1), axis=1)
    totals = np.cumsum(ordered, axis=1)
    return float((totals > 0.5).sum() + (matrix @ matrix.T).sum()) + order[0] + len(table)


def time_reference_work(cpus: int = 1) -> float:
    """The reference computation's time; with ``cpus`` > 1, its mean time on
    each of the first ``cpus`` CPUs this process may use, one after another.

    A workload that runs in one process runs on one CPU, and the reference
    runs beside it on the same one.  The sweep's pool keeps two CPUs busy,
    and each of them can be slowed on its own, so the reference visits both.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if cpus <= 1 or len(allowed) == 1:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    total = 0.0
    try:
        for cpu in allowed[:cpus]:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            reference_work()
            total += time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)
    return total / min(cpus, len(allowed))


class Calibrator:
    """Records timed pieces, each in wall seconds and in reference seconds.

    ``sample`` times one reference computation; a test passes a fake.
    """

    def __init__(self, sample: Callable[[], float] = time_reference_work) -> None:
        self.sample = sample
        self.sample()  # the first run pays for imports and first allocations
        self._before = self.sample()
        self.references: List[float] = [self._before]
        self.wall: Dict[str, List[float]] = defaultdict(list)
        self.reference: Dict[str, List[float]] = defaultdict(list)

    def record(self, name: str, seconds: float) -> None:
        """Record one piece that took ``seconds``, just before this call."""
        after = self.sample()
        self.references.append(after)
        self.wall[name].append(seconds)
        self.reference[name].append(seconds * REFERENCE_S * 2.0 / (self._before + after))
        self._before = after


def ignore(name: str, seconds: float) -> None:
    """A ``record`` that records nothing, for operations that are not measured."""
