"""Times scaled to a steady machine speed.

The benchmark runs on shared machines whose speed for one process drifts
by up to 1.8x over seconds to minutes (other tenants on the same cores),
so a raw time says as much about the neighbours as about the package.
The clock times a fixed pure-Python reference loop every EVERY seconds
and scales each measured time by REF_S / (the loop's current time).
Reported seconds are therefore seconds at the speed the reference loop
had when REF_S was fixed: about its best time on a 2-core 2.1 GHz Xeon
virtual machine under CPython 3.11.  Work that changes in the package
changes the scaled time exactly as much as the raw one; the loop itself
never touches the package.
"""

from time import perf_counter, process_time

REF_S = 0.0015
EVERY = 0.2  # seconds between two readings of the reference loop
LONG = 0.05  # a call at least this long gets a fresh reading after it


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left, self.right, self.value = left, right, value


def _build(depth, value):
    if depth == 0:
        return _Node(None, None, value)
    return _Node(_build(depth - 1, 2 * value), _build(depth - 1, 2 * value + 1), value)


def _walk(node, env):
    if node.left is None:
        return env.get(node.value % 7, 0) + 1
    return _walk(node.left, env) + _walk(node.right, env)


def reference():
    """Allocation, recursion and dict/tuple work, like the package's."""
    env = {k: k * k for k in range(7)}
    total = 0
    for r in range(4):
        total += _walk(_build(9, r), env)
        total += len(tuple(str(i) for i in range(200)))
    return total


class Clock:
    def __init__(self):
        self.scale = 1.0
        self.read_at = float("-inf")

    def reading(self):
        """REF_S over the best of three reference runs."""
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            reference()
            best = min(best, perf_counter() - t0)
        return REF_S / best

    def tick(self):
        """The current scale, read afresh when EVERY seconds have passed."""
        if perf_counter() - self.read_at >= EVERY:
            self.scale = self.reading()
            self.read_at = perf_counter()
        return self.scale

    def time(self, fn):
        """(fn(), scaled wall seconds, scaled CPU seconds).  A call of LONG
        or more is scaled by the mean of the last reading before it and a
        fresh one after it."""
        before = self.tick()
        w0, c0 = perf_counter(), process_time()
        result = fn()
        w, c = perf_counter() - w0, process_time() - c0
        scale = before
        if w >= LONG:
            self.read_at = float("-inf")
            scale = (before + self.tick()) / 2
        return result, w * scale, c * scale
