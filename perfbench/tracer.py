"""Spans and counters recorded from outside the package.

A span is recorded around each call the benchmark makes into a module
of the package, and, in a traced run, around the calls that the games
module makes into the checker, the combinators and its own formula
builders (see ``interpose``).  Spans live in memory as tuples
``(name, start, end, parent, job, phase)`` and are reduced once the run
ends.  ``NULL`` is the tracer of the untraced run: it calls straight
through and records nothing.
"""

from collections import defaultdict
from time import perf_counter

from ctruth.witness import TRIVIAL, WitnessStream


class NullTracer:
    """Calls straight through; the end-to-end run uses this one."""

    def call(self, name, fn, *args, after=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass

    def stream(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    verdict = None


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> name -> n
        self.stack = []
        self.job = None
        self.phase = "setup"
        self.check_sizes = []  # (pairs, seconds, job kind) of timed-pass checks

    def call(self, name, fn, *args, after=None, **kwargs):
        """Run fn under a span; after(result, args, seconds) may count."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job, self.phase)
        if after is not None:
            after(result, args, end - start)
        return result

    def count(self, name, k=1):
        self.counts[self.phase][name] += k

    def verdict(self, v, args, seconds):
        """after-hook of a checker call: count the verdict and, when the
        judged stream is at hand, the pairs it held."""
        self.count("checker." + v.status.replace("_up_to", ""))
        w, budget = args[0], args[2]
        if isinstance(w, WitnessStream):
            n = sum(1 for p in w.pairs(budget.pull_limit) if p != TRIVIAL)
            self.count("checker.pairs", n)
            self.count("checker.pairs_s", seconds)
            if self.phase == "pass":
                self.check_sizes.append((n, seconds, self.job.kind))

    def stream(self, name, fn, *args, **kwargs):
        """Call a stream combinator under a span, and put every later
        pull from its result under the same span name, so the work it
        does on demand lands in its own layer."""
        src = self.call(name, fn, *args, **kwargs).copy()

        def items():
            i = 0
            while True:
                got = self.call(name, src.pull, i + 1)
                if len(got) <= i:
                    return
                self.count("combinators.items")
                yield got[i]
                i += 1

        return WitnessStream(items)

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """(name, phase) -> (self seconds, span count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _p, _job, phase) in enumerate(self.spans):
            acc = out[(name, phase)]
            acc[0] += end - start - child[i]
            acc[1] += 1
        return out


def interpose(tracer, module, name, span, after=None, lazy=False):
    """Route module.name through a span; returns an undo callable.

    Functions in the package look up their collaborators in their
    module's globals at call time, so rebinding the name there puts a
    span at that layer boundary without touching the package.
    """
    original = getattr(module, name)
    if lazy:
        def wrapper(*args, **kwargs):
            return tracer.stream(span, original, *args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(span, original, *args, after=after, **kwargs)
    setattr(module, name, wrapper)
    return lambda: setattr(module, name, original)
