"""Workload ``long_streams``: time to a verdict on one long stream.

Accepted streams for three statements at n = 100, 200 and 400 pairs,
judged at Budget(n + 1, n - 1, 4000), so every instance below n is
demanded.  At n = 400 a pass adds one stream with a late wrong pair, one
with a late conflicting duplicate and one with a late instance missing, and
one apply_implication run over a 1,600-item argument.  Two probes carry
the known large-numeral defect: a short ``y=x+1`` stream with one pair at
x >= 1000, and ``ctruth check`` on a witness holding ``(1:5000)``.

The seed picks where in the last hundredth the faults sit, the missing instance, the large
numeral and the transformer's lead lengths; each verdict is fixed by how
the stream was built.
"""

import contextlib
import io
import random

from ctruth import cli
from ctruth.checker import Budget, check_witness
from ctruth.combinators import apply_implication
from ctruth.formula import parse
from ctruth.witness import IOPair, Numeral, Prefix, TRIVIAL, WS, WitnessStream

from common import FIXTURES, Job, expect, witness_text

STATEMENTS = {
    "succ": ("A x. E y. y=x+1", lambda x: (x + 1,)),
    "double": ("A x. E y. y=2*x", lambda x: (2 * x,)),
    "parity": ("A x. E y. (x=2*y \\/ x=2*y+1)", lambda x: (x // 2, x % 2)),
}
SIZES = (100, 200, 400)
APPLY_ITEMS = 1600
NUMERAL_DEFECT = "unary numerals recurse past the interpreter limit (ROADMAP item 2)"
# job_tail_ms percentile: ten or more observations lie beyond it with
# 13 timed jobs a pass and four or more passes in 25 s
TAIL_PERCENTILE = 75


def late(rng, n):
    """A seeded position in the last hundredth of an n-pair stream: late
    enough that the fault is met only after the stream's full cost."""
    return rng.randrange(n - max(1, n // 100), n)


def budget(n):
    return Budget(n + 1, n - 1, 4000)


def answers(key, xs):
    outs = STATEMENTS[key][1]
    return [IOPair((Numeral(x),), tuple(Numeral(v) for v in outs(x))) for x in xs]


def _verdict(v):
    """What the benchmark checks of a verdict: status, pair, conflict,
    missing demand."""
    return (v.status, v.pair, v.conflict, v.missing)


def _stream_job(kind, name, f, items, b, want, defect=None):
    text = witness_text(items)

    def run(T):
        w = T.call("witness.from_text", WitnessStream.from_text, text)
        return _verdict(T.call("checker.check", check_witness, w, f, b, after=T.verdict))

    pairs = tuple(it for it in items if isinstance(it, IOPair))
    return Job(kind, name, run, expect(want), defect=defect, pairs=(f, pairs, b))


def _apply_job(rng, n_items):
    """A transformer whose pair i waits for a seeded lead of the argument,
    applied to an n_items argument.  Pair i is seen in round i + 1 and
    fires once the argument shows its lead, so it comes out in round
    max(i + 1, len(lead)); each round closes with one whitespace."""
    arg = [TRIVIAL] + answers("succ", range(n_items - 1))
    items = [TRIVIAL]
    fire = {1: [TRIVIAL]}
    for i in range(1, n_items):
        lead = Prefix(tuple(arg[: rng.randint(0, 8)]))
        x = Numeral(i - 1)
        items.append(IOPair((lead, x), (Numeral(i + 1),)))
        fire.setdefault(max(i + 1, len(lead.items)), []).append(IOPair((x,), (Numeral(i + 1),)))
    want = []
    for r in range(n_items):
        want += fire.get(r, [])
        want.append(WS)
    want = tuple(want)
    w, x = WitnessStream.from_items(items), WitnessStream.from_items(arg)

    def run(T):
        out = T.call("combinators.apply", lambda: apply_implication(w, x).pull(len(want)))
        T.count("combinators.items", len(out))
        return out

    return Job("apply", f"apply{n_items}", run, expect(want))


def _cli_job(workdir, f_path, numeral):
    wit = workdir / "large_numeral.wit"
    wit.write_text(f"(1:{numeral})\n")
    report = workdir / "large_numeral.txt"
    argv = ["check", "--formula", str(f_path), "--witness", str(wit),
            "--report", str(report)]

    def run(T):
        report.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = T.call("cli.main", cli.main, argv)
        return code, report.read_text().split(" ")[:2]

    # 1 != 2*1: rejected on content, exit status 1
    return Job("probe", f"cli-check-1:{numeral}", run,
               expect((1, ["VERDICT", "rejected"])), defect=NUMERAL_DEFECT)


def setup(seed, T, small, workdir):
    rng = random.Random(seed)
    sizes = (10, 20, 40) if small else SIZES
    top = sizes[-1]
    forms = {k: T.call("formula.parse", parse, text) for k, (text, _) in STATEMENTS.items()}
    jobs = []
    for n in sizes:
        for key, f in forms.items():
            items = [TRIVIAL] + answers(key, range(n))
            jobs.append(_stream_job("sweep", f"{key}@{n}", f, items, budget(n),
                                    ("accepted_up_to", None, None, None)))

    b = budget(top)
    base = [TRIVIAL] + answers("succ", range(top))
    k = late(rng, top)
    bad = IOPair((Numeral(k),), (Numeral(k + 1 + rng.randint(1, 5)),))
    wrong = base[: k + 1] + [bad] + base[k + 2 :]
    jobs.append(_stream_job("late_wrong", f"succ@{top}:{k}", forms["succ"], wrong, b,
                            ("rejected", bad, None, None)))

    base = [TRIVIAL] + answers("double", range(top))
    k = late(rng, top)
    orig = base[k + 1]
    dup = IOPair(orig.inputs, (Numeral(orig.outputs[0].value + rng.randint(1, 5)),))
    at = rng.randrange(k + 2, top + 2)
    conflicting = base[:at] + [dup] + base[at:]
    jobs.append(_stream_job("late_duplicate", f"double@{top}:{k}", forms["double"],
                            conflicting, Budget(top + 2, top - 1, 4000),
                            ("rejected", dup, orig, None)))

    base = [TRIVIAL] + answers("parity", range(top))
    k = late(rng, top)
    jobs.append(_stream_job("missing", f"parity@{top}-{k}", forms["parity"],
                            base[: k + 1] + base[k + 2 :], b,
                            ("pending", None, None, (Numeral(k),))))

    jobs.append(_apply_job(rng, 160 if small else APPLY_ITEMS))

    big = rng.randrange(1000, 1100)
    items = [TRIVIAL] + answers("succ", (0, 1, 2, big))
    jobs.append(_stream_job("probe", f"succ-short:{big}", forms["succ"], items,
                            Budget(5, 2, 4000), ("accepted_up_to", None, None, None),
                            defect=NUMERAL_DEFECT))
    jobs.append(_cli_job(workdir, FIXTURES / "formulas" / "doubling.fml", 5000))
    rng.shuffle(jobs)
    return jobs
