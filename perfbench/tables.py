"""Workload ``tables``: the criterion 2 family as many short streams.

Every stream is a rendered witness table for one of 23 small formulas
(domain 0..3, outputs 0..6), judged at Budget(64, 3, 4000).  One pass
holds, in fixed shares:

  * WRONG_PER_FORMULA wrong tables for each formula that has one, drawn
    uniformly (by the seed) among that formula's tables and kept when
    the oracle says wrong; expected ``rejected``;
  * all 21 correct tables; expected ``accepted_up_to``;
  * the 80 streams made by dropping one pair from a correct table;
    expected ``pending``.

Expected answers come from tests/oracles.py (``table_correct``) and
from how a stream was built, never from the package.
"""

import itertools
import math
import random

from ctruth.checker import Budget, check_witness
from ctruth.formula import And, Atom, Exists, Forall, Not, Or, parse
from ctruth.witness import IOPair, WitnessStream

from common import Job, expect, witness_text
from oracles import holds, render_table, subst, table_correct

FAMILY = [
    "0=0",
    "0=1",
    "(0=0 /\\ 0=1)",
    "(0=0 \\/ 0=1)",
    "(1<2 /\\ ~(2<1))",
    "(0=1 \\/ ~(0=1))",
    "E x. x=2",
    "E x. (x=2 \\/ x=5)",
    "E x. (x<2 /\\ 1<x)",
    "A x. x<5",
    "A x. (x=2 \\/ ~(x=2))",
    "A x. (x<2 \\/ 1<x)",
    "E x. 2*x=6",
    "A x. x*0=0",
    "A x. E y. y=2*x",
    "A x. E y. (x=2*y \\/ x=2*y+1)",
    "A x. E y. y=x+1",
    "E x. E y. (x=y+1 /\\ y=1)",
    "E x. A y. x*y=y",
    "A x. A y. x+y=y+x",
    "A x. A y. (x<y \\/ ~(x<y))",
    "E x. (x=1 /\\ E y. y=x+1)",
    "A x. (x<1 \\/ E y. x=y+1)",
]
DOMAIN = range(4)
OUT_RANGE = range(7)
BUDGET = Budget(64, 3, 4000)
WRONG_PER_FORMULA = 20
N_CORRECT = 21
N_DROPPED = 80
# job_tail_ms percentile: ten or more observations lie beyond it with
# 461 jobs a pass and about a hundred passes in 25 s
TAIL_PERCENTILE = 99.9


# -- table generation, mirroring oracles.all_tables without listing them


def _count(f):
    if isinstance(f, (Atom, Not)):
        return 1
    if isinstance(f, Forall):
        return math.prod(_count(subst(f.body, f.var, n)) for n in DOMAIN)
    if isinstance(f, Exists):
        return sum(_count(subst(f.body, f.var, n)) for n in OUT_RANGE)
    if isinstance(f, And):
        return _count(f.left) * _count(f.right)
    if isinstance(f, Or):
        return _count(f.left) + _count(f.right)
    raise TypeError(f)


def _sample(f, rng):
    """One table, uniform over all of f's tables."""
    if isinstance(f, (Atom, Not)):
        return None
    if isinstance(f, Forall):
        return {n: _sample(subst(f.body, f.var, n), rng) for n in DOMAIN}
    if isinstance(f, Exists):
        subs = [subst(f.body, f.var, n) for n in OUT_RANGE]
        (n,) = rng.choices(OUT_RANGE, weights=[_count(g) for g in subs])
        return (n, _sample(subs[n], rng))
    if isinstance(f, And):
        return (_sample(f.left, rng), _sample(f.right, rng))
    if isinstance(f, Or):
        (side,) = rng.choices((0, 1), weights=[_count(f.left), _count(f.right)])
        return (side, _sample((f.left, f.right)[side], rng))
    raise TypeError(f)


def _correct(f):
    """Every correct table, built bottom-up from true leaves."""
    if isinstance(f, (Atom, Not)):
        return [None] if holds(f, {}, DOMAIN) else []
    if isinstance(f, Forall):
        rows = [_correct(subst(f.body, f.var, n)) for n in DOMAIN]
        return [dict(zip(DOMAIN, combo)) for combo in itertools.product(*rows)]
    if isinstance(f, Exists):
        return [
            (n, t) for n in OUT_RANGE for t in _correct(subst(f.body, f.var, n))
        ]
    if isinstance(f, And):
        return list(itertools.product(_correct(f.left), _correct(f.right)))
    if isinstance(f, Or):
        return [(side, t) for side, g in ((0, f.left), (1, f.right)) for t in _correct(g)]
    raise TypeError(f)


def _job(kind, name, f, items, status):
    text = witness_text(items)

    def run(T):
        w = T.call("witness.from_text", WitnessStream.from_text, text)
        return T.call("checker.check", check_witness, w, f, BUDGET, after=T.verdict).status

    pairs = tuple(it for it in items if isinstance(it, IOPair))
    return Job(kind, name, run, expect(status), pairs=(f, pairs, BUDGET))


def setup(seed, T, small, workdir):
    rng = random.Random(seed)
    wrong_per = 2 if small else WRONG_PER_FORMULA
    jobs = []
    correct_seen = dropped_seen = 0
    for i, text in enumerate(FAMILY):
        f = T.call("formula.parse", parse, text)
        good = _correct(f)
        for t in good:
            if not table_correct(f, t, list(DOMAIN)):
                raise AssertionError(f"generated table is not correct: {text}")
        for k, t in enumerate(good):
            items = render_table(f, t, list(DOMAIN))
            correct_seen += 1
            jobs.append(_job("correct", f"{i}.{k}", f, items, "accepted_up_to"))
            for j, it in enumerate(items):
                if isinstance(it, IOPair) and (it.inputs or it.outputs):
                    dropped_seen += 1
                    variant = items[:j] + items[j + 1 :]
                    jobs.append(_job("dropped", f"{i}.{k}-{j}", f, variant, "pending"))
        if _count(f) == len(good):
            continue  # every table of f is correct
        drawn = 0
        while drawn < wrong_per:
            t = _sample(f, rng)
            if table_correct(f, t, list(DOMAIN)):
                continue
            items = render_table(f, t, list(DOMAIN))
            jobs.append(_job("wrong", f"{i}#{drawn}", f, items, "rejected"))
            drawn += 1
    if (correct_seen, dropped_seen) != (N_CORRECT, N_DROPPED):
        raise AssertionError(
            f"family gave {correct_seen} correct and {dropped_seen} dropped streams"
        )
    if small:
        of = lambda kind: [j for j in jobs if j.kind == kind]  # noqa: E731
        jobs = of("wrong") + of("correct")[:3] + of("dropped")[:6]
    rng.shuffle(jobs)
    return jobs
