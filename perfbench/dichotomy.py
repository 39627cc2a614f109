"""Workload ``dichotomy``: criterion 7 plays and criterion 8 chains.

A pass samples TREES_PER_STRATUM of the 676 depth-3 tree presentations
from each node-count stratum (1..15 nodes; a stratum with fewer trees
gives all of them, so the one 15-node tree is always in).  Each tree
gives two jobs: one copier-vs-generous play, expected ``accept``, and
the six-defender row against the designated adversary, expected to hold
no ``accept``/``effective`` outcome.  The pass adds prop3_duality chains
of lengths 2..19, honest (expected accepted and tautological) and, for
lengths 2..18, broken at a seeded link (expected neither).

The trees are enumerated here, not by the package.
"""

import random

from ctruth import games
from ctruth.games import GenerousAdversary, TreePresentation, WaitingCopier

from common import Job, expect
from tracer import interpose as _interpose

TREES_PER_STRATUM = 4
HORIZON = 10000
CHAIN_LENGTHS = range(2, 20)
# job_tail_ms percentile: ten or more observations lie beyond it with
# 139 jobs a pass and ten or more passes in 25 s
TAIL_PERCENTILE = 99


def depth3_trees():
    """Every prefix-closed subtree of the full binary tree of depth 3."""

    def build(d):
        if d == 0:
            return [frozenset({()})]
        out = []
        for left in [None] + build(d - 1):
            for right in [None] + build(d - 1):
                nodes = {()}
                for bit, side in ((0, left), (1, right)):
                    if side is not None:
                        nodes |= {(bit,) + t for t in side}
                out.append(frozenset(nodes))
        return out

    return build(3)


def _after_play(T):
    def after(trace, args, seconds):
        T.count("games.plays")
        T.count("games.rounds", trace.rounds)
        T.count("games.effective", trace.reason == "effective")

    return after


def interpose(T):
    """Spans at the games module's calls into other layers and into its
    own formula builders, for the traced run only."""
    return [
        _interpose(T, games, "play_theorem1", "games.play", after=_after_play(T)),
        _interpose(T, games, "antecedent_formula", "games.formula"),
        _interpose(T, games, "consequent_formula", "games.formula"),
        _interpose(T, games, "check_witness", "checker.check", after=T.verdict),
        _interpose(T, games, "apply_implication", "combinators.apply", lazy=True),
        _interpose(T, games, "normalize_strict", "combinators.normalize"),
    ]


def _copier_job(tree, label):
    def run(T):
        # looked up at call time, so the traced run sees the span wrapper
        trace = games.play_theorem1(tree, WaitingCopier(), GenerousAdversary(), HORIZON)
        return trace.outcome

    return Job("copier", label, run, expect("accept"))


def _row_job(tree, label):
    def run(T):
        row = T.call("games.row", games.dichotomy_row, tree, HORIZON)
        return [(outcome, reason) for _, outcome, reason in row]

    def check(row):
        return len(row) == 6 and ("accept", "effective") not in row

    return Job("row", label, run, check)


def _chain_job(length, break_at):
    def run(T):
        r = T.call("games.prop3", games.prop3_duality, length, break_at)
        return r["accepted"], r["tautological"]

    honest = break_at is None
    name = f"{length}" if honest else f"{length}!{break_at}"
    return Job("chain", name, run, expect((honest, honest)))


def describe(jobs):
    sizes = {}
    for job in jobs:
        if job.kind == "copier":
            size = int(job.name.split("n:")[0])
            sizes[size] = sizes.get(size, 0) + 1
    return "trees per node-count stratum: " + " ".join(
        f"{k}:{v}" for k, v in sorted(sizes.items())
    )


def setup(seed, T, small, workdir):
    rng = random.Random(seed)
    strata = {}
    for nodes in depth3_trees():
        strata.setdefault(len(nodes), []).append(nodes)
    if len(strata) != 15 or sum(map(len, strata.values())) != 676:
        raise AssertionError("depth-3 enumeration changed")
    per = 1 if small else TREES_PER_STRATUM
    jobs = []
    for size in sorted(strata):
        if small and size not in (1, 5, 9):
            continue
        group = sorted(strata[size], key=sorted)
        for nodes in rng.sample(group, min(per, len(group))):
            tree = TreePresentation(nodes)
            label = f"{size}n:" + ",".join("".join(map(str, n)) or "e" for n in sorted(nodes))
            jobs.append(_copier_job(tree, label))
            jobs.append(_row_job(tree, label))
    lengths = range(2, 6) if small else CHAIN_LENGTHS
    for length in lengths:
        jobs.append(_chain_job(length, None))
        if length < lengths[-1]:
            jobs.append(_chain_job(length, rng.randrange(length)))
    rng.shuffle(jobs)
    return jobs
