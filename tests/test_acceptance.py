"""Acceptance suite: one test per criterion, one PASS line each.

Expected values marked as derived come from tests/oracles.py, which
was written first; the checks here compare the package against those
reference implementations rather than against itself.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from ctruth.checker import (
    Budget,
    Probe,
    SynthesisFailed,
    check_realizability,
    check_witness,
    synthesize_sigma03,
)
from ctruth.cli import main
from ctruth.combinators import apply_implication
from ctruth.formula import parse
from ctruth.games import (
    GenerousAdversary,
    WaitingCopier,
    dichotomy_row,
    play_theorem1,
    prop3_duality,
    subtrees_of_depth,
)
from ctruth.realizers import (
    decider_code,
    extract,
    markov_realizer,
    parse_proof_text,
    ti_realizer,
)
from ctruth.witness import (
    IOPair,
    Numeral,
    Prefix,
    TRIVIAL,
    WitnessStream,
    pair_complete,
    semantic_content,
    shape_check,
)

from conftest import FIXTURES, run_capped
from oracles import (
    all_tables,
    holds,
    is_linear_extension,
    is_tautology,
    least_satisfying,
    render_table,
    table_correct,
)


def _read(*parts):
    return FIXTURES.joinpath(*parts).read_text()


# ---------------------------------------------------------------------------
# 1. paper-literal fixtures


def test_criterion_1_paper_literals():
    t0 = time.monotonic()
    doubling = parse("A x. E y. y=2*x")
    w = WitnessStream.from_text(_read("witnesses", "doubling.wit"))
    v = check_witness(w, doubling, Budget(1000, 8, 4000))
    assert v.status == "accepted_up_to"
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    parity = parse("A x. E y. (x=2*y \\/ x=2*y+1)")
    (pair,) = WitnessStream.from_text(_read("witnesses", "parity_25.wit")).pull(1)
    shaped = shape_check(parity, pair)
    assert pair_complete(parity, shaped)
    assert holds(semantic_content(parity, shaped), {}, range(30))
    # the lone pair is never rejected, and a covering stream holding it
    # is accepted outright
    lone = check_witness(WitnessStream.from_items([pair]), parity, Budget(8, 1, 1000))
    assert lone.status != "rejected"
    full = WitnessStream.from_text(_read("witnesses", "parity_full.wit"))
    v = check_witness(full, parity, Budget(16, 8, 4000))
    assert v.status == "accepted_up_to"
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    impl = parse("(A x. E y. y=x+1) -> (A x. E y. y=x+2)")
    lead = Prefix(tuple(WitnessStream.from_text("(2:3) (3:4)").pull(2)))
    got = semantic_content(impl, IOPair((lead, Numeral(2)), (Numeral(4),)))
    want = parse("((A x. E y. y=x+1) /\\ 3=2+1 /\\ 4=3+1) -> 4=2+2")
    assert got == want
    assert time.monotonic() - t0 < 1.0
    print("PASS criterion 1: paper literals reproduced, each under 1s")


# ---------------------------------------------------------------------------
# 2. oracle equivalence over all witness tables


_FAMILY = [
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


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    domain = list(range(4))
    out_range = list(range(7))
    budget = Budget(64, 3, 4000)
    tables_seen = 0
    disagreements = []
    for text in _FAMILY:
        f = parse(text)
        for table in all_tables(f, domain, out_range):
            tables_seen += 1
            want = table_correct(f, table, domain)
            items = render_table(f, table, domain)
            got = (
                check_witness(WitnessStream.from_items(items), f, budget).status
                == "accepted_up_to"
            )
            if want != got:
                disagreements.append((text, table, want, got))
    elapsed = time.monotonic() - t0
    assert not disagreements, disagreements[:3]
    assert elapsed < 300
    print(
        f"PASS criterion 2: {len(_FAMILY)} formulas, {tables_seen} witness"
        f" tables, zero disagreements in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 3. sigma-0-3 closure


def _ladder():
    rungs = []
    for line in _read("sigma03", "ladder.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        _, pulls, numerals, steps = line.split()
        rungs.append(Budget(int(pulls), int(numerals), int(steps)))
    return rungs


def test_criterion_3_sigma03_closure():
    rungs = _ladder()
    assert len(rungs) >= 3
    true_dir = sorted((FIXTURES / "sigma03" / "true").glob("*.fml"))
    false_dir = sorted((FIXTURES / "sigma03" / "false").glob("*.fml"))
    assert len(true_dir) == 20 and len(false_dir) == 5

    for path in true_dir:
        f = parse(path.read_text().strip())
        for budget in rungs:
            try:
                w = synthesize_sigma03(f, budget)
            except SynthesisFailed:
                continue
            v = check_witness(w, f, budget)
            assert v.status == "accepted_up_to", path.name
            break
        else:
            pytest.fail(f"no rung synthesizes {path.name}")

    for path in false_dir:
        f = parse(path.read_text().strip())
        assert not holds(f, {}, range(30)), path.name  # oracle agrees: false
        for budget in rungs:
            with pytest.raises(SynthesisFailed):
                synthesize_sigma03(f, budget)
    print("PASS criterion 3: 20 true fixtures synthesize and check;"
          " 5 false fixtures exhaust the documented 3-rung ladder")


# ---------------------------------------------------------------------------
# 4. modus ponens closure


def _transformer(consequent_items, lead):
    items = [TRIVIAL]
    for it in consequent_items:
        if isinstance(it, IOPair):
            items.append(IOPair((lead,) + it.inputs, it.outputs))
    return WitnessStream.from_items(items)


def test_criterion_4_modus_ponens():
    pool = [
        p.read_text().strip()
        for p in sorted((FIXTURES / "sigma03" / "true").glob("*.fml"))
    ]
    rng = random.Random(20260814)
    synth = Budget(48, 3, 8000)
    judge = Budget(64, 3, 6000)
    failures = []
    for i in range(100):
        a_text, b_text = rng.choice(pool), rng.choice(pool)
        fa, fb = parse(a_text), parse(b_text)
        wa = synthesize_sigma03(fa, synth)
        wb = synthesize_sigma03(fb, synth)
        if i % 2 == 0:
            lead = Prefix(())
        else:
            lead = Prefix(tuple(wa.copy().pull(rng.randint(1, 3))))
        t = _transformer(wb.pull(synth.pull_limit), lead)
        out = apply_implication(t, wa.copy())
        v = check_witness(out, fb, judge)
        if v.status != "accepted_up_to":
            failures.append((i, a_text, b_text, v.line()))
    assert not failures, failures[:3]
    print("PASS criterion 4: 100 sampled implication applications"
          " all accepted for the consequent")


# ---------------------------------------------------------------------------
# 5. extraction soundness


def _corpus_budgets():
    out = []
    for line in _read("proofs", "budgets.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, pulls, numerals, steps = line.split()
        out.append((name, Budget(int(pulls), int(numerals), int(steps))))
    return out


def test_criterion_5_extraction_soundness():
    corpus = _corpus_budgets()
    assert len(corpus) == 10
    for name, budget in corpus:
        stmt, proof = parse_proof_text(_read("proofs", f"{name}.prf"))
        ext = extract(proof)
        assert ext.formula == stmt, name
        assert ext.code is not None, name
        ante = FIXTURES / "proofs" / f"{name}_ante.fml"
        inputs, probes = None, ()
        if ante.exists():
            af = parse(ante.read_text().strip())
            aw = WitnessStream.from_text(
                _read("witnesses", f"{name}_ante.wit")
            )
            inputs = {"0": aw.copy()}
            probes = (Probe(af, aw.copy(), trusted=True),)
        v = check_realizability(stmt, ext.code, budget, inputs=inputs, probes=probes)
        assert v.status == "accepted_up_to", (name, v.line())

    rng = random.Random(1717)
    checked = 0
    while checked < 50:
        kind = rng.randrange(4)
        if kind == 0:
            c = rng.randrange(25)
            text, pred = f"x={c}", (lambda n, c=c: n == c)
        elif kind == 1:
            c = rng.randrange(1, 20)
            text, pred = f"x<{c}", (lambda n, c=c: n < c)
        elif kind == 2:
            c = rng.randrange(12)
            text, pred = f"2*x={2 * c}", (lambda n, c=c: 2 * n == 2 * c)
        else:
            c = rng.randrange(1, 15)
            text, pred = f"{c}<x", (lambda n, c=c: c < n)
        want = least_satisfying(pred, 40)
        assert want is not None
        code = decider_code(parse(text, free=("x",)), "x")
        w = markov_realizer(code, vm_steps=400000)
        pairs = [
            p for p in w.pull(4 * want + 48) if isinstance(p, IOPair) and p.outputs
        ]
        assert pairs, text
        assert pairs[0].outputs[0] == Numeral(want), (text, want)
        checked += 1
    print("PASS criterion 5: 10-proof corpus realizable at corpus budgets;"
          " Markov realizer minimal on 50 random decidable predicates")


# ---------------------------------------------------------------------------
# 6. scheduler linearizes demand orders


class _Task:
    def __init__(self, needs, value, delay):
        self.needs = needs
        self.value = value
        self.delay = delay

    def demands(self, rounds, answered):
        if rounds >= self.delay and all(p in answered for p in self.needs):
            return ("answer", self.value)
        return ("need", tuple(self.needs))


def test_criterion_6_scheduler():
    t0 = time.monotonic()
    for schedule in range(20):
        rng = random.Random(9000 + schedule)
        n = rng.randint(60, 100)
        preds = {
            node: [p for p in range(node) if rng.random() < 0.04]
            for node in range(n)
        }
        perm = list(range(n))
        rng.shuffle(perm)
        task_of = {node: idx for idx, node in enumerate(perm)}
        tasks = [
            _Task([task_of[p] for p in preds[node]], node, rng.randrange(3))
            for node in perm
        ]
        pairs = [p for p in ti_realizer(tasks).pull(8 * n) if isinstance(p, IOPair)]
        order = [perm[p.inputs[0].value] for p in pairs]
        assert sorted(order) == list(range(n)), f"schedule {schedule}"
        assert is_linear_extension(
            order, lambda a, b: a in preds[b], list(range(n))
        ), f"schedule {schedule}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 6: 20 randomized schedules over orders of 60..100"
          f" nodes all answered in linear-extension order ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. dichotomy at desk scale


def test_criterion_7_dichotomy():
    trees = subtrees_of_depth(3)
    assert len(trees) == 676
    assert max(len(t.nodes) for t in trees) == 15

    for t in trees:
        trace = play_theorem1(t, WaitingCopier(), GenerousAdversary(), horizon=10000)
        assert trace.outcome == "accept", t.nodes

    for t in trees:
        for name, outcome, reason in dichotomy_row(t, horizon=10000):
            assert not (outcome == "accept" and reason == "effective"), (
                name,
                t.nodes,
            )
    print("PASS criterion 7: copier accepted on all 676 presentations;"
          " no defender beats the designated branch at horizon 10^4")


_DEPTH5_PLAY = """
from itertools import product
from ctruth.games import GenerousAdversary, TreePresentation, WaitingCopier, dichotomy_row, play_theorem1
tree = TreePresentation.from_sequences(product((0, 1), repeat=5))
trace = play_theorem1(tree, WaitingCopier(), GenerousAdversary(), horizon=10000)
print(trace.outcome, trace.reason, trace.rounds)
print(*trace.verdicts, sep="\\n")
for name, outcome, reason in dichotomy_row(tree, horizon=10000):
    print(name, outcome, reason)
"""


def test_criterion_7_on_the_full_depth5_tree():
    # 63 nodes and a 3,390-disjunct incomparability table: the coverage
    # walk follows each selector run in a loop, so a fresh interpreter
    # plays it at the default recursion limit
    done = run_capped(_DEPTH5_PLAY)
    assert done.stdout.splitlines() == [
        "accept effective 31",
        "VERDICT accepted_up_to pulls=64 numerals=2",
        "VERDICT accepted_up_to pulls=64 numerals=2",
        "WaitingCopier accept vacuous",
        "DelayedCopier accept vacuous",
        "SilentDefender accept vacuous",
        "EagerCommitter defeat rejected",
        "TableGuesser defeat rejected",
        "CopierWithGuess defeat rejected",
    ], done.stderr
    print("PASS criterion 7 at depth 5: copier accepted effective in 31 rounds")


# ---------------------------------------------------------------------------
# 8. proposition-3 duality


def test_criterion_8_prop3_duality():
    for length in range(2, 20):
        r = prop3_duality(length)
        assert r["atoms"] <= 20
        assert r["accepted"] and r["tautological"], length
        if r["atoms"] <= 14:
            assert is_tautology(r["combination"]), length  # full truth table

    for length in range(2, 19):
        break_at = length // 2 if length <= 14 else length - 2
        r = prop3_duality(length, break_at=break_at)
        assert r["atoms"] <= 20
        assert not r["accepted"] and not r["tautological"], length
        # early-exit truth table exhibits the falsifying row
        assert not is_tautology(r["combination"]), length
    print("PASS criterion 8: honest chains tautological, broken chains"
          " truth-table falsified, lengths 2..19 within 20 atoms")


# ---------------------------------------------------------------------------
# 9. CLI determinism


def _rep_commands(tmp, rep):
    fx = lambda *p: str(FIXTURES.joinpath(*p))
    rpt = lambda name: str(tmp / f"rep{rep}_{name}.txt")
    return [
        (
            ["check", "--formula", fx("formulas", "doubling.fml"),
             "--witness", fx("witnesses", "doubling.wit"),
             "--numerals", "5", "--pulls", "1000", "--report", rpt("check")],
            rpt("check"),
        ),
        (
            ["game", "theorem1", "--tree", fx("trees", "full_depth2.tree"),
             "--horizon", "400", "--seed", "7", "--report", rpt("thm1")],
            rpt("thm1"),
        ),
        (
            ["game", "prop3", "--length", "4", "--break-at", "2",
             "--seed", "7", "--report", rpt("prop3")],
            rpt("prop3"),
        ),
        (
            ["game", "pi11", "--tree", fx("trees", "two_leaves.tree"),
             "--seed", "7", "--report", rpt("pi11")],
            rpt("pi11"),
        ),
        (
            ["game", "narrow", "--machine", "echo",
             "--script", fx("scripts", "echo_pairs.script"),
             "--seed", "7", "--report", rpt("narrow")],
            rpt("narrow"),
        ),
        (
            ["extract", "--proof", fx("proofs", "succ_total.prf"),
             "--report", rpt("extract")],
            rpt("extract"),
        ),
    ]


def test_criterion_9_cli_determinism(tmp_path, capsys):
    reps = []
    for rep in range(3):
        blob, codes = b"", []
        for argv, rpt in _rep_commands(tmp_path, rep):
            codes.append(main(argv))
            capsys.readouterr()
            blob += Path(rpt).read_bytes()
        reps.append((codes, blob))
    assert reps[0] == reps[1] == reps[2]
    print("PASS criterion 9: six CLI pipelines byte-identical across"
          " 3 repetitions, game traces included")
