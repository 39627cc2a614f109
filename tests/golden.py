"""A fixed corpus of verdict and report lines, pinned in
fixtures/golden/verdicts.txt.

Each line is `<case>: <result>`, the result being a verdict line, a
game outcome with its verdict lines, a rendered formula or a CLI report.
A case that raises is recorded as `ERROR <type>: <message>`.  Every
choice the corpus makes is seeded, so the lines are the same on every
run; tests/test_golden.py compares them with the pinned file.

Regenerate the pinned file, after checking that a change in it is meant:

    PYTHONPATH=src python tests/golden.py > fixtures/golden/verdicts.txt
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ctruth import vm  # noqa: E402
from ctruth.checker import Budget, Probe, check_witness  # noqa: E402
from ctruth.cli import main  # noqa: E402
from ctruth.formula import parse, print_formula  # noqa: E402
from ctruth.games import (  # noqa: E402
    DesignatedBranchAdversary,
    GenerousAdversary,
    WaitingCopier,
    defender_library,
    play_theorem1,
    prop3_duality,
    subtrees_of_depth,
)
from ctruth.witness import (  # noqa: E402
    IOPair,
    Numeral,
    Prefix,
    TRIVIAL,
    WitnessStream,
    semantic_content,
    serialize_item,
    serialize_items,
)

from oracles import all_tables, render_table, table_correct  # noqa: E402
from test_acceptance import _FAMILY, _rep_commands  # noqa: E402

PINNED = Path(__file__).parent.parent / "fixtures" / "golden" / "verdicts.txt"
SEED = 20261019


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # every fault is a line of the corpus
        return f"ERROR {type(e).__name__}: {e}"


def _verdict(items, f, budget, probes=()):
    return _outcome(lambda: check_witness(WitnessStream.from_items(items), f, budget, probes).line())


# ---------------------------------------------------------------------------
# criterion 2 tables: every correct one and a sample of the wrong ones,
# each whole, with one pair dropped and shuffled

WRONG_PER_FORMULA = 16


def _tables(rng):
    domain = list(range(4))
    budget = Budget(64, 3, 4000)
    for text in _FAMILY:
        f = parse(text)
        tables = all_tables(f, domain, list(range(7)))
        right = [k for k, t in enumerate(tables) if table_correct(f, t, domain)]
        wrong = [k for k in range(len(tables)) if k not in set(right)]
        picked = right + sorted(rng.sample(wrong, min(WRONG_PER_FORMULA, len(wrong))))
        for k in picked:
            items = render_table(f, tables[k], domain)
            variants = [("whole", items)]
            if len(items) > 1:
                dropped = list(items)
                del dropped[rng.randrange(len(items))]
                shuffled = list(items)
                rng.shuffle(shuffled)
                variants += [("dropped", dropped), ("shuffled", shuffled)]
            for name, its in variants:
                yield f"c2 {text} #{k} {name}: {_verdict(its, f, budget)}"


# ---------------------------------------------------------------------------
# long streams with late faults

LONG = {
    "A x. E y. y=x+1": lambda x: (x + 1,),
    "A x. E y. y=2*x": lambda x: (2 * x,),
    "A x. E y. (x=2*y \\/ x=2*y+1)": lambda x: (x // 2, x % 2),
}
LONG_N = 300


def _long(rng):
    n = LONG_N
    budget = Budget(n + 1, n - 1, 4000)
    for text, outs in LONG.items():
        f = parse(text)
        base = [TRIVIAL] + [
            IOPair((Numeral(x),), tuple(Numeral(v) for v in outs(x))) for x in range(n)
        ]
        k = rng.randrange(n - 3, n)
        bad = IOPair((Numeral(k),), (Numeral(outs(k)[0] + 1),) + base[k + 1].outputs[1:])
        cases = {
            "accepted": base,
            "wrong": base[: k + 1] + [bad] + base[k + 2 :],
            "duplicate": base[: k + 2] + [bad] + base[k + 2 :],
            "missing": base[: k + 1] + base[k + 2 :],
        }
        for name, items in cases.items():
            yield f"long {text} n={n} k={k} {name}: {_verdict(items, f, budget)}"


# ---------------------------------------------------------------------------
# implications: transformer streams judged with and without probes

_IMPLICATIONS = [
    ("(A x. E y. y=x+1) -> A x. E y. y=x+2", "(:) (0:1) (1:2) (2:3) (3:4)",
     lambda x: x + 2, 1),
    ("(E x. x=5) -> E x. x=9", "(:5)", lambda x: 9, 0),
    ("A n. ((E x. x=n) -> E y. y=n+1)", None, lambda n: n + 1, 1),
]


def _implications(rng):
    budget = Budget(32, 3, 1000)
    for text, ante_text, answer, n_inputs in _IMPLICATIONS:
        f = parse(text)
        for case in range(12):
            if ante_text is None:
                # a prefix under a binder: the antecedent depends on n
                antes = [WitnessStream.from_text(f"(:{n}) (:{n})") for n in range(4)]
                probes = tuple(
                    Probe(parse(f"E x. x={n}"), a.copy(), trusted=case % 2 == 0)
                    for n, a in enumerate(antes) if n != case % 5
                )
                items = [TRIVIAL]
                for n, a in enumerate(antes):
                    for _ in range(rng.randrange(3)):
                        y = answer(n) + (rng.random() < 0.1)
                        items.append(IOPair((Numeral(n), Prefix(a.pull(rng.randrange(3)))),
                                            (Numeral(y),)))
            else:
                ante = WitnessStream.from_text(ante_text)
                avail = len(ante.pull(99))
                leads = [Prefix(ante.pull(m)) for m in range(avail + 1)]
                probes = ()
                if case % 3:
                    probes = (Probe(f.left, ante.copy(), trusted=case % 3 == 1),)
                items = [TRIVIAL]
                for _ in range(rng.randrange(1, 7)):
                    lead = rng.choice(leads)
                    x = rng.randrange(4)
                    y = answer(x) + (rng.random() < 0.15)
                    ins = (lead, Numeral(x)) if n_inputs else (lead,)
                    items.append(IOPair(ins, (Numeral(y),)))
            label = serialize_items(items) + "".join(
                f" probe={print_formula(p.formula)}{'' if p.trusted else '?'}" for p in probes
            )
            yield f"impl {text} {label}: {_verdict(items, f, budget, probes)}"


_CONTENTS = [
    ("A x. ((E y. y=x) -> E z. z=x+1)", '(2,"(:2) _ (:2)":3)'),
    ("A x. ((E y. y=x) -> E z. z=x+1)", '(1,"":)'),
    ("(E x. x=1) -> (E x. x=1) -> E y. y=3", '("(:1)","(:1) _":3)'),
    ("((E x. x=1) -> E y. y=2) -> A z. E w. w=z+1", '("(:) (\\"(:1)\\":2)",4:5)'),
    ("((A u. E x. x=u) -> E y. y=2) -> E w. w=1", '("(:) (\\"(:) (0:0) (1:1)\\":2)":1)'),
    ("(A x. E y. y=x+1) -> (A x. E y. y=x+2)", '("(2:3) (3:4)",2:4)'),
]


def _contents():
    for text, pair in _CONTENTS:
        f = parse(text)
        (p,) = WitnessStream.from_text(pair).pull(1)
        got = _outcome(lambda: print_formula(semantic_content(f, p)))
        yield f"content {text} {pair}: {got}"


# ---------------------------------------------------------------------------
# box witnesses: a code is decoded, run and its stream judged


def _emitter(*pairs):
    emits = " ".join(f"(emit {vm.encode_item(p)})" for p in pairs)
    return vm.godel_encode(f"(prog (seq {emits}))")


_PROGRAMS = {
    "valid": _emitter(IOPair((), (Numeral(1),))),
    "wrong": _emitter(IOPair((), (Numeral(2),))),
    "silent": vm.godel_encode("(prog (seq))"),
    "zero": 0,
    "not-text": 255,
    "not-a-program": vm.godel_encode("(prog"),
    "fails": vm.godel_encode("(prog (seq (emit 1) (frob 2)))"),
    "cut-before-failing": vm.godel_encode(
        "(prog (seq (emit 1) (set n 0) (while (< n 1000) (set n (+ n 1))) (frob 2)))"
    ),
    "fails-late": vm.godel_encode(
        f"(prog (seq (emit {vm.encode_item(IOPair((), (Numeral(1),)))}) (frob 2)))"
    ),
}


def _boxes():
    f = parse("box E x. x=1")
    for name, code in _PROGRAMS.items():
        for steps in (100, 10000):
            items = [IOPair((), (Numeral(code),))]
            yield f"box {name} steps={steps}: {_verdict(items, f, Budget(8, 3, steps))}"
    f = parse("A x. box E y. y=x")
    items = [TRIVIAL] + [
        IOPair((Numeral(x),), (Numeral(_emitter(IOPair((), (Numeral(x + (x == 2)),)))),))
        for x in range(4)
    ]
    yield f"box A x. box E y. y=x: {_verdict(items, f, Budget(8, 3, 1000))}"
    nested = parse("box box E x. x=1")
    inner = vm.encode_item(IOPair((), (Numeral(_PROGRAMS["fails"]),)))
    code = vm.godel_encode(f"(prog (seq (emit {inner})))")
    yield f"box nested fails: {_verdict([IOPair((), (Numeral(code),))], nested, Budget(8, 3, 1000))}"


# ---------------------------------------------------------------------------
# games: copier against the generous adversary, the defender row, and
# implication chains

TREES = 20


def _game(trace):
    return f"{trace.outcome} {trace.reason} rounds={trace.rounds} " + " | ".join(trace.verdicts)


def _games(rng):
    trees = subtrees_of_depth(3)
    for t in sorted(rng.sample(range(len(trees)), TREES)):
        tree = trees[t]
        label = f"tree #{t} nodes={len(tree.nodes)}"
        got = _outcome(lambda: _game(play_theorem1(tree, WaitingCopier(), GenerousAdversary())))
        yield f"game {label} copier-generous: {got}"
        for d in defender_library():
            got = _outcome(lambda: _game(play_theorem1(tree, d, DesignatedBranchAdversary())))
            yield f"game {label} {type(d).__name__}: {got}"
    for length in range(2, 20):
        for break_at in (None, length // 2):
            r = prop3_duality(length, break_at=break_at)
            yield (f"prop3 length={length} broken_at={break_at}: {r['verdict']}"
                   f" accepted={r['accepted']} tautological={r['tautological']}"
                   f" atoms={r['atoms']}")


# ---------------------------------------------------------------------------
# criterion 9 CLI reports, and check on box witnesses


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit={code} " + " | ".join(out.getvalue().splitlines())


def _clis():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv, _ in _rep_commands(tmp, 0):
            argv = argv[: argv.index("--report")]
            name = " ".join(argv[:2]) if argv[0] == "game" else argv[0]
            yield f"cli {name}: {_cli(argv)}"
        fml = tmp / "box.fml"
        fml.write_text("box E x. x=1\n")
        for name in ("valid", "fails", "cut-before-failing"):
            wit = tmp / f"{name}.wit"
            wit.write_text(serialize_item(IOPair((), (Numeral(_PROGRAMS[name]),))) + "\n")
            argv = ["check", "--formula", str(fml), "--witness", str(wit), "--vm-steps", "200"]
            yield f"cli check box {name}: {_cli(argv)}"


def lines():
    rng = random.Random(SEED)
    yield from _tables(rng)
    yield from _long(rng)
    yield from _implications(rng)
    yield from _contents()
    yield from _boxes()
    yield from _games(rng)
    yield from _clis()


if __name__ == "__main__":
    for line in lines():
        print(line)
