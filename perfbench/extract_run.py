"""Workload ``extract_run``: extraction, realizers, synthesis, VM, CLI.

One pass holds, from the criteria 3, 4, 5, 6 and 9 material:

  * the 10-proof corpus through parse_proof_text, extract and
    check_realizability at the corpus budgets; expected: the statement
    on the file's first line, accepted_up_to;
  * MARKOV_JOBS seeded decidable predicates, evenly over the four
    forms of criterion 5, through decider_code and
    markov_realizer; expected: the least witness by brute force
    (oracles.least_satisfying);
  * the 25 sigma-0-3 fixtures climbing the budget ladder; expected: a
    true fixture synthesizes at some rung and is accepted there, a
    false one (oracles.holds says false) exhausts every rung;
  * MP_JOBS modus-ponens applications, each true fixture implying the
    next, with seeded lead lengths; expected accepted_up_to;
  * TI_JOBS seeded ti_realizer schedules; expected: a linear extension
    of the demand order (oracles.is_linear_extension);
  * the six criterion 9 pipelines through cli.main in-process; expected:
    exit status 0 and a report byte-identical to the first one this
    process saw;
  * direct vm.VM runs of doubling_program (once whole, once cut by its
    step budget) and of decider_code for 2*x=12, read item by item;
    expected: the items the program was built to emit.
"""

import contextlib
import io
import itertools
import random

from ctruth import cli, vm
from ctruth.checker import (
    Budget,
    Probe,
    SynthesisFailed,
    check_realizability,
    check_witness,
    synthesize_sigma03,
)
from ctruth.combinators import apply_implication
from ctruth.formula import parse
from ctruth.realizers import (
    decider_code,
    extract,
    markov_realizer,
    parse_proof_text,
    ti_realizer,
)
from ctruth.witness import IOPair, Numeral, Prefix, Selector, TRIVIAL, WitnessStream

from common import FIXTURES, Job, budget_lines, expect, read_fixture
from oracles import holds, is_linear_extension, least_satisfying

MARKOV_JOBS = 20
MP_JOBS = 20
TI_JOBS = 5
VM_ITEMS = 400
VM_STEPS = 400000
CUT_STEPS = 20000
DECIDER_C = 6
# job_tail_ms percentile: ten or more observations lie beyond it with
# 89 jobs a pass and twenty or more passes in 25 s
TAIL_PERCENTILE = 99


# -- proof corpus


def _corpus_job(T, name, b):
    text = read_fixture("proofs", f"{name}.prf")
    want = T.call("formula.parse", parse, text.splitlines()[0].strip())
    ante = FIXTURES / "proofs" / f"{name}_ante.fml"
    if ante.exists():
        af = T.call("formula.parse", parse, ante.read_text().strip())
        aw = WitnessStream.from_text(read_fixture("witnesses", f"{name}_ante.wit"))
    else:
        af = None

    def run(T):
        stmt, proof = T.call("realizers.extract", parse_proof_text, text)
        ext = T.call("realizers.extract", extract, proof)
        T.count("realizers.proofs")
        inputs, probes = None, ()
        if af is not None:
            inputs = {"0": aw.copy()}
            probes = (Probe(af, aw.copy(), trusted=True),)
        v = T.call("checker.check", check_realizability, stmt, ext.code, b,
                   inputs=inputs, probes=probes, after=T.verdict)
        return ext.formula, v.status

    return Job("corpus", name, run, expect((want, "accepted_up_to")))


# -- least-witness search


# (text, predicate, range of c): the four criterion 5 predicate forms
PREDICATES = (
    ("x={c}", lambda n, c: n == c, 0, 25),
    ("x<{c}", lambda n, c: n < c, 1, 20),
    ("2*x={c2}", lambda n, c: 2 * n == 2 * c, 0, 12),
    ("{c}<x", lambda n, c: c < n, 1, 15),
)


def spread(rng, lo, hi, k):
    """k seeded draws from [lo, hi), one from each of k equal slices, so
    that a pass costs about the same on every seed."""
    return [rng.randrange(lo + (hi - lo) * j // k, lo + (hi - lo) * (j + 1) // k)
            for j in range(k)]


def _markov_job(form, c):
    template, holds_at, _, _ = form
    text = template.format(c=c, c2=2 * c)
    pred = lambda n: holds_at(n, c)  # noqa: E731
    want = least_satisfying(pred, 40)

    def run(T):
        matrix = T.call("formula.parse", parse, text, free=("x",))

        def search():
            w = markov_realizer(decider_code(matrix, "x"), vm_steps=VM_STEPS)
            return [p for p in w.pull(4 * want + 48) if isinstance(p, IOPair) and p.outputs]

        pairs = T.call("realizers.markov", search)
        return pairs[0].outputs[0] if pairs else None

    return Job("markov", text, run, expect(Numeral(want)))


# -- sigma-0-3 ladder and modus ponens


def _rungs():
    return [Budget(int(p), int(n), int(s)) for _, p, n, s in budget_lines("sigma03", "ladder.txt")]


def _synth(T, f, b):
    def after(w, args, seconds):
        T.count("checker.synth_ok")

    return T.call("checker.synth", synthesize_sigma03, f, b, after=after)


def _ladder_job(path, truth, rungs):
    text = path.read_text().strip()

    def run(T):
        f = T.call("formula.parse", parse, text)
        for b in rungs:
            try:
                w = _synth(T, f, b)
            except SynthesisFailed:
                continue
            return T.call("checker.check", check_witness, w, f, b, after=T.verdict).status
        return "exhausted"

    return Job("ladder", path.name, run, expect("accepted_up_to" if truth else "exhausted"))


def _mp_job(rng, a_text, b_text, i):
    lead_len = 0 if i % 2 == 0 else rng.randint(1, 3)
    synth_b, judge = Budget(48, 3, 8000), Budget(64, 3, 6000)

    def run(T):
        fa = T.call("formula.parse", parse, a_text)
        fb = T.call("formula.parse", parse, b_text)
        wa, wb = _synth(T, fa, synth_b), _synth(T, fb, synth_b)
        lead = Prefix(wa.copy().pull(lead_len))
        items = [TRIVIAL] + [
            IOPair((lead,) + it.inputs, it.outputs)
            for it in wb.pull(synth_b.pull_limit)
            if isinstance(it, IOPair)
        ]
        out = T.stream("combinators.apply", apply_implication,
                       WitnessStream.from_items(items), wa.copy())
        return T.call("checker.check", check_witness, out, fb, judge, after=T.verdict).status

    return Job("mp", f"{a_text} => {b_text}", run, expect("accepted_up_to"))


# -- demand scheduling


class _Task:
    def __init__(self, needs, value, delay):
        self.needs, self.value, self.delay = needs, value, delay

    def demands(self, rounds, answered):
        if rounds >= self.delay and all(p in answered for p in self.needs):
            return ("answer", self.value)
        return ("need", tuple(self.needs))


def _ti_job(rng, k, n):
    preds = {node: [p for p in range(node) if rng.random() < 0.04] for node in range(n)}
    perm = list(range(n))
    rng.shuffle(perm)
    task_of = {node: idx for idx, node in enumerate(perm)}
    tasks = [_Task([task_of[p] for p in preds[node]], node, rng.randrange(3)) for node in perm]

    def run(T):
        got = T.call("realizers.ti", lambda: ti_realizer(tasks).pull(8 * n))
        return [perm[p.inputs[0].value] for p in got if isinstance(p, IOPair)]

    def check(order):
        return is_linear_extension(order, lambda a, b: a in preds[b], list(range(n)))

    return Job("ti", f"schedule{k}:{n}", run, check)


# -- CLI pipelines


def _cli_jobs(workdir):
    fx = lambda *p: str(FIXTURES.joinpath(*p))  # noqa: E731
    pipelines = {
        "check": ["check", "--formula", fx("formulas", "doubling.fml"),
                  "--witness", fx("witnesses", "doubling.wit"),
                  "--numerals", "5", "--pulls", "1000"],
        "thm1": ["game", "theorem1", "--tree", fx("trees", "full_depth2.tree"),
                 "--horizon", "400", "--seed", "7"],
        "prop3": ["game", "prop3", "--length", "4", "--break-at", "2", "--seed", "7"],
        "pi11": ["game", "pi11", "--tree", fx("trees", "two_leaves.tree"), "--seed", "7"],
        "narrow": ["game", "narrow", "--machine", "echo",
                   "--script", fx("scripts", "echo_pairs.script"), "--seed", "7"],
        "extract": ["extract", "--proof", fx("proofs", "succ_total.prf")],
    }
    jobs = []
    for name, argv in pipelines.items():
        report = workdir / f"{name}.txt"
        first = []  # the first report this process saw

        def run(T, argv=argv + ["--report", str(report)], report=report):
            report.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = T.call("cli.main", cli.main, argv)
            blob = report.read_bytes()
            T.count("cli.report_bytes", len(blob))
            return code, blob

        def check(outcome, first=first):
            code, blob = outcome
            if not first:
                first.append(blob)
            return code == 0 and blob != b"" and blob == first[0]

        jobs.append(Job("cli", name, run, check))
    return jobs


# -- the machine itself


def _vm_job(name, program, want, steps, cut=False):
    """Drive vm.VM directly and read its step count.  A run meant to be
    cut by its step budget reads every item; its items must be a proper
    prefix of `want`.  Any other run reads exactly len(want) items."""

    def run(T):
        def drive():
            m = vm.VM(program, {}, steps)
            got = list(itertools.islice(m.items(), None if cut else len(want)))
            return got, m.steps

        got, used = T.call("vm.run", drive)
        T.count("vm.steps", min(used, steps))
        T.count("vm.items", len(got))
        T.count("vm.cut_runs", used > steps)
        return got, used > steps

    def check(outcome):
        got, was_cut = outcome
        if cut:
            return was_cut and 0 < len(got) < len(want) and got == want[: len(got)]
        return got == want

    return Job("vm", name, run, check)


def _doubling_items(n):
    return [TRIVIAL] + [IOPair((Numeral(k),), (Numeral(2 * k),)) for k in range(n - 1)]


def setup(seed, T, small, workdir):
    rng = random.Random(seed)
    scale = 4 if small else 1
    jobs = [_corpus_job(T, name, Budget(int(p), int(n), int(s)))
            for name, p, n, s in budget_lines("proofs", "budgets.txt")]
    if len(jobs) != 10:
        raise AssertionError("the proof corpus has changed")

    per_form = max(1, MARKOV_JOBS // scale // len(PREDICATES))
    for form in PREDICATES:
        jobs += [_markov_job(form, c) for c in spread(rng, form[2], form[3], per_form)]

    rungs = _rungs()
    pool = []
    for truth, folder in ((True, "true"), (False, "false")):
        paths = sorted((FIXTURES / "sigma03" / folder).glob("*.fml"))
        for path in paths if not small else paths[:3]:
            if not truth:
                f = T.call("formula.parse", parse, path.read_text().strip())
                if holds(f, {}, range(30)):
                    raise AssertionError(f"oracle says {path.name} is true")
            jobs.append(_ladder_job(path, truth, rungs))
        if truth:
            pool = [p.read_text().strip() for p in paths]

    # each true fixture implies the next, so the pairs (and what they
    # cost) are the same on every seed; the seed draws the lead lengths
    jobs += [_mp_job(rng, pool[i], pool[(i + 1) % len(pool)], i)
             for i in range(MP_JOBS // scale)]
    jobs += [_ti_job(rng, k, n) for k, n in enumerate(spread(rng, 60, 101, TI_JOBS // scale or 1))]
    jobs += _cli_jobs(workdir)

    n = VM_ITEMS // scale
    jobs.append(_vm_job("doubling", vm.doubling_program(), _doubling_items(n), VM_STEPS))
    jobs.append(_vm_job("doubling-cut", vm.doubling_program(), _doubling_items(n),
                        CUT_STEPS // scale, cut=True))
    # a fixed constant: the program's cost grows with it
    c = DECIDER_C
    text = f"2*x={2 * c}"
    decider = decider_code(parse(text, free=("x",)), "x")
    want = [TRIVIAL] + [
        IOPair((Numeral(k),), (Selector(0 if k == c else 1),)) for k in range(n - 1)
    ]
    jobs.append(_vm_job(f"decider:{text}", decider, want, VM_STEPS))
    rng.shuffle(jobs)
    return jobs
