"""Command-line front end over file-based fixtures.

One command per process.  Every pipeline is deterministic, so a rerun
with the same configuration (seed included) writes a byte-identical
report; reports are plain lines, appended to the --report path when one
is given and echoed to standard output.

Exit codes: 0 for accepted or otherwise successful outcomes, 1 for
rejections, adversary wins and every other negative outcome (pending
included), 2 for usage and file errors.
"""

import argparse
import sys
from pathlib import Path

from . import games, vm
from .checker import (
    Budget,
    Probe,
    SynthesisFailed,
    check_realizability,
    check_witness,
    synthesize_sigma03,
)
from .combinators import apply_implication, project_forall
from .formula import Forall, ParseError, UnboundVariable, parse, print_formula
from .realizers import ExtractionError, ProofError, extract, parse_proof_text
from .witness import ShapeMismatch, WitnessStream, WitnessTextError, serialize_items


class UsageError(Exception):
    """Bad flags or unreadable files; exits with status 2."""


DEFENDERS = {
    "copier": games.WaitingCopier,
    "delayed": games.DelayedCopier,
    "silent": games.SilentDefender,
    "eager": games.EagerCommitter,
    "guesser": games.TableGuesser,
    "copier-guess": games.CopierWithGuess,
}

ADVERSARIES = {
    "generous": games.GenerousAdversary,
    "designated": games.DesignatedBranchAdversary,
}

MACHINES = {
    "echo": games.NarrowEcho,
    "moody": games.MoodyCounter,
}

_PARSE_ERRORS = (
    ParseError,
    UnboundVariable,
    WitnessTextError,
    ProofError,
    ExtractionError,
    ShapeMismatch,
    vm.VMError,
    ValueError,
    RecursionError,  # deeply nested input, such as deeply nested parentheses
)


def _read(ns, role: str) -> str:
    raw = getattr(ns, role)
    if not raw:
        raise UsageError(f"--{role.replace('_', '-')} is required for {ns.command}")
    path = Path(raw)
    try:
        return path.read_text()
    except OSError:
        raise UsageError(f"cannot read file: {path}")


def _load_formula(ns, role):
    return parse(_read(ns, role).strip())


def _load_witness(ns, role):
    return WitnessStream.from_text(_read(ns, role))


def _load_code(ns, role):
    return vm.program(_read(ns, role).strip())


def _load_tree(ns, role):
    seqs = []
    for line in _read(ns, role).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line == "e":
            continue
        seqs.append(tuple(int(tok) for tok in line.replace(",", " ").split()))
    return games.TreePresentation.from_sequences(seqs)


def _probes(ns):
    """Optional antecedent evidence: a formula/witness fixture pair."""
    if not (ns.ante_formula or ns.ante_witness):
        return None, ()
    af = _load_formula(ns, "ante_formula")
    aw = _load_witness(ns, "ante_witness")
    return {"0": aw}, (Probe(af, aw),)


def _items_line(label, stream, pulls):
    return f"{label} {serialize_items(stream.pull(pulls))}"


# ---------------------------------------------------------------------------
# command pipelines


def _cmd_parse(ns, budget, out):
    shown = 0
    if ns.formula:
        out.append(f"FORMULA {print_formula(_load_formula(ns, 'formula'))}")
        shown += 1
    if ns.witness:
        out.append(_items_line("WITNESS", _load_witness(ns, "witness"), budget.pull_limit))
        shown += 1
    if ns.proof:
        claimed, _ = parse_proof_text(_read(ns, "proof"))
        out.append(f"THEOREM {print_formula(claimed)}")
        shown += 1
    if ns.code:
        out.append(f"CODE {_load_code(ns, 'code').text()}")
        shown += 1
    if not shown:
        raise UsageError("parse wants --formula, --witness, --proof or --code")
    return 0


def _cmd_check(ns, budget, out):
    f = _load_formula(ns, "formula")
    w = _load_witness(ns, "witness")
    _, probes = _probes(ns)
    v = check_witness(w, f, budget, probes)
    out.append(v.line())
    return 0 if v.status == "accepted_up_to" else 1


def _cmd_synthesize(ns, budget, out):
    f = _load_formula(ns, "formula")
    try:
        w = synthesize_sigma03(f, budget)
    except SynthesisFailed as e:
        out.append(f"SYNTHESIS exhausted {e}")
        return 1
    text = serialize_items(w.pull(budget.pull_limit))
    out.append(f"WITNESS {text}")
    v = check_witness(w, f, budget)
    out.append(v.line())
    if ns.out:
        Path(ns.out).write_text(text + "\n")
    return 0 if v.status == "accepted_up_to" else 1


def _cmd_extract(ns, budget, out):
    claimed, proof = parse_proof_text(_read(ns, "proof"))
    ext = extract(proof)
    out.append(f"THEOREM {print_formula(claimed)}")
    if ext.code is None:
        out.append("CODE none")
        return 1
    out.append(f"CODE {ext.code.text()}")
    if ns.out:
        Path(ns.out).write_text(ext.code.text() + "\n")
    return 0


def _cmd_apply(ns, budget, out):
    w = _load_witness(ns, "witness")
    x = _load_witness(ns, "to")
    result = apply_implication(w, x)
    out.append(_items_line("ITEMS", result, budget.pull_limit))
    if ns.formula:
        v = check_witness(result, _load_formula(ns, "formula"), budget)
        out.append(v.line())
        return 0 if v.status == "accepted_up_to" else 1
    return 0


def _cmd_project(ns, budget, out):
    w = _load_witness(ns, "witness")
    f = _load_formula(ns, "formula")
    if ns.at < 0:
        raise UsageError("project wants a nonnegative --at value")
    if not isinstance(f, Forall):
        raise UsageError("project wants a universally quantified formula")
    result = project_forall(w, f, ns.at)
    out.append(_items_line("ITEMS", result, budget.pull_limit))
    return 0


def _cmd_realizability(ns, budget, out):
    f = _load_formula(ns, "formula")
    code = _load_code(ns, "code")
    inputs, probes = _probes(ns)
    v = check_realizability(f, code, budget, inputs=inputs, probes=probes)
    out.append(v.line())
    return 0 if v.status == "accepted_up_to" else 1


def _game_theorem1(ns, budget, out):
    tree = _load_tree(ns, "tree")
    dname = ns.defender or "copier"
    aname = ns.adversary or "generous"
    defender = DEFENDERS[dname]()
    adversary = ADVERSARIES[aname]()
    trace = games.play_theorem1(tree, defender, adversary, ns.horizon, budget)
    out.append(
        f"GAME theorem1 nodes={len(tree.nodes)} defender={dname} adversary={aname}"
    )
    out.append(f"TRACE ante {serialize_items(trace.antecedent_items)}")
    out.append(f"TRACE mine {serialize_items(trace.defender_items)}")
    for line in trace.verdicts:
        out.append(line)
    out.append(f"OUTCOME {trace.outcome} {trace.reason} rounds={trace.rounds}")
    return 0 if trace.accepted() else 1


def _game_prop3(ns, budget, out):
    if not ns.length or ns.length < 2:
        raise UsageError("game prop3 wants --length of at least 2")
    r = games.prop3_duality(ns.length, ns.break_at, budget)
    out.append(f"GAME prop3 length={ns.length} break={ns.break_at}")
    out.append(f"ATOMS {r['atoms']}")
    out.append(f"TAUTOLOGY {'true' if r['tautological'] else 'false'}")
    out.append(r["verdict"])
    out.append(f"OUTCOME {'chain-carried' if r['accepted'] else 'chain-stalled'}")
    if ns.break_at is None:
        return 0 if (r["accepted"] and r["tautological"]) else 1
    return 1 if r["accepted"] else 0  # a broken chain is supposed to stall


class _EndlessPresentation:
    """Always offers the 0-child: the descent never finds a dead end."""

    def contains(self, bits):
        return all(b == 0 for b in bits)


def _game_pi11(ns, budget, out):
    if ns.endless:
        presentation = _EndlessPresentation()
        label = "endless"
    else:
        presentation = _load_tree(ns, "tree")
        label = f"nodes={len(presentation.nodes)}"
    gh = ns.guess_horizon or 64
    stream = games.pi11_encode(presentation, gh)
    codes, rest = games.pi11_decode(stream, pull=max(budget.pull_limit, 512))
    out.append(f"GAME pi11 {label} guess-horizon={gh}")
    if not codes:
        out.append("DESCENT waiting")
        return 1
    out.append("DESCENT " + " ".join(str(c) for c in codes))
    out.append(f"ANSWERS {serialize_items(rest)}")
    return 0


def _game_narrow(ns, budget, out):
    mname = ns.machine or "echo"
    factory = MACHINES[mname]
    report = games.narrow_play(factory, _read(ns, "script"))
    out.append(f"GAME narrow machine={mname}")
    out.append(f"NARROW {report.status} compared={report.compared}")
    for x, y, i, va, vb in report.conflicts:
        out.append(f"CONFLICT {x} {y} index={i} a={va} b={vb}")
    for name in sorted(report.outputs):
        out.append(f"OUTPUT {name} {' '.join(report.outputs[name])}")
    return 0 if report.status != "violated" else 1


_GAMES = {
    "theorem1": _game_theorem1,
    "prop3": _game_prop3,
    "pi11": _game_pi11,
    "narrow": _game_narrow,
}

_COMMANDS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "synthesize": _cmd_synthesize,
    "extract": _cmd_extract,
    "apply": _cmd_apply,
    "project": _cmd_project,
    "realizability": _cmd_realizability,
}


def run(ns):
    """Execute one command, given the namespace that _build_parser parsed.

    Returns (exit status, report lines); the lines are also appended
    to ns.report when that is set.
    """
    header = f"RUN {ns.command}"
    if ns.command == "game":
        header += f" {ns.kind}"
    out = [
        header + f" pulls={ns.pulls} numerals={ns.numerals}"
        f" vm-steps={ns.vm_steps} seed={ns.seed} horizon={ns.horizon}"
    ]
    try:
        if min(ns.pulls, ns.numerals, ns.vm_steps) < 0 or ns.pulls == 0:
            raise UsageError("budgets must be positive")
        budget = Budget(ns.pulls, ns.numerals, ns.vm_steps)
        handler = _GAMES[ns.kind] if ns.command == "game" else _COMMANDS[ns.command]
        code = handler(ns, budget, out)
    except UsageError as e:
        out.append(f"USAGE {e}")
        code = 2
    except _PARSE_ERRORS as e:
        out.append(f"ERROR {e}")
        code = 1
    if ns.report:
        with open(ns.report, "a") as fh:
            for line in out:
                fh.write(line + "\n")
    return code, out


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pulls", type=int, default=32)
    common.add_argument("--numerals", type=int, default=8)
    common.add_argument("--vm-steps", type=int, default=10000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--horizon", type=int, default=10000)
    common.add_argument("--report")

    top = argparse.ArgumentParser(
        prog="ctruth",
        description="witness streams for arithmetic: parse, check, play",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common])
    p.add_argument("--formula")
    p.add_argument("--witness")
    p.add_argument("--proof")
    p.add_argument("--code")

    p = sub.add_parser("check", parents=[common])
    p.add_argument("--formula", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--ante-formula")
    p.add_argument("--ante-witness")

    p = sub.add_parser("synthesize", parents=[common])
    p.add_argument("--formula", required=True)
    p.add_argument("--out")

    p = sub.add_parser("extract", parents=[common])
    p.add_argument("--proof", required=True)
    p.add_argument("--out")

    p = sub.add_parser("apply", parents=[common])
    p.add_argument("--witness", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--formula")

    p = sub.add_parser("project", parents=[common])
    p.add_argument("--witness", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--at", type=int, required=True)

    p = sub.add_parser("realizability", parents=[common])
    p.add_argument("--formula", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--ante-formula")
    p.add_argument("--ante-witness")

    p = sub.add_parser("game", parents=[common])
    p.add_argument("kind", choices=sorted(_GAMES))
    p.add_argument("--tree")
    p.add_argument("--defender", choices=sorted(DEFENDERS))
    p.add_argument("--adversary", choices=sorted(ADVERSARIES))
    p.add_argument("--length", type=int)
    p.add_argument("--break-at", type=int)
    p.add_argument("--guess-horizon", type=int)
    p.add_argument("--endless", action="store_true")
    p.add_argument("--script")
    p.add_argument("--machine", choices=sorted(MACHINES))

    return top


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    code, lines = run(ns)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
