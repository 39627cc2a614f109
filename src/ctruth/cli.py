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
from dataclasses import dataclass, field
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
from .formula import ParseError, UnboundVariable, parse, print_formula
from .realizers import ExtractionError, ProofError, extract, parse_proof_text
from .witness import ShapeMismatch, WitnessStream, WitnessTextError, serialize_items


class UsageError(Exception):
    """Bad flags or unreadable files; exits with status 2."""


@dataclass
class RunConfig:
    command: str
    kind: str = None  # game variant
    paths: dict = field(default_factory=dict)
    pulls: int = 32
    numerals: int = 8
    vm_steps: int = 10000
    seed: int = 0
    horizon: int = 10000
    report: str = None
    options: dict = field(default_factory=dict)


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
    RecursionError,  # deeply nested input, such as a large literal in a formula
)


def _read(cfg: RunConfig, role: str) -> str:
    raw = cfg.paths.get(role)
    if not raw:
        raise UsageError(f"--{role.replace('_', '-')} is required for {cfg.command}")
    path = Path(raw)
    try:
        return path.read_text()
    except OSError:
        raise UsageError(f"cannot read file: {path}")


def _load_formula(cfg, role):
    return parse(_read(cfg, role).strip())


def _load_witness(cfg, role):
    return WitnessStream.from_text(_read(cfg, role))


def _load_code(cfg, role):
    return vm.program(_read(cfg, role).strip())


def _load_tree(cfg, role):
    seqs = []
    for line in _read(cfg, role).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line == "e":
            continue
        seqs.append(tuple(int(tok) for tok in line.replace(",", " ").split()))
    return games.TreePresentation.from_sequences(seqs)


def _probes(cfg, budget):
    """Optional antecedent evidence: a formula/witness fixture pair."""
    if "ante_formula" not in cfg.paths and "ante_witness" not in cfg.paths:
        return None, ()
    af = _load_formula(cfg, "ante_formula")
    aw = _load_witness(cfg, "ante_witness")
    return {"0": aw.copy()}, (Probe(af, aw),)


def _items_line(label, stream, pulls):
    return f"{label} {serialize_items(stream.pull(pulls))}"


# ---------------------------------------------------------------------------
# command pipelines


def _cmd_parse(cfg, budget, out):
    shown = 0
    if "formula" in cfg.paths:
        out.append(f"FORMULA {print_formula(_load_formula(cfg, 'formula'))}")
        shown += 1
    if "witness" in cfg.paths:
        out.append(_items_line("WITNESS", _load_witness(cfg, "witness"), budget.pull_limit))
        shown += 1
    if "proof" in cfg.paths:
        claimed, _ = parse_proof_text(_read(cfg, "proof"))
        out.append(f"THEOREM {print_formula(claimed)}")
        shown += 1
    if "code" in cfg.paths:
        out.append(f"CODE {_load_code(cfg, 'code').text()}")
        shown += 1
    if not shown:
        raise UsageError("parse wants --formula, --witness, --proof or --code")
    return 0


def _cmd_check(cfg, budget, out):
    f = _load_formula(cfg, "formula")
    w = _load_witness(cfg, "witness")
    _, probes = _probes(cfg, budget)
    v = check_witness(w, f, budget, probes)
    out.append(v.line())
    return 0 if v.status == "accepted_up_to" else 1


def _cmd_synthesize(cfg, budget, out):
    f = _load_formula(cfg, "formula")
    try:
        w = synthesize_sigma03(f, budget)
    except SynthesisFailed as e:
        out.append(f"SYNTHESIS exhausted {e}")
        return 1
    text = serialize_items(w.pull(budget.pull_limit))
    out.append(f"WITNESS {text}")
    v = check_witness(w.copy(), f, budget)
    out.append(v.line())
    if cfg.paths.get("out"):
        Path(cfg.paths["out"]).write_text(text + "\n")
    return 0 if v.status == "accepted_up_to" else 1


def _cmd_extract(cfg, budget, out):
    claimed, proof = parse_proof_text(_read(cfg, "proof"))
    ext = extract(proof)
    out.append(f"THEOREM {print_formula(claimed)}")
    if ext.code is None:
        out.append("CODE none")
        return 1
    out.append(f"CODE {ext.code.text()}")
    if cfg.paths.get("out"):
        Path(cfg.paths["out"]).write_text(ext.code.text() + "\n")
    return 0


def _cmd_apply(cfg, budget, out):
    w = _load_witness(cfg, "witness")
    x = _load_witness(cfg, "to")
    result = apply_implication(w, x)
    out.append(_items_line("ITEMS", result, budget.pull_limit))
    if "formula" in cfg.paths:
        v = check_witness(apply_implication(w.copy(), x.copy()), _load_formula(cfg, "formula"), budget)
        out.append(v.line())
        return 0 if v.status == "accepted_up_to" else 1
    return 0


def _cmd_project(cfg, budget, out):
    w = _load_witness(cfg, "witness")
    f = _load_formula(cfg, "formula")
    at = cfg.options.get("at")
    if at is None or at < 0:
        raise UsageError("project wants a nonnegative --at value")
    result = project_forall(w, f, at)
    out.append(_items_line("ITEMS", result, budget.pull_limit))
    return 0


def _cmd_realizability(cfg, budget, out):
    f = _load_formula(cfg, "formula")
    code = _load_code(cfg, "code")
    inputs, probes = _probes(cfg, budget)
    v = check_realizability(f, code, budget, inputs=inputs, probes=probes)
    out.append(v.line())
    return 0 if v.status == "accepted_up_to" else 1


def _game_theorem1(cfg, budget, out):
    tree = _load_tree(cfg, "tree")
    dname = cfg.options.get("defender") or "copier"
    aname = cfg.options.get("adversary") or "generous"
    defender = DEFENDERS[dname]()
    adversary = ADVERSARIES[aname]()
    trace = games.play_theorem1(tree, defender, adversary, cfg.horizon, budget)
    out.append(
        f"GAME theorem1 nodes={len(tree.nodes)} defender={dname} adversary={aname}"
    )
    out.append(f"TRACE ante {serialize_items(trace.antecedent_items)}")
    out.append(f"TRACE mine {serialize_items(trace.defender_items)}")
    for line in trace.verdicts:
        out.append(line)
    out.append(f"OUTCOME {trace.outcome} {trace.reason} rounds={trace.rounds}")
    return 0 if trace.accepted() else 1


def _game_prop3(cfg, budget, out):
    length = cfg.options.get("length")
    if not length or length < 2:
        raise UsageError("game prop3 wants --length of at least 2")
    break_at = cfg.options.get("break_at")
    r = games.prop3_duality(length, break_at, budget)
    out.append(f"GAME prop3 length={length} break={break_at}")
    out.append(f"ATOMS {r['atoms']}")
    out.append(f"TAUTOLOGY {'true' if r['tautological'] else 'false'}")
    out.append(r["verdict"])
    honest = break_at is None
    out.append(f"OUTCOME {'chain-carried' if r['accepted'] else 'chain-stalled'}")
    if honest:
        return 0 if (r["accepted"] and r["tautological"]) else 1
    return 1 if r["accepted"] else 0  # a broken chain is supposed to stall


class _EndlessPresentation:
    """Always offers the 0-child: the descent never finds a dead end."""

    def contains(self, bits):
        return all(b == 0 for b in bits)


def _game_pi11(cfg, budget, out):
    if cfg.options.get("endless"):
        presentation = _EndlessPresentation()
        label = "endless"
    else:
        presentation = _load_tree(cfg, "tree")
        label = f"nodes={len(presentation.nodes)}"
    gh = cfg.options.get("guess_horizon") or 64
    stream = games.pi11_encode(presentation, gh)
    codes, rest = games.pi11_decode(stream, pull=max(budget.pull_limit, 512))
    out.append(f"GAME pi11 {label} guess-horizon={gh}")
    if not codes:
        out.append("DESCENT waiting")
        return 1
    out.append("DESCENT " + " ".join(str(c) for c in codes))
    out.append(f"ANSWERS {serialize_items(rest)}")
    return 0


def _game_narrow(cfg, budget, out):
    mname = cfg.options.get("machine") or "echo"
    factory = MACHINES[mname]
    report = games.narrow_play(factory, _read(cfg, "script"))
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


def run(config: RunConfig):
    """Execute one configured command.

    Returns (exit status, report lines); the lines are also appended
    to config.report when that is set.
    """
    out = []
    header = f"RUN {config.command}"
    if config.kind:
        header += f" {config.kind}"
    header += (
        f" pulls={config.pulls} numerals={config.numerals}"
        f" vm-steps={config.vm_steps} seed={config.seed} horizon={config.horizon}"
    )
    out.append(header)
    try:
        if min(config.pulls, config.numerals, config.vm_steps) < 0 or config.pulls == 0:
            raise UsageError("budgets must be positive")
        budget = Budget(config.pulls, config.numerals, config.vm_steps)
        if config.command == "game":
            handler = _GAMES.get(config.kind)
            if handler is None:
                raise UsageError("game wants one of: " + " ".join(sorted(_GAMES)))
        else:
            handler = _COMMANDS.get(config.command)
            if handler is None:
                raise UsageError(f"unknown command {config.command!r}")
        code = handler(config, budget, out)
    except UsageError as e:
        out.append(f"USAGE {e}")
        code = 2
    except _PARSE_ERRORS as e:
        out.append(f"ERROR {e}")
        code = 1
    if config.report:
        with open(config.report, "a") as fh:
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


_PATH_ROLES = (
    "formula",
    "witness",
    "proof",
    "code",
    "out",
    "to",
    "tree",
    "script",
    "ante_formula",
    "ante_witness",
)

_OPTION_ROLES = (
    "at",
    "defender",
    "adversary",
    "length",
    "break_at",
    "guess_horizon",
    "endless",
    "machine",
)


def config_from_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    paths = {r: getattr(ns, r) for r in _PATH_ROLES if getattr(ns, r, None)}
    options = {
        r: getattr(ns, r) for r in _OPTION_ROLES if getattr(ns, r, None) is not None
    }
    return RunConfig(
        command=ns.command,
        kind=getattr(ns, "kind", None),
        paths=paths,
        pulls=ns.pulls,
        numerals=ns.numerals,
        vm_steps=ns.vm_steps,
        seed=ns.seed,
        horizon=ns.horizon,
        report=ns.report,
        options=options,
    )


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    code, lines = run(config)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
