"""Budgeted acceptance of witness streams.

A check pulls finitely many items, validates their shape, enforces the
output discipline (equal or extending inputs demand the same outputs),
rejects any pair whose asserted content is refutable within the budget,
and then walks the statement's input space to see whether every demand
the budget can express has been answered.  The discipline is checked in
one indexed pass: each pair is inserted into a trie keyed on its tokens
and compared only with the pairs whose inputs agree with its own.
Content is judged under an integer environment binding the pair's
tokens, never by substituting unary numerals, so a check costs close to
linear time in the number of pairs.  The three outcomes:

    accepted_up_to   no fault found and all bounded demands answered
    rejected         a pair is malformed, conflicting, or provably wrong
    pending          no fault, but some bounded demand is unanswered

Rejection is sound: it needs a definite refutation, never a timeout.
Acceptance is always relative to the stated budget.
"""

from dataclasses import dataclass

from . import vm
from .formula import (
    FALSE,
    And,
    Atom,
    Box,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    classify,
    conj_all,
    eval3,
    eval_term,
    instantiate,
    numeral,
    print_formula,
    subst_term,
)
from .witness import (
    END,
    IN_NUM,
    IN_PREFIX,
    IN_SEL,
    IOPair,
    Numeral,
    OUT_CODE,
    OUT_NUM,
    OUT_SEL,
    Prefix,
    Selector,
    ShapeMismatch,
    TRIVIAL,
    WitnessStream,
    content_parts,
    is_pair,
    semantic_content,
    serialize_item,
    serialize_token,
    shape_check,
    slot,
)


@dataclass(frozen=True)
class Budget:
    pull_limit: int = 32
    numeral_bound: int = 8
    vm_steps: int = 10000

    @property
    def search_bound(self) -> int:
        """How far value searches go; at least as far as the pull limit."""
        return max(self.numeral_bound, self.pull_limit)


@dataclass(frozen=True)
class Probe:
    """A supplied antecedent witness, matched to implication slots by
    the antecedent statement itself (syntactic equality).  A trusted
    probe's pairs may be assumed correct when judging an implication."""

    formula: Formula
    stream: WitnessStream
    trusted: bool = True


@dataclass(frozen=True)
class Verdict:
    status: str  # accepted_up_to | rejected | pending
    budget: Budget
    pair: IOPair = None
    conflict: IOPair = None
    reason: object = None  # a statement (refuted content) or a text
    missing: tuple = None  # input tokens locating the unanswered demand

    def __bool__(self):
        return self.status == "accepted_up_to"

    def exit_code(self) -> int:
        return {"accepted_up_to": 0, "pending": 1, "rejected": 2}[self.status]

    def line(self) -> str:
        if self.status == "accepted_up_to":
            return (
                f"VERDICT accepted_up_to pulls={self.budget.pull_limit}"
                f" numerals={self.budget.numeral_bound}"
            )
        if self.status == "rejected":
            reason = (
                print_formula(self.reason)
                if isinstance(self.reason, Formula)
                else str(self.reason)
            )
            if self.conflict is not None:
                return (
                    f"VERDICT rejected pair={serialize_item(self.pair)}"
                    f" conflict={serialize_item(self.conflict)} reason={reason}"
                )
            return f"VERDICT rejected pair={serialize_item(self.pair)} reason={reason}"
        toks = ",".join(serialize_token(t) for t in self.missing)
        return f"VERDICT pending missing=({toks})"


def _accepted(budget):
    return Verdict("accepted_up_to", budget)


def _rejected(budget, pair, reason, conflict=None):
    return Verdict("rejected", budget, pair=pair, conflict=conflict, reason=reason)


def _pending(budget, path):
    return Verdict("pending", budget, missing=tuple(path))


# ---------------------------------------------------------------------------
# output discipline: one indexed pass along the joint spine


class _Node:
    """A trie node at one slot of the spine.  `children` are keyed by
    the token a pair gives at the slot; an output node also keeps the
    first pair that reached it and that pair's token (None: silent)."""

    __slots__ = ("children", "first", "out")

    def __init__(self):
        self.children = {}
        self.first = None
        self.out = None


def _first_conflict(f: Formula, pairs) -> tuple:
    """(j, i, kind) for the first shaped pair j that breaks the output
    discipline against an earlier pair, i being the least such; None
    when the pairs keep it.

    Where two pairs' inputs agree (a prefix input may extend the other
    pair's), their outputs must be the same tokens, and a pair falling
    silent at an output slot where the other speaks breaks the rule
    too, since giving too little output cannot be repaired by a later
    pair.  The kind is "monotonicity" when the agreement needed a
    prefix extension, else "functionality".

    Each pair walks the statement once, inserting itself into a trie
    keyed on its tokens.  It is compared only with the trie nodes whose
    pairs agree with it so far: the node its own tokens reach and, at
    prefix slots, siblings its prefix extends or is extended by.  All
    pairs at an output node agree, since an earlier disagreement would
    have been reported, so the node's first pair stands for them all.
    """
    root = _Node()
    for j, p in enumerate(pairs):
        if not p.inputs and not p.outputs:
            continue  # the trivial pair asserts nothing
        ins, outs = iter(p.inputs), iter(p.outputs)
        own = root  # the node p's own tokens reach
        frontier = [(root, False)]  # agreeing nodes, and whether via an extension
        hit = None
        g = f
        while True:
            s = slot(g)
            kind = s[0]
            if kind == END:
                break
            is_input = kind in (IN_NUM, IN_SEL, IN_PREFIX)
            tok = next(ins if is_input else outs, None)
            if tok is None and is_input:
                break  # the pair stops demanding; nothing to compare
            if not is_input and own.first is None:
                own.first, own.out = j, tok
            after = []
            for node, ext in frontier:
                if not is_input and node.out != tok:
                    if hit is None or node.first < hit[0]:
                        hit = (node.first, "monotonicity" if ext else "functionality")
                elif kind == IN_PREFIX:
                    for key, child in node.children.items():
                        if key == tok:
                            after.append((child, ext))
                        elif key.extends(tok) or tok.extends(key):
                            after.append((child, True))
                else:
                    child = node.children.get(tok)
                    if child is not None:
                        after.append((child, ext))
            if tok is None or kind == OUT_CODE:
                break  # silent, or past a code: the pair ends here
            if tok not in own.children:
                own.children[tok] = _Node()
                after.append((own.children[tok], False))
            own = own.children[tok]
            frontier = after
            g = s[1 + tok.choice] if kind in (IN_SEL, OUT_SEL) else s[2]
        if hit is not None:
            return (j,) + hit
    return None


# ---------------------------------------------------------------------------
# coverage walk

_REJ = "rej"
_PEND = "pend"


def _walk(g, env, cursors, path, budget, probes):
    """First unmet demand or definite fault under g, else None.

    Returns (_PEND, path) or (_REJ, pair, reason).  `env` holds the
    values of g's instantiated variables; `cursors` are (pair, inputs,
    outputs) for the pairs still walking this subtree, the token
    sequences already past `path`.
    """
    s = slot(g)
    kind = s[0]
    if kind == END:
        return None if cursors else (_PEND, path)
    if kind in (IN_NUM, IN_SEL):
        branches = {}
        for pair, ins, outs in cursors:
            if ins:
                branches.setdefault(ins[0], []).append((pair, ins[1:], outs))
        if kind == IN_NUM:
            _, var, body = s
            choices = (
                (Numeral(n), body, {**env, var: n}) for n in range(budget.numeral_bound + 1)
            )
        else:
            choices = ((Selector(c), s[1 + c], env) for c in (0, 1))
        for tok, sub, sub_env in choices:
            branch = branches.get(tok)
            if not branch:
                return (_PEND, path + [tok])
            r = _walk(sub, sub_env, branch, path + [tok], budget, probes)
            if r:
                return r
        return None
    if kind == IN_PREFIX:
        ante = instantiate(s[1], env)
        for probe in probes:
            if probe.formula != ante:
                continue
            observed = Prefix(probe.stream.pull(budget.pull_limit))
            branch = [
                (pair, ins[1:], outs)
                for pair, ins, outs in cursors
                if ins and isinstance(ins[0], Prefix) and observed.extends(ins[0])
            ]
            if not branch:
                return (_PEND, path + [observed])
            r = _walk(s[2], env, branch, path + [observed], budget, probes)
            if r:
                return r
        return None  # no probe, no demand to meet
    # output slots: follow the stream's own (unique) choice
    speaking = [c for c in cursors if c[2]]
    if not speaking:
        return (_PEND, path)
    tok = speaking[0][2][0]
    if kind == OUT_CODE:
        # decode, run, and check the emitted stream against the body
        try:
            prog = vm.godel_decode(tok.value)
        except vm.DecodeError as e:
            return (_REJ, speaking[0][0], f"code does not decode: {e}")
        inner = vm.run_stream(prog, {}, budget.vm_steps)
        v = check_witness(inner, instantiate(s[1], env), budget)
        if v.status == "rejected":
            return (_REJ, speaking[0][0], f"decoded program fails: {v.line()}")
        if v.status == "pending":
            return (_PEND, list(v.missing) if v.missing else path)
        return None
    branch = [(pair, ins, outs[1:]) for pair, ins, outs in speaking]
    if kind == OUT_NUM:
        return _walk(s[2], {**env, s[1]: tok.value}, branch, path, budget, probes)
    return _walk(s[1 + tok.choice], env, branch, path, budget, probes)


# ---------------------------------------------------------------------------
# the checker

# hard ceiling on the enumeration work a single content decision may take
_DECISION_ALLOWANCE = 200_000


def _decision_cost(f: Formula, budget: Budget) -> int:
    """Upper bound on the points eval3 would visit deciding f."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Not, Box)):
        return 1 + _decision_cost(f.body, budget)
    if isinstance(f, (And, Or, Implies)):
        return 1 + _decision_cost(f.left, budget) + _decision_cost(f.right, budget)
    bound = budget.numeral_bound if isinstance(f, Forall) else budget.search_bound
    inner = _decision_cost(f.body, budget)
    return 1 + (bound + 1) * inner


def _refuted(f: Formula, p: IOPair, budget: Budget) -> bool:
    """Definite refutation of a shaped pair's content, declined when
    deciding it would blow the enumeration allowance.  Declining keeps
    the checker sound: it only ever rejects on a decision it completed.

    The content is judged under its integer environment; substituting
    the values would keep its shape, and so its decision cost.
    """
    hyps, rest, env = content_parts(f, p)
    claim = Implies(conj_all(hyps), rest) if hyps else rest
    if _decision_cost(claim, budget) > _DECISION_ALLOWANCE:
        return False
    return eval3(claim, env, budget.numeral_bound, budget.search_bound) is FALSE


def check_witness(w: WitnessStream, f: Formula, budget: Budget, probes=()) -> Verdict:
    """Judge a stream against a statement within the given budget."""
    items = w.pull(budget.pull_limit)
    raws, pairs = [], []
    for item in items:
        if not is_pair(item):
            continue
        try:
            pairs.append(shape_check(f, item))
        except ShapeMismatch as e:
            return _rejected(budget, item, str(e))
        raws.append(item)

    hit = _first_conflict(f, pairs)
    if hit:
        j, i, kind = hit
        return _rejected(budget, raws[j], kind, conflict=raws[i])

    # per-pair content, rejected only on a definite refutation
    for raw, p in zip(raws, pairs):
        if _refuted(f, p, budget):
            return _rejected(budget, raw, semantic_content(f, p))
        if isinstance(f, Implies) and p.inputs and isinstance(p.inputs[0], Prefix):
            lead = p.inputs[0]
            rest = IOPair(p.inputs[1:], p.outputs)
            for probe in probes:
                if not probe.trusted or probe.formula != f.left:
                    continue
                observed = Prefix(probe.stream.pull(len(lead.items)))
                if not observed.extends(lead):
                    continue
                if _refuted(f.right, rest, budget):
                    return _rejected(budget, raw, semantic_content(f.right, rest))

    cursors = [(raw, p.inputs, p.outputs) for raw, p in zip(raws, pairs)]
    r = _walk(f, {}, cursors, [], budget, list(probes))
    if r is None:
        return _accepted(budget)
    if r[0] == _PEND:
        return _pending(budget, r[1])
    return _rejected(budget, r[1], r[2])


def check_code(code, f: Formula, budget: Budget, inputs=None, probes=()) -> Verdict:
    """Decode (if needed) and run a program, then judge its stream."""
    if isinstance(code, vm.WCode):
        prog = code
    else:
        value = code.value if isinstance(code, Numeral) else int(code)
        prog = vm.godel_decode(value)
    stream = vm.run_stream(prog, inputs or {}, budget.vm_steps)
    return check_witness(stream, f, budget, probes)


def check_realizability(f: Formula, code, budget: Budget, inputs=None, probes=()) -> Verdict:
    """Run witness-machine code under the budget and judge its stream.

    Boxed positions keep their usual demand for further codes, and
    transformer programs are exercised by naming their input streams
    (keys of inputs, queried by number from inside the machine) and
    supplying matching trusted probes.
    """
    return check_code(code, f, budget, inputs=inputs, probes=probes)


# ---------------------------------------------------------------------------
# synthesis for the low-complexity fragment

EXHAUSTED = object()


class SynthesisFailed(Exception):
    """The bounded search could not certify the statement."""


def synthesize_sigma03(f: Formula, budget: Budget) -> WitnessStream:
    """Search out a canonical witness for a low-complexity sentence.

    Universal inputs are answered for every numeral up to the bound,
    existential outputs take the least value that survives checking at
    the full bound, and boxed parts become literal emitter programs.
    Pairs come out in input order; input-rooted statements lead with
    the trivial pair.  Raises SynthesisFailed when some search runs out
    of budget, and ValueError outside the recognized shape.
    """
    if not classify(f).sigma03_shape:
        raise ValueError("statement is not in the recognized low-complexity shape")
    suffixes = _synth(f, budget)
    if suffixes is EXHAUSTED:
        raise SynthesisFailed(
            f"no witness found within numerals<={budget.search_bound}: {print_formula(f)}"
        )
    items = []
    if slot(f)[0] in (IN_NUM, IN_SEL, IN_PREFIX):
        items.append(TRIVIAL)
    items.extend(IOPair(tuple(i), tuple(o)) for i, o in suffixes)
    return WitnessStream.from_items(items)


def _desk_true(f: Formula, budget: Budget) -> bool:
    """Bounded classical truth: the decision the synthesizer trusts."""
    if isinstance(f, Atom):
        a, b = eval_term(f.left, {}), eval_term(f.right, {})
        return a == b if f.rel == "=" else a < b
    if isinstance(f, Not):
        return not _desk_true(f.body, budget)
    if isinstance(f, And):
        return _desk_true(f.left, budget) and _desk_true(f.right, budget)
    if isinstance(f, Or):
        return _desk_true(f.left, budget) or _desk_true(f.right, budget)
    if isinstance(f, Implies):
        return (not _desk_true(f.left, budget)) or _desk_true(f.right, budget)
    if isinstance(f, Forall):
        return all(
            _desk_true(subst_term(f.body, f.var, numeral(n)), budget)
            for n in range(budget.numeral_bound + 1)
        )
    if isinstance(f, Exists):
        return any(
            _desk_true(subst_term(f.body, f.var, numeral(n)), budget)
            for n in range(budget.search_bound + 1)
        )
    if isinstance(f, Box):
        return _desk_true(f.body, budget)
    raise TypeError(f"not a statement: {f!r}")


def _synth(g: Formula, budget: Budget):
    s = slot(g)
    kind = s[0]
    if kind == END:
        return [((), ())] if _desk_true(g, budget) else EXHAUSTED
    if kind == IN_NUM:
        _, var, body = s
        out = []
        for n in range(budget.numeral_bound + 1):
            sub = _synth(subst_term(body, var, numeral(n)), budget)
            if sub is EXHAUSTED:
                return EXHAUSTED
            out.extend(((Numeral(n),) + i, o) for i, o in sub)
        return out
    if kind == IN_SEL:
        out = []
        for choice in (0, 1):
            sub = _synth(s[1 + choice], budget)
            if sub is EXHAUSTED:
                return EXHAUSTED
            out.extend(((Selector(choice),) + i, o) for i, o in sub)
        return out
    if kind == IN_PREFIX:
        raise ValueError("implications are outside the synthesizable shape")
    if kind == OUT_NUM:
        _, var, body = s
        for v in range(budget.search_bound + 1):
            inst = subst_term(body, var, numeral(v))
            if not _desk_true(inst, budget):
                continue
            sub = _synth(inst, budget)
            if sub is EXHAUSTED:
                continue
            return [(i, (Numeral(v),) + o) for i, o in sub]
        return EXHAUSTED
    if kind == OUT_SEL:
        for choice in (0, 1):
            side = s[1 + choice]
            if not _desk_true(side, budget):
                continue
            sub = _synth(side, budget)
            if sub is EXHAUSTED:
                continue
            return [(i, (Selector(choice),) + o) for i, o in sub]
        return EXHAUSTED
    # OUT_CODE: bake the body's witness into a literal emitter program
    body = s[1]
    sub = _synth(body, budget)
    if sub is EXHAUSTED:
        return EXHAUSTED
    inner = []
    if slot(body)[0] in (IN_NUM, IN_SEL, IN_PREFIX):
        inner.append(TRIVIAL)
    inner.extend(IOPair(tuple(i), tuple(o)) for i, o in sub)
    emits = " ".join(f"(emit {vm.encode_item(it)})" for it in inner)
    prog = vm.program(f"(prog (seq {emits}))")
    return [((), (Numeral(prog.godel()),))]
