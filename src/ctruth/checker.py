"""Budgeted acceptance of witness streams.

A check pulls finitely many items, validates their shape, enforces the
output discipline (equal or extending inputs demand the same outputs),
rejects any pair whose asserted content is refutable within the budget,
and then walks the statement's input space to see whether every demand
the budget can express has been answered.  One walk over each pair's
tokens shapes it and gives both its path of tokens and its content in
parts (witness.shape_walk).  The discipline is checked in one indexed
pass that inserts each path into a trie and compares it only with the
pairs whose inputs agree with its own; the coverage walk then follows
that trie.  Content is judged under an integer environment binding the
pair's tokens, never by substituting unary numerals, so a check costs
close to linear time in the number of pairs.  A refutation is costed on
the statement's spine before any of its content is built, so a decision
the allowance declines builds nothing.  Every walk reads the spine
record memoized on each formula node (witness.slot).  The three outcomes:

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
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    classify,
    conj_all,
    eval2,
    eval3,
    instantiate,
    print_formula,
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
    content,
    input_rooted,
    is_pair,
    serialize_item,
    serialize_token,
    shape_walk,
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
# output discipline: one indexed pass over the pairs' paths

_OUTPUTS = (OUT_NUM, OUT_SEL, OUT_CODE)


def _index(paths) -> tuple:
    """The pairs' paths in one trie, judged for the output discipline
    on the way: (hit, edges, said, kids).  `hit` is (j, i, kind) for
    the first pair j that breaks the discipline against an earlier pair,
    i being the least such, or None when the pairs keep it; the trie is
    complete only then.  Each pair is given by its path from
    witness.shape_walk.

    Where two pairs' inputs agree (a prefix input may extend the other
    pair's), their outputs must be the same tokens, and a pair falling
    silent at an output slot where the other speaks breaks the rule
    too, since giving too little output cannot be repaired by a later
    pair.  The kind is "monotonicity" when the agreement needed a
    prefix extension, else "functionality".

    The trie's nodes are ints, 0 the root: `edges` maps (node, key) to a
    child, `said` keeps the first pair at an output node with its key,
    and `kids` lists a prefix node's (prefix, child) edges in order.
    The first pair stands for all pairs there, which agree or an earlier
    conflict would have been reported.  Until a pair meets a prefix
    slot, the only node agreeing with it is its own; from then on a
    frontier of agreeing nodes also takes, at prefix slots, the siblings
    its prefix extends or is extended by.
    """
    edges = {}
    said = {}
    kids = {}
    for j, path in enumerate(paths):
        own = 0
        frontier = hit = None
        for kind, key in path:
            if kind == IN_PREFIX and frontier is None:
                frontier = [(own, False)]
            speaks = kind in _OUTPUTS
            if speaks:
                first = said.setdefault(own, (j, key))
            if frontier is None:
                if speaks and first[1] != key:
                    return (j, first[0], "functionality"), edges, said, kids
            else:
                after = []
                for node, ext in frontier:
                    if speaks and said[node][1] != key:
                        i = said[node][0]
                        if hit is None or i < hit[0]:
                            hit = (i, "monotonicity" if ext else "functionality")
                    elif kind == IN_PREFIX:
                        for pre, child in kids.get(node, ()):
                            if pre == key:
                                after.append((child, ext))
                            elif pre.extends(key) or key.extends(pre):
                                after.append((child, True))
                    elif (node, key) in edges:
                        after.append((edges[node, key], ext))
                frontier = after
            if key is None:
                break  # silent: the pair ends here
            child = edges.get((own, key))
            if child is None:
                child = edges[own, key] = len(edges) + 1
                if kind == IN_PREFIX:
                    kids.setdefault(own, []).append((key, child))
            own = child
        if hit is not None:
            return (j,) + hit, edges, said, kids
    return None, edges, said, kids


# ---------------------------------------------------------------------------
# coverage walk

_REJ = "rej"
_PEND = "pend"


def _walk(g, env, nodes, path, trie, budget, probes):
    """First unmet demand or definite fault under g, else None.

    Returns (_PEND, path) or (_REJ, j, reason), j being the index of the
    pair at fault.  `env` holds the values of g's instantiated
    variables; `nodes` are the trie nodes of the pairs whose tokens so
    far match `path` and the stream's own outputs, and `trie` is
    _index's (edges, said, kids).  Every pair at the nodes agrees at an
    output slot, or the discipline check would already have rejected.
    """
    edges, said, kids = trie
    s = slot(g)
    kind = s[0]
    if kind == END:
        return None if nodes else (_PEND, path)
    if kind in (IN_NUM, IN_SEL):
        if kind == IN_NUM:
            _, var, body = s
            choices = (
                (Numeral(n), n, body, {**env, var: n}) for n in range(budget.numeral_bound + 1)
            )
        else:
            choices = ((Selector(c), c, s[1 + c], env) for c in (0, 1))
        for tok, key, sub, sub_env in choices:
            branch = [edges[n, key] for n in nodes if (n, key) in edges]
            if not branch:
                return (_PEND, path + [tok])
            r = _walk(sub, sub_env, branch, path + [tok], trie, budget, probes)
            if r:
                return r
        return None
    if kind == IN_PREFIX:
        ante = instantiate(s[1], env)
        for probe in probes:
            if probe.formula != ante:
                continue
            observed = Prefix(probe.stream.pull(budget.pull_limit))
            branch = [c for n in nodes for pre, c in kids.get(n, ()) if observed.extends(pre)]
            if not branch:
                return (_PEND, path + [observed])
            r = _walk(s[2], env, branch, path + [observed], trie, budget, probes)
            if r:
                return r
        return None  # no probe, no demand to meet
    # output slots: follow the stream's own (unique) choice
    speaking = [n for n in nodes if n in said and said[n][1] is not None]
    if not speaking:
        return (_PEND, path)
    j, key = min(said[n] for n in speaking)
    if kind == OUT_CODE:
        # decode, run, and check the emitted stream against the body
        try:
            prog = vm.godel_decode(key)
        except vm.DecodeError as e:
            return (_REJ, j, f"code does not decode: {e}")
        inner = vm.run_stream(prog, {}, budget.vm_steps)
        try:
            v = check_witness(inner, instantiate(s[1], env), budget)
        except vm.VMError as e:
            return (_REJ, j, f"decoded program fails: {e}")
        if v.status == "rejected":
            return (_REJ, j, f"decoded program fails: {v.line()}")
        if v.status == "pending":
            return (_PEND, list(v.missing) if v.missing else path)
        return None
    branch = [edges[n, key] for n in speaking]
    if kind == OUT_NUM:
        return _walk(s[2], {**env, s[1]: key}, branch, path, trie, budget, probes)
    return _walk(s[1 + key], env, branch, path, trie, budget, probes)


# ---------------------------------------------------------------------------
# the checker

# hard ceiling on the enumeration work a single content decision may take
_DECISION_ALLOWANCE = 200_000


def _decision_cost(f: Formula, budget: Budget) -> int:
    """Upper bound on the points eval3 would visit deciding f, memoized
    on f per (numeral_bound, search_bound)."""
    key = (budget.numeral_bound, budget.search_bound)
    if f._costs is None:
        object.__setattr__(f, "_costs", {})
    elif key in f._costs:
        return f._costs[key]
    if isinstance(f, Atom):
        cost = 1
    elif isinstance(f, (Not, Box)):
        cost = 1 + _decision_cost(f.body, budget)
    elif isinstance(f, (And, Or, Implies)):
        cost = 1 + _decision_cost(f.left, budget) + _decision_cost(f.right, budget)
    else:
        bound = budget.numeral_bound if isinstance(f, Forall) else budget.search_bound
        cost = 1 + (bound + 1) * _decision_cost(f.body, budget)
    f._costs[key] = cost
    return cost


def _content_cost(parts, budget: Budget) -> int:
    """_decision_cost of the claim content_parts' parts stand for, read
    off the uninstantiated spine: instantiating keeps a formula's shape,
    and k hypotheses add k - 1 conjunctions and one implication."""
    hyps, rest, _ = parts
    return _decision_cost(rest, budget) + sum(1 + _content_cost(h, budget) for h in hyps)


def _refuted(parts, budget: Budget) -> bool:
    """Definite refutation of a shaped pair's content, given as
    content_parts' parts, declined when deciding it would blow the
    enumeration allowance.  Declining keeps the checker sound: it only
    ever rejects on a decision it completed.

    The claim is costed on the spine before any of it is built, and its
    conclusion is judged under its integer environment.
    """
    if _content_cost(parts, budget) > _DECISION_ALLOWANCE:
        return False
    hyps, rest, env = parts
    claim = Implies(conj_all(map(content, hyps)), rest) if hyps else rest
    return eval3(claim, env, budget.numeral_bound, budget.search_bound) is FALSE


def check_witness(w: WitnessStream, f: Formula, budget: Budget, probes=()) -> Verdict:
    """Judge a stream against a statement within the given budget."""
    shaped = []  # (raw, shaped pair, path, parts) for each pair
    for item in w.pull(budget.pull_limit):
        if is_pair(item):
            try:
                shaped.append((item, *shape_walk(f, item)))
            except ShapeMismatch as e:
                return _rejected(budget, item, str(e))

    hit, *trie = _index([path for _, _, path, _ in shaped])
    if hit:
        j, i, kind = hit
        return _rejected(budget, shaped[j][0], kind, conflict=shaped[i][0])

    # per-pair content, rejected only on a definite refutation
    for raw, p, _, parts in shaped:
        if _refuted(parts, budget):
            return _rejected(budget, raw, content(parts))
        if isinstance(f, Implies) and p.inputs and isinstance(p.inputs[0], Prefix):
            lead = p.inputs[0]
            rest = IOPair(p.inputs[1:], p.outputs)
            for probe in probes:
                if not probe.trusted or probe.formula != f.left:
                    continue
                observed = Prefix(probe.stream.pull(len(lead.items)))
                if not observed.extends(lead):
                    continue
                parts = shape_walk(f.right, rest)[2]
                if _refuted(parts, budget):
                    return _rejected(budget, raw, content(parts))

    # the walk starts at the root only if some pair reached it
    r = _walk(f, {}, [0] if shaped else [], [], trie, budget, list(probes))
    if r is None:
        return _accepted(budget)
    if r[0] == _PEND:
        return _pending(budget, r[1])
    return _rejected(budget, shaped[r[1]][0], r[2])


def check_realizability(f: Formula, code, budget: Budget, inputs=None, probes=()) -> Verdict:
    """Run witness-machine code under the budget and judge its stream.

    The code is a program, or its Gödel code as an int or a Numeral.
    Boxed positions keep their usual demand for further codes, and
    transformer programs are exercised by naming their input streams
    (keys of inputs, queried by number from inside the machine) and
    supplying matching trusted probes.
    """
    if isinstance(code, vm.WCode):
        prog = code
    else:
        prog = vm.godel_decode(code.value if isinstance(code, Numeral) else int(code))
    stream = vm.run_stream(prog, inputs or {}, budget.vm_steps)
    return check_witness(stream, f, budget, probes)


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
    suffixes = _synth(f, {}, budget)
    if suffixes is EXHAUSTED:
        raise SynthesisFailed(
            f"no witness found within numerals<={budget.search_bound}: {print_formula(f)}"
        )
    items = []
    if input_rooted(f):
        items.append(TRIVIAL)
    items.extend(IOPair(tuple(i), tuple(o)) for i, o in suffixes)
    return WitnessStream.from_items(items)


def _synth(g: Formula, env: dict, budget: Budget):
    """The (inputs, outputs) token suffixes answering g, or EXHAUSTED.

    env holds the values of g's instantiated variables; truth is
    eval2's, with universals up to the numeral bound and existentials
    up to the search bound.
    """
    bounds = (budget.numeral_bound, budget.search_bound)
    s = slot(g)
    kind = s[0]
    if kind == END:
        return [((), ())] if eval2(g, env, *bounds) else EXHAUSTED
    if kind == IN_NUM:
        _, var, body = s
        out = []
        for n in range(budget.numeral_bound + 1):
            sub = _synth(body, {**env, var: n}, budget)
            if sub is EXHAUSTED:
                return EXHAUSTED
            out.extend(((Numeral(n),) + i, o) for i, o in sub)
        return out
    if kind == IN_SEL:
        out = []
        for choice in (0, 1):
            sub = _synth(s[1 + choice], env, budget)
            if sub is EXHAUSTED:
                return EXHAUSTED
            out.extend(((Selector(choice),) + i, o) for i, o in sub)
        return out
    if kind == IN_PREFIX:
        raise ValueError("implications are outside the synthesizable shape")
    if kind == OUT_NUM:
        _, var, body = s
        for v in range(budget.search_bound + 1):
            inst_env = {**env, var: v}
            if not eval2(body, inst_env, *bounds):
                continue
            sub = _synth(body, inst_env, budget)
            if sub is EXHAUSTED:
                continue
            return [(i, (Numeral(v),) + o) for i, o in sub]
        return EXHAUSTED
    if kind == OUT_SEL:
        for choice in (0, 1):
            side = s[1 + choice]
            if not eval2(side, env, *bounds):
                continue
            sub = _synth(side, env, budget)
            if sub is EXHAUSTED:
                continue
            return [(i, (Selector(choice),) + o) for i, o in sub]
        return EXHAUSTED
    # OUT_CODE: bake the body's witness into a literal emitter program
    body = s[1]
    sub = _synth(body, env, budget)
    if sub is EXHAUSTED:
        return EXHAUSTED
    inner = []
    if input_rooted(body):
        inner.append(TRIVIAL)
    inner.extend(IOPair(tuple(i), tuple(o)) for i, o in sub)
    emits = " ".join(f"(emit {vm.encode_item(it)})" for it in inner)
    prog = vm.program(f"(prog (seq {emits}))")
    return [((), (Numeral(prog.godel()),))]
