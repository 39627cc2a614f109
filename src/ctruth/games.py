"""Adversarial witness games at desk scale.

Finite prefix-closed binary trees are arithmetized through tables:
membership, length, incomparability and labelling become finite
disjunctions of equalities over coded sequences, so every move a
player makes is an ordinary witness item that the budgeted checker
can judge.  Strategies are reactive objects; a play alternates one
adversary item and one defender item per round and the referee then
checks the produced streams.

Four games live here:

  * the branching game (``play_theorem1``): the defender asserts
    that arbitrarily deep decided nodes yield two incompatible
    decided nodes, against an adversary who delivers nodes along a
    designated branch and withholds the labels of everything else;
  * the implication-chain game (``prop3_duality``): witnesses for a
    chain of implications are composed behaviourally and the
    propositional combination extracted from the wiring is checked
    for tautology, honest chains against broken ones;
  * the descending-branch encoder (``pi11_encode``): a witness that
    hunts for a dead end by greedy descent and, once found, encodes
    the visited nodes as whitespace delays before answering;
  * narrow replay (``narrow_play``): scripted spawn/copy/feed/pull
    runs that compare instances sharing a fed transcript, flagging
    outputs that depend on anything beyond it.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import vm
from .checker import Budget, Probe, check_witness
from .combinators import apply_implication, normalize_strict
from .formula import (
    _CONNECTIVES,
    And,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    disj_all,
    eq,
    numeral,
    print_formula,
)
from .witness import (
    IOPair,
    Numeral,
    Prefix,
    Selector,
    TRIVIAL,
    WS,
    Whitespace,
    WitnessStream,
)


# ---------------------------------------------------------------------------
# tree presentations


def seq_code(bits) -> int:
    """Code a binary sequence as a number, via the pairing list code."""
    return vm.list_encode(list(bits))


def seq_decode(code: int):
    return tuple(vm.list_decode(code))


@dataclass(frozen=True)
class TreePresentation:
    """A finite prefix-closed set of binary sequences, root included."""

    nodes: frozenset

    def __post_init__(self):
        if () not in self.nodes:
            raise ValueError("presentation must contain the root")
        for node in self.nodes:
            if node[:-1] not in self.nodes:
                raise ValueError("presentation must be prefix closed")
            if any(b not in (0, 1) for b in node):
                raise ValueError(f"presentation entries must be 0 or 1, not {node}")

    @classmethod
    def from_sequences(cls, seqs) -> "TreePresentation":
        closed = {()}
        for s in seqs:
            s = tuple(int(b) for b in s)
            for i in range(len(s) + 1):
                closed.add(s[:i])
        return cls(frozenset(closed))

    def contains(self, bits) -> bool:
        return tuple(bits) in self.nodes

    @cached_property
    def _tables(self):
        """Sorted nodes, incomparable pairs and node codes, once per tree."""
        nodes = tuple(sorted(self.nodes, key=lambda n: (len(n), n)))
        pairs = tuple((a, b) for a in nodes for b in nodes if _incomparable(a, b))
        return nodes, pairs, {node: seq_code(node) for node in nodes}

    def sorted_nodes(self) -> tuple:
        return self._tables[0]

    def code(self, node) -> int:
        """seq_code of a node of the tree."""
        return self._tables[2][node]

    def depth(self) -> int:
        return max(len(n) for n in self.nodes)

    def designated_branch(self):
        """The lexicographically first maximal path, as a node list."""
        path = ()
        out = [path]
        while True:
            for b in (0, 1):
                if path + (b,) in self.nodes:
                    path = path + (b,)
                    out.append(path)
                    break
            else:
                return out

    def incomparable_pairs(self) -> tuple:
        """Ordered pairs of nodes neither of which extends the other."""
        return self._tables[1]

    def is_chain(self) -> bool:
        return not self.incomparable_pairs()


def subtrees_of_depth(depth: int):
    """Every nonempty prefix-closed subtree of the full binary tree."""

    def build(d):
        if d == 0:
            return [frozenset({()})]
        subs = build(d - 1)
        out = []
        for left in [None] + subs:
            for right in [None] + subs:
                nodes = {()}
                if left is not None:
                    nodes |= {(0,) + t for t in left}
                if right is not None:
                    nodes |= {(1,) + t for t in right}
                out.append(frozenset(nodes))
        return out

    return [TreePresentation(n) for n in build(depth)]


# ---------------------------------------------------------------------------
# finite-table arithmetization


def inlen_table(n_term, s_term, tree):
    """n is a length realized in the tree and s is a node of that length."""
    return disj_all(
        And(eq(n_term, numeral(len(node))), eq(s_term, numeral(tree.code(node))))
        for node in tree.sorted_nodes()
    )


def incomp_table(s_term, u_term, tree):
    return disj_all(
        And(eq(s_term, numeral(tree.code(a))), eq(u_term, numeral(tree.code(b))))
        for a, b in tree.incomparable_pairs()
    )


def label_table(s_term, b_term, tree, labels):
    return disj_all(
        And(eq(s_term, numeral(tree.code(node))), eq(b_term, numeral(labels[node])))
        for node in tree.sorted_nodes()
    )


def antecedent_formula(tree, labels):
    """Every length is realized by a decided in-tree node."""
    n, s, b = Var("n"), Var("s"), Var("b")
    matrix = And(inlen_table(n, s, tree), label_table(s, b, tree, labels))
    return Forall("n", Exists("s", Exists("b", matrix)))


def consequent_formula(tree, labels):
    """Two incomparable nodes exist, both decided."""
    s, u, b, c = Var("s"), Var("u"), Var("b"), Var("c")
    matrix = And(
        And(incomp_table(s, u, tree), label_table(s, b, tree, labels)),
        label_table(u, c, tree, labels),
    )
    return Exists("s", Exists("u", Exists("b", Exists("c", matrix))))


@lru_cache(maxsize=1)
def _statements(tree, label_items):
    """The antecedent, consequent and implication of a play, kept for
    the last tree and labelling only: the plays of a row then share one
    set of nodes, so each node's spine record, compiled closures and
    exact decision costs are built once per row.  A sweep over many trees
    keeps each tree's node tables, but only the last tree's formulas."""
    labels = dict(label_items)
    a_formula = antecedent_formula(tree, labels)
    c_formula = consequent_formula(tree, labels)
    return a_formula, c_formula, Implies(a_formula, c_formula)


def _or_path(n_disjuncts: int, index: int):
    """Selector outputs reaching a disjunct of a left-folded chain."""
    if n_disjuncts <= 1:
        return []
    path = [Selector(0)] * (n_disjuncts - 1 - index)
    if index > 0:
        path.append(Selector(1))
    return path


def _table_pairs(lead_ins, lead_outs, branch, size, index, conjunct_pair=True):
    """Items answering one branch of a conjunction of tables.

    branch is the selector input path to the table, size/index locate
    the disjunct, and a disjunct that is itself a conjunction of two
    equalities needs one item per side.
    """
    sels = _or_path(size, index)
    legs = (Selector(0), Selector(1)) if conjunct_pair and size > 0 else (None,)
    out = []
    for leg in legs:
        ins = list(lead_ins) + [Selector(b) for b in branch]
        if leg is not None:
            ins.append(leg)
        out.append(IOPair(tuple(ins), tuple(lead_outs) + tuple(sels)))
    return out


def delivery_items(tree, labels, n, node):
    """Adversary items answering demand n with the given decided node.

    Selector paths are read off the table positions, so building a
    delivery never evaluates anything.
    """
    index = tree.sorted_nodes().index(node)
    size = len(tree.nodes)
    lead_ins = [Numeral(n)]
    lead_outs = [Numeral(tree.code(node)), Numeral(labels[node])]
    return _table_pairs(lead_ins, lead_outs, (0,), size, index) + _table_pairs(
        lead_ins, lead_outs, (1,), size, index
    )


def claim_items(tree, prefix_items, s_node, u_node, b_val, c_val):
    """Defender items asserting the consequent for the given values.

    The selector paths depend only on table shape, never on the label
    values, so a defender can always produce structurally valid items;
    whether their content survives the checker is another matter.
    """
    nodes = tree.sorted_nodes()
    size = len(nodes)
    pairs = tree.incomparable_pairs()
    try:
        ip = pairs.index((s_node, u_node))
    except ValueError:
        ip = 0  # claimed pair is not incomparable; any disjunct refutes it
    lead = [Prefix(tuple(prefix_items))]
    outs = [
        Numeral(tree.code(s_node)),
        Numeral(tree.code(u_node)),
        Numeral(b_val),
        Numeral(c_val),
    ]
    items = _table_pairs(lead, outs, (0, 0), len(pairs), ip)
    items += _table_pairs(lead, outs, (0, 1), size, nodes.index(s_node))
    items += _table_pairs(lead, outs, (1,), size, nodes.index(u_node))
    return items


def delivered_nodes(items, seen=None):
    """Parse (demand, node, label) triples out of adversary items.

    seen, when given, is a demand -> (node, label) table to extend, so a
    reader can pass only the items that are new to it.  The first
    delivery of a demand wins, and each node is decoded once.
    """
    if seen is None:
        seen = {}
    for it in items:
        if not isinstance(it, IOPair) or len(it.inputs) < 1 or len(it.outputs) < 2:
            continue
        head, s, b = it.inputs[0], it.outputs[0], it.outputs[1]
        if (
            isinstance(head, Numeral)
            and isinstance(s, Numeral)
            and isinstance(b, Numeral)
            and head.value not in seen
        ):
            seen[head.value] = (seq_decode(s.value), b.value)
    return [(n, node, lab) for n, (node, lab) in sorted(seen.items())]


def _incomparable(a, b) -> bool:
    """Neither sequence extends the other."""
    return a[: len(b)] != b and b[: len(a)] != a


def _first_incomparable(got):
    """The first (a, b, la, lb) of delivered triples whose nodes are
    incomparable, or None."""
    for i, (_, a, la) in enumerate(got):
        for _, b, lb in got[i + 1 :]:
            if _incomparable(a, b):
                return a, b, la, lb
    return None


# ---------------------------------------------------------------------------
# strategies


class Adversary:
    """Labels every node 1 in its commitment and plays, one item a
    round, the trivial pair and then a delivery for each (demand, node)
    of its schedule.  A subclass supplies schedule(tree)."""

    def schedule(self, tree):
        raise NotImplementedError

    def reset(self, tree):
        self.labels = {node: 1 for node in tree.sorted_nodes()}
        self.queue = [TRIVIAL]
        for n, node in self.schedule(tree):
            self.queue.extend(delivery_items(tree, self.labels, n, node))

    def move(self, r, defender_items):
        return self.queue.pop(0) if self.queue else WS


class DesignatedBranchAdversary(Adversary):
    """Feeds decided nodes along the first maximal branch, nothing else.

    Since only branch nodes are ever delivered, a defender who
    fabricates a label for an off-branch node asserts content the
    tables refute.
    """

    def schedule(self, tree):
        return enumerate(tree.designated_branch())


class GenerousAdversary(Adversary):
    """Delivers an incomparable decided pair whenever lengths permit.

    Demands are answered one node per length, so incomparability can
    only be exhibited through nodes of distinct lengths.
    """

    def schedule(self, tree):
        by_len = {}
        for node in tree.sorted_nodes():
            by_len.setdefault(len(node), node)
        for a, b in tree.incomparable_pairs():
            if len(a) != len(b):
                by_len.update({len(a): a, len(b): b})
                break
        return sorted(by_len.items())


class Defender:
    """Leads with the trivial pair, then commits to one claim at most.

    A subclass says what it claims through claim(r, antecedent_items):
    None to wait, () to give up, or (a, b, la, lb) to claim that pair
    of nodes with those labels.  The base never speaks after its lead.
    """

    lead = (TRIVIAL,)

    def reset(self, tree):
        self.tree = tree
        self.queue = list(self.lead)
        self.committed = False
        self.got = {}  # demand -> (node, label), kept across moves
        self.read = 0  # antecedent items already decoded into got

    def delivered(self, antecedent_items):
        """The delivered (demand, node, label) triples so far; each
        antecedent item is decoded once per play."""
        new = antecedent_items[self.read :]
        self.read = len(antecedent_items)
        return delivered_nodes(new, self.got)

    def claim(self, r, antecedent_items):
        return ()

    def _guess(self):
        """Labels 0 for the first incomparable pair of the public tree."""
        pairs = self.tree.incomparable_pairs()
        return pairs[0] + (0, 0) if pairs else ()

    def _commit(self, found, antecedent_items):
        if found:
            self.queue.extend(claim_items(self.tree, antecedent_items, *found))
        self.committed = True

    def move(self, r, antecedent_items):
        if not self.committed:
            found = self.claim(r, antecedent_items)
            if found is not None:
                self._commit(found, antecedent_items)
        return self.queue.pop(0) if self.queue else WS


class SilentDefender(Defender):
    """Never speaks.  Correct exactly when the consequent is never owed."""

    lead = ()


class WaitingCopier(Defender):
    """Echoes delivered nodes back once two of them are incomparable."""

    delay = 0

    def reset(self, tree):
        super().reset(tree)
        self.ready_since = None

    def _witnessed(self, antecedent_items):
        return _first_incomparable(self.delivered(antecedent_items))

    def claim(self, r, antecedent_items):
        found = self._witnessed(antecedent_items)
        if found is None:
            return None
        if self.ready_since is None:
            self.ready_since = r
        return found if r - self.ready_since >= self.delay else None


class DelayedCopier(WaitingCopier):
    """Same as the copier, five rounds late."""

    delay = 5


class EagerCommitter(Defender):
    """Commits on the first two delivered nodes, compatible or not."""

    def claim(self, r, antecedent_items):
        got = self.delivered(antecedent_items)
        if len(got) < 2:
            return None
        (_, a, la), (_, b, lb) = got[:2]
        return a, b, la, lb


class TableGuesser(Defender):
    """Reads an incomparable pair off the public tree and guesses labels 0."""

    def claim(self, r, antecedent_items):
        return self._guess() if r >= 1 else None


class CopierWithGuess(WaitingCopier):
    """Copies honestly, but loses patience and guesses after a while."""

    patience = 6

    def move(self, r, antecedent_items):
        item = super().move(r, antecedent_items)
        if not self.committed and r >= self.patience:
            # queued after this round's item, so played from the next round
            self._commit(self._guess(), antecedent_items)
        return item


def defender_library():
    return [
        WaitingCopier(),
        DelayedCopier(),
        SilentDefender(),
        EagerCommitter(),
        TableGuesser(),
        CopierWithGuess(),
    ]


# ---------------------------------------------------------------------------
# the branching game


@dataclass
class GameTrace:
    kind: str
    outcome: str
    reason: str
    rounds: int
    antecedent_items: tuple
    defender_items: tuple
    judged: tuple = ()  # the referee's Verdicts, in the order given

    @property
    def verdicts(self) -> tuple:
        """The referee's verdict lines, rendered when read."""
        return tuple(v.line() for v in self.judged)

    def accepted(self) -> bool:
        return self.outcome == "accept"


def play_theorem1(tree, defender, adversary, horizon=10000, budget=None) -> GameTrace:
    """One full play of the branching game, refereed by the checker.

    The defender is accepted when its stream is never rejected against
    the implication and, should the adversary actually deliver an
    incomparable decided pair, the applied output stands as a witness
    for the consequent.  A play on which the consequent is never owed
    is accepted vacuously.
    """
    if budget is None:
        budget = Budget(pull_limit=64, numeral_bound=2, vm_steps=200)
    adversary.reset(tree)
    defender.reset(tree)
    ante, mine = [], []
    quiet = 0
    rounds = 0
    while rounds < horizon and quiet < 6:
        a = adversary.move(rounds, tuple(mine))
        ante.append(a)
        d = defender.move(rounds, tuple(ante))
        mine.append(d)
        quiet = quiet + 1 if isinstance(a, Whitespace) and isinstance(d, Whitespace) else 0
        rounds += 1

    a_formula, c_formula, g_formula = _statements(
        tree, tuple(sorted(adversary.labels.items()))
    )
    a_stream = WitnessStream.from_items(ante)
    d_stream = WitnessStream.from_items(mine)

    direct = check_witness(
        d_stream, g_formula, budget, probes=(Probe(a_formula, a_stream, trusted=True),)
    )
    judged = [direct]
    if direct.status == "rejected":
        outcome, reason = "defeat", "rejected"
    elif _first_incomparable(delivered_nodes(ante)) is None:
        outcome, reason = "accept", "vacuous"  # the consequent is never owed
    else:
        applied = check_witness(apply_implication(d_stream, a_stream), c_formula, budget)
        judged.append(applied)
        if applied.status == "accepted_up_to":
            outcome, reason = "accept", "effective"
        else:
            outcome, reason = "defeat", "consequent-missing"
    return GameTrace(
        "theorem1", outcome, reason, rounds, tuple(ante), tuple(mine), tuple(judged)
    )


def dichotomy_row(tree, horizon=10000, budget=None):
    """Outcomes of the whole defender library against the designated
    adversary, as (defender class name, outcome, reason) triples."""
    row = []
    for d in defender_library():
        trace = play_theorem1(tree, d, DesignatedBranchAdversary(), horizon, budget)
        row.append((type(d).__name__, trace.outcome, trace.reason))
    return row


# ---------------------------------------------------------------------------
# implication chains and their propositional shadow


def chain_link_witness(i: int, fake_antecedent=None) -> WitnessStream:
    """A witness for the i-th link.  With fake_antecedent set, the link
    listens for the wrong answer and never fires on honest input."""
    expect = fake_antecedent if fake_antecedent is not None else i
    head = IOPair((), (Numeral(expect),))
    pair = IOPair((Prefix((head,)),), (Numeral(i + 1),))
    return WitnessStream.from_items([TRIVIAL, pair])


def build_chain(length: int, break_at=None):
    """Link descriptions (antecedent, consequent, witness) for a chain.

    A broken link advertises the same statement but its witness waits
    for an antecedent nobody produces.
    """
    links = []
    for i in range(length):
        fake = i + 100 if break_at == i else None
        links.append(
            (
                Exists("y", eq(Var("y"), numeral(i if fake is None else fake))),
                Exists("y", eq(Var("y"), numeral(i + 1))),
                chain_link_witness(i, fake),
            )
        )
    return links


def extract_combination(links, start, goal):
    """The propositional shape of a chain wiring.

    Distinct statements become distinct atoms; the combination says
    the conjunction of the links plus the start entails the goal.
    """
    atoms = {}

    def atom(f):
        key = print_formula(f)
        if key not in atoms:
            atoms[key] = ("var", len(atoms))
        return atoms[key]

    parts = [("imp", atom(a), atom(c)) for a, c, _ in links]
    parts.append(atom(start))
    left = parts[0]
    for p in parts[1:]:
        left = ("and", left, p)
    return ("imp", left, atom(goal)), len(atoms)


class TooManyAtoms(Exception):
    pass


def _kleene(f, names):
    """f's three-valued closure built from formula's connectives; an
    unset atom reads None, unknown.  Adds each atom's index to names."""
    tag = f[0]
    if tag == "var":
        i = f[1]
        names.add(i)
        return lambda env, fb, eb: env.get(i)
    if tag == "const":
        b = f[1]
        return lambda env, fb, eb: b
    kind = {"not": Not, "and": And, "or": Or, "imp": Implies}.get(tag)
    if kind is None:
        raise ValueError(f"unknown connective {tag!r}")
    return _CONNECTIVES[True][kind](*(_kleene(g, names) for g in f[1:]))


DPLL_ATOM_CAP = 24


def dpll_tautology(f) -> bool:
    """Splitting tautology check with three-valued pruning; raises
    TooManyAtoms past DPLL_ATOM_CAP atoms."""
    names = set()
    run = _kleene(f, names)
    if len(names) > DPLL_ATOM_CAP:
        raise TooManyAtoms(f"{len(names)} atoms exceeds the cap of {DPLL_ATOM_CAP}")
    order = sorted(names)

    def solve(env):
        v = run(env, 0, 0)
        if v is not None:
            return v
        x = next(n for n in order if n not in env)
        return solve({**env, x: False}) and solve({**env, x: True})

    return solve({})


def prop3_duality(length: int, break_at=None, budget=None):
    """Play a chain behaviourally and extract its propositional shadow.

    Returns a report with the final verdict of the composed stream and
    the tautology status of the extracted combination.  Honest chains
    come out tautological and accepted; a broken chain is neither.
    """
    if budget is None:
        budget = Budget(pull_limit=48, numeral_bound=4, vm_steps=100)
    links = build_chain(length, break_at)
    stream = WitnessStream.from_items([IOPair((), (Numeral(0),))])
    for i, (_, _, w) in enumerate(links):
        stage = Exists("y", eq(Var("y"), numeral(i + 1)))
        stream = normalize_strict(apply_implication(w, stream), stage)
    goal = Exists("y", eq(Var("y"), numeral(length)))
    verdict = check_witness(stream, goal, budget)
    start = Exists("y", eq(Var("y"), numeral(0)))
    combination, n_atoms = extract_combination(links, start, goal)
    return {
        "length": length,
        "broken_at": break_at,
        "atoms": n_atoms,
        "tautological": dpll_tautology(combination),
        "combination": combination,
        "verdict": verdict.line(),
        "accepted": verdict.status == "accepted_up_to",
    }


# ---------------------------------------------------------------------------
# descending-branch encoding


def pi11_encode(presentation, guess_horizon=64) -> WitnessStream:
    """Hunt for a dead end by greedy descent and encode the visit.

    The visited node codes are spelt out as whitespace delays: the
    first gap before a trivial pair gives the count, then each code c
    appears as a gap of c+1 before the next trivial pair.  The answer
    pairs for the dead-end statement follow.  A presentation that
    keeps offering children within the horizon produces nothing but
    whitespace: the encoder is still waiting.
    """
    path = ()
    visited = [path]
    dead_end = None
    for _ in range(guess_horizon):
        for b in (0, 1):
            if presentation.contains(path + (b,)):
                path = path + (b,)
                visited.append(path)
                break
        else:
            dead_end = path
            break

    def items():
        if dead_end is None:
            while True:
                yield WS
        codes = [presentation.code(n) for n in visited]
        for _ in range(len(codes)):
            yield WS
        yield TRIVIAL
        for c in codes:
            for _ in range(c + 1):
                yield WS
            yield TRIVIAL
        leaves = [
            n
            for n in presentation.sorted_nodes()
            if n + (0,) not in presentation.nodes
            and n + (1,) not in presentation.nodes
        ]
        lead_out = [Numeral(presentation.code(dead_end))]
        for p in _table_pairs(
            [], lead_out, (), len(leaves), leaves.index(dead_end), conjunct_pair=False
        ):
            yield p

    return WitnessStream(items)


def pi11_decode(stream: WitnessStream, pull=512):
    """Invert the delay encoding: (visited codes, remaining items)."""
    items = stream.pull(pull)
    gaps, rest = [], []
    run = 0
    cursor = 0
    for cursor, it in enumerate(items):
        if isinstance(it, Whitespace):
            run += 1
        elif it == TRIVIAL and not rest:
            gaps.append(run)
            run = 0
        else:
            rest = items[cursor:]
            break
    if not gaps:
        return [], []
    count = gaps[0]
    codes = [g - 1 for g in gaps[1 : 1 + count]]
    return codes, [it for it in rest if not isinstance(it, Whitespace)]


# ---------------------------------------------------------------------------
# narrow replay


@dataclass
class NarrowReport:
    status: str
    compared: int
    conflicts: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class _Instance:
    def __init__(self, factory):
        self.strategy = factory()
        self.feeds = []
        self.pulls = []  # the items pulled, in order

    def feed(self, item):
        self.strategy.feed(item)
        self.feeds.append(item)

    def pull(self):
        self.pulls.append(self.strategy.pull())


def parse_script(text: str):
    events = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        op = parts[0].upper()
        if op == "SPAWN" and len(parts) == 2:
            events.append(("spawn", parts[1]))
        elif op == "COPY" and len(parts) == 3:
            events.append(("copy", parts[1], parts[2].strip()))
        elif op == "FEED" and len(parts) == 3:
            items = WitnessStream.from_text(parts[2]).pull(256)
            events.append(("feed", parts[1], items))
        elif op == "FEEDWS" and len(parts) == 3:
            events.append(("feedws", parts[1], int(parts[2])))
        elif op == "PULL" and len(parts) == 3:
            events.append(("pull", parts[1], int(parts[2])))
        else:
            raise ValueError(f"bad script line: {raw!r}")
    return events


def narrow_play(factory, script_text: str) -> NarrowReport:
    """Drive instances of a candidate by script and compare replays.

    COPY rebuilds an instance from the fed transcript alone, the
    point being that a narrow candidate cannot tell the difference.
    Violation means two instances with prefix-comparable transcripts
    disagreed on a settled (non-whitespace) output at the same index.
    """
    events = parse_script(script_text)
    instances = {}
    for ev in events:
        name = ev[1]
        if ev[0] != "spawn" and name not in instances:
            raise ValueError(f"{ev[0].upper()} names {name!r}, which was never spawned")
        if ev[0] == "spawn":
            instances[name] = _Instance(factory)
        elif ev[0] == "copy":
            src, fresh = instances[name], _Instance(factory)
            for item in src.feeds:
                fresh.feed(item)
            instances[ev[2]] = fresh
        elif ev[0] == "feed":
            for item in ev[2]:
                instances[name].feed(item)
        elif ev[0] == "feedws":
            for _ in range(ev[2]):
                instances[name].feed(WS)
        elif ev[0] == "pull":
            for _ in range(ev[2]):
                instances[name].pull()

    compared = 0
    conflicts = []
    names = sorted(instances)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            a, b = instances[x], instances[y]
            fa, fb = tuple(a.feeds), tuple(b.feeds)
            if _incomparable(fa, fb):
                continue
            for k, (va, vb) in enumerate(zip(a.pulls, b.pulls)):
                if isinstance(va, Whitespace) or isinstance(vb, Whitespace):
                    continue
                compared += 1
                if va != vb:
                    conflicts.append((x, y, k, str(va), str(vb)))
    status = (
        "violated" if conflicts else "met_so_far" if compared else "undetermined"
    )
    outputs = {n: [str(v) for v in inst.pulls] for n, inst in instances.items()}
    return NarrowReport(status, compared, conflicts, outputs)


class NarrowEcho:
    """Reference narrow candidate: the k-th output is the k-th fed item."""

    def __init__(self):
        self.feeds = []
        self.cursor = 0

    def feed(self, item):
        self.feeds.append(item)

    def pull(self):
        if self.cursor < len(self.feeds):
            item = self.feeds[self.cursor]
            self.cursor += 1
            return item
        return WS


class MoodyCounter:
    """Deliberately non-narrow: remembers how often it was pulled before
    its first feed, which a transcript replay cannot reproduce."""

    def __init__(self):
        self.early_pulls = 0
        self.fed = False

    def feed(self, item):
        self.fed = True

    def pull(self):
        if not self.fed:
            self.early_pulls += 1
        return IOPair((), (Numeral(self.early_pulls),))
