from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from ctruth import checker, games, vm
from ctruth.checker import Budget, Verdict
from ctruth.formula import parts
from ctruth.games import (
    DesignatedBranchAdversary,
    GenerousAdversary,
    MoodyCounter,
    NarrowEcho,
    TreePresentation,
    WaitingCopier,
    _statements,
    defender_library,
    delivered_nodes,
    delivery_items,
    dichotomy_row,
    dpll_tautology,
    narrow_play,
    pi11_decode,
    pi11_encode,
    play_theorem1,
    prop3_duality,
    seq_code,
    seq_decode,
    subtrees_of_depth,
)
from ctruth.witness import TRIVIAL

from conftest import run_capped
import oracles
from oracles import is_tautology


def test_presentation_requires_prefix_closure():
    with pytest.raises(ValueError):
        TreePresentation(frozenset({(), (0, 0)}))
    with pytest.raises(ValueError):
        TreePresentation(frozenset({(0,)}))


@pytest.mark.parametrize("entry", [2, -1, 999999999999])
def test_presentation_entries_are_zero_or_one(entry):
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        TreePresentation.from_sequences([(0, 0), (0, entry)])
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        TreePresentation(frozenset({(), (entry,)}))


def test_from_sequences_closes_prefixes():
    t = TreePresentation.from_sequences([(1, 0)])
    assert t.nodes == {(), (1,), (1, 0)}
    assert t.depth() == 2


def test_designated_branch_is_lexicographically_first():
    t = TreePresentation.from_sequences([(0, 1), (1, 0), (1, 1)])
    assert t.designated_branch() == [(), (0,), (0, 1)]


def test_incomparable_pairs_and_chains():
    chain = TreePresentation.from_sequences([(0, 0)])
    assert chain.is_chain()
    fork = TreePresentation.from_sequences([(0,), (1,)])
    assert ((0,), (1,)) in fork.incomparable_pairs()
    assert not fork.is_chain()


def test_subtree_census():
    # each child slot is either empty or any subtree one level shorter:
    # s(d) = (1 + s(d-1))^2, s(0) = 1
    assert len(subtrees_of_depth(0)) == 1
    assert len(subtrees_of_depth(1)) == 4
    assert len(subtrees_of_depth(2)) == 25
    assert len(subtrees_of_depth(3)) == 676


@given(st.lists(st.lists(st.integers(0, 1), max_size=4), max_size=5))
@settings(max_examples=80, deadline=None)
def test_designated_branch_properties(seqs):
    t = TreePresentation.from_sequences(seqs)
    branch = t.designated_branch()
    assert branch[0] == ()
    for a, b in zip(branch, branch[1:]):
        assert b[: len(a)] == a
        # greedy 0-first: a 0-child on the branch only if no... the 0 side
        # is preferred, so a 1-step means the 0-sibling is absent
        if b == a + (1,):
            assert a + (0,) not in t.nodes


def test_equal_length_fork_stays_vacuous():
    t = TreePresentation.from_sequences([(0,), (1,)])
    trace = play_theorem1(t, WaitingCopier(), GenerousAdversary(), horizon=200)
    assert trace.outcome == "accept" and trace.reason == "vacuous"


def test_distinct_length_fork_is_answered():
    t = TreePresentation.from_sequences([(0,), (1, 0), (1, 1)])
    trace = play_theorem1(t, WaitingCopier(), GenerousAdversary(), horizon=400)
    assert trace.outcome == "accept" and trace.reason == "effective"


def test_designated_adversary_never_loses_to_the_library():
    t = TreePresentation.from_sequences([(0,), (1, 0), (1, 1)])
    rows = dichotomy_row(t, horizon=2000)
    assert len(rows) >= 5
    for name, outcome, reason in rows:
        assert not (outcome == "accept" and reason == "effective"), name


def test_defender_library_size():
    lib = defender_library()
    assert len(lib) >= 5
    assert len({type(d).__name__ for d in lib}) == len(lib)


def test_prop3_honest_chain_is_tautological():
    r = prop3_duality(3)
    assert r["accepted"] and r["tautological"]
    assert r["atoms"] == 4
    assert is_tautology(r["combination"])  # independent truth table


def test_prop3_broken_chain_is_not():
    r = prop3_duality(3, break_at=1)
    assert not r["accepted"] and not r["tautological"]
    assert not is_tautology(r["combination"])


def test_dpll_matches_truth_table_on_samples():
    for length, break_at in [(2, None), (2, 0), (4, None), (4, 2)]:
        r = prop3_duality(length, break_at)
        assert dpll_tautology(r["combination"]) == is_tautology(r["combination"])


# propositional tuples over up to 8 atoms and all six tags
_PROP = st.recursive(
    st.integers(0, 7).map(lambda i: ("var", i)) | st.booleans().map(lambda b: ("const", b)),
    lambda ch: ch.map(lambda a: ("not", a))
    | st.tuples(st.sampled_from(("and", "or", "imp")), ch, ch),
    max_leaves=14,
)


@given(_PROP)
@example(("or", ("var", 0), ("not", ("var", 0))))
@example(("const", True))
@example(("imp", ("const", False), ("var", 3)))
@settings(max_examples=300, deadline=None)
def test_dpll_agrees_with_its_copy_and_the_truth_table(f):
    got = dpll_tautology(f)
    assert got is oracles.dpll_tautology(f)
    assert got == is_tautology(f)


def test_dpll_refuses_unknown_tags_and_too_many_atoms():
    with pytest.raises(ValueError, match="unknown connective 'xor'"):
        dpll_tautology(("xor", ("var", 0), ("var", 1)))
    wide = ("var", 0)
    for i in range(1, games.DPLL_ATOM_CAP + 1):
        wide = ("and", wide, ("var", i))
    with pytest.raises(games.TooManyAtoms):
        dpll_tautology(wide)


def test_seq_codes_round_trip():
    for bits in [(), (0,), (1,), (0, 1, 1), (1, 0, 0, 1)]:
        assert seq_decode(seq_code(bits)) == bits


def test_pi11_round_trip_on_well_founded_tree():
    t = TreePresentation.from_sequences([(0, 0), (1,)])
    codes, answers = pi11_decode(pi11_encode(t))
    visited = [seq_decode(c) for c in codes]
    assert visited == [(), (0,), (0, 0)]  # greedy 0-first descent
    assert answers  # the dead-end statement gets its table


def test_pi11_endless_presentation_waits():
    class Endless:
        def contains(self, bits):
            return all(b == 0 for b in bits)

    stream = pi11_encode(Endless(), guess_horizon=32)
    assert all(not hasattr(i, "inputs") for i in stream.pull(64))
    assert pi11_decode(pi11_encode(Endless(), guess_horizon=16)) == ([], [])


def test_narrow_echo_meets_script():
    script = "SPAWN a\nFEED a (0:0)\nPULL a 2\nCOPY a b\nPULL b 2\n"
    r = narrow_play(NarrowEcho, script)
    assert r.status == "met_so_far"
    assert r.compared >= 1
    assert not r.conflicts


def test_narrow_moody_counter_violates():
    script = "SPAWN a\nPULL a 2\nFEED a (:)\nCOPY a b\nPULL b 2\n"
    r = narrow_play(MoodyCounter, script)
    assert r.status == "violated"
    assert r.conflicts


def test_script_errors():
    with pytest.raises(ValueError):
        narrow_play(NarrowEcho, "SPAWN\n")
    with pytest.raises(ValueError):
        narrow_play(NarrowEcho, "JUMP a 2\n")


class _OneZeroAdversary(GenerousAdversary):
    """The generous adversary, except that the last node it delivers is
    labelled 0, in its commitment and in the delivery alike."""

    def reset(self, tree):
        super().reset(tree)
        got = delivered_nodes(self.queue)
        self.labels[got[-1][1]] = 0
        self.queue = [TRIVIAL]
        for n, node, _ in got:
            self.queue.extend(delivery_items(tree, self.labels, n, node))


class _OnesCopier(WaitingCopier):
    """The copier, except that it claims label 1 for both nodes."""

    def _witnessed(self, antecedent_items):
        found = super()._witnessed(antecedent_items)
        return found and found[:2] + (1, 1)


def test_statements_are_rebuilt_when_tree_or_labels_change():
    t = TreePresentation.from_sequences([(0, 0), (1,)])
    other = TreePresentation.from_sequences([(0,), (1, 1)])

    def zero_play(tree):
        return play_theorem1(tree, _OnesCopier(), _OneZeroAdversary()).verdicts

    _statements.cache_clear()
    cold = zero_play(t)
    assert cold[0].startswith("VERDICT rejected")

    dichotomy_row(t)  # leaves t's all-ones statements in the cache
    assert zero_play(t) == cold
    ones = play_theorem1(t, _OnesCopier(), GenerousAdversary())
    assert (ones.outcome, ones.reason) == ("accept", "effective")
    assert ones.verdicts != cold

    zero_play(other)
    assert zero_play(t) == cold
    assert play_theorem1(t, _OnesCopier(), GenerousAdversary()).verdicts == ones.verdicts


def test_a_defender_decodes_each_delivery_once(monkeypatch):
    t = TreePresentation.from_sequences([(0, 0), (1,)])
    adversary = GenerousAdversary()
    adversary.reset(t)
    # a late second delivery for demand 0, naming another node
    items = tuple(adversary.queue) + tuple(delivery_items(t, adversary.labels, 0, (1,)))
    d = WaitingCopier()
    d.reset(t)
    read, decoded = [], []
    monkeypatch.setattr(
        games, "delivered_nodes", lambda new, seen: read.extend(new) or delivered_nodes(new, seen)
    )
    monkeypatch.setattr(games, "seq_decode", lambda c: decoded.append(c) or seq_decode(c))
    rounds = [d.delivered(items[:r]) for r in range(1, len(items) + 1)]
    assert tuple(read) == items  # each item is read once
    assert len(decoded) == len(rounds[-1]) == 3  # and each demand decoded once
    monkeypatch.undo()
    for r, got in enumerate(rounds, 1):
        assert got == delivered_nodes(items[:r])
    assert rounds[-1][0] == (0, (), 1)  # the first delivery wins


FULL3 = TreePresentation.from_sequences(product((0, 1), repeat=3))
_PLAY_BUDGET = Budget(pull_limit=64, numeral_bound=2, vm_steps=200)  # play_theorem1's


def test_tree_tables_are_built_once_and_agree_with_the_per_call_computation(monkeypatch):
    trees = subtrees_of_depth(3)
    assert len(trees) == 676
    tables = [oracles.tree_tables(t.nodes) for t in trees]
    for t, (nodes, pairs, codes) in zip(trees, tables):
        assert type(t.sorted_nodes()) is tuple and t.sorted_nodes() == tuple(nodes)
        assert type(t.incomparable_pairs()) is tuple and t.incomparable_pairs() == tuple(pairs)
        assert [t.code(n) for n in t.sorted_nodes()] == codes
        assert t.is_chain() == (not pairs)
    # a second reading of every table computes nothing again
    monkeypatch.setattr(vm, "list_encode", lambda bits: pytest.fail("a node was coded again"))
    monkeypatch.setattr(games, "_incomparable", lambda a, b: pytest.fail("pairs rebuilt"))
    for t, (nodes, pairs, codes) in zip(trees, tables):
        assert t.sorted_nodes() is t.sorted_nodes()
        assert t.incomparable_pairs() == tuple(pairs)
        assert [t.code(n) for n in t.sorted_nodes()] == codes


def _nodes(f):
    """f's distinct formula nodes, shared subformulas counted once."""
    seen, todo = {}, [f]
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            todo.extend(parts(g))
    return list(seen.values())


def test_a_copier_play_prices_only_what_the_allowance_can_decide(monkeypatch):
    _statements.cache_clear()
    calls = []
    cost = checker._decision_cost
    monkeypatch.setattr(checker, "_decision_cost", lambda *a: calls.append(a) or cost(*a))
    adversary = GenerousAdversary()
    trace = play_theorem1(FULL3, WaitingCopier(), adversary)
    assert (trace.outcome, trace.reason) == ("accept", "effective")
    # the antecedent passes the allowance after its three binders, so
    # pricing every node (899 calls, a memo on all 814 nodes) buys nothing
    assert len(calls) <= 200
    implication = _statements(FULL3, tuple(sorted(adversary.labels.items())))[2]
    nodes = _nodes(implication)
    assert len(nodes) == 814
    assert sum(bool(g._costs) for g in nodes) <= 10


def test_verdict_lines_are_rendered_only_when_read(monkeypatch):
    trees = [FULL3] + subtrees_of_depth(3)[::45]
    plays = []

    def never(self):
        raise AssertionError("a verdict line was rendered during a play")

    with monkeypatch.context() as m:
        m.setattr(Verdict, "line", never)
        for t in trees:
            for defender in defender_library():
                adversary = DesignatedBranchAdversary()
                plays.append((t, adversary, play_theorem1(t, defender, adversary)))
            adversary = GenerousAdversary()
            plays.append((t, adversary, play_theorem1(t, WaitingCopier(), adversary)))
            assert len(dichotomy_row(t)) == 6
    for t, adversary, trace in plays:
        assert trace.verdicts == oracles.eager_verdict_lines(
            t, adversary.labels, trace.antecedent_items, trace.defender_items, _PLAY_BUDGET
        )


_DEPTH5 = """
from itertools import product
from ctruth.formula import numeral_value
from ctruth.games import TreePresentation, antecedent_formula, consequent_formula
tree = TreePresentation.from_sequences(product((0, 1), repeat=5))
labels = {node: len(node) % 2 for node in tree.sorted_nodes()}
a, c = antecedent_formula(tree, labels), consequent_formula(tree, labels)
codes = [tree.code(node) for node in tree.sorted_nodes()]
print(len(codes), len(tree.incomparable_pairs()), max(codes))
# the last disjunct of each statement's label table: node 11111 and its label
for table in (a.body.body.body.right, c.body.body.body.body.right):
    print(table.right, numeral_value(table.right.left.right))
"""


def test_the_full_depth5_statements_build_under_a_memory_cap():
    # every table code is one numeral node; the play over this tree is
    # criterion 7 at depth 5 in test_acceptance.py
    done = run_capped(_DEPTH5)
    assert done.stdout.splitlines() == [
        "63 3390 2598059",
        "s=2598059 /\\ b=1 2598059",
        "u=2598059 /\\ c=1 2598059",
    ]
