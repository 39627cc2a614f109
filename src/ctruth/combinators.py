"""Transformations that build witness streams out of witness streams.

All transformations are lazy: they pull from their sources only as far
as the caller pulls from the result, and they never mutate a source
(streams share memoized buffers, so re-reading is cheap).  Positions
matter: where a source item does not contribute, a whitespace item is
emitted in its place so that prefix identity is preserved.
"""

from . import vm
from .formula import And, Forall, Formula
from .witness import (
    IOPair,
    Numeral,
    Prefix,
    Selector,
    ShapeMismatch,
    TRIVIAL,
    WS,
    WitnessStream,
    input_rooted,
    is_pair,
    pair_complete,
    shape_check,
    slot,
    IN_NUM,
)


def _shape_or_none(f: Formula, p: IOPair):
    try:
        return shape_check(f, p)
    except ShapeMismatch:
        return None


def select(w: WitnessStream, f: Formula, keep) -> WitnessStream:
    """Each pair of w shaped against f and replaced by keep(pair).

    Whitespace stands wherever keep gives None, where a pair does not
    fit f and where w has whitespace; the trivial pair stays trivial,
    since it commits to nothing.
    """

    def gen():
        for item in w:
            p = _shape_or_none(f, item) if is_pair(item) else None
            if p is None:
                yield WS
            elif not p.inputs and not p.outputs:
                yield TRIVIAL
            else:
                kept = keep(p)
                yield WS if kept is None else kept

    return WitnessStream(gen)


def project_forall(w: WitnessStream, f: Formula, n: int) -> WitnessStream:
    """Specialize a universal witness at the numeral n.

    Pairs whose first input is n lose that input and become pairs for
    the instantiated body; everything else becomes whitespace.
    """
    if not isinstance(f, Forall):
        raise TypeError("project_forall wants a universally quantified formula")
    return select(w, f, lambda p: _shed(p, Numeral(n)))


def _shed(p: IOPair, lead):
    """p without its first input when that input is lead, else None."""
    if p.inputs[:1] == (lead,):
        return IOPair(p.inputs[1:], p.outputs)
    return None


def apply_implication(w: WitnessStream, x: WitnessStream) -> WitnessStream:
    """Run an implication witness against a witness for its antecedent.

    Proceeds in rounds.  In round r it looks at the first r items of
    each source; any pair of w whose leading prefix token is answered
    by the antecedent items seen so far sheds that token and is
    emitted, then the round closes with one whitespace item.  The
    result is total whatever the sources are.

    Pair i is first seen in round i + 1, and a lead of L items can be
    answered from round L on.  Since x only grows, whether it answers
    is fixed by round max(i + 1, L), so each pair is judged once, in
    that round; a round emits its pairs in index order.
    """
    def gen():
        later = {}  # round -> the pairs to judge then, in index order
        r = 0
        while True:
            due = later.pop(r, [])
            item = w.at(r - 1) if r else None
            if is_pair(item):
                if not item.inputs and not item.outputs:
                    due.append(item)
                elif item.inputs and isinstance(item.inputs[0], Prefix):
                    answerable = len(item.inputs[0].items)
                    if answerable <= r:
                        due.append(item)
                    else:
                        later.setdefault(answerable, []).append(item)
            for item in due:
                if not item.inputs:
                    yield TRIVIAL
                    continue
                lead = item.inputs[0]
                if Prefix(x.pull(len(lead.items))).extends(lead):
                    yield IOPair(item.inputs[1:], item.outputs)
            yield WS
            r += 1

    return WitnessStream(gen)


def decompose(w: WitnessStream, f: Formula):
    """Split a conjunction witness into one stream per conjunct.

    Pairs selecting side 0 feed the left stream, side 1 the right; in
    every other position both streams carry whitespace (the trivial
    pair stays trivial on both sides, since it commits to neither).
    """
    if not isinstance(f, And):
        raise TypeError("decompose wants a conjunction")
    left = select(w, f, lambda p: _shed(p, Selector(0)))
    right = select(w, f, lambda p: _shed(p, Selector(1)))
    return left, right


def compose(left: WitnessStream, right: WitnessStream) -> WitnessStream:
    """Merge two conjunct witnesses back into one conjunction witness.

    Walks both sources in step.  At each index the left pair (tagged
    with selector 0) is emitted first, then the right pair (selector
    1); whitespace is dropped.  A trivial pair is forwarded from the
    left only, so a decompose round trip does not duplicate it.
    """
    def tag(which, p):
        if not p.inputs and not p.outputs:
            return TRIVIAL
        return IOPair((Selector(which),) + p.inputs, p.outputs)

    def gen():
        i = 0
        while True:
            left_item, right_item = left.at(i), right.at(i)
            if left_item is None and right_item is None:
                return
            if is_pair(left_item):
                yield tag(0, left_item)
            if is_pair(right_item) and (right_item.inputs or right_item.outputs):
                yield tag(1, right_item)
            i += 1

    return WitnessStream(gen)


STRICT_SCAN = 64


def normalize_strict(w: WitnessStream, f: Formula) -> WitnessStream:
    """Reorder a witness into its canonical strict form.

    Scans the first STRICT_SCAN items, drops whitespace and exact
    duplicates, puts pairs with incomplete inputs first (in source
    order), then complete-input pairs sorted by their input tokens.
    Under a universal root the sorted pairs must answer 0, 1, 2, ...
    in turn; emission stalls at the first missing numeral.  The bare
    trivial pair is kept only where the root expects an input: on an
    output-rooted statement it asserts nothing and the canonical form
    has no use for it.
    """
    items = w.pull(STRICT_SCAN)
    partial = []
    complete = []
    seen = set()
    keep_trivial = input_rooted(f)
    for item in items:
        if not is_pair(item):
            continue
        p = _shape_or_none(f, item)
        if p is None or p in seen:
            continue
        if not p.inputs and not p.outputs and not keep_trivial:
            continue
        seen.add(p)
        (complete if pair_complete(f, p) else partial).append(p)
    complete.sort(key=lambda p: tuple(vm.encode_token(t) for t in p.inputs))
    if slot(f)[0] == IN_NUM:
        kept = []
        want = 0
        for p in complete:
            v = p.inputs[0].value
            if v == want:
                kept.append(p)
                want += 1
            elif v < want:
                kept.append(p)  # repeated input value, keep sorted in place
            else:
                break  # a gap: later answers are not reachable in order
        complete = kept
    return WitnessStream.from_items(partial + complete)
