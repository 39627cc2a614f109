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
    is_pair,
    pair_complete,
    shape_check,
    slot,
    IN_NUM,
    IN_PREFIX,
    IN_SEL,
)


def _shape_or_none(f: Formula, p: IOPair):
    try:
        return shape_check(f, p)
    except ShapeMismatch:
        return None


def project_forall(w: WitnessStream, f: Formula, n: int) -> WitnessStream:
    """Specialize a universal witness at the numeral n.

    Pairs whose first input is n lose that input and become pairs for
    the instantiated body; everything else becomes whitespace.
    """
    if not isinstance(f, Forall):
        raise TypeError("project_forall wants a universally quantified formula")
    src = w.copy()

    def gen():
        i = 0
        while True:
            got = src.pull(i + 1)
            if len(got) <= i:
                return
            item = got[i]
            i += 1
            if not is_pair(item):
                yield WS
                continue
            p = _shape_or_none(f, item)
            if p is None:
                yield WS
            elif not p.inputs and not p.outputs:
                yield TRIVIAL
            elif p.inputs and p.inputs[0] == Numeral(n):
                yield IOPair(p.inputs[1:], p.outputs)
            else:
                yield WS

    return WitnessStream(gen)


def apply_implication(w: WitnessStream, x: WitnessStream) -> WitnessStream:
    """Run an implication witness against a witness for its antecedent.

    Proceeds in rounds.  In round r it looks at the first r items of
    each source; any pair of w whose leading prefix token is answered
    by the antecedent items seen so far sheds that token and is
    emitted, then the round closes with one whitespace item.  The
    result is total whatever the sources are.
    """
    wsrc = w.copy()
    xsrc = x.copy()

    def gen():
        emitted = set()
        r = 0
        while True:
            observed = Prefix(xsrc.pull(r))
            seen = wsrc.pull(r)
            for i, item in enumerate(seen):
                if i in emitted or not is_pair(item):
                    continue
                if not item.inputs and not item.outputs:
                    emitted.add(i)
                    yield TRIVIAL
                    continue
                if item.inputs and isinstance(item.inputs[0], Prefix):
                    if observed.extends(item.inputs[0]):
                        emitted.add(i)
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
    src = w.copy()

    def side(which):
        def gen():
            i = 0
            while True:
                got = src.pull(i + 1)
                if len(got) <= i:
                    return
                item = got[i]
                i += 1
                if not is_pair(item):
                    yield WS
                    continue
                p = _shape_or_none(f, item)
                if p is None:
                    yield WS
                elif not p.inputs and not p.outputs:
                    yield TRIVIAL
                elif p.inputs and p.inputs[0] == Selector(which):
                    yield IOPair(p.inputs[1:], p.outputs)
                else:
                    yield WS

        return WitnessStream(gen)

    return side(0), side(1)


def compose(left: WitnessStream, right: WitnessStream) -> WitnessStream:
    """Merge two conjunct witnesses back into one conjunction witness.

    Walks both sources in step.  At each index the left pair (tagged
    with selector 0) is emitted first, then the right pair (selector
    1); whitespace is dropped.  A trivial pair is forwarded from the
    left only, so a decompose round trip does not duplicate it.
    """
    lsrc = left.copy()
    rsrc = right.copy()

    def tag(which, p):
        if not p.inputs and not p.outputs:
            return TRIVIAL
        return IOPair((Selector(which),) + p.inputs, p.outputs)

    def gen():
        i = 0
        while True:
            lg = lsrc.pull(i + 1)
            rg = rsrc.pull(i + 1)
            if len(lg) <= i and len(rg) <= i:
                return
            if len(lg) > i and is_pair(lg[i]):
                yield tag(0, lg[i])
            if len(rg) > i and is_pair(rg[i]):
                p = rg[i]
                if p.inputs or p.outputs:
                    yield tag(1, p)
            i += 1

    return WitnessStream(gen)


def box_decode(token) -> vm.WCode:
    """Read a produced code token back as a machine program."""
    if isinstance(token, Numeral):
        code = token.value
    elif isinstance(token, int):
        code = token
    else:
        raise TypeError(f"not a code token: {token!r}")
    return vm.godel_decode(code)


def normalize_strict(w: WitnessStream, f: Formula, budget: int = 64) -> WitnessStream:
    """Reorder a witness into its canonical strict form.

    Scans the first `budget` items, drops whitespace and exact
    duplicates, puts pairs with incomplete inputs first (in source
    order), then complete-input pairs sorted by their input tokens.
    Under a universal root the sorted pairs must answer 0, 1, 2, ...
    in turn; emission stalls at the first missing numeral.  The bare
    trivial pair is kept only where the root expects an input: on an
    output-rooted statement it asserts nothing and the canonical form
    has no use for it.
    """
    items = w.pull(budget)
    partial = []
    complete = []
    seen = set()
    keep_trivial = slot(f)[0] in (IN_NUM, IN_SEL, IN_PREFIX)
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
