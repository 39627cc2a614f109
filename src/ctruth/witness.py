"""Witness streams: demand-driven sequences of input-output pairs.

A witness answers the existential aspects of a statement.  Items arrive
in a stream and are either whitespace (no information, but significant
for what counts as a prefix) or an input-output pair.  Token roles walk
the statement top-down by decreasing scope: universal quantifiers and
left conjuncts consume input tokens, existential quantifiers, disjunct
choices and box codes produce output tokens, and an implication consumes
a serialized prefix of a candidate witness for its antecedent.  One walk
(shape_walk) validates a pair against that spine and gives its
discipline path and content parts; it re-tags no token.  shape_check
re-tags from the path: a number at a choice slot becomes a selector.

Text format (canonical): items separated by single spaces, `_` for
whitespace, pairs as `(in,in:out,out)` with no interior spaces, numbers
in decimal, prefixes double-quoted with backslash escaping.  The reader
matches a canonical item with one compiled pattern and reads any other
pair token by token, tolerating blanks inside it.  Each read makes a
numeral once per digit text.
"""

import re
from dataclasses import dataclass, field

from .formula import (
    And,
    Atom,
    Box,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    conj_all,
    instantiate,
)


class ShapeMismatch(Exception):
    """Pair tokens do not fit the statement's input/output spine."""


class WitnessTextError(Exception):
    """Malformed witness text.  `offset` is where the fault stands in the
    text read (an unexpected character, or the first digit of a numeral
    too long to read), and the message ends in "at <offset>"; it is None
    for a fault with no one place, such as an unterminated pair."""

    def __init__(self, fault, offset=None):
        super().__init__(fault if offset is None else f"{fault} at {offset}")
        self.fault = fault
        self.offset = offset


def _unexpected(text, i):
    return WitnessTextError(f"unexpected {text[i]!r}", i)


# ---------------------------------------------------------------------------
# tokens and items


@dataclass(frozen=True)
class Numeral:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Selector:
    choice: int

    def __str__(self):
        return str(self.choice)


@dataclass(frozen=True)
class Prefix:
    items: tuple
    # the generated hash, kept after first use: trie keys are rehashed often
    _hash: int = field(default=None, init=False, repr=False, compare=False)
    # (ante, shaped, parts): this prefix shaped by _prefix_token against
    # the antecedent statement ante, with its pairs' content parts, valid
    # for that very object only (tested with `is`: == would walk the
    # whole statement); the pairs sharing one prefix then share one walk
    # of its pairs
    _shaped: tuple = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.items,)))
        return self._hash

    def __str__(self):
        return '"' + _escape(serialize_items(self.items)) + '"'

    def extends(self, other) -> bool:
        """True when self's item sequence extends (or equals) other's."""
        if len(other.items) > len(self.items):
            return False
        return self.items[: len(other.items)] == other.items


@dataclass(frozen=True)
class Whitespace:
    def __str__(self):
        return "_"


@dataclass(frozen=True)
class IOPair:
    inputs: tuple
    outputs: tuple

    def __str__(self):
        return serialize_item(self)


WS = Whitespace()
TRIVIAL = IOPair((), ())


def is_pair(item) -> bool:
    return isinstance(item, IOPair)


# ---------------------------------------------------------------------------
# streams


class WitnessStream:
    """Lazy, memoized, deterministic item sequence.

    pull(k) returns the first min(k, available) items; repeated pulls
    replay the memo, so any number of consumers may share one instance
    sequentially.  A stream keeps no read position.
    """

    __slots__ = ("_it", "_memo", "_done")

    def __init__(self, source):
        self._it = iter(source() if callable(source) else source)
        self._memo = []
        self._done = False

    def _fill(self, k):
        while len(self._memo) < k and not self._done:
            try:
                self._memo.append(next(self._it))
            except StopIteration:
                self._done = True

    def pull(self, k: int) -> tuple:
        self._fill(k)
        return tuple(self._memo[:k])

    def at(self, i: int):
        """Item i, or None when the stream ends before it."""
        self._fill(i + 1)
        memo = self._memo
        return memo[i] if i < len(memo) else None

    def __iter__(self):
        """The items from the first on, read lazily through at."""
        i = 0
        while (item := self.at(i)) is not None:
            yield item
            i += 1

    def pairs(self, k: int) -> list:
        return [it for it in self.pull(k) if is_pair(it)]

    def copy(self) -> "WitnessStream":
        """The stream itself: with no read position to keep apart, a copy
        is the same stream.  Kept for callers outside the package that
        hand a stream on as a copy."""
        return self

    @classmethod
    def from_items(cls, items) -> "WitnessStream":
        return cls(tuple(items))

    @classmethod
    def from_text(cls, text: str) -> "WitnessStream":
        return cls(parse_witness_text(text))

    def __repr__(self):
        got = self._memo[:8]
        tail = " ..." if not self._done or len(self._memo) > 8 else ""
        return f"<WitnessStream {serialize_items(got)}{tail}>"


# ---------------------------------------------------------------------------
# text format


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def serialize_token(tok) -> str:
    if isinstance(tok, (Numeral, Selector, Prefix)):
        return str(tok)
    raise TypeError(f"not a token: {tok!r}")


def serialize_item(item) -> str:
    if isinstance(item, Whitespace):
        return "_"
    if isinstance(item, IOPair):
        ins = ",".join(serialize_token(t) for t in item.inputs)
        outs = ",".join(serialize_token(t) for t in item.outputs)
        return f"({ins}:{outs})"
    raise TypeError(f"not an item: {item!r}")


def serialize_items(items) -> str:
    return " ".join(serialize_item(it) for it in items)


# A canonical item, blanks before it: `_`, or a pair of decimal numerals
# and commas with no blanks.  Any other pair is read token by token.
_ITEM = re.compile(r"[ \t\r\n]*(?:_|\(([\d,]*):([\d,]*)\))")
_BLANKS = re.compile(r"[ \t\r\n]*")
# The next token inside a pair, past blanks and commas: a numeral, a
# quote, or any other character (the closing ":" or ")", or a fault);
# none at the end of the text.  The last group takes no blank or comma,
# so a match never backtracks into the blanks before it.
_TOKEN = re.compile(r'[ \t\r\n,]*(?:(\d+)|(")|([^ \t\r\n,]))?')
_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"', re.S)
_ESCAPED = re.compile(r"\\(.)", re.S)


def _numeral(digits, nums, group, at):
    """The numeral of digits, one of the comma-separated digit texts of
    group, which the read found at offset `at`, made and put in nums."""
    try:
        tok = nums[digits] = Numeral(int(digits))
    except ValueError:  # past the interpreter's int-string limit
        at += f",{group},".index(f",{digits},")
        raise WitnessTextError(f"numeral of {len(digits)} digits is too long", at) from None
    return tok


def _numerals(group, at, nums):
    """The numerals of a canonical pair's comma-separated group, read at
    offset `at`; `nums` maps the digit texts read so far to numerals."""
    toks = []
    for t in group.split(","):
        if t:
            tok = nums.get(t)
            toks.append(_numeral(t, nums, group, at) if tok is None else tok)
    return tuple(toks)


def _tokens(text, i, stop, nums):
    """The tokens from offset i up to the stop character, and the offset
    past it; `nums` as for _numerals."""
    toks = []
    while True:
        m = _TOKEN.match(text, i)
        num, quote, other = m.groups()
        if num is not None:
            tok = nums.get(num)
            toks.append(_numeral(num, nums, num, m.start(1)) if tok is None else tok)
        elif quote is not None:
            m = _QUOTED.match(text, m.start(2))
            if m is None:
                raise WitnessTextError("unterminated quote")
            try:
                toks.append(Prefix(_items(_ESCAPED.sub(r"\1", m.group(1)), nums)))
            except WitnessTextError as e:
                if e.offset is None:
                    raise
                # back to the quote's own text: an escape is two characters
                # of it, and the character it stands for is the second
                j = m.start(1)
                for _ in range(e.offset):
                    j += 2 if text[j] == "\\" else 1
                raise WitnessTextError(e.fault, j + (text[j] == "\\")) from None
        elif other == stop:
            return tuple(toks), m.end()
        elif other is None:
            raise WitnessTextError("unterminated pair")
        else:
            raise _unexpected(text, m.start(3))
        i = m.end()


def parse_witness_text(text: str) -> tuple:
    """Parse witness text into a tuple of items.

    Number tokens come back as numerals; the selector role is assigned
    later by shape checking against a statement.  A read makes each
    numeral once: equal digit texts, in a prefix or out of one, give one
    numeral object.  A prefix's text is unescaped and read as witness
    text of its own; the offset in an error inside it is mapped back to
    the text given.
    """
    return _items(text, {})


def _items(text, nums):
    """parse_witness_text, `nums` mapping the digit texts read so far to
    their numerals."""
    items = []
    i = 0
    while True:
        m = _ITEM.match(text, i)
        if m is not None:
            ins, outs = m.groups()
            if ins is None:
                items.append(WS)
            else:
                ins = _numerals(ins, m.start(1), nums)
                items.append(IOPair(ins, _numerals(outs, m.start(2), nums)))
            i = m.end()
            continue
        i = _BLANKS.match(text, i).end()
        if i == len(text):
            return tuple(items)
        if text[i] != "(":
            raise _unexpected(text, i)
        ins, i = _tokens(text, i + 1, ":", nums)
        outs, i = _tokens(text, i, ")", nums)
        items.append(IOPair(ins, outs))


# ---------------------------------------------------------------------------
# the token spine of a statement

IN_NUM, OUT_NUM, IN_SEL, OUT_SEL, IN_PREFIX, OUT_CODE, END = (
    "in_num",
    "out_num",
    "in_sel",
    "out_sel",
    "in_prefix",
    "out_code",
    "end",
)


_INPUTS = (IN_NUM, IN_SEL, IN_PREFIX)


def slot(f: Formula):
    """The next token slot of a statement, walked by decreasing scope.

    The record is built once per node and kept on it as `_spine`; a walk
    reads that first, and tests the kind by identity.
    """
    s = getattr(f, "_spine", None)
    if s is not None:
        return s
    if isinstance(f, Forall):
        s = (IN_NUM, f.var, f.body)
    elif isinstance(f, Exists):
        s = (OUT_NUM, f.var, f.body)
    elif isinstance(f, And):
        s = (IN_SEL, f.left, f.right)
    elif isinstance(f, Or):
        s = (OUT_SEL, f.left, f.right)
    elif isinstance(f, Implies):
        s = (IN_PREFIX, f.left, f.right)
    elif isinstance(f, Box):
        s = (OUT_CODE, f.body)
    elif isinstance(f, (Atom, Not)):
        s = (END,)
    else:
        raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_spine", s)
    return s


def input_rooted(f: Formula) -> bool:
    """The statement's first slot is an input, so a witness for it
    leads with the trivial pair."""
    return slot(f)[0] in _INPUTS


def shape_check(f: Formula, p: IOPair) -> IOPair:
    """The pair validated against a statement's spine, with its tokens
    re-tagged (text gives only numbers): shape_walk's path read back as
    tokens.  A selector key gives a selector, a numeral or code key a
    numeral, and a prefix its pairs shaped against that slot's own
    antecedent, which the walk's content parts list in slot order."""
    path, (hyps, _, _) = shape_walk(f, p)
    return _retagged(path, hyps)


def _retagged(path, hyps):
    """The shaped pair a walk's path and hyps stand for."""
    # an antecedent's hyps are (), a pair's a list
    antes = iter([h[1] for h in hyps if h[0].__class__ is tuple])
    ins, outs = [], []
    for kind, key in path:
        if key is None:
            break
        if kind is IN_PREFIX:
            tok = _prefix_token(next(antes), key)[0]
        elif kind is IN_SEL or kind is OUT_SEL:
            tok = _SELECTORS[key]
        else:
            tok = Numeral(key)
        (ins if kind in _INPUTS else outs).append(tok)
    return IOPair(tuple(ins), tuple(outs))


def shape_walk(f: Formula, p: IOPair):
    """Validate a pair against a statement's spine, and give its
    discipline path and content parts, in the one walk over its tokens.

    Partial pairs are fine; stray tokens, tokens of the wrong kind and
    selectors outside {0,1} raise ShapeMismatch.  Returns (path, parts);
    no token is re-tagged here (shape_check does that from the path).
    `path` is the pair's discipline key: (kind, key) for each slot its
    tokens reach, where the key is the prefix as read or the int a
    numeral, selector or code gives, and (kind, None) where it falls
    silent at an output slot.  The trivial pair's path is empty: it
    asserts nothing.  A prefix key is compared as read, as a probe's
    observed items are, so a prefix built in code with Selector tokens
    does not match one whose selectors are plain numerals.

    `parts` is the pair's semantic content in parts, (hyps, rest, env).
    `rest` is the node where the walk stopped: the end of the statement,
    the first slot the tokens do not reach, or a box, whose code is not
    arithmetized (the claim is that some mechanical witness exists, i.e.
    the boxed body itself).  `env` maps the variables the tokens
    instantiate to their values.  A prefix input contributes its
    antecedent as `((), ante, env)` and the parts of each pair it holds,
    put under the env of the slot.  Nothing is instantiated here;
    `content` builds the formula.  One loop over offsets i, o into the
    pair's token tuples reads each token in line; only a prefix calls out.
    """
    ins, outs = p.inputs, p.outputs
    n_in, n_out = len(ins), len(outs)
    path, hyps, env = [], [], {}
    i = o = 0
    g = f
    while True:
        s = g._spine or slot(g)
        kind = s[0]
        if kind is END:
            if i < n_in or o < n_out:
                raise ShapeMismatch("tokens left over past the end of the statement")
            break
        if kind is IN_NUM or kind is IN_SEL or kind is IN_PREFIX:
            if i == n_in:
                if o < n_out:
                    raise ShapeMismatch("output given without the required input")
                break
            tok = ins[i]
            i += 1
        else:
            if o == n_out:
                if i < n_in:
                    raise ShapeMismatch("input given past the available output")
                if n_in or n_out:
                    path.append((kind, None))
                break
            tok = outs[o]
            o += 1
        c = tok.__class__
        if kind is OUT_SEL or kind is IN_SEL:
            key = tok.value if c is Numeral else tok.choice if c is Selector else -1
            if key != 0 and key != 1:
                raise _not_a_selector(tok)
            g = s[1 + key]
        elif kind is IN_PREFIX:
            key = tok
            inner = _prefix_token(s[1], tok)[1]
            hyps.append(((), s[1], dict(env)))
            hyps.extend(_under(env, parts) for parts in inner)
            g = s[2]
        elif c is Numeral:
            key = tok.value
            if kind is not OUT_CODE:
                env[s[1]] = key
                g = s[2]
        else:
            raise ShapeMismatch(f"expected a numeral, found {tok}")
        path.append((kind, key))
        if kind is OUT_CODE:
            if i < n_in or o < n_out:
                raise ShapeMismatch("tokens left over past a code")
            break
    return path, (hyps, g, env)


def _under(env, parts):
    """Content parts taken under no outer binding, put under env.  The
    hyps keep their type: an antecedent's are (), a pair's a list."""
    hyps, rest, inner = parts
    return type(hyps)(_under(env, h) for h in hyps), rest, {**env, **inner}


_SELECTORS = (Selector(0), Selector(1))


def _not_a_selector(tok):
    if isinstance(tok, (Numeral, Selector)):
        return ShapeMismatch(f"selector out of range: {tok}")
    return ShapeMismatch(f"expected a selector, found {tok}")


def _prefix_token(ante, tok):
    """A prefix input with its pairs shaped against the antecedent, and
    their content parts taken under no outer binding, as (shaped,
    parts).  Both are kept on the prefix once shaped and reused for the
    same antecedent, so a prefix's pairs are walked once however many
    pairs hold it."""
    if not isinstance(tok, Prefix):
        raise ShapeMismatch(f"expected a prefix, found {tok}")
    if tok._shaped is not None and tok._shaped[0] is ante:
        return tok._shaped[1:]
    seg, inner = [], []
    for it in tok.items:
        if is_pair(it):
            path, parts = shape_walk(ante, it)
            seg.append(_retagged(path, parts[0]))
            inner.append(parts)
        elif isinstance(it, Whitespace):
            seg.append(it)
        else:
            raise ShapeMismatch(f"not an item inside a prefix: {it!r}")
    object.__setattr__(tok, "_shaped", (ante, Prefix(tuple(seg)), inner))
    return tok._shaped[1:]


def pair_complete(f: Formula, p: IOPair) -> bool:
    """True when the pair's walk reaches the end of its path."""
    ins, outs = p.inputs, p.outputs
    i = o = 0
    g = f
    while True:
        s = g._spine or slot(g)
        kind = s[0]
        if kind is END:
            return i == len(ins) and o == len(outs)
        if kind is OUT_CODE:
            return i == len(ins) and o + 1 == len(outs)
        if kind is IN_NUM or kind is IN_SEL or kind is IN_PREFIX:
            if i == len(ins):
                return False
            tok = ins[i]
            i += 1
        else:
            if o == len(outs):
                return False
            tok = outs[o]
            o += 1
        if kind is OUT_SEL or kind is IN_SEL:
            c = tok.__class__
            key = tok.value if c is Numeral else tok.choice if c is Selector else -1
            if key != 0 and key != 1:
                raise _not_a_selector(tok)
            g = s[1 + key]
        else:
            g = s[2]


# ---------------------------------------------------------------------------
# semantic content


def semantic_content(f: Formula, p: IOPair) -> Formula:
    """The classical assertion that the pair is correct.

    Quantifier tokens instantiate variables, choice tokens select the
    asserted branch, and a prefix contributes the antecedent statement
    plus the contents of its own pairs as hypotheses.  A partial pair's
    conclusion is the untouched remainder of the statement.
    """
    return content(shape_walk(f, p)[1])


def content(parts) -> Formula:
    """The formula that shape_walk's content parts (hyps, rest, env)
    stand for: `rest` under `env`, implied by the conjunction of the
    hypotheses if any.  Judging `rest` under `env` instead builds no
    formula."""
    hyps, rest, env = parts
    concl = instantiate(rest, env)
    if not hyps:
        return concl
    return Implies(conj_all(content(h) for h in hyps), concl)
