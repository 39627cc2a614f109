"""Witness streams: demand-driven sequences of input-output pairs.

A witness answers the existential aspects of a statement.  Items arrive
in a stream and are either whitespace (no information, but significant
for what counts as a prefix) or an input-output pair.  Token roles walk
the statement top-down by decreasing scope: universal quantifiers and
left conjuncts consume input tokens, existential quantifiers, disjunct
choices and box codes produce output tokens, and an implication consumes
a serialized prefix of a candidate witness for its antecedent.

Text format (canonical): items separated by single spaces, `_` for
whitespace, pairs as `(in,in:out,out)` with no interior spaces, numbers
in decimal, prefixes double-quoted with backslash escaping.  The reader
matches a canonical item with one compiled pattern and reads any other
pair token by token, tolerating blanks inside it.
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
    """Malformed witness text."""


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


class _Buffer:
    __slots__ = ("_it", "memo", "done")

    def __init__(self, source):
        self._it = iter(source() if callable(source) else source)
        self.memo = []
        self.done = False

    def fill(self, k):
        while len(self.memo) < k and not self.done:
            try:
                self.memo.append(next(self._it))
            except StopIteration:
                self.done = True


class WitnessStream:
    """Lazy, memoized, deterministic item sequence.

    pull(k) returns the first min(k, available) items; repeated pulls
    replay the memo, so any number of consumers may share one instance
    sequentially and copies are cheap views of the same buffer.
    """

    def __init__(self, source):
        self._buf = source if isinstance(source, _Buffer) else _Buffer(source)

    def pull(self, k: int) -> tuple:
        self._buf.fill(k)
        return tuple(self._buf.memo[:k])

    def at(self, i: int):
        """Item i, or None when the stream ends before it."""
        self._buf.fill(i + 1)
        memo = self._buf.memo
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
        return WitnessStream(self._buf)

    @classmethod
    def from_items(cls, items) -> "WitnessStream":
        return cls(tuple(items))

    @classmethod
    def from_text(cls, text: str) -> "WitnessStream":
        return cls(parse_witness_text(text))

    def __repr__(self):
        got = self._buf.memo[:8]
        tail = " ..." if not self._buf.done or len(self._buf.memo) > 8 else ""
        return f"<WitnessStream {serialize_items(got)}{tail}>"


# ---------------------------------------------------------------------------
# text format


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def serialize_token(tok) -> str:
    if isinstance(tok, (Numeral, Selector)):
        return str(tok)
    if isinstance(tok, Prefix):
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


def _numerals(text):
    return tuple(Numeral(int(t)) for t in text.split(",") if t)


def _tokens(text, i, stop):
    """The tokens from offset i up to the stop character, and the offset
    past it."""
    toks = []
    while True:
        m = _TOKEN.match(text, i)
        num, quote, other = m.groups()
        if num is not None:
            toks.append(Numeral(int(num)))
        elif quote is not None:
            m = _QUOTED.match(text, m.start(2))
            if m is None:
                raise WitnessTextError("unterminated quote")
            toks.append(Prefix(parse_witness_text(_ESCAPED.sub(r"\1", m.group(1)))))
        elif other == stop:
            return tuple(toks), m.end()
        elif other is None:
            raise WitnessTextError("unterminated pair")
        else:
            raise WitnessTextError(f"unexpected {other!r} at {m.start(3)}")
        i = m.end()


def parse_witness_text(text: str) -> tuple:
    """Parse witness text into a tuple of items.

    Number tokens come back as numerals; the selector role is assigned
    later by shape checking against a statement.  A prefix's text is
    unescaped and read as witness text of its own, so the offset in an
    error inside it counts from the prefix's first character.
    """
    items = []
    i = 0
    while True:
        m = _ITEM.match(text, i)
        if m is not None:
            ins, outs = m.groups()
            items.append(WS if ins is None else IOPair(_numerals(ins), _numerals(outs)))
            i = m.end()
            continue
        i = _BLANKS.match(text, i).end()
        if i == len(text):
            return tuple(items)
        if text[i] != "(":
            raise WitnessTextError(f"unexpected {text[i]!r} at {i}")
        ins, i = _tokens(text, i + 1, ":")
        outs, i = _tokens(text, i, ")")
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
_CHOICES = (IN_SEL, OUT_SEL)


def slot(f: Formula):
    """The next token slot of a statement, walked by decreasing scope.

    The record is built once per node and kept on it, so a walk reads
    each node's record once per step and never re-derives it.
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


def _after(s, tok):
    """The statement past a token given at slot record s."""
    return s[1 + tok.choice] if s[0] in _CHOICES else s[2]


def shape_check(f: Formula, p: IOPair) -> IOPair:
    """The pair validated against a statement's spine, with selector
    positions re-tagged (text gives only numbers); see shape_walk."""
    return shape_walk(f, p)[0]


def shape_walk(f: Formula, p: IOPair):
    """Shape a pair, and give its discipline path and content parts, in
    the one walk over its tokens.

    Partial pairs are fine; stray tokens, tokens of the wrong kind and
    selectors outside {0,1} raise ShapeMismatch.  Returns (shaped, path,
    parts).  `shaped` is the pair with its selectors re-tagged.  `path`
    is the pair's discipline key: (kind, key) for each slot its tokens
    reach, where the key is the prefix or the int a numeral, selector or
    code gives, and (kind, None) where it falls silent at an output
    slot.  The trivial pair's path is empty: it asserts nothing.

    `parts` is the pair's semantic content in parts, (hyps, rest, env).
    `rest` is the node where the walk stopped: the end of the statement,
    the first slot the tokens do not reach, or a box, whose code is not
    arithmetized (the claim is that some mechanical witness exists, i.e.
    the boxed body itself).  `env` maps the variables the tokens
    instantiate to their values.  A prefix input contributes its
    antecedent as `((), ante, env)` and the parts of each pair it holds,
    put under the env of the slot.  Nothing is instantiated here;
    `content` builds the formula.  The walk is a loop over offsets i, o
    into the pair's token tuples.
    """
    ins, outs = p.inputs, p.outputs
    si, so, path, hyps, env = [], [], [], [], {}
    i = o = 0
    g = f
    while True:
        s = slot(g)
        kind = s[0]
        if kind == END:
            if i < len(ins) or o < len(outs):
                raise ShapeMismatch("tokens left over past the end of the statement")
            break
        if kind in _INPUTS:
            if i == len(ins):
                if o < len(outs):
                    raise ShapeMismatch("output given without the required input")
                break
            tok, toks = ins[i], si
            i += 1
        else:
            if o == len(outs):
                if i < len(ins):
                    raise ShapeMismatch("input given past the available output")
                if ins or outs:
                    path.append((kind, None))
                break
            tok, toks = outs[o], so
            o += 1
        if kind == IN_PREFIX:
            tok, inner = _prefix_token(s[1], tok)
            key = tok
            hyps.append(((), s[1], dict(env)))
            hyps.extend(_under(env, parts) for parts in inner)
        elif kind in _CHOICES:
            tok = _sel_token(tok)
            key = tok.choice
        else:
            tok = _num_token(tok)
            key = tok.value
            if kind != OUT_CODE:
                env[s[1]] = key
        toks.append(tok)
        path.append((kind, key))
        if kind == OUT_CODE:
            if i < len(ins) or o < len(outs):
                raise ShapeMismatch("tokens left over past a code")
            break
        g = s[1 + key] if kind in _CHOICES else s[2]
    return IOPair(tuple(si), tuple(so)), path, (hyps, g, env)


def _under(env, parts):
    """Content parts taken under no outer binding, put under env.  The
    hyps keep their type: an antecedent's are (), a pair's a list."""
    hyps, rest, inner = parts
    return type(hyps)(_under(env, h) for h in hyps), rest, {**env, **inner}


def _num_token(tok):
    if isinstance(tok, Numeral):
        return tok
    raise ShapeMismatch(f"expected a numeral, found {tok}")


_SELECTORS = (Selector(0), Selector(1))


def _sel_token(tok):
    if isinstance(tok, Selector):
        v = tok.choice
    elif isinstance(tok, Numeral):
        v = tok.value
    else:
        raise ShapeMismatch(f"expected a selector, found {tok}")
    if v not in (0, 1):
        raise ShapeMismatch(f"selector out of range: {v}")
    return _SELECTORS[v]


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
            shaped, _, parts = shape_walk(ante, it)
            seg.append(shaped)
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
    s = slot(f)
    while True:
        kind = s[0]
        if kind == END:
            return i == len(ins) and o == len(outs)
        if kind == OUT_CODE:
            return i == len(ins) and o + 1 == len(outs)
        if kind in _INPUTS:
            if i == len(ins):
                return False
            tok = ins[i]
            i += 1
        else:
            if o == len(outs):
                return False
            tok = outs[o]
            o += 1
        if kind in _CHOICES:
            tok = _sel_token(tok)
        s = slot(_after(s, tok))


# ---------------------------------------------------------------------------
# semantic content


def semantic_content(f: Formula, p: IOPair) -> Formula:
    """The classical assertion that the pair is correct.

    Quantifier tokens instantiate variables, choice tokens select the
    asserted branch, and a prefix contributes the antecedent statement
    plus the contents of its own pairs as hypotheses.  A partial pair's
    conclusion is the untouched remainder of the statement.
    """
    return content(shape_walk(f, p)[2])


def content(parts) -> Formula:
    """The formula that shape_walk's content parts (hyps, rest, env)
    stand for: `rest` under `env`, implied by the conjunction of the
    hypotheses if any.  Judging `rest` under `env` instead leaves large
    numerals as integers."""
    hyps, rest, env = parts
    concl = instantiate(rest, env)
    if not hyps:
        return concl
    return Implies(conj_all(content(h) for h in hyps), concl)
