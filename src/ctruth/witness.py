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
in decimal, prefixes double-quoted with backslash escaping.  The parser
additionally tolerates blanks inside pairs.
"""

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
    # (ante, shaped): this prefix shaped by _prefix_token against the
    # antecedent statement ante, valid for that very object only (tested
    # with `is`: == would walk the whole statement); the pairs sharing
    # one prefix then share one shaped prefix
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


class _WitReader:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def _skip_blanks(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\r\n":
            self.i += 1

    def at_end(self):
        self._skip_blanks()
        return self.i >= len(self.text)

    def item(self):
        self._skip_blanks()
        c = self.text[self.i]
        if c == "_":
            self.i += 1
            return WS
        if c == "(":
            return self.pair()
        raise WitnessTextError(f"unexpected {c!r} at {self.i}")

    def pair(self):
        self.i += 1  # past "("
        ins = self.tokens(stop=":")
        self.i += 1  # past ":"
        outs = self.tokens(stop=")")
        self.i += 1  # past ")"
        return IOPair(tuple(ins), tuple(outs))

    def tokens(self, stop):
        toks = []
        while True:
            self._skip_blanks()
            if self.i >= len(self.text):
                raise WitnessTextError("unterminated pair")
            c = self.text[self.i]
            if c == stop:
                return toks
            if c == ",":
                self.i += 1
                continue
            if c.isdigit():
                j = self.i
                while j < len(self.text) and self.text[j].isdigit():
                    j += 1
                toks.append(Numeral(int(self.text[self.i : j])))
                self.i = j
                continue
            if c == '"':
                toks.append(self.quoted())
                continue
            raise WitnessTextError(f"unexpected {c!r} at {self.i}")

    def quoted(self):
        self.i += 1
        out = []
        while True:
            if self.i >= len(self.text):
                raise WitnessTextError("unterminated quote")
            c = self.text[self.i]
            if c == "\\":
                out.append(self.text[self.i + 1])
                self.i += 2
                continue
            if c == '"':
                self.i += 1
                return Prefix(parse_witness_text("".join(out)))
            out.append(c)
            self.i += 1


def parse_witness_text(text: str) -> tuple:
    """Parse witness text into a tuple of items.

    Number tokens come back as numerals; the selector role is assigned
    later by shape checking against a statement.
    """
    r = _WitReader(text)
    items = []
    while not r.at_end():
        items.append(r.item())
    return tuple(items)


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
    """Validate and normalize a pair against a statement's spine.

    Returns the pair with selector positions re-tagged (text gives only
    numbers).  Partial pairs are fine; stray tokens, tokens of the wrong
    kind and selectors outside {0,1} raise ShapeMismatch.  The walk is
    a loop over offsets i, o into the pair's token tuples.
    """
    ins, outs = p.inputs, p.outputs
    si, so = [], []
    i = o = 0
    s = slot(f)
    while True:
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
            if kind == IN_PREFIX:
                tok = _prefix_token(s[1], ins[i])
            else:
                tok = (_sel_token if kind == IN_SEL else _num_token)(ins[i])
            si.append(tok)
            i += 1
        else:
            if o == len(outs):
                if i < len(ins):
                    raise ShapeMismatch("input given past the available output")
                break
            tok = (_sel_token if kind == OUT_SEL else _num_token)(outs[o])
            o += 1
            so.append(tok)
            if kind == OUT_CODE:
                if i < len(ins) or o < len(outs):
                    raise ShapeMismatch("tokens left over past a code")
                break
        s = slot(_after(s, tok))
    return IOPair(tuple(si), tuple(so))


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
    """A prefix input with its pairs shaped against the antecedent,
    kept on the prefix once shaped and reused for the same antecedent."""
    if not isinstance(tok, Prefix):
        raise ShapeMismatch(f"expected a prefix, found {tok}")
    if tok._shaped is not None and tok._shaped[0] is ante:
        return tok._shaped[1]
    seg = []
    for it in tok.items:
        if is_pair(it):
            seg.append(shape_check(ante, it))
        elif isinstance(it, Whitespace):
            seg.append(it)
        else:
            raise ShapeMismatch(f"not an item inside a prefix: {it!r}")
    shaped = Prefix(tuple(seg))
    object.__setattr__(tok, "_shaped", (ante, shaped))
    return shaped


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
    return content(content_parts(f, shape_check(f, p)))


def content(parts) -> Formula:
    """The formula that content_parts' (hyps, rest, env) stand for."""
    hyps, rest, env = parts
    concl = instantiate(rest, env)
    if not hyps:
        return concl
    return Implies(conj_all(content(h) for h in hyps), concl)


def content_parts(f: Formula, p: IOPair, env=None):
    """A shaped pair's semantic content in parts: (hyps, rest, env).

    `rest` is the part of the statement the pair's tokens reach, still
    open; `env` maps its instantiated variables to their values, from
    the outer `env` on.  Each of `hyps` is itself such parts: a prefix
    input contributes its antecedent as `((), ante, env)` and the parts
    of each pair it holds, which shape_check already shaped.  Nothing
    is instantiated here; `content` builds the formula, which is `rest`
    under `env`, implied by the conjunction of the hypotheses if any.
    Judging `rest` under `env` leaves large numerals as integers.
    """
    hyps: list = []
    env = dict(env or ())
    ins, outs = iter(p.inputs), iter(p.outputs)
    g = f
    while True:
        s = slot(g)
        kind = s[0]
        if kind in _INPUTS:
            tok = next(ins, None)
        elif kind in (OUT_NUM, OUT_SEL):
            tok = next(outs, None)
        else:
            # END, or OUT_CODE: the specific code is not arithmetized;
            # the claim is that some mechanical witness exists, i.e. the
            # boxed body itself.
            return hyps, g, env
        if tok is None:
            return hyps, g, env
        if kind in (IN_NUM, OUT_NUM):
            env[s[1]] = tok.value
        elif kind == IN_PREFIX:
            ante = ((), s[1], dict(env))
            hyps.append(ante)
            hyps.extend(content_parts(s[1], it, ante[2]) for it in tok.items if is_pair(it))
        g = _after(s, tok)
