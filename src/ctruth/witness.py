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

from dataclasses import dataclass

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


def slot(f: Formula):
    """The next token slot of a statement, walked by decreasing scope."""
    if isinstance(f, Forall):
        return (IN_NUM, f.var, f.body)
    if isinstance(f, Exists):
        return (OUT_NUM, f.var, f.body)
    if isinstance(f, And):
        return (IN_SEL, f.left, f.right)
    if isinstance(f, Or):
        return (OUT_SEL, f.left, f.right)
    if isinstance(f, Implies):
        return (IN_PREFIX, f.left, f.right)
    if isinstance(f, Box):
        return (OUT_CODE, f.body)
    if isinstance(f, (Atom, Not)):
        return (END,)
    raise TypeError(f"not a formula: {f!r}")


def shape_check(f: Formula, p: IOPair) -> IOPair:
    """Validate and normalize a pair against a statement's spine.

    Returns the pair with selector positions re-tagged (text gives only
    numbers).  Partial pairs are fine; stray tokens, tokens of the wrong
    kind and selectors outside {0,1} raise ShapeMismatch.
    """
    ins, outs = _shape(f, list(p.inputs), list(p.outputs))
    return IOPair(tuple(ins), tuple(outs))


def _num_token(tok):
    if isinstance(tok, Numeral):
        return tok
    raise ShapeMismatch(f"expected a numeral, found {tok}")


def _sel_token(tok):
    if isinstance(tok, Selector):
        v = tok.choice
    elif isinstance(tok, Numeral):
        v = tok.value
    else:
        raise ShapeMismatch(f"expected a selector, found {tok}")
    if v not in (0, 1):
        raise ShapeMismatch(f"selector out of range: {v}")
    return Selector(v)


def _shape(f, ins, outs):
    kind = slot(f)[0]
    if kind == END:
        if ins or outs:
            raise ShapeMismatch("tokens left over past the end of the statement")
        return [], []
    if kind in (IN_NUM, IN_SEL, IN_PREFIX):
        if not ins:
            if outs:
                raise ShapeMismatch("output given without the required input")
            return [], []
        if kind == IN_NUM:
            tok = _num_token(ins[0])
            rest_i, rest_o = _shape(slot(f)[2], ins[1:], outs)
        elif kind == IN_SEL:
            tok = _sel_token(ins[0])
            side = slot(f)[1 + tok.choice]
            rest_i, rest_o = _shape(side, ins[1:], outs)
        else:
            if not isinstance(ins[0], Prefix):
                raise ShapeMismatch(f"expected a prefix, found {ins[0]}")
            seg = []
            for it in ins[0].items:
                if is_pair(it):
                    seg.append(shape_check(slot(f)[1], it))
                elif isinstance(it, Whitespace):
                    seg.append(it)
                else:
                    raise ShapeMismatch(f"not an item inside a prefix: {it!r}")
            tok = Prefix(tuple(seg))
            rest_i, rest_o = _shape(slot(f)[2], ins[1:], outs)
        return [tok] + rest_i, rest_o
    # output slots
    if not outs:
        if ins:
            raise ShapeMismatch("input given past the available output")
        return [], []
    if kind == OUT_NUM:
        tok = _num_token(outs[0])
        rest_i, rest_o = _shape(slot(f)[2], ins, outs[1:])
    elif kind == OUT_SEL:
        tok = _sel_token(outs[0])
        side = slot(f)[1 + tok.choice]
        rest_i, rest_o = _shape(side, ins, outs[1:])
    else:  # OUT_CODE
        tok = _num_token(outs[0])
        if ins or outs[1:]:
            raise ShapeMismatch("tokens left over past a code")
        rest_i, rest_o = [], []
    return rest_i, [tok] + rest_o


def pair_complete(f: Formula, p: IOPair) -> bool:
    """True when the pair's walk reaches the end of its path."""
    return _complete(f, list(p.inputs), list(p.outputs))


def _complete(f, ins, outs):
    kind = slot(f)[0]
    if kind == END:
        return not ins and not outs
    if kind in (IN_NUM, IN_SEL, IN_PREFIX):
        if not ins:
            return False
        if kind == IN_SEL:
            side = slot(f)[1 + _sel_token(ins[0]).choice]
            return _complete(side, ins[1:], outs)
        return _complete(slot(f)[2], ins[1:], outs)
    if not outs:
        return False
    if kind == OUT_SEL:
        side = slot(f)[1 + _sel_token(outs[0]).choice]
        return _complete(side, ins, outs[1:])
    if kind == OUT_CODE:
        return not ins and len(outs) == 1
    return _complete(slot(f)[2], ins, outs[1:])


# ---------------------------------------------------------------------------
# semantic content


def semantic_content(f: Formula, p: IOPair) -> Formula:
    """The classical assertion that the pair is correct.

    Quantifier tokens instantiate variables, choice tokens select the
    asserted branch, and a prefix contributes the antecedent statement
    plus the contents of its own pairs as hypotheses.  A partial pair's
    conclusion is the untouched remainder of the statement.
    """
    hyps, rest, env = content_parts(f, shape_check(f, p))
    concl = instantiate(rest, env)
    if not hyps:
        return concl
    return Implies(conj_all(hyps), concl)


def content_parts(f: Formula, p: IOPair):
    """A shaped pair's semantic content in parts: (hyps, rest, env).

    `rest` is the part of the statement the pair's tokens reach, still
    open; `env` maps its instantiated variables to their values; `hyps`
    are the closed hypotheses its prefix inputs contribute.  The content
    is `rest` under `env`, implied by the conjunction of `hyps` if any.
    Judging `rest` under `env` leaves large numerals as integers.
    """
    hyps: list = []
    env: dict = {}
    ins, outs = iter(p.inputs), iter(p.outputs)
    g = f
    while True:
        s = slot(g)
        kind = s[0]
        if kind in (IN_NUM, IN_SEL, IN_PREFIX):
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
            g = s[2]
        elif kind in (IN_SEL, OUT_SEL):
            g = s[1 + tok.choice]
        else:
            ante = instantiate(s[1], env)
            hyps.append(ante)
            hyps.extend(semantic_content(ante, it) for it in tok.items if is_pair(it))
            g = s[2]
