"""A small deterministic machine whose programs emit witness items.

Programs are s-expressions over natural numbers: arithmetic (monus
subtraction), comparison, Cantor pairing, let/set/seq/if/while, named
recursive definitions, `(emit e)` to append an item to the output
stream and `(query s)` to pull the next item from input stream s.
Items cross the machine boundary as numeric codes:

    list:  [] = 0,  cons(h, t) = 1 + cantor(h, t)
    token: numeral n = 3n, selector c = 3c+1, prefix p = 3*listcode(p)+2
    item:  whitespace = 0, pair = 1 + cantor(listcode(ins), listcode(outs))

Every evaluation step costs one unit against an externally supplied
budget; an exhausted budget ends the emitted stream.  The code of a
program is the byte string of its canonical printed form read base-256.
"""

import math
from dataclasses import dataclass

from .witness import IOPair, Numeral, Prefix, Selector, Whitespace, WS, WitnessStream, is_pair


class VMError(Exception):
    pass


class DecodeError(Exception):
    pass


class _OutOfSteps(Exception):
    pass


# ---------------------------------------------------------------------------
# pairing and item codes


def cantor(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def uncantor(z: int):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def list_encode(values) -> int:
    code = 0
    for v in reversed(list(values)):
        code = 1 + cantor(v, code)
    return code


def list_decode(code: int) -> list:
    out = []
    while code:
        h, code = uncantor(code - 1)
        out.append(h)
    return out


def encode_token(tok) -> int:
    if isinstance(tok, Numeral):
        return 3 * tok.value
    if isinstance(tok, Selector):
        return 3 * tok.choice + 1
    if isinstance(tok, Prefix):
        return 3 * list_encode([encode_item(it) for it in tok.items]) + 2
    raise TypeError(f"not a token: {tok!r}")


def decode_token(code: int):
    kind = code % 3
    if kind == 0:
        return Numeral(code // 3)
    if kind == 1:
        return Selector((code - 1) // 3)
    return Prefix(tuple(decode_item(c) for c in list_decode((code - 2) // 3)))


def encode_item(item) -> int:
    if isinstance(item, Whitespace):
        return 0
    if isinstance(item, IOPair):
        ins = list_encode([encode_token(t) for t in item.inputs])
        outs = list_encode([encode_token(t) for t in item.outputs])
        return 1 + cantor(ins, outs)
    raise TypeError(f"not an item: {item!r}")


def decode_item(code: int):
    if code == 0:
        return WS
    ins, outs = uncantor(code - 1)
    return IOPair(
        tuple(decode_token(c) for c in list_decode(ins)),
        tuple(decode_token(c) for c in list_decode(outs)),
    )


# ---------------------------------------------------------------------------
# s-expressions


def parse_sexpr(text: str):
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def rec():
        nonlocal pos
        skip()
        if pos >= len(text):
            raise VMError("unexpected end of program text")
        if text[pos] == "(":
            pos += 1
            items = []
            while True:
                skip()
                if pos >= len(text):
                    raise VMError("unbalanced parentheses")
                if text[pos] == ")":
                    pos += 1
                    return items
                items.append(rec())
        if text[pos] == ")":
            raise VMError(f"stray ')' at {pos}")
        j = pos
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        word = text[pos:j]
        pos = j
        if word.isdigit():
            return int(word)
        return word

    expr = rec()
    skip()
    if pos != len(text):
        raise VMError(f"trailing program text at {pos}")
    return expr


def print_sexpr(x) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return "(" + " ".join(print_sexpr(e) for e in x) + ")"


@dataclass(frozen=True)
class WCode:
    """A machine program: (prog (def name (params) body)* main)."""

    expr: tuple

    @classmethod
    def from_text(cls, text: str) -> "WCode":
        expr = parse_sexpr(text)
        _validate_program(expr)
        return cls(_freeze(expr))

    def text(self) -> str:
        return print_sexpr(_thaw(self.expr))

    def godel(self) -> int:
        return godel_encode(self.text())

    def __str__(self):
        return self.text()


def _freeze(x):
    return tuple(_freeze(e) for e in x) if isinstance(x, list) else x


def _thaw(x):
    return [_thaw(e) for e in x] if isinstance(x, tuple) else x


def _validate_program(expr):
    if not isinstance(expr, list) or not expr or expr[0] != "prog":
        raise VMError("a program is (prog def* main)")
    if len(expr) < 2:
        raise VMError("program has no main expression")
    for d in expr[1:-1]:
        if not (isinstance(d, list) and len(d) == 4 and d[0] == "def"):
            raise VMError("bad definition (want (def name (params) body))")
        if not isinstance(d[1], str) or not isinstance(d[2], list):
            raise VMError("bad definition header")
        _validate_form(d[3])
    _validate_form(expr[-1])


# the argument count of each built-in form; seq takes any number
_ARITY = {"fst": 1, "snd": 1, "emit": 1, "query": 1, "if": 3, "let": 3}
_ARITY.update(dict.fromkeys(("+", "-", "*", "div", "mod", "<", "=", "pair", "set", "while"), 2))


def _validate_form(x):
    """Every form starts with a name and gives a built-in its argument count."""
    if not isinstance(x, list):
        return
    if not x:
        raise VMError("empty form")
    head = x[0]
    if not isinstance(head, str):
        raise VMError(f"a form starts with a name, not {print_sexpr(head)}")
    if head in _ARITY and len(x) - 1 != _ARITY[head]:
        raise VMError(f"{head} wants {_ARITY[head]} arguments")
    # the first argument of let, set and query is a name, not a form
    for e in x[2:] if head in ("let", "set", "query") else x[1:]:
        _validate_form(e)


def godel_encode(text: str) -> int:
    data = text.encode("utf-8")
    return int.from_bytes(data, "big")


def godel_decode(code: int) -> WCode:
    if code <= 0:
        raise DecodeError("no program has that code")
    data = code.to_bytes((code.bit_length() + 7) // 8, "big")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise DecodeError(f"code is not program text: {e}") from None
    try:
        return WCode.from_text(text)
    except (VMError, RecursionError) as e:
        raise DecodeError(f"code is not a valid program: {e}") from None


# ---------------------------------------------------------------------------
# interpreter


class VM:
    """One run of a program over named input streams, budgeted by steps."""

    def __init__(self, program: WCode, inputs=None, step_budget: int = 10000):
        expr = _thaw(program.expr)
        self.defs = {d[1]: (d[2], d[3]) for d in expr[1:-1]}
        self.main = expr[-1]
        self.inputs = {str(k): v.copy() for k, v in (inputs or {}).items()}
        self.cursors = {k: 0 for k in self.inputs}
        self.budget = step_budget
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise _OutOfSteps()

    def items(self):
        """Generator of emitted items; ends when the budget runs out."""
        try:
            yield from self._eval(self.main, {})
        except _OutOfSteps:
            return

    def _query(self, name: str):
        stream = self.inputs.get(name)
        if stream is None:
            return 0
        i = self.cursors[name]
        item = stream.at(i)
        if item is None:
            return 0  # exhausted inputs read as whitespace
        self.cursors[name] = i + 1
        return encode_item(item)

    def _eval(self, x, env):
        self._tick()
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            if x in env:
                return env[x]
            raise VMError(f"unbound machine variable {x!r}")
        if not x:
            raise VMError("empty form")
        head = x[0]
        if head == "+":
            return (yield from self._eval(x[1], env)) + (yield from self._eval(x[2], env))
        if head == "-":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a - b if a > b else 0
        if head == "*":
            return (yield from self._eval(x[1], env)) * (yield from self._eval(x[2], env))
        if head == "div":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a // b if b else 0
        if head == "mod":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a % b if b else 0
        if head == "<":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return 1 if a < b else 0
        if head == "=":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return 1 if a == b else 0
        if head == "pair":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return cantor(a, b)
        if head == "fst":
            return uncantor((yield from self._eval(x[1], env)))[0]
        if head == "snd":
            return uncantor((yield from self._eval(x[1], env)))[1]
        if head == "if":
            c = yield from self._eval(x[1], env)
            return (yield from self._eval(x[2] if c else x[3], env))
        if head == "let":
            _, name, val_expr, body = x
            val = yield from self._eval(val_expr, env)
            had, old = name in env, env.get(name)
            env[name] = val
            try:
                return (yield from self._eval(body, env))
            finally:
                if had:
                    env[name] = old
                else:
                    del env[name]
        if head == "set":
            val = yield from self._eval(x[2], env)
            env[x[1]] = val
            return val
        if head == "seq":
            v = 0
            for e in x[1:]:
                v = yield from self._eval(e, env)
            return v
        if head == "while":
            while True:
                c = yield from self._eval(x[1], env)
                if not c:
                    return 0
                yield from self._eval(x[2], env)
        if head == "emit":
            code = yield from self._eval(x[1], env)
            yield decode_item(code)
            return 0
        if head == "query":
            name = x[1] if isinstance(x[1], str) else str(x[1])
            return self._query(name)
        if head in self.defs:
            params, body = self.defs[head]
            if len(params) != len(x) - 1:
                raise VMError(f"{head} wants {len(params)} arguments")
            args = []
            for e in x[1:]:
                args.append((yield from self._eval(e, env)))
            return (yield from self._eval(body, dict(zip(params, args))))
        raise VMError(f"unknown operation {head!r}")


def run_stream(program: WCode, inputs=None, step_budget: int = 10000) -> WitnessStream:
    """The program's emitted stream, lazily driven under the step budget."""
    return WitnessStream(lambda: VM(program, inputs, step_budget).items())


# ---------------------------------------------------------------------------
# library programs

# the Cantor pairing function, as every generated program defines it
CANTOR = "(def cantor (a b) (+ (div (* (+ a b) (+ (+ a b) 1)) 2) b))"

_PRELUDE = (
    CANTOR
    + " (def lone (t) (+ 1 (cantor t 0))) "
    "(def ltwo (s t) (+ 1 (cantor s (+ 1 (cantor t 0))))) "
    "(def mkpair (ins outs) (+ 1 (cantor ins outs)))"
)


def program(text: str) -> WCode:
    return WCode.from_text(text)


def trivial_program() -> WCode:
    """Emits the trivial pair, then nothing."""
    return program("(prog (emit 1))")


def doubling_program() -> WCode:
    """The mapping n to 2n: emits (:) (0:0) (1:2) (2:4) ..."""
    return program(
        "(prog "
        + _PRELUDE
        + " (seq (emit 1) (set n 0) (while 1 (seq"
        " (emit (mkpair (lone (* 3 n)) (lone (* 3 (* 2 n)))))"
        " (set n (+ n 1))))))"
    )


def successor_program() -> WCode:
    """The mapping n to n+1: emits (:) (0:1) (1:2) ..."""
    return program(
        "(prog "
        + _PRELUDE
        + " (seq (emit 1) (set n 0) (while 1 (seq"
        " (emit (mkpair (lone (* 3 n)) (lone (* 3 (+ n 1)))))"
        " (set n (+ n 1))))))"
    )
