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
budget; an exhausted budget ends the emitted stream.  Equal texts read
as one program, which its first run compiles for every run.  A pure block
(a form of literals, variables, arithmetic, `if` with arms of equal
count and calls of pure definitions, whose bodies are such forms) takes
a fixed number of steps.  It is charged them at once and runs as one
compiled expression, each pure definition's body spelt as a Python
function; at the budget's edge and on an error it runs form by form,
so every count and error is the same.
The code of a program is the byte string of its canonical printed form
read base-256.
"""

import functools
import math
import operator
import re
from dataclasses import dataclass, field

from .witness import IOPair, Numeral, Prefix, Selector, Whitespace, WS, WitnessStream


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
    """The item with this code, its two token lists read in one loop each
    with the token codes taken apart in line: decode_token of each of
    list_decode's codes."""
    if code == 0:
        return WS
    sides = ([], [])
    for code, tokens in zip(uncantor(code - 1), sides):
        while code:
            w = (math.isqrt(8 * code - 7) - 1) // 2  # uncantor(code - 1)
            code -= 1 + w * (w + 1) // 2
            tok = w - code
            kind, tok = tok % 3, tok // 3
            tokens.append(Numeral(tok) if kind == 0 else Selector(tok) if kind == 1
                          else Prefix(tuple(decode_item(c) for c in list_decode(tok))))
    return IOPair(tuple(sides[0]), tuple(sides[1]))


# ---------------------------------------------------------------------------
# s-expressions


# one token after optional blanks: a parenthesis (group 1) or a word
# (group 2); neither matches only at the end of the text
_SEXPR_TOKEN = re.compile(r"\s*(?:([()])|([^\s()]+))?")


def parse_sexpr(text: str):
    """The one s-expression in text, its lists as tuples and its decimal
    words as ints, read in one loop over its tokens."""
    stack = [[]]  # the lists still open, innermost last; stack[0] gets the result
    pos = 0
    while True:
        m = _SEXPR_TOKEN.match(text, pos)
        if stack[0]:
            if m.lastindex:
                raise VMError(f"trailing program text at {m.start(m.lastindex)}")
            return stack[0][0]
        paren, word = m.groups()
        if word is not None:
            stack[-1].append(int(word) if word.isdecimal() else word)
        elif paren == "(":
            stack.append([])
        elif paren is None:
            raise VMError("unbalanced parentheses" if len(stack) > 1
                          else "unexpected end of program text")
        elif len(stack) == 1:
            raise VMError(f"stray ')' at {m.start(1)}")
        else:
            stack[-2].append(tuple(stack.pop()))
        pos = m.end()


def print_sexpr(x) -> str:
    """x's text, printed in one loop so that deep nesting prints too."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            out.append("(")
            # the elements last first, a blank between each two, over ")"
            todo += [")", *[e for y in reversed(x) for e in (y, " ")][:-1]]
        else:
            out.append(str(x))
    return "".join(out)


@dataclass(frozen=True)
class WCode:
    """A machine program: (prog (def name (params) body)* main)."""

    expr: tuple
    # the program compiled by its first run, kept for every later one
    _compiled: "_Compiled" = field(default=None, init=False, repr=False, compare=False)

    def compiled(self) -> "_Compiled":
        if self._compiled is None:
            object.__setattr__(self, "_compiled", _Compiled(self.expr))
        return self._compiled

    def text(self) -> str:
        return print_sexpr(self.expr)

    __str__ = text


@functools.lru_cache(maxsize=256)
def program(text: str) -> WCode:
    """The program text spells, read once per distinct text: equal texts
    give one WCode, so one compiled form."""
    expr = parse_sexpr(text)
    if not isinstance(expr, tuple) or not expr or expr[0] != "prog":
        raise VMError("a program is (prog def* main)")
    if len(expr) < 2:
        raise VMError("program has no main expression")
    for d in expr[1:-1]:
        if not (isinstance(d, tuple) and len(d) == 4 and d[0] == "def"):
            raise VMError("bad definition (want (def name (params) body))")
        if not (isinstance(d[1], str) and isinstance(d[2], tuple)
                and all(isinstance(param, str) for param in d[2])):
            raise VMError("bad definition header")
        _validate_form(d[3])
    _validate_form(expr[-1])
    return WCode(expr)


# the argument count of each built-in form; seq takes any number
_ARITY = {"fst": 1, "snd": 1, "emit": 1, "query": 1, "if": 3, "let": 3}
_ARITY.update(dict.fromkeys(("+", "-", "*", "div", "mod", "<", "=", "pair", "set", "while"), 2))
# the built-in heads; a definition of the same name is never called
_BUILTIN = frozenset(_ARITY) | {"seq"}


def _validate_form(x):
    """Every form starts with a name, gives a built-in its argument count
    and gives let and set a name to bind: one loop, pre-order from the left."""
    todo = [x]
    while todo:
        x = todo.pop()
        if not isinstance(x, tuple):
            continue
        if not x:
            raise VMError("empty form")
        head = x[0]
        if not isinstance(head, str):
            raise VMError(f"a form starts with a name, not {print_sexpr(head)}")
        if head in _ARITY and len(x) - 1 != _ARITY[head]:
            raise VMError(f"{head} wants {_ARITY[head]} arguments")
        if head in ("let", "set") and not isinstance(x[1], str):
            raise VMError(f"{head} binds a name, not {print_sexpr(x[1])}")
        todo += reversed(_operands(x))


def _operands(x):
    """The forms among x's arguments: the first argument of let, set and
    query is a name, not a form."""
    return x[2:] if x[0] in ("let", "set", "query") else x[1:]


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
        return program(text)
    except VMError as e:
        raise DecodeError(f"code is not a valid program: {e}") from None


# ---------------------------------------------------------------------------
# the machine: a program is compiled into closures by its first run


class VM:
    """One run of a program over named input streams, budgeted by steps.

    A VM holds the run's state only: every run shares the closures its
    program's first run compiled.  `steps` counts the steps taken, and
    `cut` is true once the step budget has ended the stream."""

    def __init__(self, program: WCode, inputs=None, step_budget: int = 10000):
        self.program = program
        self.inputs = {str(k): v for k, v in (inputs or {}).items()}
        self.cursors = {k: 0 for k in self.inputs}
        self.budget = step_budget
        self.steps = 0
        self.cut = False

    def items(self):
        """Generator of emitted items; ends when the budget runs out."""
        prog = self.program.compiled()
        try:
            if prog.emits:
                yield from prog.main(self, {})
            else:
                prog.main(self, {})
        except _OutOfSteps:
            self.cut = True

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


# one step of a form run on its own.  Pure blocks take 92.6 % of the
# perfbench extract_run workload's steps: one pass of seed 1 ticks here
# for 15,963 of its 214,791 steps
def _tick(vm):
    vm.steps += 1
    if vm.steps > vm.budget:
        raise _OutOfSteps()


# A number past MAX_BITS bits is an error, so that a step budget bounds
# memory too.  `*` and `pair` test their results: they are the only
# built-ins that can double a length in one step.  The corpus's largest
# number has 20,798 bits.
MAX_BITS = 1 << 20


def _sized(op):
    def run(a, b):
        n = op(a, b)
        if n >> MAX_BITS:
            raise VMError(f"number past {MAX_BITS} bits")
        return n
    return run


# the arithmetic built-ins: "-" is monus, div and mod by 0 give 0, and
# fst and snd take a Cantor pair apart
_OPS = {
    "+": operator.add,
    "-": lambda a, b: a - b if a > b else 0,
    "*": _sized(operator.mul),
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "=": lambda a, b: 1 if a == b else 0,
    "pair": _sized(cantor),
    "fst": lambda z: uncantor(z)[0],
    "snd": lambda z: uncantor(z)[1],
}


# A pure block runs as one Python expression over env: _SPELL writes each
# built-in as a Python operator where one means the same, else as a call
# of the built-in itself.
_SPELL = {"+": "({} + {})", "<": "(1 if {} < {} else 0)", "=": "(1 if {} == {} else 0)",
          "if": "({1} if {0} else {2})"}
_SPELL.update((h, f"_ops[{h!r}]({{}})") for h in ("fst", "snd"))
_SPELL.update((h, f"_ops[{h!r}]({{}}, {{}})") for h in ("-", "*", "div", "mod", "pair"))
# compile() refuses an expression nested past about 200 parentheses, and
# a block holds at most 256 forms; a larger pure form runs its outer
# forms one by one and the blocks below fused.
# A call nests its callee's body below it, so that a block never nests
# more Python frames than its forms run one by one would.
_BLOCK_DEPTH, _BLOCK_FORMS = 60, 256


def _spell(x, prog, depth, room=_BLOCK_FORMS, params=None):
    """The form x as (Python expression, form count, height), or None when
    x is not pure, nests deeper than depth or has an operator past room
    forms.  A pure form is built from literals, variables, the arithmetic
    built-ins, `if` with arms of equal count and calls of prog's pure
    definitions.  A variable reads env, or, in a definition's body, the
    function argument that params names for it."""
    if isinstance(x, int):
        return str(x), 1, 0
    if isinstance(x, str):
        if params is None:
            return f"env[{x!r}]", 1, 0
        # a name the definition does not bind fails as a read of env does
        return params.get(x, f"{{}}[{x!r}]"), 1, 0
    head = x[0]
    if not depth or room < 1:
        return None
    if head in _SPELL:
        form, body, height = _SPELL[head], 0, 0
    elif head in prog.pure and head not in _BUILTIN:
        fn, arity, body, height = prog.pure[head]
        if arity != len(x) - 1 or height >= depth:
            return None
        form = fn + "(" + ", ".join(["{}"] * arity) + ")"
    else:
        return None
    parts = []
    for e in x[1:]:
        parts.append(_spell(e, prog, depth - 1, room - 1 - body - sum(p[1] for p in parts), params))
        if parts[-1] is None:
            return None
    count = 1 + body + sum(p[1] for p in parts)
    if head == "if":
        if parts[1][1] != parts[2][1]:
            return None
        count -= parts[2][1]  # one arm runs
    return (form.format(*(p[0] for p in parts)), count,
            1 + max([height] + [p[2] for p in parts]))


class _Compiled:
    """A program compiled: `main, emits` is its main form and `cells[name]`
    holds the body of each definition; `defs` maps a name to (params,
    body), `emitters` holds the names whose call can reach an emit, and
    `pure` maps each pure definition's name to (function, arity, count,
    height).  A definition is pure when its body is a pure form, so never
    recursive: it is spelt as a Python function of its parameters, under
    the name function in `scope`, the globals of every block, runs in
    count steps and nests height forms deep.  A call of it is charged one
    step, its arguments' and count."""

    def __init__(self, expr):
        self.defs = {d[1]: (d[2], d[3]) for d in expr[1:-1]}
        self.pure, self.scope = {}, {"_ops": _OPS}
        callers = {name: [] for name in self.defs}
        callees, found = {}, []
        for name, (_, body) in self.defs.items():
            callees[name], emits = _calls(body, self.defs)
            if emits:
                found.append(name)
            for callee in callees[name]:
                callers[callee].append(name)
        # the emitters: the least set holding each definition whose body
        # has an emit or calls one in the set
        self.emitters = set()
        while found:
            name = found.pop()
            if name not in self.emitters:
                self.emitters.add(name)
                found += callers[name]
        # each body is spelt once its callees are, so a definition in a
        # cycle of calls is never spelt and never pure
        ready = [name for name in self.defs if not callees[name]]
        while ready:
            name = ready.pop()
            params, body = self.defs[name]
            args = [f"_{i}" for i in range(len(params))]
            # a name given twice reads its last argument, as dict(zip()) does
            spelt = _spell(body, self, _BLOCK_DEPTH - 1, _BLOCK_FORMS, dict(zip(params, args)))
            if spelt and spelt[1] <= _BLOCK_FORMS:
                fn = f"_d{len(self.pure)}"
                code = compile(f"lambda {', '.join(args)}: {spelt[0]}", "<def>", "eval")
                self.scope[fn] = eval(code, self.scope)
                self.pure[name] = fn, len(params), spelt[1], spelt[2]
            for caller in callers[name]:
                callees[caller].discard(name)
                if not callees[caller]:
                    ready.append(caller)
        self.cells = {name: [None] for name in self.defs}
        for name, (_, body) in self.defs.items():
            self.cells[name][0] = _compile(body, self)[0]
        self.main, self.emits = _compile(expr[-1], self)


def _calls(x, defs):
    """The definitions the form x calls, and whether it holds an emit.  The
    operands of a form that fails are never run, so they are not read."""
    callees, emits, todo = set(), False, [x]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple) and not _fails(x, defs):
            if x[0] == "emit":
                emits = True
            elif x[0] not in _BUILTIN:
                callees.add(x[0])
            todo += _operands(x)
    return callees, emits


def _fails(x, defs) -> bool:
    """Whether the form x names neither a built-in nor a definition taking
    its argument count: it fails when run, before any operand runs."""
    head = x[0]
    return head not in _BUILTIN and (head not in defs or len(defs[head][0]) != len(x) - 1)


def _values(parts, vm, env):
    """Run compiled operands left to right: a generator returning their values."""
    values = []
    for f, emits in parts:
        values.append((yield from f(vm, env)) if emits else f(vm, env))
    return values


def _restore(env, name, had, old):
    if had:
        env[name] = old
    else:
        del env[name]


def _compile(x, prog, in_block=False):
    """Compile the validated form x to (closure, emits).

    The closure maps (vm, env) to the form's value.  When emits is true
    it is a generator function instead, driven with `yield from`: it
    yields the items the form emits and returns its value.  Only a form
    that holds an emit, or calls a definition in `prog.emitters`, emits.
    Every closure takes one step on entry, before its operands run, and
    runs them left to right; a call reads its callee's body from
    `prog.cells`.  A pure block outside any other runs fused, and it
    keeps its per-form closures for the budget's edge and for errors: a
    rerun has no effect.
    """
    if isinstance(x, int):
        def literal(vm, env):
            _tick(vm)
            return x
        return literal, False
    if isinstance(x, str):
        def variable(vm, env):
            _tick(vm)
            try:
                return env[x]
            except KeyError:
                raise VMError(f"unbound machine variable {x!r}") from None
        return variable, False
    head = x[0]
    if head == "query":
        name = x[1] if isinstance(x[1], str) else str(x[1])

        def query(vm, env):
            _tick(vm)
            return vm._query(name)
        return query, False
    if _fails(x, prog.defs):
        message = (f"{head} wants {len(prog.defs[head][0])} arguments" if head in prog.defs
                   else f"unknown operation {head!r}")

        def fail(vm, env):
            _tick(vm)
            raise VMError(message)
        return fail, False
    spelt = (not in_block and (head in _SPELL or head in prog.pure)
             and _spell(x, prog, _BLOCK_DEPTH))
    if spelt and spelt[1] <= _BLOCK_FORMS:
        fast = eval(compile("lambda env: " + spelt[0], "<block>", "eval"), prog.scope)
        n, slow = spelt[1], _compile(x, prog, True)[0]

        def fused(vm, env):
            if vm.steps + n <= vm.budget:
                try:
                    val = fast(env)
                except (KeyError, VMError):  # an unbound name, or past MAX_BITS
                    return slow(vm, env)
                vm.steps += n
                return val
            return slow(vm, env)
        return fused, False
    parts = [_compile(e, prog, in_block) for e in _operands(x)]
    fs = [f for f, _ in parts]
    callee = head not in _BUILTIN and head in prog.emitters
    emits = head == "emit" or callee or any(e for _, e in parts)

    if head in _OPS:
        op = _OPS[head]
        if emits:
            def apply(vm, env):
                _tick(vm)
                return op(*(yield from _values(parts, vm, env)))
            return apply, True
        if len(fs) == 1:
            (a,) = fs

            def unary(vm, env):
                _tick(vm)
                return op(a(vm, env))
            return unary, False
        a, b = fs

        def binary(vm, env):
            _tick(vm)
            return op(a(vm, env), b(vm, env))
        return binary, False

    if head == "emit":
        ((a, ea),) = parts

        def emit(vm, env):
            _tick(vm)
            code = (yield from a(vm, env)) if ea else a(vm, env)
            yield decode_item(code)
            return 0
        return emit, True

    if head == "set":
        name = x[1]
        if emits:
            def set_(vm, env):
                _tick(vm)
                (val,) = yield from _values(parts, vm, env)
                env[name] = val
                return val
            return set_, True
        (v,) = fs

        def set_(vm, env):
            _tick(vm)
            env[name] = val = v(vm, env)
            return val
        return set_, False

    if head == "seq":
        if emits:
            def seq(vm, env):
                _tick(vm)
                val = 0
                for f, fe in parts:
                    val = (yield from f(vm, env)) if fe else f(vm, env)
                return val
            return seq, True

        def seq(vm, env):
            _tick(vm)
            val = 0
            for f in fs:
                val = f(vm, env)
            return val
        return seq, False

    if head == "if":
        (c, ec), (t, et), (e, ee) = parts
        if emits:
            def if_(vm, env):
                _tick(vm)
                cond = (yield from c(vm, env)) if ec else c(vm, env)
                f, fe = (t, et) if cond else (e, ee)
                return (yield from f(vm, env)) if fe else f(vm, env)
            return if_, True

        def if_(vm, env):
            _tick(vm)
            return (t if c(vm, env) else e)(vm, env)
        return if_, False

    if head == "let":
        name = x[1]
        (v, ev), (body, eb) = parts
        if emits:
            def let(vm, env):
                _tick(vm)
                val = (yield from v(vm, env)) if ev else v(vm, env)
                had, old = name in env, env.get(name)
                env[name] = val
                try:
                    return (yield from body(vm, env)) if eb else body(vm, env)
                finally:
                    _restore(env, name, had, old)
            return let, True

        def let(vm, env):
            _tick(vm)
            val = v(vm, env)
            had, old = name in env, env.get(name)
            env[name] = val
            try:
                return body(vm, env)
            finally:
                _restore(env, name, had, old)
        return let, False

    if head == "while":
        (c, ec), (body, eb) = parts
        if emits:
            def while_(vm, env):
                _tick(vm)
                while (yield from c(vm, env)) if ec else c(vm, env):
                    if eb:
                        yield from body(vm, env)
                    else:
                        body(vm, env)
                return 0
            return while_, True

        def while_(vm, env):
            _tick(vm)
            while c(vm, env):
                body(vm, env)
            return 0
        return while_, False

    # a call of a definition
    params, cell = prog.defs[head][0], prog.cells[head]
    if emits:
        def call(vm, env):
            _tick(vm)
            inner = dict(zip(params, (yield from _values(parts, vm, env))))
            return (yield from cell[0](vm, inner)) if callee else cell[0](vm, inner)
        return call, True

    def call(vm, env):
        _tick(vm)
        args = []  # a loop, not a comprehension: no frame per call
        for f in fs:
            args.append(f(vm, env))
        return cell[0](vm, dict(zip(params, args)))
    return call, False


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
