import itertools
import signal
from pathlib import Path

import pytest

from ctruth.cli import main
from ctruth.vm import godel_encode

from conftest import FIXTURES, run_capped
from test_realizers import induction_text


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def fx(*parts):
    return str(FIXTURES.joinpath(*parts))


def test_parse_reports_formula(capsys):
    code, out = run(capsys, "parse", "--formula", fx("formulas", "doubling.fml"))
    assert code == 0
    assert "FORMULA A x. E y. y=2*x" in out


# A run of one operator is read and printed in a loop, so each of these
# prints its formula at the default recursion limit.  The check compares
# text: dataclass equality of such a formula still recurses.
@pytest.mark.parametrize("text", [
    " -> ".join(["0=0"] * 3000),
    " \\/ ".join(["0=0"] * 3400),
    "E x. " + "+".join(["x"] * 3000) + "=0",
], ids=["implication chain", "disjunction chain", "long sum"])
def test_parse_reads_and_prints_a_long_run_of_one_operator(tmp_path, capsys, text):
    fml = tmp_path / "long.fml"
    fml.write_text(text + "\n")
    code, out = run(capsys, "parse", "--formula", str(fml))
    assert code == 0
    assert out.splitlines()[-1] == f"FORMULA {text}"


def test_parse_needs_an_input(capsys):
    code, out = run(capsys, "parse")
    assert code == 2
    assert "USAGE" in out


def test_check_accepts_sample(capsys):
    code, out = run(
        capsys,
        "check",
        "--formula", fx("formulas", "doubling.fml"),
        "--witness", fx("witnesses", "doubling.wit"),
        "--numerals", "5", "--pulls", "1000",
    )
    assert code == 0
    assert "VERDICT accepted_up_to" in out


def test_check_names_the_corrupted_pair(capsys):
    code, out = run(
        capsys,
        "check",
        "--formula", fx("formulas", "doubling.fml"),
        "--witness", fx("witnesses", "doubling_bad.wit"),
        "--numerals", "2", "--pulls", "16",
    )
    assert code == 1
    assert "rejected" in out and "(2:5)" in out


def test_check_large_numeral_is_refuted(tmp_path, capsys):
    wit = tmp_path / "big.wit"
    wit.write_text("(1:5000)\n")
    rpt = tmp_path / "big.txt"
    code, out = run(capsys, "check", "--formula", fx("formulas", "doubling.fml"),
                    "--witness", str(wit), "--report", str(rpt))
    assert code == 1
    assert rpt.read_text().splitlines()[-1] == "VERDICT rejected pair=(1:5000) reason=5000=2*1"


@pytest.mark.parametrize("role", ["witness", "formula"])
def test_a_numeral_too_long_to_read_is_a_reader_error(tmp_path, capsys, role):
    # 5,000 digits: past the interpreter's 4,300-digit int-string limit
    nines = "9" * 5000
    files = {"formula": fx("formulas", "doubling.fml"), "witness": fx("witnesses", "doubling.wit")}
    if role == "witness":
        path = tmp_path / "big.wit"
        path.write_text(f"(1:{nines})\n")
        want = "ERROR numeral of 5000 digits is too long at 3"
    else:
        path = tmp_path / "big.fml"
        path.write_text(f"E x. x={nines}\n")
        want = "ERROR numeral of 5000 digits is too long (at position 7)"
    files[role] = str(path)
    code, out = run(capsys, "check", "--formula", files["formula"], "--witness", files["witness"])
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("ERROR")] == [want]
    assert out.splitlines()[-1] == want
    assert "set_int_max_str_digits" not in out


def test_check_large_literal_in_formula_gets_a_verdict(tmp_path, capsys):
    fml = tmp_path / "big.fml"
    fml.write_text("E x. x=3000\n")
    for answer, want_code, want in [
        (3000, 0, "VERDICT accepted_up_to pulls=32 numerals=8"),
        (2999, 1, "VERDICT rejected pair=(:2999) reason=2999=3000"),
    ]:
        wit = tmp_path / f"big{answer}.wit"
        wit.write_text(f"(:{answer})\n")
        code, out = run(capsys, "check", "--formula", str(fml), "--witness", str(wit))
        assert code == want_code
        assert out.splitlines()[-1] == want
        assert "Traceback" not in out


def test_check_antecedent_with_a_large_literal_gets_a_verdict(tmp_path, capsys):
    # the antecedent probe is matched against the statement's antecedent
    # with ==, which reads the literal 3000 as its count of `+1` steps
    files = {"f.fml": "(E x. x=3000) -> E y. y=1\n", "w.wit": '(:) ("(:3000)":1)\n',
             "a.fml": "E x. x=3000\n", "a.wit": "(:3000)\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out = run(capsys, "check", "--formula", str(tmp_path / "f.fml"),
                    "--witness", str(tmp_path / "w.wit"),
                    "--ante-formula", str(tmp_path / "a.fml"),
                    "--ante-witness", str(tmp_path / "a.wit"))
    assert code == 0
    assert out.splitlines()[-1] == "VERDICT accepted_up_to pulls=32 numerals=8"


_MAIN = "import sys; from ctruth.cli import main; sys.exit(main(sys.argv[1:]))"
_SEVENS = "7" * 30
_TWELVE = "E x. x=999999999999"


# A numeral is one node whatever its value, so each of these ends in its
# report line well inside 1 GB and 10 s, in a fresh capped interpreter.
@pytest.mark.parametrize("command,files,code,line", [
    ("check", {"formula": "E x. x=1\n", "witness": f"(:{_SEVENS})\n"}, 1,
     f"VERDICT rejected pair=(:{_SEVENS}) reason={_SEVENS}=1"),
    ("parse", {"formula": _TWELVE + "\n"}, 0, f"FORMULA {_TWELVE}"),
    ("synthesize", {"formula": _TWELVE + "\n"}, 1,
     f"SYNTHESIS exhausted no witness found within numerals<=32: {_TWELVE}"),
], ids=["check a 30-digit answer", "parse a 12-digit literal", "synthesize a 12-digit literal"])
def test_a_large_literal_gets_its_report_line_under_a_memory_cap(tmp_path, command, files,
                                                                 code, line):
    argv = [command]
    for role, text in files.items():
        (tmp_path / role).write_text(text)
        argv += [f"--{role}", str(tmp_path / role)]
    done = run_capped(_MAIN, *argv)
    assert (done.returncode, done.stdout.splitlines()[-1]) == (code, line)
    assert "Traceback" not in done.stdout + done.stderr


# The literal reads and types, but a realizer's machine text spells it in
# unary, so the code for a 12-digit answer does not fit in 1 GB.
@pytest.mark.xfail(strict=True, reason="machine text spells a numeral in unary")
def test_extract_of_a_large_literal_prints_its_code_under_a_memory_cap(tmp_path):
    prf = tmp_path / "big.prf"
    prf.write_text(f"{_TWELVE}\n(exi {{{_TWELVE}}} {{999999999999}}"
                   " (inst (ax refl) {999999999999}))\n")
    done = run_capped(_MAIN, "extract", "--proof", str(prf))
    assert done.returncode == 0 and "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == f"THEOREM {_TWELVE}" and lines[2].startswith("CODE (prog ")


def test_check_unbound_variable_exits_one(tmp_path, capsys):
    fml = tmp_path / "free.fml"
    fml.write_text("x=1\n")
    code, out = run(capsys, "check", "--formula", str(fml),
                    "--witness", fx("witnesses", "doubling.wit"))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unbound variable: x"
    assert "Traceback" not in out


def test_extract_unbound_variable_exits_one(tmp_path, capsys):
    prf = tmp_path / "free.prf"
    prf.write_text("0=0\n(inst (ax refl) {y})\n")
    code, out = run(capsys, "extract", "--proof", str(prf))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unbound variable: y"
    assert "Traceback" not in out


def test_extract_claim_is_compared_up_to_closed_term_values(tmp_path, capsys):
    # the proof establishes 0<0+1, which converts to the claimed 0<1
    prf = tmp_path / "lt.prf"
    prf.write_text("0<1\n(inst (ax lt_succ) {0})\n")
    code, out = run(capsys, "extract", "--proof", str(prf))
    assert code == 0
    assert out.splitlines()[1] == "THEOREM 0<1"
    assert out.splitlines()[2].startswith("CODE (prog ")


def test_extract_stray_brace_exits_one(tmp_path, capsys):
    prf = tmp_path / "brace.prf"
    prf.write_text("A x. x=x\n(ax refl})\n")

    def hang(signum, frame):
        raise TimeoutError("extract did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        code, out = run(capsys, "extract", "--proof", str(prf))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("ERROR")] == [
        "ERROR stray } at token 3"]
    assert out.splitlines()[-1].startswith("ERROR") and "Traceback" not in out


def test_check_missing_file_is_usage_error(capsys):
    code, out = run(capsys, "check", "--formula", "/no/such.fml",
                    "--witness", fx("witnesses", "doubling.wit"))
    assert code == 2
    assert "/no/such.fml" in out


def test_nonpositive_budget_is_usage_error(capsys):
    code, out = run(
        capsys,
        "check",
        "--formula", fx("formulas", "doubling.fml"),
        "--witness", fx("witnesses", "doubling.wit"),
        "--pulls", "0",
    )
    assert code == 2
    assert "positive" in out


def test_synthesize_writes_witness(tmp_path, capsys):
    out_path = tmp_path / "sig.wit"
    code, out = run(
        capsys,
        "synthesize",
        "--formula", fx("formulas", "sigma_demo.fml"),
        "--numerals", "4", "--pulls", "40",
        "--out", str(out_path),
    )
    assert code == 0
    assert "WITNESS" in out and out_path.exists()


def test_synthesize_exhaustion_exits_one(tmp_path, capsys):
    bad = tmp_path / "false.fml"
    bad.write_text("E x. x=x+1\n")
    code, out = run(capsys, "synthesize", "--formula", str(bad),
                    "--pulls", "16", "--numerals", "3")
    assert code == 1
    assert "SYNTHESIS exhausted" in out


def test_extract_realizability_round_trip(tmp_path, capsys):
    wc = tmp_path / "succ.wc"
    code, out = run(capsys, "extract", "--proof", fx("proofs", "succ_total.prf"),
                    "--out", str(wc))
    assert code == 0
    assert "THEOREM A x. E y. y=x+1" in out and wc.exists()

    fml = tmp_path / "succ.fml"
    fml.write_text("A x. E y. y=x+1\n")
    code, out = run(
        capsys,
        "realizability",
        "--formula", str(fml), "--code", str(wc),
        "--pulls", "48", "--numerals", "6", "--vm-steps", "6000",
    )
    assert code == 0
    assert "VERDICT accepted_up_to" in out


def test_malformed_proofs_and_programs_exit_one(tmp_path, capsys):
    prf = tmp_path / "cut.prf"
    prf.write_text("0=0\n(\n")
    code, out = run(capsys, "extract", "--proof", str(prf))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unexpected end of proof"
    assert "Traceback" not in out

    fml = tmp_path / "succ.fml"
    fml.write_text("A x. E y. y=x+1\n")
    for bad in ["(prog (+ 1))", "(prog ((+ 1 2) 3))"]:
        wc = tmp_path / "bad.wc"
        wc.write_text(bad + "\n")
        code, out = run(capsys, "realizability", "--formula", str(fml), "--code", str(wc))
        assert code == 1
        assert out.splitlines()[-1].startswith("ERROR ")
        assert "Traceback" not in out

    boxed = tmp_path / "box.fml"
    boxed.write_text("box E x. x=1\n")
    wit = tmp_path / "box.wit"
    wit.write_text(f"(:{godel_encode('(prog (+ 1))')})\n")
    code, out = run(capsys, "check", "--formula", str(boxed), "--witness", str(wit))
    assert code == 1
    assert "code does not decode" in out.splitlines()[-1]
    assert "Traceback" not in out


def test_apply_and_project(tmp_path, capsys):
    impl = tmp_path / "impl.wit"
    impl.write_text('(:) ("(:2)": 2)\n')
    arg = tmp_path / "arg.wit"
    arg.write_text("(: 2)\n")
    goal = tmp_path / "goal.fml"
    goal.write_text("E x. x=2\n")
    code, out = run(capsys, "apply", "--witness", str(impl), "--to", str(arg),
                    "--formula", str(goal))
    assert code == 0
    assert "(:2)" in out

    code, out = run(
        capsys,
        "project",
        "--witness", fx("witnesses", "doubling.wit"),
        "--formula", fx("formulas", "doubling.fml"),
        "--at", "3",
    )
    assert code == 0
    assert "(:6)" in out


def test_project_rejects_bad_index(capsys):
    code, out = run(
        capsys,
        "project",
        "--witness", fx("witnesses", "doubling.wit"),
        "--formula", fx("formulas", "doubling.fml"),
        "--at", "-1",
    )
    assert code == 2

    # a statement that is not universal has nothing to project
    code, out = run(
        capsys,
        "project",
        "--witness", fx("witnesses", "doubling.wit"),
        "--formula", fx("formulas", "sigma_demo.fml"),
        "--at", "2",
    )
    assert code == 2
    assert "USAGE project wants a universally quantified formula" in out
    assert "Traceback" not in out


def test_game_theorem1_effective(capsys):
    code, out = run(capsys, "game", "theorem1",
                    "--tree", fx("trees", "full_depth2.tree"),
                    "--horizon", "400", "--seed", "7")
    assert code == 0
    assert "OUTCOME accept effective" in out


def test_game_theorem1_plays_the_full_depth5_tree(tmp_path, capsys):
    # the coverage walk recurses per input slot only, so the 3,390-disjunct
    # incomparability table no longer overflows the stack
    tree = tmp_path / "full_depth5.tree"
    tree.write_text("".join(" ".join(bits) + "\n" for bits in itertools.product("01", repeat=5)))
    code, out = run(capsys, "game", "theorem1", "--tree", str(tree))
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == "GAME theorem1 nodes=63 defender=copier adversary=generous"
    assert lines[2].startswith("TRACE ante (:) (0,0,0:0,1,0,")
    assert lines[3].startswith("TRACE mine (:) _ _ _ _ _ _ _ _ (\"(:) (0,0,0:0,1,0,")
    assert lines[4:] == ["VERDICT accepted_up_to pulls=32 numerals=8"] * 2 + [
        "OUTCOME accept effective rounds=31"
    ]


# A tree line names a path by its 0/1 steps.  Any other entry is refused
# before a table is built: a huge one would build a disjunction table
# until memory ran out, and a small one would be played as if binary.
@pytest.mark.parametrize("line", ["0 2", "0999999999999", "1 -1", "2"])
def test_game_theorem1_rejects_a_non_binary_tree(tmp_path, capsys, line):
    tree = tmp_path / "bad.tree"
    tree.write_text(f"0 0\n{line}\n")

    def hang(signum, frame):
        raise TimeoutError("game theorem1 did not end")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        code, out = run(capsys, "game", "theorem1", "--tree", str(tree))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("ERROR presentation entries must be 0 or 1")
    assert "Traceback" not in out


def test_game_prop3_both_regimes(capsys):
    code, out = run(capsys, "game", "prop3", "--length", "3")
    assert code == 0 and "TAUTOLOGY true" in out
    code, out = run(capsys, "game", "prop3", "--length", "3", "--break-at", "1")
    assert code == 0 and "TAUTOLOGY false" in out and "chain-stalled" in out


def test_game_pi11_tree_and_endless(capsys):
    code, out = run(capsys, "game", "pi11",
                    "--tree", fx("trees", "two_leaves.tree"))
    assert code == 0 and "DESCENT" in out and "ANSWERS" in out
    code, out = run(capsys, "game", "pi11", "--endless")
    assert code == 1 and "DESCENT waiting" in out


def test_game_narrow_echo_and_moody(capsys):
    code, out = run(capsys, "game", "narrow", "--machine", "echo",
                    "--script", fx("scripts", "echo_pairs.script"))
    assert code == 0 and "NARROW met_so_far" in out
    code, out = run(capsys, "game", "narrow", "--machine", "moody",
                    "--script", fx("scripts", "moody_trap.script"))
    assert code == 1 and "NARROW violated" in out and "CONFLICT" in out


def test_game_narrow_unspawned_instance_exits_one(tmp_path, capsys):
    script = tmp_path / "unspawned.script"
    for line, op in [("FEED a (0:0)", "FEED"), ("FEEDWS a 2", "FEEDWS"),
                     ("PULL a 1", "PULL"), ("COPY a b", "COPY")]:
        script.write_text(f"SPAWN b\n{line}\n")
        code, out = run(capsys, "game", "narrow", "--machine", "echo", "--script", str(script))
        assert code == 1
        assert out.splitlines()[-1] == f"ERROR {op} names 'a', which was never spawned"


def test_deep_machine_recursion_is_an_error_line(tmp_path, capsys):
    wc = tmp_path / "tri.wc"
    wc.write_text("(prog (def tri (n) (if n (+ n (tri (- n 1))) 0))"
                  " (seq (emit 1) (emit (tri 3000))))\n")
    code, out = run(capsys, "realizability", "--vm-steps", "1000000",
                    "--formula", fx("formulas", "doubling.fml"), "--code", str(wc))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR maximum recursion depth exceeded"
    assert "Traceback" not in out


def test_reports_are_byte_identical(tmp_path, capsys):
    blobs = []
    for i in range(3):
        rpt = tmp_path / f"r{i}.txt"
        code = main(["game", "theorem1", "--tree", fx("trees", "full_depth2.tree"),
                     "--horizon", "400", "--seed", "7", "--report", str(rpt)])
        capsys.readouterr()
        assert code == 0
        blobs.append(rpt.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_report_path_not_inside_report(tmp_path, capsys):
    # rerunning into a different file must not change the bytes
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for rpt in (a, b):
        main(["parse", "--formula", fx("formulas", "doubling.fml"),
              "--report", str(rpt)])
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_witness_text_faults_are_error_lines(tmp_path, capsys):
    # a backslash ending the text inside a quote, and a character that
    # str.isdigit accepts but is no decimal digit
    for text, line in [('(:"\\', "ERROR unterminated quote"),
                       ("(²:)", "ERROR unexpected '²' at 1")]:
        wit = tmp_path / "bad.wit"
        wit.write_text(text, encoding="utf-8")
        code, out = run(capsys, "check", "--formula", fx("formulas", "doubling.fml"),
                        "--witness", str(wit))
        assert code == 1
        assert out.splitlines()[-1] == line
        assert "Traceback" not in out


_UNNAMED = [
    ("(prog (seq (emit 1) (let (a) 1 2)))", "let binds a name, not (a)"),
    ("(prog (seq (emit 1) (set (a) 2)))", "set binds a name, not (a)"),
    ("(prog (def f ((a)) 0) (seq (emit 1) (f 2)))", "bad definition header"),
]


@pytest.mark.parametrize("text,error", _UNNAMED, ids=["let", "set", "def"])
def test_a_list_where_a_machine_name_belongs_exits_one(tmp_path, capsys, text, error):
    wc = tmp_path / "bad.wc"
    wc.write_text(text + "\n")
    code, out = run(capsys, "realizability", "--formula", fx("formulas", "doubling.fml"),
                    "--code", str(wc))
    assert code == 1
    assert out.splitlines()[-1] == f"ERROR {error}"
    assert "Traceback" not in out

    # the same program as the Goedel code of a box witness
    boxed = tmp_path / "box.fml"
    boxed.write_text("box E x. x=1\n")
    wit = tmp_path / "box.wit"
    wit.write_text(f"(:{godel_encode(text)})\n")
    code, out = run(capsys, "check", "--formula", str(boxed), "--witness", str(wit))
    assert code == 1
    assert out.splitlines()[-1].endswith(
        f"reason=code does not decode: code is not a valid program: {error}")
    assert "Traceback" not in out


_FROB = "(prog (seq (emit 1) (frob 2)))"
# the same failure, after a loop of 2,000 steps or more
_FROB_LATE = "(prog (seq (emit 1) (set n 0) (while (< n 1000) (set n (+ n 1))) (frob 2)))"


def _box_check(tmp_path, capsys, text, *argv):
    boxed = tmp_path / "box.fml"
    boxed.write_text("box E x. x=1\n")
    wit = tmp_path / "box.wit"
    wit.write_text(f"(:{godel_encode(text)})\n")
    return run(capsys, "check", "--formula", str(boxed), "--witness", str(wit), *argv)


def test_a_program_failing_inside_a_witness_is_rejected(tmp_path, capsys):
    code, out = _box_check(tmp_path, capsys, _FROB)
    assert code == 1
    assert out.splitlines()[-1] == (
        f"VERDICT rejected pair=(:{godel_encode(_FROB)})"
        " reason=decoded program fails: unknown operation 'frob'")
    assert "Traceback" not in out
    # run as the statement's own realizer, the failure stays an error
    wc = tmp_path / "frob.wc"
    wc.write_text(_FROB + "\n")
    code, out = run(capsys, "realizability", "--formula", str(tmp_path / "box.fml"),
                    "--code", str(wc))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unknown operation 'frob'"


def test_a_failure_the_step_budget_cuts_off_is_not_rejected(tmp_path, capsys):
    code, out = _box_check(tmp_path, capsys, _FROB_LATE, "--vm-steps", "200")
    assert code == 1
    assert out.splitlines()[-1] == "VERDICT pending missing=()"
    code, out = _box_check(tmp_path, capsys, _FROB_LATE, "--vm-steps", "10000")
    assert out.splitlines()[-1].endswith("reason=decoded program fails: unknown operation 'frob'")


# The antecedent's conjunction gives each of its pairs a selector slot.
_SEL_ANTE = "(:) (0,0:) (0,1:)"


@pytest.mark.parametrize("answer,line", [
    ("1", "VERDICT accepted_up_to pulls=3 numerals=0"),
    ("0", f'VERDICT rejected pair=("{_SEL_ANTE}":0) reason=0=1'),
], ids=["right", "wrong"])
def test_a_probe_matches_a_prefix_with_selector_slots(tmp_path, capsys, answer, line):
    files = {
        "f.fml": "(A x. (x=x /\\ x=x)) -> E y. y=1",
        "a.fml": "A x. (x=x /\\ x=x)",
        "a.wit": _SEL_ANTE,
        "w.wit": f'(:) ("{_SEL_ANTE}":{answer})',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text + "\n")
    code, out = run(capsys, "check", "--pulls", "3", "--numerals", "0",
                    "--formula", str(tmp_path / "f.fml"), "--witness", str(tmp_path / "w.wit"),
                    "--ante-formula", str(tmp_path / "a.fml"),
                    "--ante-witness", str(tmp_path / "a.wit"))
    assert out.splitlines()[-1] == line
    assert code == (0 if answer == "1" else 1)


_SUPERSCRIPT = "(prog (emit ²))"  # '²' is a digit to str.isdigit, not to int()


def test_a_non_decimal_digit_in_a_witness_program_gets_a_verdict(tmp_path, capsys):
    code, out = _box_check(tmp_path, capsys, _SUPERSCRIPT)
    assert code == 1
    assert out.splitlines()[-1] == (
        f"VERDICT rejected pair=(:{godel_encode(_SUPERSCRIPT)})"
        " reason=decoded program fails: unbound machine variable '²'")
    wc = tmp_path / "sup.wc"
    wc.write_text(_SUPERSCRIPT + "\n", encoding="utf-8")
    code, out = run(capsys, "realizability", "--formula", str(tmp_path / "box.fml"),
                    "--code", str(wc))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unbound machine variable '²'"


def test_formula_numbers_are_decimal_digits(tmp_path, capsys):
    fml = tmp_path / "f.fml"
    fml.write_text("0=²\n", encoding="utf-8")
    code, out = run(capsys, "parse", "--formula", str(fml))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR unexpected character '²' (at position 2)"
    # a decimal digit of another script still reads as its value
    fml.write_text("E x. x=٣\n", encoding="utf-8")
    code, out = run(capsys, "parse", "--formula", str(fml))
    assert code == 0
    assert out.splitlines()[-1] == "FORMULA E x. x=3"


# A bounded universal's antecedent v<t is decided at synthesis: a false
# one ends the pair at the prefix slot, a true one is the empty prefix.
@pytest.mark.parametrize("text,code,line", [
    ("A x<3. x=x", 0, 'WITNESS (:) (0,"":) (1,"":) (2,"":) (3:) (4:)'),
    ("A x<3. E y. y=x", 0, 'WITNESS (:) (0,"":0) (1,"":1) (2,"":2) (3:) (4:)'),
    ("E y. A x<3. x<y+3", 0, 'WITNESS (0,"":0) (1,"":0) (2,"":0) (3:0) (4:0)'),
    ("A x<3. x=5", 1,
     "SYNTHESIS exhausted no witness found within numerals<=16: A x. (x<3 -> x=5)"),
])
def test_synthesis_answers_a_bounded_universal(tmp_path, capsys, text, code, line):
    fml, wit = tmp_path / "f.fml", tmp_path / "w.wit"
    fml.write_text(text + "\n")
    budget = ("--pulls", "16", "--numerals", "4")
    got, out = run(capsys, "synthesize", "--formula", str(fml), "--out", str(wit), *budget)
    assert got == code
    assert out.splitlines()[1] == line
    if code == 0:
        assert out.splitlines()[-1] == "VERDICT accepted_up_to pulls=16 numerals=4"
        got, out = run(capsys, "check", "--formula", str(fml), "--witness", str(wit), *budget)
        assert (got, out.splitlines()[-1]) == (0, "VERDICT accepted_up_to pulls=16 numerals=4")


# squaring doubles the number's length each step: a step budget of 10,000
# alone would let it grow past any memory
_SQUARING = "(prog (def g (a n) (g (* a a) n)) (seq (emit 1) (g 3 0)))"


def test_a_program_outgrowing_the_bit_ceiling_fails_fast(tmp_path, capsys):
    code, out = _box_check(tmp_path, capsys, _SQUARING)
    assert code == 1
    assert out.splitlines()[-1] == (
        f"VERDICT rejected pair=(:{godel_encode(_SQUARING)})"
        " reason=decoded program fails: number past 1048576 bits")
    wc = tmp_path / "squaring.wc"
    wc.write_text(_SQUARING + "\n")
    code, out = run(capsys, "realizability", "--formula", str(tmp_path / "box.fml"),
                    "--code", str(wc))
    assert code == 1
    assert out.splitlines()[-1] == "ERROR number past 1048576 bits"


def test_a_long_run_of_steps_over_a_variable_prints(tmp_path, capsys):
    text = "A y. y" + "+1" * 3000 + "=0"
    fml = tmp_path / "f.fml"
    fml.write_text(text + "\n")
    code, out = run(capsys, "parse", "--formula", str(fml))
    assert code == 0
    assert out.splitlines()[-1] == "FORMULA " + text


_FST = "((E x. x=1) /\\ 0=0) -> E x. x=1\n(lam {(E x. x=1) /\\ 0=0} (fst (hyp 0)))\n"


def test_parse_reads_a_witness_a_proof_and_a_program(tmp_path, capsys):
    wit, prf, wc = tmp_path / "a.wit", tmp_path / "a.prf", tmp_path / "a.wc"
    wit.write_text('(:) (3:"(:1)",1) _\n')
    prf.write_text(_FST)
    wc.write_text("(prog (emit 1))\n")
    code, out = run(capsys, "parse", "--witness", str(wit), "--proof", str(prf), "--code", str(wc))
    assert code == 0
    assert out.splitlines()[1:] == [
        'WITNESS (:) (3:"(:1)",1) _',
        "THEOREM E x. x=1 /\\ 0=0 -> E x. x=1",
        "CODE (prog (emit 1))",
    ]


def test_parse_prints_a_program_5000_forms_deep(tmp_path, capsys):
    wc = tmp_path / "deep.wc"
    text = "(prog " + "(seq " * 5000 + "(emit 1)" + ")" * 5000 + ")"
    wc.write_text(text + "\n")
    code, out = run(capsys, "parse", "--code", str(wc))
    assert (code, out.splitlines()[1:]) == (0, ["CODE " + text])


def test_parse_reads_a_proof_of_401_conjuncts(tmp_path, capsys):
    # a pair nested 400 deep on the left: comparing its statement with
    # the claimed one is one loop
    unit = "(exi {E x. x=1} {1} (inst (ax refl) {1}))"
    proof = unit
    for _ in range(400):
        proof = f"(pair {proof} {unit})"
    claimed = " /\\ ".join(["E x. x=1"] * 401)
    prf = tmp_path / "deep.prf"
    prf.write_text(claimed + "\n" + proof + "\n")
    code, out = run(capsys, "parse", "--proof", str(prf))
    assert (code, out.splitlines()[1:]) == (0, ["THEOREM " + claimed])


def test_extract_without_code_exits_one(tmp_path, capsys):
    prf = tmp_path / "fst.prf"
    prf.write_text(_FST)
    code, out = run(capsys, "extract", "--proof", str(prf))
    assert code == 1
    assert out.splitlines()[-1] == "CODE none"


def test_extract_of_an_induction_compared_up_to_conversion(tmp_path, capsys):
    prf = tmp_path / "ind.prf"
    prf.write_text(induction_text(2) + "\n")
    code, out = run(capsys, "extract", "--proof", str(prf))
    assert code == 0
    assert out.splitlines()[1] == "THEOREM 0<3"
    assert out.splitlines()[2].startswith("CODE (prog ")
