from pathlib import Path

import pytest

from ctruth.cli import main
from ctruth.vm import godel_encode

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def fx(*parts):
    return str(FIXTURES.joinpath(*parts))


def test_parse_reports_formula(capsys):
    code, out = run(capsys, "parse", "--formula", fx("formulas", "doubling.fml"))
    assert code == 0
    assert "FORMULA A x. E y. y=2*x" in out


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
    # with ==, which walks the 3000-step literal in a loop
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
