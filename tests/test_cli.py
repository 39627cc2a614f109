from pathlib import Path

import pytest

from ctruth.cli import main

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
