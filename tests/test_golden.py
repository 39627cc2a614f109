"""The verdict corpus of tests/golden.py against its pinned lines."""

import golden


def test_verdicts_match_the_pinned_corpus():
    want = golden.PINNED.read_text().splitlines()
    got = list(golden.lines())
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {n} of {golden.PINNED.name} differs:\n got: {g}\nwant: {w}"
    assert len(got) == len(want)
