"""What every workload shares: the job record and the fixture paths.

A job is one unit a user waits for: a verdict, a play set, a realizer,
a pipeline or a probe.  ``run`` makes the package calls and returns
the raw outcome; ``check`` compares it with the answer fixed in set-up
and runs outside the timed region, so oracle time never counts as
package time.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Job:
    kind: str
    name: str
    run: Callable  # run(tracer) -> outcome
    check: Callable  # check(outcome) -> bool
    # Set on a job that exercises a known defect: it counts in ok_ratio
    # and is named in the report, but not in the result's "failed".
    defect: str = None
    # (formula, pairs, budget) for the witness/formula probe phase.
    pairs: tuple = None


def expect(value):
    return lambda outcome: outcome == value


def witness_text(items) -> str:
    """Witness text for pairs of numeral and selector tokens."""
    return " ".join(
        "({}:{})".format(
            ",".join(str(t) for t in it.inputs), ",".join(str(t) for t in it.outputs)
        )
        for it in items
    )


def read_fixture(*parts) -> str:
    return FIXTURES.joinpath(*parts).read_text()


def budget_lines(*parts):
    """Rows of a whitespace-separated budget file, comments dropped."""
    for line in read_fixture(*parts).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line.split()
