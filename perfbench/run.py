"""ctruth benchmark: one command, four workloads, every outcome checked.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the reference oracles from ``tests/oracles.py``.  The
workload is generated from --seed in a single process and thread.

--trace 0 times the workload untraced and reports the end-to-end
metrics of BENCHMARK.json.  --trace 1 is a separate run: it times
untraced passes, then traced passes, then a probe phase, and reports
the per-layer metrics, the tracing overhead included.  Human-readable
lines come first; the last line of standard output is the JSON result.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "ctruth").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
    sys.exit(f"{ROOT} holds no ctruth source tree (src/ctruth, tests/oracles.py)")
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from ctruth.formula import eval3  # noqa: E402
from ctruth.witness import semantic_content, shape_check  # noqa: E402

from clock import Clock  # noqa: E402
from tracer import NULL, Tracer  # noqa: E402

WORKLOADS = ("tables", "long_streams", "dichotomy", "extract_run")
# set-up runs at least SETUP_MIN times and until SETUP_S seconds are spent
SETUP_MIN, SETUP_MAX, SETUP_S = 5, 50, 1.0


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class PassLog:
    """Outcome and time of every job of every pass in one phase.

    Times are scaled by the clock (see clock.py), and a job's time is
    the median of its scaled times over the passes."""

    def __init__(self, clock):
        self.clock = clock
        self.walls, self.cpus = [], []  # per job, one entry per pass
        self.passes = self.attempted = self.ok = self.ok_timed = self.failed = 0
        self.defects = {}  # job name -> outcome text, known defects only
        self.mismatches = {}  # job name -> outcome text, everything else

    def run_pass(self, jobs, T):
        if not self.walls:
            self.walls = [[] for _ in jobs]
            self.cpus = [[] for _ in jobs]
            self.timed = [not job.defect for job in jobs]
        for i, job in enumerate(jobs):
            T.job = job

            def attempt():
                try:
                    return job.run(T), None
                except Exception as e:  # a crash is an outcome, never an abort
                    return None, type(e).__name__

            (outcome, error), wall, cpu = self.clock.time(attempt)
            self.walls[i].append(wall)
            self.cpus[i].append(cpu)
            self.attempted += 1
            if error is None and job.check(outcome):
                self.ok += 1
                self.ok_timed += not job.defect
                continue
            seen = error or f"unexpected outcome {outcome!r}"[:200]
            if job.defect:
                self.defects[f"{job.kind}/{job.name}"] = f"{seen} ({job.defect})"
            else:
                self.failed += 1
                self.mismatches[f"{job.kind}/{job.name}"] = seen
        self.passes += 1

    def job_times(self):
        """Per job: median scaled wall seconds, median scaled CPU seconds.

        Known-defect jobs are left out: they time a crash, not a verdict,
        and fixing the defect should move ok_ratio alone."""
        med = statistics.median
        keep = [i for i, timed in enumerate(self.timed) if timed]
        return [med(self.walls[i]) for i in keep], [med(self.cpus[i]) for i in keep]

    def merge(self, other):
        self.attempted += other.attempted
        self.ok += other.ok
        self.failed += other.failed
        self.defects.update(other.defects)
        self.mismatches.update(other.mismatches)


def timed_passes(jobs, T, seconds, clock):
    """Whole passes over the job list until `seconds` have gone by."""
    log = PassLog(clock)
    deadline = time.perf_counter() + seconds
    while True:
        log.run_pass(jobs, T)
        if time.perf_counter() >= deadline:
            return log


def tail(times, p):
    """Percentile p of the job times."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=1000, method="inclusive")[round(p * 10) - 1]


def end_to_end(log, setup_times, p):
    walls, cpus = log.job_times()
    wall = sum(walls)
    tail_s = tail(walls, p)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": sum(cpus),
        "jobs_per_s": log.ok_timed / log.passes / wall,
        "job_p50_ms": statistics.median(walls) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "ok_ratio": log.ok / log.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"passes={log.passes} jobs/pass={log.attempted // log.passes}, {len(walls)} of them"
        " timed; a job's time is its median over the passes",
        f"job_tail_ms is p{p:g} of {len(walls)} job times; {len(walls) * log.passes}"
        f" observations, {len(walls) * log.passes * (100 - p) / 100:.1f} of them beyond it",
        f"fail_ratio={1 - metrics['ok_ratio']:.6f} ({log.attempted - log.ok} of {log.attempted})",
    ]
    return metrics, notes


def probe_phase(jobs, T):
    """shape_check, semantic_content and eval3 on every pair of every
    stream, at the job's budget; kept out of the overhead figure."""
    T.phase, T.job = "probe", None
    for job in jobs:
        if job.pairs is None:
            continue
        f, pairs, budget = job.pairs
        for p in pairs:
            T.count("witness.pairs")
            try:
                shaped = T.call("witness.shape_check", shape_check, f, p)
                content = T.call("witness.semantic_content", semantic_content, f, shaped)
                T.call(
                    "formula.eval3", eval3, content, {},
                    budget.numeral_bound, budget.search_bound,
                )
            except Exception:  # known defects reach this phase too
                T.count("probe.errors")


def _slope(sizes):
    """Least-squares slope of log(median seconds) against log(pairs), over
    the n-sweep streams where the workload has them, else every check."""
    if any(kind == "sweep" for _, _, kind in sizes):
        sizes = [row for row in sizes if row[2] == "sweep"]
    by_n = {}
    for n, s, _kind in sizes:
        if n > 0 and s > 0:
            by_n.setdefault(n, []).append(s)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def per_layer(T, npass, untraced, traced):
    """One set-up plus one pass: setup spans, pass spans over the number
    of traced passes, probe spans."""
    st = T.self_times()

    def span(name, field=0):
        return sum(st[(name, ph)][field] / (npass if ph == "pass" else 1)
                   for ph in ("setup", "pass", "probe"))

    def cnt(name):
        c = T.counts
        return c["setup"][name] + c["pass"][name] / npass + c["probe"][name]

    def ratio(a, b):
        return a / b if b else 0.0

    def check_ms(n):
        got = [s for k, s, kind in T.check_sizes if k == n and kind == "sweep"]
        return statistics.median(got) * 1e3 if got else 0.0

    games_s = span("games.play") + span("games.row") + span("games.prop3")
    return {
        "formula.parse_s": span("formula.parse"),
        "formula.parse_calls": span("formula.parse", 1),
        "formula.eval3_s": span("formula.eval3"),
        "formula.eval3_calls": span("formula.eval3", 1),
        "witness.shape_check_s": span("witness.shape_check"),
        "witness.content_s": span("witness.semantic_content"),
        "witness.pairs": cnt("witness.pairs"),
        "witness.from_text_s": span("witness.from_text"),
        "checker.check_s": span("checker.check"),
        "checker.checks": span("checker.check", 1),
        "checker.pairs_per_s": ratio(cnt("checker.pairs"), cnt("checker.pairs_s")),
        "checker.n_slope": _slope(T.check_sizes),
        "checker.check_ms_n100": check_ms(100),
        "checker.check_ms_n200": check_ms(200),
        "checker.check_ms_n400": check_ms(400),
        "checker.accepted": cnt("checker.accepted"),
        "checker.rejected": cnt("checker.rejected"),
        "checker.pending": cnt("checker.pending"),
        "checker.synth_s": span("checker.synth"),
        "checker.synth_ok_ratio": ratio(cnt("checker.synth_ok"), span("checker.synth", 1)),
        "vm.run_s": span("vm.run"),
        "vm.steps": cnt("vm.steps"),
        "vm.items": cnt("vm.items"),
        "vm.steps_per_s": ratio(cnt("vm.steps"), span("vm.run")),
        "vm.cut_runs": cnt("vm.cut_runs"),
        "combinators.apply_s": span("combinators.apply"),
        "combinators.normalize_s": span("combinators.normalize"),
        "combinators.items": cnt("combinators.items"),
        "realizers.extract_s": span("realizers.extract"),
        "realizers.markov_s": span("realizers.markov"),
        "realizers.ti_s": span("realizers.ti"),
        "realizers.proofs": cnt("realizers.proofs"),
        "games.formula_s": span("games.formula"),
        "games.play_s": games_s,
        "games.plays": cnt("games.plays"),
        "games.rounds": cnt("games.rounds"),
        "games.effective_ratio": ratio(cnt("games.effective"), cnt("games.plays")),
        "cli.main_s": span("cli.main"),
        "cli.runs": span("cli.main", 1),
        "cli.report_bytes": cnt("cli.report_bytes"),
        "trace.overhead_s": traced - untraced,
        "trace.spans": sum(1 for s in T.spans if s[5] == "pass") / npass,
    }


def mix(mod, jobs):
    """The pass composition, so a second seed can be seen to keep it."""
    kinds = {}
    for job in jobs:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    line = "jobs/pass by kind: " + " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
    if hasattr(mod, "describe"):
        line += "; " + mod.describe(jobs)
    return line


def run(workload, seed, seconds, trace, small=False, plant=None):
    """Run one workload; returns (result dict, human-readable notes).

    plant(jobs) may alter the job list after set-up; the smoke test uses
    it to plant a wrong expectation.  Files the jobs write (CLI inputs
    and reports) go to a scratch directory in the checkout, removed at
    the end."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        return _run(workload, seed, seconds, trace, small, plant, Path(work))


def _run(workload, seed, seconds, trace, small, plant, workdir):
    spec = load_spec()
    mod = importlib.import_module(workload)
    clock = Clock()
    notes = []
    if not trace:
        setup_times, jobs = [], None
        spent = time.perf_counter()
        while len(setup_times) < SETUP_MIN or (
            time.perf_counter() - spent < SETUP_S and len(setup_times) < SETUP_MAX
        ):
            jobs = None  # free the last set-up's inputs first
            jobs, wall, _cpu = clock.time(lambda: mod.setup(seed, NULL, small, workdir))
            setup_times.append(wall)
        if plant:
            plant(jobs)
        notes.append(mix(mod, jobs))
        log = timed_passes(jobs, NULL, seconds, clock)
        values, more = end_to_end(log, setup_times, mod.TAIL_PERCENTILE)
        notes += more
        wanted = spec["end_to_end"]
    else:
        T = Tracer()
        jobs = mod.setup(seed, T, small, workdir)
        if plant:
            plant(jobs)
        notes.append(mix(mod, jobs))
        log = timed_passes(jobs, NULL, seconds / 2, clock)
        T.phase = "pass"
        undo = mod.interpose(T) if hasattr(mod, "interpose") else []
        try:
            tlog = timed_passes(jobs, T, seconds / 2, clock)
        finally:
            for u in undo:
                u()
        untraced, traced = sum(log.job_times()[0]), sum(tlog.job_times()[0])
        probe_phase(jobs, T)
        values = per_layer(T, tlog.passes, untraced, traced)
        notes.append(
            f"untraced wall_s={untraced:.4f} traced wall_s={traced:.4f}"
            f" overhead={traced - untraced:+.4f}s; {log.passes} untraced and"
            f" {tlog.passes} traced passes"
        )
        if T.counts["probe"]["probe.errors"]:
            notes.append(f"probe phase: {T.counts['probe']['probe.errors']:g} calls raised")
        log.merge(tlog)
        wanted = spec["per_layer"]
    for name, seen in sorted(log.defects.items()):
        notes.append(f"known defect {name}: {seen}")
    for name, seen in sorted(log.mismatches.items()):
        notes.append(f"FAILED {name}: {seen}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} is not computed")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
