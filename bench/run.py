"""degmap benchmark: time to verdict for one closed-loop CLI client.

Usage, from the repository root:

    python3 bench/run.py --workload indefinite-degset --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40      # every workload
    python3 -m pytest bench                                           # self-tests

The client drives ``degmap.cli.main`` in this process: one thread, one
query at a time, no ``--workers``.  Each pass writes a fresh query list
generated from (workload, seed, pass index) to ``bench/out`` and runs it;
passes repeat until ``--seconds`` have elapsed.  Every answer is checked
by ``check.py`` against matrices and witnesses the benchmark built itself.

End-to-end metrics (``--trace 0``).  Times are CPU times rescaled to a
fixed reference speed by the calibration kernel of ``speed.py``, which is
sampled before, during and after every query: on a shared host the raw
times of whole runs move by 1.5-2x with the host's load, the rescaled ones
far less.  The client is single-threaded and compute-bound, so on an idle
machine CPU time is the wall time a user waits.  Raw wall times
(``wall_s``, ``verdict_p50_ms``, ``verdict_tail_ms``) are printed beside
them for reference but are not reported metrics.

* ``setup_s``: median over fresh interpreters of the rescaled time to
  import ``degmap.cli`` and call ``build_parser()``.  Input generation is
  not counted.
* ``pass_norm_s``: median rescaled time of one pass over the workload's
  query list.
* ``verdict_norm_p50_ms`` and ``verdict_norm_tail_ms``: median and tail
  rescaled time per CLI query.  The tail percentile is fixed per workload
  (``TAIL_PERCENTILE``) so that runs of different speed stay comparable; it
  has at least ten samples beyond it at the run length in BENCHMARK.json,
  and each run prints how many samples lie beyond it.
* ``decided_share``: Yes, NecessaryConditionsPass and No verdicts over all
  verdicts attempted; each degree of a degree set counts once, and each
  candidate of a dominance report counts once.
* ``peak_rss_mb``: this process's own ``ru_maxrss``.

``wrong_verdicts`` and ``error_share`` are printed as well.  They are 0 on
a correct program, so they are not regression-bounded metrics: any wrong
verdict or failed query makes the run report ``correct: false`` and exit 1.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over traced passes), each
layer's share of traced self time, and the tracing overhead as traced
minus untraced ``pass_norm_s``.  Traced queries are not interrupted by
kernel samples, so span times are raw wall times.  Spans are written to
``bench/out`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

# A percentile with >= 10 samples beyond it at the BENCHMARK.json run length,
# fixed so that a faster or slower program is measured at the same point.  It
# sits inside one query type's share of the samples, not on the border of two
# types whose times differ, where the value would jump between them from run
# to run: in definite-solve, E8->E8 is the slowest 1/14 of the queries.
TAIL_PERCENTILE = {
    "indefinite-degset": 90,  # ~165 samples in 40 s
    "definite-solve": 94,  # ~180 samples
    "manifold-mix": 99,  # ~1300 samples
}
SETUP_RUNS = 11
HARD_STOP_S = 150.0
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[2])
import speed

def load():
    sys.path.insert(0, sys.argv[1])
    import degmap.cli
    degmap.cli.build_parser()
    return degmap.cli

with speed.Speedometer() as meter:
    cli, cpu, wall = meter.time(load)
assert cli.__file__.startswith(sys.argv[1])
print(repr(wall), repr(cpu))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def measure_setup() -> tuple:
    """Wall times and rescaled CPU times of SETUP_RUNS fresh imports, after
    one that writes bytecode caches."""
    walls, cpus = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing degmap.cli failed:\n{proc.stderr}")
        if i:
            wall, cpu = proc.stdout.split()
            walls.append(float(wall))
            cpus.append(float(cpu))
    return walls, cpus


def load_cli():
    if not (SRC / "degmap" / "__init__.py").is_file():
        raise BenchError(f"no degmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import degmap.cli

    if not Path(degmap.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported degmap from {degmap.cli.__file__}, not {SRC}")
    return degmap.cli


def run_query(main, argv, meter, recorder=None):
    """One CLI call with stdout and stderr captured, timed by ``meter`` (a
    ``speed.Speedometer``); a traced call is not interrupted by samples.

    Returns (code, stdout, stderr, wall seconds, rescaled CPU seconds).
    """
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            if recorder is None:
                return main(argv)
            return recorder.call(tracer.CLI_SPAN, main, argv)
        except Exception as exc:  # a traceback is a failed query, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
            return None

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, dc, dt = meter.time(call, inside=recorder is None)
    return code, out.getvalue(), err.getvalue(), dt, dc


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = 0
        self.decided = 0
        self.wrong = []
        self.errors = []
        self.witnessless_yes = 0
        self.undecided = {}

    def add(self, q, code, stdout, stderr):
        self.attempted += 1
        if code is None:
            outcome = check.Outcome(error=f"raised {stderr.strip()[-200:]}")
        else:
            outcome = check.check(q, code, stdout)
        self.verdicts += outcome.verdicts
        self.decided += outcome.decided
        if outcome.verdicts > outcome.decided:
            self.undecided[q.label] = (self.undecided.get(q.label, 0)
                                       + outcome.verdicts - outcome.decided)
        self.wrong.extend(outcome.wrong)
        self.witnessless_yes += outcome.witnessless_yes
        if outcome.error:
            self.failed += 1
            self.errors.append(f"{q.label}: {outcome.error}")


def percentile(values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload, seed, seconds, trace):
    cli = load_cli()
    setup = ([], []) if trace else measure_setup()
    recorder = None
    snapshots = []
    if trace:
        recorder = tracer.Recorder()
    tally = Tally()
    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    latencies = []
    cpu_latencies = []
    by_label = {}
    work = OUT / f"inputs-{os.getpid()}"
    start = perf_counter()
    index = 0
    try:
        with speed.Speedometer() as meter:
            while True:
                elapsed = perf_counter() - start
                # stop when the next pass would end past the deadline by more
                # than half a pass, so that runs last --seconds on average
                typical = statistics.median(walls[False] + walls[True]) if index else 0.0
                done = elapsed + typical / 2 >= seconds and index >= (2 if trace else 1)
                if done or elapsed >= HARD_STOP_S:
                    break
                traced = trace and index % 2 == 1
                shutil.rmtree(work, ignore_errors=True)
                queries = gen.build_pass(workload, seed, index, work)
                results = []
                if traced:
                    recorder.install()
                for qi, q in enumerate(queries):
                    if traced:
                        recorder.query = index * 1000 + qi
                    results.append(run_query(cli.main, q.argv, meter,
                                             recorder if traced else None))
                wall = sum(r[3] for r in results)
                cpu = sum(r[4] for r in results)
                if traced:
                    recorder.uninstall()
                    snapshots.append(recorder.take_pass())
                walls[traced].append(wall)
                cpus[traced].append(cpu)
                for q, (code, stdout, stderr, dt, dc) in zip(queries, results):
                    tally.add(q, code, stdout, stderr)
                    if not traced:
                        latencies.append(dt)
                        cpu_latencies.append(dc)
                        by_label.setdefault(q.label, []).append(dc)
                index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if recorder is not None:
            recorder.uninstall()
    return {
        "setup": setup, "walls": walls, "cpus": cpus, "latencies": latencies,
        "cpu_latencies": cpu_latencies, "kernel": meter.samples, "by_label": by_label,
        "tally": tally, "snapshots": snapshots, "recorder": recorder, "passes": index,
    }


def report(workload, seed, seconds, trace, r):
    """Print the human-readable report; return the result document."""
    tally = r["tally"]
    lat, cpu_lat = r["latencies"], r["cpu_latencies"]
    walls, cpus = r["walls"][False], r["cpus"][False]
    budget = gen.BUDGETS[workload]
    print(f"workload {workload}  seed {seed}  budget {budget}  {r['passes']} passes "
          f"in {seconds} s  ({len(lat)} untraced queries)")
    pct = TAIL_PERCENTILE[workload]
    rows = {}
    for prefix, per_pass, per_query in (("norm_", cpus, cpu_lat), ("", walls, lat)):
        q1, q3 = quartiles(per_pass)
        name = "pass_norm_s" if prefix else "wall_s"
        rows[name] = (statistics.median(per_pass), "s",
                      f"median of {len(per_pass)} passes, quartiles {q1:.4f} {q3:.4f}")
        rows[f"verdict_{prefix}p50_ms"] = (statistics.median(per_query) * 1000, "ms",
                                           f"median of {len(per_query)} queries")
        tail, beyond = percentile(per_query, pct)
        note = "" if beyond >= 10 else "  WARNING: fewer than 10 samples beyond"
        rows[f"verdict_{prefix}tail_ms"] = (tail * 1000, "ms", f"p{pct} of {len(per_query)} "
                                            f"queries, {beyond} beyond{note}")
    share = tally.decided / tally.verdicts if tally.verdicts else 0.0
    rows["decided_share"] = (share, "ratio", f"{tally.decided} of {tally.verdicts} verdicts")
    rows["wrong_verdicts"] = (len(tally.wrong), "count", "answers contradicting a known one")
    rows["error_share"] = (tally.failed / tally.attempted, "ratio",
                           f"{tally.failed} of {tally.attempted} queries")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows["peak_rss_mb"] = (rss, "MB", "ru_maxrss of this process")
    setup_walls, setup_cpus = r["setup"]
    if setup_cpus:
        for name, values, what in (("setup_s", setup_cpus, "rescaled CPU"),
                                   ("setup_wall_s", setup_walls, "wall")):
            q1, q3 = quartiles(values)
            rows[name] = (statistics.median(values), "s",
                          f"{what}, median of {len(values)} fresh interpreters, "
                          f"quartiles {q1:.4f} {q3:.4f}")
    for name, (value, unit, detail) in rows.items():
        print(f"  {name:<20} {value:>12.4f} {unit:<6} {detail}")
    k_q1, k_q3 = quartiles(r["kernel"])
    print(f"  calibration kernel: median {statistics.median(r['kernel']) * 1000:.3f} ms, "
          f"quartiles {k_q1 * 1000:.3f} {k_q3 * 1000:.3f}, reference "
          f"{speed.REF_KERNEL_S * 1000:.3f} ms, {len(r['kernel'])} samples")
    print("  pass rescaled CPU (s): " + " ".join(f"{c:.3f}" for c in cpus))
    print("  pass walls (s):        " + " ".join(f"{w:.3f}" for w in walls))
    if tally.witnessless_yes:
        print(f"  form-iso Yes without a witness: {tally.witnessless_yes}")
    print("  per query type: median and max rescaled CPU ms, count, undecided verdicts")
    for label, times in sorted(r["by_label"].items()):
        print(f"    {statistics.median(times) * 1000:10.2f} {max(times) * 1000:10.2f}"
              f"  x{len(times):<4} {tally.undecided.get(label, 0):>4}  {label}")
    for line in tally.wrong[:20]:
        print(f"  WRONG {line}")
    for line in tally.errors[:20]:
        print(f"  ERROR {line}")

    OUT.mkdir(parents=True, exist_ok=True)
    samples = OUT / f"samples-{workload}-seed{seed}-trace{int(trace)}.json"
    samples.write_text(json.dumps({
        "pass_walls_s": walls, "pass_norm_s": cpus,
        "setup_wall_s": setup_walls, "setup_norm_s": setup_cpus,
        "query_norm_s": {label: times for label, times in sorted(r["by_label"].items())},
    }))
    if trace:
        metrics = trace_report(workload, seed, r, rows["pass_norm_s"][0])
    else:
        keep = ("setup_s", "pass_norm_s", "verdict_norm_p50_ms", "verdict_norm_tail_ms",
                "decided_share", "peak_rss_mb")
        metrics = {k: {"value": rows[k][0], "unit": rows[k][1]} for k in keep}
    return {
        "correct": not tally.wrong and not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def trace_report(workload, seed, r, untraced_cpu):
    recorder = r["recorder"]
    snapshots = r["snapshots"]
    traced_cpu = statistics.median(r["cpus"][True])
    layers = tracer.summarize(snapshots, recorder.present)
    overhead = traced_cpu - untraced_cpu
    print(f"  traced pass_norm_s {traced_cpu:.4f} s over {len(snapshots)} passes; "
          f"overhead {overhead:+.4f} s per pass")
    totals = {}
    for times, _ in snapshots:
        for span, t in times.items():
            totals[span] = totals.get(span, 0.0) + t
    whole = sum(totals.values()) or 1.0
    print("  share of traced self time:")
    for span, t in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"    {100 * t / whole:6.1f}%  {span}")
    metrics = {}
    for name, (value, unit) in layers.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>12} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    recorder.write(path)
    print(f"  {len(recorder.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        # one fresh process per workload run
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for w in gen.WORKLOADS
        ]
        return max(codes)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report(args.workload, args.seed, args.seconds, args.trace, result)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
