#!/usr/bin/env python3
"""hessbif benchmark: time to a checked verdict on three workloads.

    python3 bench/run.py --workload scalar-verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same tree, in-process, single-threaded (``HB_THREADS`` is removed from the
environment).  A run sets up once and repeats whole rounds of the workload's
operations while the next round should end within ``--seconds`` (at least
one round).  It checks the first round's outputs against references computed
apart from the program and later rounds' outputs for byte equality, then times
set-up again in ten fresh interpreters.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time read from the
speed clock of ``speedclock.py`` rather than the wall.  ``--trace 1`` alternates
untraced and traced rounds (at least one of each) and reports the per-layer
metrics of the traced rounds, plus the tracing overhead; it writes the first
traced round's spans to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import speedclock  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 10
TAIL_MIN_BEYOND = 10
TAIL_MIN_SAMPLES = 40


def setup(workload, seed, workdir, clock):
    """Import hessbif and write the workload's inputs; returns (seconds on clock, ops)."""
    t0 = clock()
    import hessbif.cli  # imports every layer

    ops = wl.build(workload, seed, os.path.join(workdir, "inputs"))
    elapsed = clock() - t0
    if not os.path.abspath(hessbif.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hessbif was imported from {hessbif.__file__}, not from {SRC}")
    return elapsed, ops


def setup_probes(workload, seed, workdir):
    times = []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed),
             "--workdir", os.path.join(workdir, f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0      # wall seconds, which pace the run
        self.elapsed = 0.0   # seconds on the run's clock, which are reported
        self.times = []
        self.oks = []
        self.notes = []
        self.digests = {}
        self.layers = None
        self.spans = None


def run_round(ops, outdir, tracer, clock):
    rnd = Round(tracer is not None)
    os.makedirs(outdir)
    start, wall_start = clock(), time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            ok, note = op.run(outdir)
        except Exception:  # one broken operation must not end the run
            ok, note = False, traceback.format_exc(limit=3)
        rnd.times.append(clock() - t0)
        rnd.oks.append(ok)
        rnd.notes.append(note)
    rnd.elapsed = clock() - start
    rnd.wall = time.perf_counter() - wall_start
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            rnd.digests[name] = (hashlib.sha256(fh.read()).hexdigest(),
                                 os.path.getsize(os.path.join(outdir, name)))
    return rnd


def tail_percentile(n_per_round):
    """Highest whole percentile with at least ten of one round's samples beyond it.

    Below forty samples a round has no tail worth the name, and the median
    (percentile 50) stands in for it.
    """
    if n_per_round < TAIL_MIN_SAMPLES:
        return 50
    return math.floor(100.0 * (1.0 - TAIL_MIN_BEYOND / n_per_round))


def percentile(values, q):
    """Nearest-rank percentile; q = 50 is the ordinary median."""
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(ops, rounds, setup_times, peak_rss_mb):
    def samples(kinds, rnd):
        return [t for op, t in zip(ops, rnd.times) if op.kind in kinds]

    eig_per_round = len(samples(wl.EIGEN_KINDS, rounds[0]))
    q = tail_percentile(eig_per_round)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(r.elapsed for r in rounds), "s"),
        "verdict_s": (statistics.median(
            t for r in rounds for t in samples(wl.VERDICT_KINDS, r)), "s"),
        "eigen_s": (statistics.median(
            t for r in rounds for t in samples(wl.EIGEN_KINDS, r)), "s"),
        "eigen_tail_s": (statistics.median(
            percentile(samples(wl.EIGEN_KINDS, r), q) for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, f" (eigen_tail_s is the p{q} of {eig_per_round} eigen commands per round)"


UNITS = {"rk.accept_ratio": "ratio", "rk.us_per_step": "us",
         "shooting.ivps_per_lambda_solve": "ivps/solve", "shooting.ivps_per_eigen": "ivps/solve",
         "branch.ivps_per_point": "ivps/point", "system.ivps_per_point": "ivps/point",
         "cli.artifact_bytes": "bytes", "trace.overhead_pct": "%"}


def unit_of(name):
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def check_outputs(ops, rounds, outdir0):
    """Problems found in the outputs; only operations that did not fail are checked."""
    problems = []
    first = rounds[0]
    for op, ok in zip(ops, first.oks):
        if not ok:
            continue
        try:
            problems += [f"{op.name}: {p}" for p in op.check(outdir0)]
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
            problems.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd.oks != first.oks:
            problems.append(f"round {i} failed other operations than round 1")
        if rnd.digests != first.digests:
            problems.append(f"round {i} wrote different artifacts than round 1")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("HB_THREADS", None)

    workdir = args.workdir or os.path.join(
        HERE, ".work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        if args.setup_probe:
            with speedclock.SpeedClock() as clock:
                print(repr(setup(args.workload, args.seed, workdir, clock.now)[0]))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            os.rmdir(os.path.dirname(workdir))


@contextlib.contextmanager
def console_to(path):
    """Point file descriptor 1 at ``path``.

    ``hessbif.cli`` binds ``sys.stdout`` as a default argument at import, so
    ``redirect_stdout`` does not catch its reports; this does.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    with open(path, "ab") as fh:
        os.dup2(fh.fileno(), 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def run_rounds(args, ops, workdir, tracer, clock):
    rounds = []
    start = time.perf_counter()
    # start a round only if it should end within --seconds, judged by the last one
    while (not rounds or time.perf_counter() - start + rounds[-1].wall <= args.seconds
           or (tracer is not None and len(rounds) < 2)):
        traced = tracer is not None and len(rounds) % 2 == 1
        outdir = os.path.join(workdir, f"round{len(rounds) + 1}")
        if traced:
            tracer.install()
        try:
            rnd = run_round(ops, outdir, tracer if traced else None, clock)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            spans = tracer.take()
            rnd.layers = tr.layer_metrics(spans)
            rnd.layers["cli.artifact_bytes"] = sum(size for _, size in rnd.digests.values())
            if not any(r.traced for r in rounds):
                rnd.spans = spans
        if rounds:
            shutil.rmtree(outdir)
        rounds.append(rnd)
    return rounds


def measure(args, workdir):
    if args.trace:
        # spans are wall time: bursts of the speed clock would land inside them
        tracer, clock = tr.Tracer(), time.perf_counter
        setup_first, ops = setup(args.workload, args.seed, workdir, clock)
        with console_to(os.path.join(workdir, "console.log")):
            rounds = run_rounds(args, ops, workdir, tracer, clock)
    else:
        tracer = None
        with speedclock.SpeedClock() as speed:
            setup_first, ops = setup(args.workload, args.seed, workdir, speed.now)
            with console_to(os.path.join(workdir, "console.log")):
                rounds = run_rounds(args, ops, workdir, tracer, speed.now)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_outputs(ops, rounds, os.path.join(workdir, "round1"))

    attempted = len(ops) * len(rounds)
    failed = sum(not ok for r in rounds for ok in r.oks)
    if tracer is not None:
        first = next(r for r in rounds if r.traced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tr.write_spans(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
                       first.spans, [op.name for op in ops])
        traced = [r.layers for r in rounds if r.traced]
        metrics, mismatched = tr.combine(traced)
        problems += [f"count {m} differs between traced rounds" for m in mismatched]
        plain = statistics.median(r.wall for r in rounds if not r.traced)
        with_spans = statistics.median(r.wall for r in rounds if r.traced)
        metrics["trace.overhead_pct"] = 100.0 * (with_spans / plain - 1.0)
        metrics = {k: (v, unit_of(k)) for k, v in metrics.items()}
        tail_note = ""
    else:
        setup_times = [setup_first] + setup_probes(args.workload, args.seed, workdir)
        metrics, tail_note = end_to_end(ops, rounds, setup_times, peak_rss_mb)
        tail_note += (f"; times on the speed clock, {len(speed.bursts)} bursts, median "
                      f"{1e3 * statistics.median(speed.bursts):.3f} ms against "
                      f"{1e3 * speedclock.REF_BURST_S:.3f} ms; median round "
                      f"{statistics.median(r.wall for r in rounds):.3f} s of wall time")

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s) of "
          f"{len(ops)} operations, attempted {attempted}, failed {failed}{tail_note}")
    for op, ok, note in zip(ops, rounds[0].oks, rounds[0].notes):
        if not ok:
            print(f"  failed: {op.name}: {note.strip().splitlines()[-1] if note.strip() else ''}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json_line(not problems, attempted, failed, metrics))
    return 0


def json_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


if __name__ == "__main__":
    sys.exit(main())
