#!/usr/bin/env python3
"""Show that the benchmark's output checks are not vacuous.

    python3 bench/selftest.py

Runs a few real operations (log_bump verify and plot, one system-verify, two
eigen commands, one power pair), confirms their checks pass, then perturbs one
output value at a time and confirms the check catches it:

* each branch lambda that the RK4 residual check samples, by 1e-6 relative;
* one lambda of the pure-power branch (homogeneity catches any row);
* one lambda of a coupled branch by 1e-6, and one d_v (symmetry);
* an eigenvalue, and the N = k = 1 power-pair constant, by 1e-6 relative.

It reports on standard error, since standard output carries the program's
own console output into a scratch file.  Exit code 0 when every perturbation
is caught, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from run import console_to  # noqa: E402

REL = 1e-6


def _scale_csv(path, row, column, factor):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0].keys())
    rows[row][column] = repr(float(rows[row][column]) * factor)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale_json(path, key, factor):
    with open(path) as fh:
        obj = json.load(fh)
    obj[key] *= factor
    with open(path, "w") as fh:
        json.dump(obj, fh)


class Harness:
    def __init__(self, outdir):
        self.outdir = outdir
        self.failures = 0

    def run(self, op):
        ok, note = op.run(self.outdir)
        if not ok:
            raise SystemExit(f"{op.name} failed to run: {note}")
        self.expect(op, "unperturbed", caught=False)

    def expect(self, op, what, caught):
        problems = op.check(self.outdir)
        good = bool(problems) == caught
        self.failures += not good
        status = "ok " if good else "BAD"
        found = problems[0] if problems else "no problem found"
        print(f"[{status}] {op.name}, {what}: {found}", file=sys.stderr)

    def perturbed(self, op, path, scale, what):
        """Check op with one output value scaled; the file is restored afterwards."""
        backup = path + ".orig"
        shutil.copyfile(path, backup)
        try:
            scale()
            self.expect(op, what, caught=True)
        finally:
            os.replace(backup, path)


def main():
    outdir = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    os.makedirs(outdir)
    try:
        with console_to(os.path.join(outdir, "console.log")):
            return selftest(outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(outdir))


def selftest(outdir):
    inputs = os.path.join(outdir, "inputs")
    h = Harness(outdir)
    scalar = {op.name: op for op in wl.build("scalar-verify", 0, inputs)}
    system = {op.name: op for op in wl.build("system-verify", 0, inputs)}
    eigen = wl.build("eigen-sweep", 0, inputs)

    verify = scalar["verify log_bump"]
    for op in (verify, scalar["plot log_bump"]):
        h.run(op)
    path = os.path.join(outdir, verify.artifact)
    with open(path) as fh:
        n_rows = sum(1 for _ in fh) - 1
    for row in wl.sample_rows(n_rows):
        h.perturbed(verify, path,
                    lambda row=row: _scale_csv(path, row, "lambda", 1.0 + REL),
                    f"row {row} lambda x (1 + 1e-6)")

    # the homogeneity check sees every row of a pure-power branch, sampled or not
    power = wl.scalar_ops(
        "power-selftest", {"N": 3, "k": 2, "R": 0.9, "f": {"kind": "power", "params": {"p": 2.0}}},
        [], 1e-2, 1e2, inputs)[1]
    h.run(power)
    path = os.path.join(outdir, power.artifact)
    h.perturbed(power, path, lambda: _scale_csv(path, 1, "lambda", 1.0 + REL),
                "row 1 (not RK4-sampled) lambda x (1 + 1e-6)")

    sysop = system["system-verify saturating-N2k1"]
    h.run(sysop)
    path = os.path.join(outdir, sysop.artifact)
    h.perturbed(sysop, path, lambda: _scale_csv(path, 0, "lambda", 1.0 + REL),
                "row 0 lambda x (1 + 1e-6)")
    h.perturbed(sysop, path, lambda: _scale_csv(path, 3, "d_v", 1.0 + REL),
                "row 3 d_v x (1 + 1e-6)")

    for op in (eigen[0], eigen[len(wl.EIGEN_CASES) * wl.EIGEN_RADII_PER_CASE - 1]):
        h.run(op)
        path = os.path.join(outdir, op.artifact)
        h.perturbed(op, path, lambda path=path: _scale_json(path, "lambda1", 1.0 + REL),
                    "lambda1 x (1 + 1e-6)")

    pp = next(op for op in eigen if op.kind == "power-pair")
    h.run(pp)
    path = os.path.join(outdir, pp.artifact)
    h.perturbed(pp, path, lambda: _scale_json(path, "constant", 1.0 + REL),
                "constant x (1 + 1e-6)")
    print(f"{h.failures} perturbation(s) not caught" if h.failures
          else "every perturbation was caught", file=sys.stderr)
    return 1 if h.failures else 0


if __name__ == "__main__":
    sys.exit(main())
