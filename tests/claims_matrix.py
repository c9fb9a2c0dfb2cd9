"""The claims matrix: which claim holds on which cell, as committed test data.

A cell is one spec run through the command line with its default window,
grid and samples, at R = 1.13:

  * registry cells: the 8 core.registry() kinds x (N, k) in REGISTRY_NK,
    through `hessbif verify`;
  * pair cells: the symmetric pairs of PAIRS x (N, k) in PAIR_NK (the pair
    sweep's cells with N <= 3), through `hessbif system-verify`.

Each entry records the exit code, each check's kind (its name without the
numbers it quotes) and pass flag, the certificate kinds (the observed text
before its colon: "sign change", "vertex within tolerance" or "no sign
change"), the gap count and the folds of the traced branch as (kind, lambda).
tests/test_claims_matrix.py reruns every cell and compares flags and kinds
exactly and fold lambdas to FOLD_REL_TOL.  A change that moves a verdict
regenerates the file and names each changed cell and its cause:

    PYTHONPATH=src python tests/claims_matrix.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

from hessbif import cli
from hessbif.core import ProblemSpec, registry

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "claims_matrix.json")
R = 1.13
REGISTRY_NK = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (5, 2), (8, 4), (20, 5))
PAIRS = (("linear", {}), ("saturating", {}), ("superlinear", {}), ("rational", {"b": 2.0}),
         ("powermix", {}), ("logbump", {}))
PAIR_NK = ((1, 1), (2, 1), (2, 2), (3, 1))
FOLD_REL_TOL = 1e-9


def cells():
    """{cell name: (command, spec JSON)} in a fixed order."""
    out = {}
    for name, f in registry().items():
        for N, k in REGISTRY_NK:
            out[f"{name} N{N}k{k}"] = ("verify", ProblemSpec(N=N, k=k, R=R, f=f).to_json())
    for base, params in PAIRS:
        for N, k in PAIR_NK:
            out[f"pair {base} N{N}k{k}"] = ("system-verify", {
                "N": N, "k": k, "R": R,
                "g": {"kind": f"{base}_t", "params": params},
                "h": {"kind": f"{base}_s", "params": params}})
    return out


def check_kind(name: str) -> str:
    """A check's name without the lambda or the range it quotes."""
    return re.split(r" at lambda=| on \[", name)[0]


def run_cell(command: str, spec: dict) -> dict:
    """The matrix entry of one cell, from an in-process cli.main run."""
    traced = []
    tracers = ("trace_branch", "trace_system_branch")
    real = {name: getattr(cli, name) for name in tracers}

    def recording(tracer):
        def run(*args, **kwargs):
            traced.append(tracer(*args, **kwargs))
            return traced[-1]
        return run

    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        report_path = os.path.join(tmp, "report.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        try:
            for name in tracers:
                setattr(cli, name, recording(real[name]))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--spec", spec_path, "--out-report", report_path])
        finally:
            for name in tracers:
                setattr(cli, name, real[name])
        checks = []
        if os.path.exists(report_path):
            with open(report_path) as fh:
                checks = json.load(fh)["checks"]
    branch = traced[-1] if traced else None
    return {
        "exit": code,
        "checks": [[check_kind(c["name"]), c["pass"]] for c in checks],
        "certificates": [c["observed"].split(":")[0] for c in checks
                         if c["name"].startswith("certificate")],
        "gaps": None if branch is None else len(branch.gaps),
        "folds": [] if branch is None else [[f.kind, f.lam] for f in branch.folds],
    }


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def main() -> int:
    matrix = {}
    for name, (command, spec) in cells().items():
        matrix[name] = run_cell(command, spec)
        print(f"{name}: exit {matrix[name]['exit']}", file=sys.stderr)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", newline="") as fh:   # one cell per line, so a diff names the cell
        fh.write("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}"
                                     for name, entry in matrix.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
