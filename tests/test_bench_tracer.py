"""The benchmark's tracer (bench/tracer.py) wraps the package's public functions by name.

A renamed or reshaped boundary crashes every traced benchmark run, so this test installs
the tracer, loaded read-only from its file, on small commands and checks what it relies on.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import hessbif.cli as cli

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hessbif_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_and_summaries(tmp_path):
    tr = _load_tracer()
    for _, modname, fn in tr.BOUNDARIES:
        assert callable(getattr(sys.modules[modname], fn, None)), f"{modname}.{fn}"
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"N": 2, "k": 1, "R": 1.0, "f": {"kind": "saturating"}}))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"N": 2, "k": 1, "R": 1.0, "g": {"kind": "saturating_t"},
                                "h": {"kind": "saturating_s"}}))
    tracer = tr.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["system-trace", "--spec", str(pair), "--n-points", "16",
                             "--out-branch", str(tmp_path / "pair.csv")]) == cli.EXIT_OK
            assert cli.main(["verify", "--spec", str(scalar), "--n-points", "16",
                             "--d-min", "1e-2", "--d-max", "1e2"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    for _, modname, fn in tr.BOUNDARIES:   # uninstall put every original back
        assert not hasattr(getattr(sys.modules[modname], fn), "__wrapped__"), fn
    spans = tracer.take()
    summarized = {tr._FN[idx] for idx, _, _, _, _, info in spans if info is not None}
    assert {"integrate", "trace_branch", "trace_system_branch"} <= summarized
    metrics = tr.layer_metrics(spans)
    assert metrics["system.points"] > 0 and metrics["branch.points"] > 0
    assert metrics["rk.steps"] > 0
