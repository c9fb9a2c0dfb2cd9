"""The benchmark's tracer (bench/tracer.py) wraps the package's public functions by name,
and its round-trip operation (bench/workloads.py) calls them positionally.

A renamed or reshaped boundary crashes every traced benchmark run, so the first test
installs the tracer, loaded read-only from its file, on small commands and checks what it
relies on; the second runs the round trip itself on the CSV of a verify run.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import hessbif.cli as cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"hessbif_bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_boundaries_and_summaries(tmp_path):
    tr = _load("tracer")
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


def test_profile_integrate_span_reports_a_grid():
    # the tracer counts rk.grid_ivps from RKResult.grid_states: a profile's IVP, which
    # steps as a free run, must still return its grid states
    from hessbif import shooting
    from hessbif.core import NonlinearitySpec, ProblemSpec

    tr = _load("tracer")
    spec = ProblemSpec(N=2, k=1, R=1.0, f=NonlinearitySpec("saturating"))
    tracer = tr.Tracer()
    tracer.install()
    try:
        shooting.integrate_profile(spec, 1.0, 1.0, grid_points=64)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    [(profile, _)] = [(sid, span) for sid, span in enumerate(spans)
                      if tr._FN[span[0]] == "integrate_profile"]
    [info] = [info for idx, _, parent, _, _, info in spans
              if tr._FN[idx] == "integrate" and parent == profile]
    assert info[2] is True
    metrics = tr.layer_metrics(spans)
    assert (metrics["rk.grid_ivps"], metrics["shooting.profiles"]) == (1, 1)


def test_workload_roundtrip_calls(tmp_path, monkeypatch):
    # the scalar workload's verify and round-trip operations on its power spec: the round
    # trip loads the spec and the verify CSV and re-verifies them through the library
    monkeypatch.syspath_prepend(BENCH)   # workloads imports refs
    wl = _load("workloads")
    name, N, k, f, extrema = wl.SCALAR_SPECS[-1]
    ops = {op.kind: op for op in wl.scalar_ops(name, {"N": N, "k": k, "R": 1.13, "f": f},
                                                 extrema, 1e-2, 1e2, str(tmp_path))}
    assert ops["verify"].run(str(tmp_path))[0]
    ok, note = ops["roundtrip"].run(str(tmp_path))
    assert ok, note
    assert ops["roundtrip"].check(str(tmp_path)) == []
