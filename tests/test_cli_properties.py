"""Property tests: malformed command lines and specs exit 3 (invalid input), never 0/1/2."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hessbif import cli

COMMANDS = ("eigen", "trace", "verify", "system-trace", "system-verify", "power-pair",
            "plot", "sweep-k")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _exit_code(argv):
    # argparse's help action is the one way to exit 0 without running a command
    assume(not any(a.startswith(("-h", "--h")) for a in argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _not_parsed_by(convert):
    def rejects(text):
        try:
            convert(text)
        except ValueError:
            return True
        return False
    return st.text(max_size=12).filter(rejects)


# a bad radius: non-positive, non-finite or not a number at all
BAD_RADIUS = st.one_of(st.floats(max_value=0.0, allow_nan=False).map(repr),
                       st.sampled_from(["nan", "inf", "-inf"]), _not_parsed_by(float))

MALFORMED_ARGV = st.one_of(
    st.text(max_size=12).filter(lambda t: t not in COMMANDS and not t.startswith("-"))
    .map(lambda t: [t]),
    st.tuples(st.sampled_from(["--N", "--k"]), _not_parsed_by(int))
    .map(lambda opt: ["eigen", "--N", "2", "--k", "1", *opt]),
    st.tuples(st.sampled_from(["--R", "--tol", "--root-tol"]), _not_parsed_by(float))
    .map(lambda opt: ["eigen", "--N", "2", "--k", "1", *opt]),
    BAD_RADIUS.map(lambda r: ["eigen", "--N", "2", "--k", "1", "--R", r]),
    st.text(max_size=8).map(lambda t: ["eigen", "--N", "2", "--k", "1", "--zz" + t]),
    st.sampled_from(COMMANDS).map(lambda c: [c]),  # every command has a required option
)


@PROPERTY
@given(argv=MALFORMED_ARGV)
def test_malformed_arguments_exit_invalid(argv):
    assert _exit_code(argv) == cli.EXIT_INVALID


def _spec(N=2, k=1, R=1.0, f=None):
    return {"N": N, "k": k, "R": R, "f": f or {"kind": "saturating"}}


NOT_AN_ORDER = st.one_of(st.integers(max_value=0), st.integers(min_value=61),
                         st.floats(), st.text(max_size=4), st.none())
MALFORMED_SCALAR_SPEC = st.one_of(
    _not_parsed_by(json.loads),
    st.one_of(st.integers(), st.lists(st.integers()), st.text(), st.none()).map(json.dumps),
    NOT_AN_ORDER.map(lambda N: json.dumps(_spec(N=N))),
    st.integers(min_value=2, max_value=5).map(lambda k: json.dumps(_spec(N=k - 1, k=k))),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]).map(
        lambda R: json.dumps(_spec(R=R))),
    st.text(max_size=10).filter(lambda t: t not in (
        "linear", "saturating", "superlinear", "quadratic_over_linear", "power",
        "sum_of_powers", "log_bump", "root_sum_powers", "tabulated"))
    .map(lambda kind: json.dumps(_spec(f={"kind": kind}))),
    # declared limit classes that contradict saturating's f0 = 1, finf = zero
    st.one_of(st.fixed_dictionaries({"f0": st.sampled_from(["zero", "infinite"])}),
              st.fixed_dictionaries({"finf": st.sampled_from(["infinite", 1.0, 5.0])}))
    .map(lambda declared: json.dumps(_spec(f={"kind": "saturating", **declared}))),
    st.sampled_from(["N", "k", "R", "f"]).map(
        lambda key: json.dumps({k: v for k, v in _spec().items() if k != key})),
)


@PROPERTY
@given(text=MALFORMED_SCALAR_SPEC, command=st.sampled_from(["trace", "verify", "sweep-k"]))
def test_malformed_scalar_spec_exits_invalid(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(text)
    argv = [command, "--spec", str(path), "--n-points", "16"]
    if command == "trace":
        argv += ["--out-branch", str(path.with_suffix(".csv"))]
    assert _exit_code(argv) == cli.EXIT_INVALID


MALFORMED_SYSTEM_SPEC = st.one_of(
    _not_parsed_by(json.loads),
    st.sampled_from([0.0, -1.0, math.nan, math.inf]).map(lambda R: json.dumps(
        {"N": 1, "k": 1, "R": R, "g": {"kind": "saturating_t"}, "h": {"kind": "saturating_s"}})),
    st.tuples(st.text(max_size=10), st.sampled_from(["_t", "_s", ""])).map(lambda t: json.dumps(
        {"N": 1, "k": 1, "R": 1.0, "g": {"kind": t[0] + t[1]}, "h": {"kind": "saturating_s"}}))
    .filter(lambda text: json.loads(text)["g"]["kind"] not in (
        "linear_t", "saturating_t", "superlinear_t", "powermix_t", "logbump_t")),
)


@PROPERTY
@given(text=MALFORMED_SYSTEM_SPEC)
def test_malformed_system_spec_exits_invalid(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("spec") / "system.json"
    path.write_text(text)
    assert _exit_code(["system-verify", "--spec", str(path), "--n-points", "16"]) \
        == cli.EXIT_INVALID
