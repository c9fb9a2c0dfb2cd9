"""Property tests: malformed command lines and specs exit 3 (invalid input), never 0/1/2."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, assume, example, given, settings
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
    st.tuples(st.sampled_from(["--R", "--tol"]), _not_parsed_by(float))
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


POWER = {"kind": "power", "params": {"p": 2.0}}
NOT_AN_ORDER = st.one_of(st.integers(max_value=0), st.integers(min_value=61),
                         st.floats(), st.text(max_size=4), st.none(), st.booleans())
# a bool or a string where a number belongs: float() would take either
NOT_A_NUMBER = st.one_of(st.booleans(), st.text(max_size=4))
MALFORMED_SCALAR_SPEC = st.one_of(
    _not_parsed_by(json.loads),
    st.one_of(st.integers(), st.lists(st.integers()), st.text(), st.none()).map(json.dumps),
    NOT_AN_ORDER.map(lambda N: json.dumps(_spec(N=N))),
    st.integers(min_value=2, max_value=5).map(lambda k: json.dumps(_spec(N=k - 1, k=k))),
    st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), NOT_A_NUMBER).map(
        lambda R: json.dumps(_spec(R=R))),
    st.text(max_size=6).filter(lambda key: key not in ("N", "k", "R", "f")).map(
        lambda key: json.dumps({**_spec(), key: 1})),
    # a param that the kind does not read, or a numeric param that is not a number
    st.text(max_size=4).filter(lambda key: key != "p").map(
        lambda key: json.dumps(_spec(f={**POWER, "params": {"p": 2.0, key: 1.0}}))),
    NOT_A_NUMBER.map(lambda p: json.dumps(_spec(f={"kind": "power", "params": {"p": p}}))),
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
@example(text=json.dumps(_spec(f={**POWER, "params": {"p": 2.0, "zz": 1.0}})), command="verify")
@example(text=json.dumps(_spec(N=True, f=POWER)), command="verify")
@example(text=json.dumps({**_spec(f=POWER), "zz": 1}), command="verify")
@example(text=json.dumps(_spec(R="1", f=POWER)), command="verify")
def test_malformed_scalar_spec_exits_invalid(tmp_path_factory, text, command):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(text)
    argv = [command, "--spec", str(path), "--n-points", "16"]
    if command == "trace":
        argv += ["--out-branch", str(path.with_suffix(".csv"))]
    assert _exit_code(argv) == cli.EXIT_INVALID


def _system_spec(R=1.0, g="saturating_t", **extra):
    return {"N": 1, "k": 1, "R": R, "g": {"kind": g}, "h": {"kind": "saturating_s"}, **extra}


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=6))


def _pair(base, params, **extra):
    return {"N": 2, "k": 1, "R": 1.0, "g": {"kind": f"{base}_t", "params": params},
            "h": {"kind": f"{base}_s", "params": params}, **extra}


MALFORMED_SYSTEM_SPEC = st.one_of(
    _not_parsed_by(json.loads),
    st.one_of(st.integers(), st.lists(st.integers()), st.text(), st.none()).map(json.dumps),
    st.one_of(st.sampled_from([0.0, -1.0, math.nan, math.inf]), NOT_A_NUMBER).map(
        lambda R: json.dumps(_system_spec(R=R))),
    st.booleans().map(lambda N: json.dumps({**_system_spec(), "N": N})),
    st.text(max_size=6).filter(lambda key: key not in ("N", "k", "R", "g", "h", "monotone"))
    .map(lambda key: json.dumps(_system_spec(**{key: 1}))),
    # a g key other than kind and params, a param that the kind does not read, or a
    # numeric param that is not a number
    st.text(max_size=6).filter(lambda key: key not in ("kind", "params")).map(
        lambda key: json.dumps({**_system_spec(), "g": {"kind": "saturating_t", key: {}}})),
    st.text(max_size=4).map(lambda key: json.dumps(_pair("linear", {key: 1}))),
    st.text(max_size=4).filter(lambda key: key != "b").map(
        lambda key: json.dumps(_pair("rational", {"b": 2.0, key: 1}))),
    NOT_A_NUMBER.map(lambda b: json.dumps(_pair("rational", {"b": b}))),
    st.tuples(st.text(max_size=10), st.sampled_from(["_t", "_s", ""])).map(
        lambda t: json.dumps(_system_spec(g=t[0] + t[1])))
    .filter(lambda text: json.loads(text)["g"]["kind"] not in (
        "linear_t", "saturating_t", "superlinear_t", "powermix_t", "logbump_t")),
    # monotone: not an object, a key other than g_in_t and h_in_s, or a flag not a boolean
    st.one_of(JSON_SCALARS, st.lists(st.booleans(), max_size=2)).map(
        lambda mono: json.dumps(_system_spec(monotone=mono))),
    st.text(max_size=6).filter(lambda key: key not in ("g_in_t", "h_in_s")).map(
        lambda key: json.dumps(_system_spec(monotone={key: True}))),
    st.tuples(st.sampled_from(["g_in_t", "h_in_s"]),
              JSON_SCALARS.filter(lambda flag: not isinstance(flag, bool))).map(
        lambda kv: json.dumps(_system_spec(monotone=dict([kv])))),
)


@PROPERTY
@given(text=MALFORMED_SYSTEM_SPEC)
@example(text=json.dumps([1, 2]))
@example(text=json.dumps(_system_spec(monotone=5)))
@example(text=json.dumps(_system_spec(monotone={"g_in_t": "false"})))
@example(text=json.dumps(_system_spec(monotone={"g_in_s": False})))
@example(text=json.dumps(_pair("linear", {"zz": 1})))
@example(text=json.dumps({**_pair("linear", {}), "g": {"kind": "linear_t", "parms": {}}}))
@example(text=json.dumps(_pair("rational", {"b": True})))
@example(text=json.dumps(_pair("linear", {}, zz=1)))
def test_malformed_system_spec_exits_invalid(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("spec") / "system.json"
    path.write_text(text)
    assert _exit_code(["system-verify", "--spec", str(path), "--n-points", "16"]) \
        == cli.EXIT_INVALID
