"""The package's records: constructor keywords and defaults, validation, equality and
which records are immutable."""

import inspect
import math
import re

import pytest

from hessbif.branch import (
    AsymptoteEstimate,
    Branch,
    BranchPoint,
    Check,
    Fold,
    TheoremPrediction,
    VerificationReport,
)
from hessbif.core import EigenvalueResult, LimitClass, NonlinearitySpec, ProblemSpec
from hessbif.errors import InvalidInputError
from hessbif.shooting import RadialProfile
from hessbif.system import NonlinearitySpec2, PowerPairResult, SystemBranchPoint, SystemSpec

LINEAR = NonlinearitySpec("linear")
G, H = NonlinearitySpec2("linear_t"), NonlinearitySpec2("linear_s")
POINT = BranchPoint(1.0, 2.0, True)

# (type, its required keywords with values, the defaults of the other keywords, immutable);
# math.nan compares equal to itself here because the dicts hold the same object
RECORDS = [
    (LimitClass, {"kind": "zero"}, {"value": None}, False),
    (NonlinearitySpec, {"kind": "saturating"},
     {"params": {}, "declared_f0": LimitClass.finite(1.0), "declared_finf": LimitClass.zero()},
     False),
    (ProblemSpec, {"N": 2, "k": 1, "R": 1.0, "f": LINEAR}, {}, False),
    (EigenvalueResult, {"lambda1": 2.5, "residual": 0.0, "iterations": 2}, {}, True),
    (BranchPoint, {"d": 1.0, "lam": 2.0, "admissible": True}, {"seed": True}, True),
    (Fold, {"index": 3, "lam": 2.0, "kind": "max"}, {}, True),
    (AsymptoteEstimate, {"kind": "zero"}, {"value": None}, True),
    (Branch, {"points": [POINT]},
     {"gaps": [], "folds": [], "lambda_at_zero": None, "lambda_at_infinity": None}, False),
    (TheoremPrediction, {"case": "finite-zero", "lam_lo": 1.0, "lam_hi": math.inf,
                         "profile": "at-least-one", "lam_from_zero": 1.0,
                         "lam_from_infinity": math.inf}, {"fold_driven": False}, True),
    (Check, {"name": "c", "predicted": "p", "observed": "o", "passed": True},
     {"tol": None}, True),
    (VerificationReport, {}, {"checks": [], "notes": []}, False),
    (NonlinearitySpec2, {"kind": "linear_t"}, {"params": {}}, False),
    (SystemSpec, {"N": 2, "k": 1, "R": 1.0, "g": G, "h": H},
     {"monotone_g_in_t": True, "monotone_h_in_s": True}, False),
    (SystemBranchPoint, {"d_u": 1.0, "d_v": 0.5, "lam": 2.0, "res_u": 0.0, "res_v": 0.0},
     {"admissible": True, "seed": True}, True),
    (PowerPairResult, {"alpha": 4.0, "beta": 1.0, "samples": [(1.0, 2.0)], "constant": 3.0,
                       "max_rel_deviation": 0.0}, {}, True),
    (RadialProfile, {"r": [0.0, 1.0], "u": [-1.0, 0.0], "uprime": [0.0, 2.0],
                     "upp": [2.0, 2.0], "lam": 2.0, "d": 1.0},
     {"max_consistency_residual": math.nan}, False),
]


@pytest.mark.parametrize("cls, required, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_keywords_and_defaults(cls, required, defaults, frozen):
    assert list(inspect.signature(cls).parameters) == [*required, *defaults]
    obj, other = cls(**required), cls(**required)
    assert {name: getattr(obj, name) for name in required} == required
    assert {name: getattr(obj, name) for name in defaults} == defaults
    assert all(getattr(obj, name) is not getattr(other, name)   # a fresh list or dict each
               for name, value in defaults.items() if isinstance(value, (list, dict)))
    if frozen:
        name = next(iter(required))
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


@pytest.mark.parametrize("kind, value, message", [
    ("finit", None, "unknown limit kind 'finit'"),
    ("finite", None, "Finite limit must carry a positive value"),
    ("finite", -2.0, "Finite limit must carry a positive value"),
    ("zero", 1.0, "zero limit carries no value"),
    ("infinite", math.inf, "infinite limit carries no value"),
])
def test_limit_class_refusals(kind, value, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        LimitClass(kind, value)


@pytest.mark.parametrize("record, same, different", [
    (LimitClass.finite(2.0), LimitClass("finite", 2.0), LimitClass.finite(2.5)),
    (LimitClass.zero(), LimitClass("zero"), LimitClass.infinite()),
    (POINT, BranchPoint(d=1.0, lam=2.0, admissible=True, seed=True),
     BranchPoint(1.0, 2.0, True, seed=False)),
])
def test_value_equality(record, same, different):
    assert record == same and hash(record) == hash(same) and record is not same
    assert record != different
