import math

import numpy as np
import pytest

from hessbif.core import (
    LimitClass,
    NonlinearitySpec,
    ProblemSpec,
    binom,
    classify_limits,
    gamma_k_membership,
    registry,
    sk_from_radial,
)
from hessbif.errors import (
    InvalidInputError,
    LimitConflictError,
    UnclassifiableLimitError,
)


class TestSkFromRadial:
    def test_all_ones_n3_k2(self):
        assert sk_from_radial(1.0, 1.0, 3, 2) == 3.0

    def test_quadratic_profile_n4_k3(self):
        # u = a r^2 / 2 with a = 2: S_3 of (2,2,2,2) = C(4,3) * 8
        assert sk_from_radial(2.0, 2.0, 4, 3) == 32.0

    def test_vanishing_when_k_exceeds_offdiagonal(self):
        for t in (0.3, 1.0, 7.5):
            assert sk_from_radial(0.0, t, 2, 2) == 0.0

    def test_binomial_identity_quadratic(self):
        # S_k(a,...,a) = C(N,k) a^k exactly for the radial quadratic
        rng = np.random.default_rng(42)
        for _ in range(200):
            N = int(rng.integers(1, 12))
            k = int(rng.integers(1, N + 1))
            a = float(rng.uniform(0.1, 10.0))
            assert sk_from_radial(a, a, N, k) == pytest.approx(
                binom(N, k) * a**k, rel=1e-14
            )

    def test_laplacian_case(self):
        # k = 1 is the trace: upp + (N-1) up_over_r
        assert sk_from_radial(2.0, 3.0, 5, 1) == 2.0 + 4 * 3.0

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidInputError):
            sk_from_radial(1.0, 1.0, 3, 4)
        with pytest.raises(InvalidInputError):
            sk_from_radial(1.0, 1.0, 0, 1)
        with pytest.raises(InvalidInputError):
            sk_from_radial(1.0, 1.0, 61, 1)


class TestGammaMembership:
    def test_examples(self):
        assert gamma_k_membership((2.0, 3.0, 4.0), 2) is True
        assert gamma_k_membership((1.0, 1.0, -1.0), 2) is False
        assert gamma_k_membership((1.0, 1.0, -1.0), 1) is True

    def test_short_list_rejected(self):
        with pytest.raises(InvalidInputError):
            gamma_k_membership((1.0,), 2)

    def test_monotone_in_k(self):
        # membership for k implies membership for every j < k
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            eigs = rng.uniform(-2.0, 3.0, size=n)
            for k in range(n, 0, -1):
                if gamma_k_membership(eigs, k):
                    assert all(gamma_k_membership(eigs, j) for j in range(1, k))
                    break


class TestEvalNonlinearity:
    def test_examples(self):
        assert NonlinearitySpec("saturating")(1.0) == 0.5
        assert NonlinearitySpec("linear")(0.0) == 0.0
        f = NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0})
        assert f(4.0) == 18.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            NonlinearitySpec("linear")(-1.0)

    def test_sign_condition_on_random_grid(self):
        rng = np.random.default_rng(11)
        grid = np.concatenate([10.0 ** rng.uniform(-8, 8, size=60), [1e-12, 1e12]])
        for spec in registry().values():
            assert spec(0.0) == 0.0
            for s in grid:
                assert spec(float(s)) > 0.0

    def test_root_sum_powers(self):
        # (s^2 + 3 s)^(1/2): eigen-form plus perturbation for k = 2
        f = NonlinearitySpec("root_sum_powers", {"a": 2.0, "b": 1.0, "c": 3.0})
        assert f(1.0) == pytest.approx(2.0)
        assert f(4.0) == pytest.approx(math.sqrt(16.0 + 12.0))

    def test_tabulated_power_law(self):
        s = [0.1, 1.0, 10.0]
        f = NonlinearitySpec("tabulated", {"s": s, "f": [0.01, 1.0, 100.0]})
        # table is exactly s^2 in log-log space, extensions included
        for x in (0.003, 0.1, 0.5, 3.0, 200.0):
            assert f(x) == pytest.approx(x**2, rel=1e-12)

    def test_tabulated_rejects_nonvanishing(self):
        with pytest.raises(InvalidInputError):
            NonlinearitySpec("tabulated", {"s": [0.1, 1.0], "f": [2.0, 1.0]})

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidInputError):
            NonlinearitySpec("power", {"p": -1.0})
        with pytest.raises(InvalidInputError):
            NonlinearitySpec("nope")
        with pytest.raises(InvalidInputError):
            NonlinearitySpec("sum_of_powers", {"p": 1.0})


class TestClassifyLimits:
    def test_saturating(self):
        f0, finf = classify_limits(NonlinearitySpec("saturating"))
        assert f0.is_finite and f0.value == pytest.approx(1.0, rel=1e-6)
        assert finf.is_zero

    def test_sqrt_plus_square(self):
        f0, finf = classify_limits(
            NonlinearitySpec("sum_of_powers", {"p": 0.5, "q": 2.0, "c": 1.0})
        )
        assert f0.is_infinite and finf.is_infinite

    def test_log_bump(self):
        f0, finf = classify_limits(NonlinearitySpec("log_bump"))
        assert f0.is_zero and finf.is_zero

    def test_linear_exact(self):
        f0, finf = classify_limits(NonlinearitySpec("linear"))
        assert f0 == LimitClass.finite(1.0)
        assert finf == LimitClass.finite(1.0)

    def test_root_sum_powers_classes(self):
        # (s^2 + s)^(1/2): ratio to s is s^(-1/2)-like at 0, -> 1 at infinity
        f = NonlinearitySpec("root_sum_powers", {"a": 2.0, "b": 1.0, "c": 1.0})
        assert f.declared_f0.is_infinite
        assert f.declared_finf == LimitClass.finite(1.0)
        f0, finf = classify_limits(f)
        assert f0.is_infinite
        assert finf.is_finite and finf.value == pytest.approx(1.0, rel=1e-4)

    def test_registry_agreement(self):
        # numeric classification must reproduce every declared class
        for name, spec in registry().items():
            f0, finf = classify_limits(spec)
            assert f0.agrees_with(spec.declared_f0), name
            assert finf.agrees_with(spec.declared_finf), name

    def test_declared_conflict_detected(self):
        lying = NonlinearitySpec(
            "saturating", declared_f0=LimitClass.zero(), declared_finf=LimitClass.zero()
        )
        with pytest.raises(LimitConflictError):
            classify_limits(lying)

    def test_oscillating_unclassifiable(self):
        # ratio oscillates between decades without settling
        wob = NonlinearitySpec(
            "tabulated",
            {
                "s": [10.0**e for e in range(-10, 11)],
                "f": [10.0**e * (10.0 if e % 2 else 0.1) for e in range(-10, 11)],
            },
            declared_f0=LimitClass.finite(1.0),
            declared_finf=LimitClass.finite(1.0),
        )
        with pytest.raises(UnclassifiableLimitError):
            classify_limits(wob, check_declared=False)


class TestLimitClass:
    def test_finite_requires_positive(self):
        with pytest.raises(InvalidInputError):
            LimitClass.finite(0.0)
        with pytest.raises(InvalidInputError):
            LimitClass.finite(-2.0)

    def test_ratio_under(self):
        lam1 = 2.4674011002723395
        assert LimitClass.finite(2.0).ratio_under(lam1) == pytest.approx(lam1 / 2)
        assert LimitClass.zero().ratio_under(lam1) == math.inf
        assert LimitClass.infinite().ratio_under(lam1) == 0.0

    def test_json_roundtrip(self):
        for lc in (LimitClass.zero(), LimitClass.finite(3.5), LimitClass.infinite()):
            assert LimitClass.from_json(lc.to_json()) == lc


class TestProblemSpec:
    def test_validation(self):
        f = NonlinearitySpec("linear")
        ProblemSpec(N=3, k=2, R=1.0, f=f)
        with pytest.raises(InvalidInputError):
            ProblemSpec(N=2, k=3, R=1.0, f=f)
        with pytest.raises(InvalidInputError):
            ProblemSpec(N=2, k=1, R=-1.0, f=f)

    def test_monge_ampere_flag(self):
        f = NonlinearitySpec("linear")
        assert ProblemSpec(N=2, k=2, R=1.0, f=f).is_monge_ampere
        assert not ProblemSpec(N=2, k=1, R=1.0, f=f).is_monge_ampere

    def test_json_roundtrip(self):
        spec = ProblemSpec(
            N=2, k=2, R=1.5, f=NonlinearitySpec("power", {"p": 2.0})
        )
        again = ProblemSpec.from_json(spec.to_json())
        assert again.N == 2 and again.k == 2 and again.R == 1.5
        assert again.f.kind == "power"
        assert again.f(3.0) == 9.0
