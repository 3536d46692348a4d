import numpy as np
import pytest

from nclyap.comparison import power_table
from nclyap.lyapunov import (
    LyapunovCandidate,
    coercivity_profile,
    dini_derivative,
    verify_decay,
    verify_integral_bound,
)
from nclyap.models import build_l2_block_model
from nclyap.systems import DisturbanceSet, DisturbanceSignal, EscapeError, SystemModel


def decay_model():
    return SystemModel("xdot=-x", 1, DisturbanceSet.interval(0, 0),
                       rhs=lambda x, d: -x)


def square_candidate():
    return LyapunovCandidate(eval=lambda x: float(np.dot(x, x)), name="x^2")


class TestDiniDerivative:
    def test_chain_rule_value(self):
        # d/dt x^2 along xdot = -x at x=1 is -2; the quotient error is
        # O(h), so the floor h picks the tolerance
        from nclyap.lyapunov import default_h_sequence

        est = dini_derivative(square_candidate(), decay_model(), [1.0],
                              h_sequence=default_h_sequence(terms=10), step=1e-6)
        assert est.value == pytest.approx(-2.0, abs=1e-4)

    def test_equilibrium_gives_zero(self):
        est = dini_derivative(square_candidate(), decay_model(), [0.0])
        assert est.value == 0.0

    def test_quotient_sequence_exposed(self):
        est = dini_derivative(square_candidate(), decay_model(), [1.0])
        assert len(est.quotients) == len(est.hs)
        assert est.converged()

    def test_block_model_decay_bound(self):
        from nclyap.lyapunov import default_h_sequence

        block = build_l2_block_model(8, 0.0)
        model, cand = block.system, block.candidate
        rng = np.random.default_rng(0)
        hs = default_h_sequence(terms=12)
        for _ in range(5):
            x = rng.normal(size=model.dim)
            est = dini_derivative(cand, model, x, h_sequence=hs)
            assert est.value <= -cand(x) + 1e-3 * float(x @ x)

    def test_escape_is_hard_error(self):
        model = SystemModel("fast-blow", 1, DisturbanceSet.interval(0, 0),
                            rhs=lambda x, d: x**9)
        with pytest.raises(EscapeError):
            dini_derivative(square_candidate(), model, [30.0], step=1e-4)

    def test_gradient_form_on_random_linear_systems(self):
        # dini of ||x||^2 along xdot = A x equals x^T (A^T + A) x up to O(h)
        rng = np.random.default_rng(1)
        for _ in range(5):
            A = rng.normal(size=(3, 3)) * 0.5
            model = SystemModel("lin", 3, DisturbanceSet.interval(0, 0),
                                rhs=lambda x, d, A=A: x @ A.T)
            x = rng.normal(size=3)
            est = dini_derivative(square_candidate(), model, x, step=1e-4)
            want = float(x @ (A.T + A) @ x)
            assert est.value == pytest.approx(want, abs=5e-2 * (1 + abs(want)))


class TestVerifyDecay:
    def test_equality_case_passes(self):
        from nclyap.lyapunov import default_h_sequence

        alpha = power_table(2.0, r_max=8.0, n=4001, scale=2.0)  # alpha(s) = 2 s^2
        report = verify_decay(square_candidate(), alpha, decay_model(),
                              [[0.5], [1.0], [2.0]], [None],
                              h_sequence=default_h_sequence(terms=12))
        assert report.passed
        assert abs(report.worst_margin) < 1e-3
        assert "no violation found" in report.summary()

    def test_too_strong_rate_fails_with_witness(self):
        alpha = power_table(2.0, r_max=8.0, scale=3.0)  # alpha(s) = 3 s^2
        report = verify_decay(square_candidate(), alpha, decay_model(),
                              [[1.0]], [None])
        assert not report.passed
        assert report.witnesses
        assert report.worst_margin > 0.5

    @pytest.mark.parametrize("states,signals", [([], [None]), ([[1.0]], [])])
    def test_empty_sample_product_raises(self, states, signals):
        alpha = power_table(2.0, r_max=8.0, scale=2.0)
        with pytest.raises(ValueError, match="at least one state"):
            verify_decay(square_candidate(), alpha, decay_model(), states, signals)

    def test_report_serializes(self):
        alpha = power_table(2.0, r_max=8.0, scale=3.0)
        report = verify_decay(square_candidate(), alpha, decay_model(),
                              [[1.0]], [None])
        assert "witnesses" in report.to_json()
        assert report.to_csv().startswith("dini,bound,margin")


class TestIntegralBound:
    def test_closed_form_case(self):
        # integral of 2 e^{-2t} from 0 to 10 is 1 - e^{-20} <= V(1) = 1;
        # the bound is tight, so the rate table must be fine enough not to
        # overshoot the true alpha between knots
        alpha = power_table(2.0, r_max=8.0, n=8001, scale=2.0)
        rep = verify_integral_bound(square_candidate(), alpha, decay_model(),
                                    [1.0], horizon=10.0, quadrature_step=1e-3)
        assert rep.passed
        assert rep.integral == pytest.approx(1.0 - np.exp(-20.0), abs=1e-5)
        assert rep.slack >= -1e-4  # tight case: slack is zero up to quadrature error

    def test_zero_state(self):
        alpha = power_table(2.0, r_max=8.0)
        rep = verify_integral_bound(square_candidate(), alpha, decay_model(),
                                    [0.0], horizon=1.0)
        assert rep.passed and rep.integral == 0.0

    def test_escape_is_distinct_error(self):
        model = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                            rhs=lambda x, d: x**3)
        with pytest.raises(EscapeError):
            verify_integral_bound(square_candidate(), power_table(1.0), model,
                                  [2.0], horizon=5.0)

    def test_block_model_quadratic_rate(self):
        block = build_l2_block_model(6, 0.0)
        model, cand = block.system, block.candidate
        lam_floor = float(block.lambda_mins().min())
        alpha = power_table(2.0, r_max=32.0, scale=lam_floor)
        rng = np.random.default_rng(2)
        x = rng.normal(size=model.dim)
        rep = verify_integral_bound(cand, alpha, model, x, horizon=8.0,
                                    quadrature_step=1e-2)
        assert rep.passed

    def test_integral_bound_follows_pointwise_decay(self):
        # wherever the pointwise rate passed, the accumulated bound passes too
        alpha = power_table(2.0, r_max=8.0, scale=1.5)
        decay = verify_decay(square_candidate(), alpha, decay_model(),
                             [[1.0], [0.3]], [None])
        assert decay.passed
        for x0 in (1.0, 0.3):
            rep = verify_integral_bound(square_candidate(), alpha, decay_model(),
                                        [x0], horizon=10.0)
            assert rep.passed


class TestCoercivityProfile:
    def test_scalar_square_is_tight(self):
        model = decay_model()
        prof = coercivity_profile(square_candidate(), model, [0.5, 1.0, 2.0])
        np.testing.assert_allclose(prof.inf_estimates, prof.sup_estimates)
        np.testing.assert_allclose(prof.inf_estimates, [0.25, 1.0, 4.0])
        assert not prof.noncoercive_flag

    def test_block_model_witnesses_collapse(self):
        block = build_l2_block_model(30, 0.0)
        prof = coercivity_profile(block.candidate, block.system, [1.0],
                                  direction_budget=16,
                                  witness_directions=block.witness_directions())
        assert prof.inf_estimates[0] < 0.05
        assert prof.sup_estimates[0] > 0.5
        assert prof.noncoercive_flag

    def test_coercive_euclidean_candidate(self):
        block = build_l2_block_model(6, 0.0)
        cand = LyapunovCandidate(eval=lambda x: float(np.dot(x, x)))
        prof = coercivity_profile(cand, block.system, [1.0], direction_budget=16)
        assert prof.inf_estimates[0] == pytest.approx(1.0, abs=1e-9)
        assert prof.sup_estimates[0] == pytest.approx(1.0, abs=1e-9)

    def test_budget_monotonicity(self):
        block = build_l2_block_model(10, 0.0)
        small = coercivity_profile(block.candidate, block.system, [1.0],
                                   direction_budget=8, seed=5)
        large = coercivity_profile(block.candidate, block.system, [1.0],
                                   direction_budget=32, seed=5)
        assert large.inf_estimates[0] <= small.inf_estimates[0]
        assert large.sup_estimates[0] >= small.sup_estimates[0]
