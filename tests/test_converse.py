import numpy as np
import pytest

from nclyap.comparison import KLSurface, identity_table
from nclyap.converse import (
    ConverseConfig,
    assemble_w,
    construct_vk_integral,
    construct_vk_max,
    estimate_flow_lipschitz,
    invert_table,
)
from nclyap.models import build_linear, build_switched_linear
from nclyap.systems import DisturbanceSet, EscapeError, SystemModel, flow


def identity_config(**kw):
    defaults = dict(rho=identity_table(12.0), alpha1=identity_table(12.0),
                    k_max=4, disturbance_budget=2, quadrature_step=1e-3)
    defaults.update(kw)
    return ConverseConfig(**defaults)


def decay_linear():
    return build_linear([[-1.0]])


class TestFlowLipschitz:
    def test_contraction_has_unit_constant(self):
        L = estimate_flow_lipschitz(decay_linear(), R=2.0, tau=1.0, budget=6, seed=0)
        assert L == pytest.approx(1.0, abs=1e-9)

    def test_expansion_reaches_e(self):
        grow = build_linear([[1.0]])
        L = estimate_flow_lipschitz(grow, R=1.0, tau=1.0, budget=6, seed=0)
        assert L == pytest.approx(np.e, rel=1e-6)

    def test_identity_flow_exactly_one(self):
        frozen = build_linear([[0.0]])
        L = estimate_flow_lipschitz(frozen, R=1.0, tau=2.0, budget=4, seed=0)
        assert L == 1.0

    def test_escape_is_hard_error(self):
        blow = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                           rhs=lambda x, d: x**5)
        with pytest.raises(EscapeError):
            estimate_flow_lipschitz(blow, R=20.0, tau=2.0, budget=4, seed=0)

    def test_escape_witness_is_the_escaped_row(self):
        # x' = 50 x^2 escapes from x > 0 alone; the first pair is (x, -x)
        # with x < 0, so only its partner escapes
        square = SystemModel("square", 1, DisturbanceSet.interval(0, 0),
                             rhs=lambda x, d: 50.0 * x * x)
        with pytest.raises(EscapeError) as err:
            estimate_flow_lipschitz(square, R=1.0, tau=1.0, budget=2, seed=0)
        x, d, bracket = err.value.witness
        assert x[0] > 0.0
        assert flow(square, 1.0, x, d).escaped == bracket

    def test_basis_escape_witness_carries_its_bracket(self):
        grow = build_linear([[40.0]])
        with pytest.raises(EscapeError) as err:
            estimate_flow_lipschitz(grow, R=1.0, tau=1.0, budget=2, seed=0)
        e, d, bracket = err.value.witness
        assert flow(grow, 1.0, e, d).escaped == bracket


class TestVkIntegral:
    def test_golden_value_at_e(self):
        # closed form: int_0^{ln x} (x e^{-t} - 1) dt = x - 1 - ln x
        vk = construct_vk_integral(decay_linear(), 1, identity_config())
        got = vk(np.array([np.e]))
        assert got == pytest.approx(np.e - 2.0, abs=1e-4)

    def test_horizon_formula(self):
        cfg = identity_config()
        assert cfg.horizon(1.0, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_inside_clamp_radius(self):
        vk = construct_vk_integral(decay_linear(), 2, identity_config())
        # rho = id: the clamp kills everything below 1/k for a
        # non-increasing norm
        assert vk(np.array([0.4])) == 0.0
        assert vk(np.array([0.0])) == 0.0

    def test_positive_above_clamp_radius(self):
        vk = construct_vk_integral(decay_linear(), 2, identity_config())
        assert vk(np.array([0.8])) > 0.0

    def test_upper_bound_alpha1(self):
        cfg = identity_config()
        vk = construct_vk_integral(decay_linear(), 3, cfg)
        for x in (0.5, 1.0, 2.0, 4.0):
            assert vk(np.array([x])) <= cfg.alpha1(x) + 1e-3

    def test_quadrature_check_flag(self):
        vk = construct_vk_integral(decay_linear(), 1, identity_config())
        value, flagged = vk.value_checked(np.array([2.0]))
        assert not flagged
        assert value == pytest.approx(2.0 - 1.0 - np.log(2.0), abs=1e-4)

    def test_escape_refutes_premise(self):
        blow = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                           rhs=lambda x, d: x**3)
        vk = construct_vk_integral(blow, 1, identity_config())
        with pytest.raises(EscapeError):
            vk(np.array([3.0]))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            construct_vk_integral(decay_linear(), 0, identity_config())

    def test_signal_set_frozen_across_states(self, monkeypatch):
        # V_k maximises over one fixed family: x and 4x see the same signals
        import nclyap.converse as converse

        seen = []

        def recording_flow(model, t, x, d=None, **kw):
            seen.append(d)
            return flow(model, t, x, d, **kw)

        monkeypatch.setattr(converse, "flow", recording_flow)
        sw = build_switched_linear([[[-1.0, 0.0], [0.0, -2.0]], [[-1.5, 0.5], [0.0, -0.8]]])
        vk = construct_vk_integral(sw.system, 2, identity_config(disturbance_budget=4))
        x = np.array([0.6, 0.3])
        vk(x)
        near = list(seen)
        seen.clear()
        vk(4.0 * x)
        assert len(near) == 6  # two corner modes, four random patterns
        assert seen == near


class TestVkMax:
    def test_golden_value_from_oracle(self):
        # 1-D maximization oracle on e^{s/2} max(2 e^{-s} - 1, 0): the
        # objective is decreasing, so the max sits at s = 0 with value
        # G_1(2) = 1 (frozen golden value)
        s = np.linspace(0.0, 5.0, 200001)
        oracle = float(np.max(np.exp(0.5 * s) * np.maximum(2 * np.exp(-s) - 1, 0)))
        assert oracle == pytest.approx(1.0, abs=1e-12)
        vk = construct_vk_max(decay_linear(), 1, identity_config(eta=0.5))
        assert vk(np.array([2.0])) == pytest.approx(oracle, abs=1e-6)

    def test_zero_below_clamp(self):
        vk = construct_vk_max(decay_linear(), 1, identity_config(eta=0.5))
        assert vk(np.array([0.9])) == 0.0

    def test_s_zero_term_is_a_floor(self):
        from nclyap.comparison import gk_threshold

        vk = construct_vk_max(decay_linear(), 2, identity_config(eta=0.25))
        for x in (0.7, 1.5, 3.0):
            floor = gk_threshold(2, x)
            assert vk(np.array([x])) >= floor - 1e-12

    def test_growing_modes_can_beat_s_zero(self):
        # slow decay plus strong eta: the weighted tail wins over s = 0
        slow = build_linear([[-0.1]])
        vk = construct_vk_max(slow, 1, identity_config(eta=0.9))
        x = np.array([2.0])
        from nclyap.comparison import gk_threshold

        assert vk(x) > gk_threshold(1, 2.0)

    def test_budget_monotonicity(self):
        # the sampled max over a frozen signal set never decreases as the
        # disturbance budget grows (the signal list is prefix-stable)
        sw = build_switched_linear([[[-1.0, 0.5], [0.0, -0.5]], [[-0.3, 0.0], [1.0, -1.0]]])
        small = construct_vk_integral(sw.system, 2, identity_config(disturbance_budget=2))
        large = construct_vk_integral(sw.system, 2, identity_config(disturbance_budget=8))
        rng = np.random.default_rng(5)
        for _ in range(6):
            u = rng.normal(size=2)
            x = u / np.linalg.norm(u) * rng.uniform(0.6, 2.0)
            assert large(x) >= small(x) - 1e-12


class TestAssembleW:
    def test_zero_at_origin_positive_on_grid(self):
        W = assemble_w(decay_linear(), identity_config(quadrature_step=2e-3))
        assert W(np.array([0.0])) == 0.0
        for x in (0.5, 1.0, 2.0, 4.0):
            assert W(np.array([x])) > 0.0

    def test_weights_match_formula(self):
        cfg = identity_config()
        W = assemble_w(decay_linear(), cfg)
        for k in range(1, cfg.k_max + 1):
            M_kk = W.lipschitz[(round(float(k), 12), k)]
            assert W.weights[k - 1] == pytest.approx(2.0 ** (-k) / (1.0 + M_kk))

    def test_psi1_truncation_boundary(self):
        # rho = id, k_max = 4: the truncated floor vanishes exactly on
        # [0, 1/4] and is positive beyond
        W = assemble_w(decay_linear(), identity_config())
        assert W.psi1(0.2) == 0.0
        assert W.psi1(0.25) == 0.0
        assert W.psi1(0.3) > 0.0

    def test_nonincreasing_along_flow_with_floor_rate(self):
        cfg = identity_config(quadrature_step=2e-3)
        W = assemble_w(decay_linear(), cfg)
        model = decay_linear()
        # W never increases between samples, and small forward differences
        # obey the truncated decay floor (with equality here, so the states
        # must come from the exact propagator and h must stay small)
        sample_ts = [0.0, 0.5, 1.0, 1.5]
        h = 1e-3
        prev = None
        for t0 in sample_ts:
            x0 = flow(model, t0, np.array([2.0]), step=0.1).final_state
            x1 = flow(model, t0 + h, np.array([2.0]), step=0.1).final_state
            w0, w1 = W(x0), W(x1)
            if prev is not None:
                assert w0 <= prev + 1e-9
            prev = w0
            quotient = (w1 - w0) / h
            assert quotient <= -W.psi1(float(np.linalg.norm(x0))) + 1e-3

    def test_export_roundtrip(self):
        import json

        W = assemble_w(decay_linear(), identity_config())
        csv = W.export_csv([np.array([0.5]), np.array([1.0])])
        assert csv.splitlines()[0] == "x_1,W"
        meta = json.loads(W.export_metadata())
        assert len(meta["weights"]) == 4
        assert meta["kind"] == "integral"


class TestSwitchedConverse:
    def make_pair(self):
        return build_switched_linear([
            [[-1.0, 0.0], [0.0, -2.0]],
            [[-1.5, 0.5], [0.0, -0.8]],
        ])

    def test_vk_bounds_on_switched_pair(self):
        from nclyap.probes import probe_attractivity

        sw = self.make_pair()
        probe = probe_attractivity(sw.system, "UGAS", r_grid=(0.5, 1.0, 2.0),
                                   budget=6, horizon=12.0, seed=0, step=2e-2)
        assert probe.verdict == "consistent"
        cfg = ConverseConfig.from_kl_bound(
            probe.tables["beta"], k_max=3, disturbance_budget=6,
            quadrature_step=2e-3, seed=0)
        vk = construct_vk_integral(sw.system, 2, cfg)
        rng = np.random.default_rng(1)
        clamp = float(invert_table(cfg.rho)(1.0 / 2.0))
        for _ in range(25):
            u = rng.normal(size=2)
            x = u / np.linalg.norm(u) * rng.uniform(0.1, 2.0)
            val = vk(x)
            assert val <= cfg.alpha1(np.linalg.norm(x)) + 1e-3
            if np.linalg.norm(x) > clamp:
                assert val > 0.0

    def test_vk_lipschitz_on_pairs(self):
        from nclyap.probes import probe_attractivity

        sw = self.make_pair()
        probe = probe_attractivity(sw.system, "UGAS", r_grid=(0.5, 1.0, 2.0),
                                   budget=6, horizon=12.0, seed=0, step=2e-2)
        cfg = ConverseConfig.from_kl_bound(
            probe.tables["beta"], k_max=2, disturbance_budget=6,
            quadrature_step=2e-3, seed=0, R=1.5)
        k = 2
        vk = construct_vk_integral(sw.system, k, cfg)
        R = 1.5
        T = cfg.horizon(R, k)
        L = estimate_flow_lipschitz(sw.system, R, T, budget=10, seed=3, step=2e-3)
        M = T * L
        rng = np.random.default_rng(2)
        for _ in range(60):
            u = rng.normal(size=2)
            v = rng.normal(size=2)
            x = u / np.linalg.norm(u) * rng.uniform(0.1, R)
            y = v / np.linalg.norm(v) * rng.uniform(0.1, R)
            lhs = abs(vk(x) - vk(y))
            assert lhs <= M * np.linalg.norm(x - y) * 1.01 + 1e-9
