import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nclyap import systems
from nclyap.models import build_blowup_example, build_linear, build_scalar_example
from nclyap.systems import (
    DisturbanceSet,
    DisturbanceSignal,
    SystemModel,
    check_axioms,
    check_homogeneity,
    flow,
    flow_batch,
)

from test_acceptance import zoo_entries


def decaying_model():
    return SystemModel(
        name="xdot=-x", dim=1, disturbance_set=DisturbanceSet.real_line(),
        rhs=lambda x, d: -x, homogeneous=True, meta={"kind": "test-decay"},
    )


class TestDisturbanceSignal:
    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            DisturbanceSignal((1.0, 2.0), (0.0, 1.0))

    def test_value_lookup_right_open(self):
        d = DisturbanceSignal((0.0, 1.0, 2.0), ("a", "b", "c"))
        assert d(0.0) == "a"
        assert d(0.999) == "a"
        assert d(1.0) == "b"
        assert d(2.0) == "c"
        assert d(100.0) == "c"
        assert d.values[-1] == "c"

    def test_shift_by_zero_is_identity(self):
        d = DisturbanceSignal((0.0, 1.0), (1.0, 2.0))
        assert d.shift(0.0) is d

    def test_shift_drops_early_breakpoints(self):
        d = DisturbanceSignal((0.0, 1.0, 2.0), ("a", "b", "c"))
        s = d.shift(1.5)
        assert s.breakpoints == (0.0, 0.5)
        assert s.values == ("b", "c")

    def test_shift_past_all_breakpoints(self):
        d = DisturbanceSignal((0.0, 1.0), (1.0, 7.0))
        s = d.shift(5.0)
        assert s.breakpoints == (0.0,)
        assert s.values == (7.0,)

    def test_concat_constant_with_itself(self):
        d = DisturbanceSignal.constant(3.0)
        c = d.concat(d, 1.0)
        assert all(c(t) == 3.0 for t in (0.0, 0.5, 1.0, 2.0))

    def test_concat_two_constants(self):
        c = DisturbanceSignal.constant("a").concat(DisturbanceSignal.constant("b"), 1.0)
        assert c.breakpoints == (0.0, 1.0)
        assert c.values == ("a", "b")

    def test_shift_after_concat_recovers_second_signal(self):
        d1 = DisturbanceSignal((0.0, 0.3), (1.0, 2.0))
        d2 = DisturbanceSignal((0.0, 0.7, 1.1), (5.0, 6.0, 7.0))
        back = d1.concat(d2, 1.0).shift(1.0)
        for t in np.linspace(0, 3, 31):
            assert back(float(t)) == d2(float(t))

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0, max_value=6))
    @example(cut=0.9638454296688449, t=0.5)  # (cut + 0.5) - cut != 0.5 in floats
    @settings(max_examples=60)
    def test_concat_shift_property(self, cut, t):
        d1 = DisturbanceSignal((0.0, 1.0), (1.0, -1.0))
        d2 = DisturbanceSignal((0.0, 0.5), (2.0, 3.0))
        assert d1.concat(d2, cut).shift(cut)(t) == d2(t)

    def test_rejects_non_finite_float_values(self):
        for bad in (float("nan"), float("inf"), np.float64(-np.inf)):
            with pytest.raises(ValueError):
                DisturbanceSignal.constant(bad)
        # mode indices and labels are not floats and pass unchecked
        assert DisturbanceSignal((0.0, 1.0), (1, "b")).values == (1, "b")

    def test_json_roundtrip(self):
        d = DisturbanceSignal((0.0, 1.5), (0.25, -2.0))
        back = DisturbanceSignal.from_json(d.to_json())
        assert back == d


class TestFlow:
    def test_closed_form_decay(self):
        traj = flow(decaying_model(), 1.0, np.array([1.0]), step=1e-3)
        assert traj.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_zero_horizon_is_identity(self):
        x = np.array([0.7])
        traj = flow(decaying_model(), 0.0, x)
        assert traj.times.tolist() == [0.0]
        assert traj.states[0][0] == x[0]

    def test_exponential_growth_variant(self):
        model = build_scalar_example("ii")
        traj = flow(model, 1.0, np.array([1.0]), DisturbanceSignal.constant(1.0), step=1e-3)
        assert traj.final_state[0] == pytest.approx(np.e, abs=1e-8)

    def test_propagator_matches_rk4(self):
        a = np.array([[-0.3, 1.0], [-1.0, -0.3]])
        lin = build_linear(a)
        rk = SystemModel("rk", 2, DisturbanceSet.interval(0, 0),
                         rhs=lambda x, d: x @ a.T)
        x0 = np.array([1.0, -0.5])
        t1 = flow(lin, 2.0, x0, step=1e-2)
        t2 = flow(rk, 2.0, x0, step=1e-3)
        np.testing.assert_allclose(t1.final_state, t2.final_state, atol=1e-9)

    def test_escape_is_reported_not_raised(self):
        model = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                            rhs=lambda x, d: x**3)
        traj = flow(model, 5.0, np.array([2.0]), step=1e-3)
        assert traj.escaped is not None
        lo, hi = traj.escaped
        assert 0 <= lo < hi <= 5.0
        assert np.all(np.isfinite(traj.states))

    def test_non_finite_start_state_raises(self):
        # a NaN start must not pass as a finite escape at the first step
        model = build_scalar_example("iv")
        for bad in ([np.nan], [np.inf]):
            with pytest.raises(ValueError):
                flow(model, 1.0, bad, step=0.1)

    def test_segment_split_at_breakpoints(self):
        model = build_scalar_example("ii")
        d = DisturbanceSignal((0.0, 0.35), (1.0, -1.0))
        traj = flow(model, 1.0, np.array([1.0]), d, step=1e-3)
        expected = np.exp(0.35) * np.exp(-0.65)
        assert traj.final_state[0] == pytest.approx(expected, abs=1e-9)

    def test_csv_has_disturbance_column(self):
        model = build_scalar_example("ii")
        traj = flow(model, 0.1, np.array([1.0]), DisturbanceSignal.constant(2.0), step=0.05)
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "t,x_1,d"
        assert lines[1].endswith(",2.0")


def assert_same_trajectory(got, want):
    """Bit-for-bit equality of two trajectories' times, states, norms and escape."""
    assert got.escaped == want.escaped
    for a, b in ((got.times, want.times), (got.states, want.states), (got.norms, want.norms)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFlowBatch:
    def test_rows_equal_solo_flows_on_the_zoo(self):
        for name, model, kw in zoo_entries():
            rng = np.random.default_rng(11)
            X = rng.normal(size=(5, model.dim))
            X *= kw["radius"] * rng.uniform(0.5, 2.0, size=(5, 1)) / np.linalg.norm(X, axis=1)[:, None]
            d = model.disturbance_set.sample_signal(rng, 1.0, pieces=4, magnitude=64.0)
            trajs = list(flow_batch(model, 1.0, X, d, step=2e-2))
            assert len(trajs) == 5, name
            for x, traj in zip(X, trajs):
                assert_same_trajectory(traj, flow(model, 1.0, x, d, step=2e-2))

    def test_blowup_escapes_and_convergence_in_one_batch(self):
        model, _ = build_blowup_example(3.0)
        grid = [(z1, z2) for z1 in np.linspace(-4.0, -1.0, 7)[::3]
                for z2 in np.linspace(-2.0, 2.0, 9)[::4]]
        safe = [(1.0, 1.0), (0.5, -1.5)]
        X = np.array(grid[:4] + safe + grid[4:])
        trajs = list(flow_batch(model, 6.0, X, step=2e-2))
        assert sum(t.escaped is not None for t in trajs) >= len(grid) // 2
        assert trajs[4].escaped is None and trajs[5].escaped is None
        for x, traj in zip(X, trajs):
            assert_same_trajectory(traj, flow(model, 6.0, x, step=2e-2))

    def test_chunked_batch_rows_equal_solo_flows(self, monkeypatch):
        # scalar (ii) under |d| up to 64 escapes from some rows and not others
        model = build_scalar_example("ii")
        d = DisturbanceSignal((0.0, 0.25, 0.5), (64.0, -8.0, 64.0))
        X = np.array([[1.0], [-1e-6], [0.0], [3.0], [1e-9]])
        solo = [flow(model, 1.0, x, d, step=1e-2) for x in X]
        assert any(t.escaped is not None for t in solo)
        assert any(t.escaped is None for t in solo)
        for rows in (1, 2):
            monkeypatch.setattr(systems, "_CHUNK_BYTES", rows * 8 * 101)  # 101 nodes, dim 1
            for traj, want in zip(flow_batch(model, 1.0, X, d, step=1e-2), solo):
                assert_same_trajectory(traj, want)

    def test_bad_input_raises(self):
        model = build_linear([[-1.0, 0.0], [0.0, -2.0]])
        for bad, match in (
            (np.ones(2), "shape"),            # not 2-D
            (np.ones((1, 2, 1)), "shape"),    # not 2-D
            (np.ones((3, 1)), "shape"),       # columns other than dim
            (np.ones((3, 3)), "shape"),
            (np.ones((0, 2)), "at least one"),
            ([[1.0, np.nan]], "finite"),
            ([[0.0, 0.0], [np.inf, 1.0]], "finite"),
        ):
            with pytest.raises(ValueError, match=match):
                flow_batch(model, 1.0, bad)


class TestAxioms:
    def test_linear_model_passes(self):
        report = check_axioms(decaying_model(), sample_budget=8, seed=1)
        assert report.identity_max == 0.0
        assert report.causality_max == 0.0
        assert report.cocycle_max <= 1e-6
        assert report.passed(1e-6)

    def test_propagator_model_passes_tight(self):
        lin = build_linear([[-1.0, 2.0], [0.0, -2.0]])
        report = check_axioms(lin, sample_budget=8, seed=2)
        assert report.cocycle_max <= 1e-10

    def test_cocycle_fourth_order_in_step(self):
        # halving the step must shrink the cocycle residual by >= 8 on a
        # smooth nonlinear model
        model = SystemModel("cubic", 1, DisturbanceSet.interval(-1, 1),
                            rhs=lambda x, d: -x + 0.3 * x**3 + 0.1 * d)
        coarse = check_axioms(model, sample_budget=6, seed=3, step=0.1, radius=0.9)
        fine = check_axioms(model, sample_budget=6, seed=3, step=0.05, radius=0.9)
        assert coarse.cocycle_max > 0
        assert fine.cocycle_max <= coarse.cocycle_max / 8.0

    def test_escaped_samples_are_excluded_and_counted(self):
        model = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                            rhs=lambda x, d: 1e5 * x**3)
        report = check_axioms(model, sample_budget=5, seed=4, radius=5.0, t_max=0.5)
        assert report.escaped_excluded > 0


class TestHomogeneity:
    def test_linear_models_are_homogeneous(self):
        report = check_homogeneity(decaying_model(), sample_budget=10, seed=5)
        assert report.max_residual <= 1e-8

    def test_propagator_model_homogeneous(self):
        lin = build_linear([[-0.5, 1.0], [0.0, -1.5]])
        report = check_homogeneity(lin, sample_budget=10, seed=6)
        assert report.max_residual <= 1e-10

    def test_scalar_variant_i_fails(self):
        model = build_scalar_example("i")
        report = check_homogeneity(model, sample_budget=12, seed=7,
                                   radius=1.5, lambda_max=2.0)
        assert report.max_residual > 1e-3
        assert report.worst is not None

    def test_zero_scaling_stays_at_equilibrium(self):
        model = build_scalar_example("i")
        traj = flow(model, 1.0, np.array([0.0]), DisturbanceSignal.constant(2.0))
        assert np.all(traj.states == 0.0)
