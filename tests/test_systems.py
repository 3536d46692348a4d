import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nclyap import systems
from nclyap.models import (build_blowup_example, build_linear, build_scalar_example,
                           build_switched_linear, build_ugatt_example)
from nclyap.systems import (
    DisturbanceSet,
    DisturbanceSignal,
    SystemModel,
    check_axioms,
    check_homogeneity,
    flow,
    flow_batch,
)

from test_acceptance import STABLE_PAIR, zoo_entries

# a stable mode and one whose first coordinate grows like e^{60 t}: fast
# enough that rows of the mixed-row property escape within its horizons
EXPANDING_PAIR = [
    [[-1.0, 0.0], [0.0, -2.0]],
    [[60.0, 1.0], [0.0, -1.0]],
]


def decaying_model():
    return SystemModel(
        name="xdot=-x", dim=1, disturbance_set=DisturbanceSet.real_line(),
        rhs=lambda x, d: -x, homogeneous=True, meta={"kind": "test-decay"},
    )


def beyond_unit_magnitude():
    """x' = -d x on D = [2, inf), which has no value within magnitude 1: a
    probe given that magnitude draws its signals at the finite end, d = 2."""
    return SystemModel("decay", 1, DisturbanceSet.interval(2.0, np.inf), rhs=lambda x, d: -d * x)


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

    def test_rejects_non_finite_breakpoints(self):
        # a NaN breakpoint passes every ordering check, and value_at then
        # reads the piece that starts there
        for bps in ((0.0, 1.0, np.nan), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                DisturbanceSignal(bps, tuple(range(len(bps))))

    def test_json_roundtrip(self):
        d = DisturbanceSignal((0.0, 1.5), (0.25, -2.0))
        back = DisturbanceSignal.from_json(d.to_json())
        assert back == d


class TestDisturbanceSet:
    def test_interval_rejects_nan_or_reversed_bounds(self):
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (2.0, 1.0)):
            with pytest.raises(ValueError, match="lo <= hi"):
                DisturbanceSet.interval(lo, hi)
        # infinite and equal bounds stay legal
        assert DisturbanceSet.real_line().corner_values() == [-1.0, 0.0, 1.0]
        assert DisturbanceSet.interval(-np.inf, 0.5).corner_values(2.0) == [-2.0, 0.0, 0.5]
        assert DisturbanceSet.interval(1.0, 1.0).corner_values() == [1.0]

    def test_membership(self):
        modes = DisturbanceSet.finite(range(2))
        assert 1 in modes and 0.0 in modes and 2 not in modes and 0.5 not in modes
        unit = DisturbanceSet.interval(0.0, 1.0)
        assert 0.0 in unit and 1 in unit and 1.5 not in unit and "a" not in unit
        assert -1e300 in DisturbanceSet.real_line()

    @pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (0.0, 5.0)])
    def test_bounded_interval_is_probed_over_itself(self, lo, hi):
        # finite bounds are never clipped: the sweep magnitude only stands in
        # for an infinite bound
        dset = DisturbanceSet.interval(lo, hi)
        model = SystemModel("growth", 1, dset, rhs=lambda x, d: d * x)
        for magnitude in (1.0, 16.0):
            assert dset.corner_values(magnitude) == [lo, hi]
            sigs = dset.probe_signals(np.random.default_rng(0), 1.0, 6, magnitude=magnitude)
            assert all(v in dset for s in sigs for v in s.values)
        assert model.default_signal().values[0] in dset

    def test_half_infinite_interval_window(self):
        dset = DisturbanceSet.interval(2.0, np.inf)
        assert dset.corner_values(4.0) == [2.0, 4.0]
        with pytest.raises(ValueError, match=r"D = \[2.0, inf\].*magnitude 1.0"):
            dset.corner_values(1.0)
        model = SystemModel("growth", 1, dset, rhs=lambda x, d: d * x)
        assert model.default_signal().values == (2.0,)


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

    @pytest.mark.parametrize("t, step, name", [
        (np.nan, 1e-3, "horizon t"),
        (np.inf, 1e-3, "horizon t"),
        (1.0, np.nan, "step"),
        (1.0, np.inf, "step"),
    ])
    def test_non_finite_horizon_or_step_raises(self, t, step, name):
        with pytest.raises(ValueError, match=name):
            flow(build_scalar_example("iv"), t, [1.0], step=step)

    def test_every_node_of_a_scalar_propagator_flow_is_accurate(self):
        # node k is x0 advanced by a few exact maps at step 2^m, so rounding
        # does not pile up over the 4000 nodes: measured 1.0e-15 relative,
        # where one apply per node gave 1.3e-13
        traj = flow(build_linear([[-1.0]]), 4.0, [2.0], step=1e-3)
        want = 2.0 * np.exp(-traj.times)
        assert len(traj.times) == 4001
        assert np.max(np.abs(traj.states[:, 0] - want) / want) <= 2e-15

    def test_every_node_of_a_switched_mode_flow_is_accurate(self):
        # the basis flows of mode 1, A = [[-1.5, 0.5], [0, -0.8]], against
        # expm(A t): e^{-1.5 t} and e^{-0.8 t} on the diagonal and
        # (0.5 / 0.7) e^{-1.5 t} expm1(0.7 t) above it.  Measured 2.5e-15
        # relative with leaps of at most _LEAP_SECONDS; one apply per node
        # gave 4.9e-14, and leaps to 2.56 gave 3.7e-13, all of it expm(2.56 A)
        model = build_switched_linear(STABLE_PAIR).system
        first, second = flow_batch(model, 6.0, np.eye(2), DisturbanceSignal.constant(1),
                                   step=5e-3)
        t = first.times
        e1, e2 = np.exp(-1.5 * t), np.exp(-0.8 * t)
        for traj, want in ((first, np.stack([e1, 0 * t], axis=1)),
                           (second, np.stack([(0.5 / 0.7) * e1 * np.expm1(0.7 * t), e2], axis=1))):
            assert traj.times.tobytes() == t.tobytes()
            got, want = traj.states[want != 0], want[want != 0]
            assert np.max(np.abs(got - want) / want) <= 5e-15
        assert (first.states[:, 1] == 0.0).all()

    def test_expanding_propagator_escape_bracket(self):
        # from e_1 under the growing mode the norm is e^{60 t}, which passes
        # 1e12 at ln(1e12) / 60 = 0.460517
        model = build_switched_linear(EXPANDING_PAIR).system
        traj = flow(model, 2.0, [1.0, 0.0], DisturbanceSignal.constant(1), step=1e-3)
        lo, hi = traj.escaped
        assert lo < math.log(1e12) / 60 < hi
        assert (lo, hi) == pytest.approx((0.46, 0.461), abs=1e-12)
        assert traj.final_time == lo and traj.norms.max() <= 1e12

    @pytest.mark.parametrize("rate, t", [(60.0, 30.0), (2000.0, 4.0)])
    def test_bounded_row_under_an_expanding_mode_completes(self, rate, t):
        # from e_2 the norm is e^{-t}, though the other mode grows like
        # e^{rate t}: at rate 2000 every leap's map past 0.35 overflows, and
        # the row is stepped again one map per node instead of escaping
        traj = flow(build_linear([[rate, 0.0], [0.0, -1.0]]), t, [0.0, 1.0], step=1e-3)
        want = np.exp(-traj.times)
        assert traj.escaped is None and traj.final_time == t
        assert (traj.states[:, 0] == 0.0).all()
        assert np.max(np.abs(traj.states[:, 1] - want) / want) <= 5e-13

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

    def test_zoo_fields_take_one_value_per_row(self):
        # rhs(X, column) gives row b exactly as rhs(X[b:b+1], scalar) does
        for name, model, kw in zoo_entries():
            if model.rhs is None:
                continue
            rng = np.random.default_rng(5)
            X = rng.normal(size=(7, model.dim)) * 2.0
            column = np.array([[model.disturbance_set.sample_value(rng, 64.0)] for _ in X])
            got = model.rhs(X, column)
            assert got.shape == X.shape, name
            for b, v in enumerate(column[:, 0]):
                assert got[b:b + 1].tobytes() == model.rhs(X[b:b + 1], float(v)).tobytes(), name

    def test_rows_under_different_values_step_together(self):
        # six rows under six random signals on one breakpoint grid: one rhs
        # call per RK4 stage and node for all of them, each with a column of
        # the six rows' values, where one class per value made 24 calls a node
        calls = []
        base = build_ugatt_example()

        def counting(X, d):
            calls.append((len(X), np.shape(d)))
            return base.rhs(X, d)

        model = dataclasses.replace(base, rhs=counting)
        rng = np.random.default_rng(2)
        signals = [model.disturbance_set.sample_signal(rng, 1.0, pieces=4) for _ in range(6)]
        X = rng.normal(size=(6, 2)) * 0.5
        trajs = list(flow_batch(model, 1.0, X, signals, step=0.05))
        nodes = len(trajs[0].times) - 1
        assert nodes == 20 and all(tr.escaped is None for tr in trajs)
        assert calls == [(6, (6, 1))] * (4 * nodes)
        for x, d, traj in zip(X, signals, trajs):
            assert_same_trajectory(traj, flow(base, 1.0, x, d, step=0.05))

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

    def test_capped_applies_equal_uncapped_flows(self, monkeypatch):
        # a propagator apply takes in at most _APPLY_BYTES of states: the cap
        # splits a leap into more applies and moves no value
        model = build_switched_linear(STABLE_PAIR).system
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 2))
        d = model.disturbance_set.sample_signal(rng, 1.0, pieces=4)
        want = list(flow_batch(model, 1.0, X, d, step=0.01))
        sizes = []

        def counting(q, dt):
            advance = model.propagator(q, dt)

            def apply(Y):
                sizes.append(len(Y))
                return advance(Y)
            return apply

        monkeypatch.setattr(systems, "_APPLY_BYTES", 3 * 8 * 2)  # three states of dim 2
        got = list(flow_batch(dataclasses.replace(model, propagator=counting), 1.0, X, d,
                              step=0.01))
        assert max(sizes) == 3
        for traj, solo in zip(got, want):
            assert_same_trajectory(traj, solo)

    def test_bad_per_row_input_raises(self):
        model = build_linear([[-1.0]])
        X = [[1.0], [2.0]]
        with pytest.raises(ValueError, match="one horizon and one signal per row"):
            flow_batch(model, [1.0], X)
        with pytest.raises(ValueError, match="one horizon and one signal per row"):
            flow_batch(model, 1.0, X, [model.default_signal()] * 3)
        with pytest.raises(ValueError, match="horizon t"):
            flow_batch(model, [1.0, -0.5], X)

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


# models for the mixed-row property: vector fields (one with escapes beside
# completed rows, and the scalar examples' abs(d) and np.maximum on a column
# of values) and propagators (one expanding, whose rows escape beside
# completed ones), each with per-row signal values that matter
MIXED_MODELS = {
    "ugatt": (build_ugatt_example(), 2.0),
    "scalar-i": (build_scalar_example("i"), 4.0),
    "scalar-ii": (build_scalar_example("ii"), 4.0),
    "scalar-iii": (build_scalar_example("iii"), 4.0),
    "scalar-iv": (build_scalar_example("iv"), 4.0),
    "blowup": (build_blowup_example(3.0)[0], 1.0),
    "cubic": (SystemModel("cubic", 1, DisturbanceSet.interval(-1.0, 1.0),
                          rhs=lambda x, d: x**3 + d * x), 1.0),
    "switched": (build_switched_linear(STABLE_PAIR).system, 1.0),
    "linear": (build_linear([[-0.5, 1.0], [0.0, -1.5]]), 1.0),
    "expanding": (build_switched_linear(EXPANDING_PAIR).system, 1.0),
}


@st.composite
def mixed_rows(draw):
    """A model, a step and rows with their own start, horizon and signal:
    corner constants and random signals on two breakpoint grids, and
    horizons at 0, on a breakpoint or node, within 1e-12 of one, or anywhere."""
    name = draw(st.sampled_from(sorted(MIXED_MODELS)))
    model, magnitude = MIXED_MODELS[name]
    step = draw(st.sampled_from([0.05, 0.03, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dset = model.disturbance_set
    signals = [DisturbanceSignal.constant(v) for v in dset.corner_values(magnitude)]
    for span in (0.6, 1.0):
        signals += [dset.sample_signal(rng, span, pieces=4, magnitude=magnitude)
                    for _ in range(3)]
    count = draw(st.integers(1, 9))
    rows = []
    for _ in range(count):
        d = signals[draw(st.integers(0, len(signals) - 1))]
        edge = draw(st.sampled_from(d.breakpoints[1:] or (0.5,)))
        node = edge + draw(st.integers(1, 4)) * step
        t = draw(st.sampled_from([
            0.0, edge, edge + 1e-13, edge - 1e-13, node, node + 5e-13, node - 5e-13,
            float(rng.uniform(0.0, 1.2))]))
        x = rng.normal(size=model.dim) * draw(st.sampled_from([0.05, 1.0, 3.0]))
        rows.append((x, max(t, 0.0), d))
    return name, model, step, rows


@given(mixed_rows(), st.sampled_from([None, 1, 3]))
@settings(max_examples=150, deadline=None)
# expanding rows that escape inside a piece, at a piece's last node and
# after a switch, beside rows that complete within the same pieces: one
# ends at 0.44, just short of its escape, where a leap fills nodes past it
@example(("expanding", MIXED_MODELS["expanding"][0], 0.05, [
    ([1.0, 0.0], 1.0, DisturbanceSignal.constant(1)),
    ([1.0, 0.0], 1.0, DisturbanceSignal.constant(0)),
    ([0.05, 0.0], 0.3, DisturbanceSignal.constant(1)),
    ([1.0, 0.0], 0.44, DisturbanceSignal.constant(1)),
    ([3.0, 3.0], 1.2, DisturbanceSignal((0.0, 0.5), (0, 1))),
    ([1e-9, 1.0], 0.55, DisturbanceSignal((0.0, 0.5), (0, 1))),
    ([1.0, 0.0], 0.8, DisturbanceSignal((0.0, 0.5), (1, 0))),
]), None)
def test_mixed_rows_equal_solo_flows(case, chunk_rows):
    # each row of one call with per-row horizons and signals keeps the nodes,
    # steps and values of its own one-row flow, bit for bit, whatever chunks
    # the batch is cut into
    name, model, step, rows = case
    X = [x for x, _, _ in rows]
    solo = [flow(model, t, x, d, step=step) for x, t, d in rows]
    with pytest.MonkeyPatch.context() as mp:
        if chunk_rows is not None:
            nodes = max(len(tr.times) for tr in solo)
            mp.setattr(systems, "_CHUNK_BYTES", chunk_rows * 8 * nodes * model.dim)
        batch = list(flow_batch(model, [t for _, t, _ in rows], X, [d for _, _, d in rows],
                                step=step))
    assert len(batch) == len(rows), name
    for got, want in zip(batch, solo):
        assert got.signal is want.signal
        assert_same_trajectory(got, want)


def test_mixed_rows_escape_beside_completed_rows():
    # x' = x^3 + d x: the large starts escape, the small ones complete, under
    # corner and random signals and at horizons that end on and off nodes
    model, _ = MIXED_MODELS["cubic"]
    rng = np.random.default_rng(3)
    signals = [DisturbanceSignal.constant(-1.0), DisturbanceSignal.constant(1.0),
               model.disturbance_set.sample_signal(rng, 1.0, pieces=4)]
    rows = [(x, t, d) for x in (0.2, 3.0, -0.5, -4.0) for t in (0.0, 0.5, 0.77, 1.3)
            for d in signals]
    batch = list(flow_batch(model, [t for _, t, _ in rows], [[x] for x, _, _ in rows],
                            [d for _, _, d in rows], step=0.02))
    solo = [flow(model, t, [x], d, step=0.02) for x, t, d in rows]
    assert any(tr.escaped is not None for tr in solo)
    assert any(tr.escaped is None and tr.final_time > 1.0 for tr in solo)
    for got, want in zip(batch, solo):
        assert_same_trajectory(got, want)


class TestAxioms:
    def test_half_infinite_set_beyond_unit_magnitude(self):
        report = check_axioms(beyond_unit_magnitude(), 2)
        assert report.samples == 2 and report.passed(1e-6)

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

    def test_report_without_samples_does_not_pass(self):
        model = SystemModel("blow", 1, DisturbanceSet.interval(0, 0),
                            rhs=lambda x, d: 1e6 * x**3)
        report = check_axioms(model, sample_budget=4, seed=0)
        assert (report.samples, report.escaped_excluded) == (0, 4)
        assert not report.passed(1.0)


class TestHomogeneity:
    def test_half_infinite_set_beyond_unit_magnitude(self):
        report = check_homogeneity(beyond_unit_magnitude(), 2)
        assert report.samples == 2 and report.max_residual <= 1e-12

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
