import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nclyap.models import (
    blowup_construction,
    build_blowup_example,
    build_l2_block_model,
    build_linear,
    build_scalar_example,
    build_switched_linear,
    build_ugatt_example,
    evolve,
    model_from_descriptor,
)
from nclyap.systems import DisturbanceSet, DisturbanceSignal, EscapeError, SystemModel, flow

from _oracles import exact_lambda_min_normalized, integer_lyapunov_block


class TestScalarExamples:
    def test_variant_ii_closed_form(self):
        model = build_scalar_example("ii")
        traj = flow(model, 1.0, [1.0], DisturbanceSignal.constant(2.0), step=1e-3)
        assert traj.final_state[0] == pytest.approx(np.exp(2.0), abs=1e-7)

    def test_variant_i_equilibrium(self):
        model = build_scalar_example("i")
        traj = flow(model, 2.0, [0.0], DisturbanceSignal.constant(5.0))
        assert np.all(traj.states == 0.0)

    def test_variant_iv_growth_at_zero_disturbance(self):
        model = build_scalar_example("iv")
        traj = flow(model, 1.0, [1.0], DisturbanceSignal.constant(0.0), step=1e-3)
        assert traj.final_state[0] == pytest.approx(np.e, abs=1e-7)

    def test_variant_iii_kink_active_above_one(self):
        model = build_scalar_example("iii")
        lo = model.rhs(np.array([0.5]), 10.0)[0]
        hi = model.rhs(np.array([1.5]), 10.0)[0]
        assert lo == pytest.approx(0.5 / 11.0)
        assert hi == pytest.approx(1.5 / 11.0 + 10.0 * 0.5)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            build_scalar_example("v")


class TestUgattExample:
    def test_origin_stays(self):
        model = build_ugatt_example()
        traj = flow(model, 1.0, [0.0, 0.0], DisturbanceSignal.constant(7.0))
        assert np.all(traj.states == 0.0)

    def test_y_hits_zero_in_finite_time(self):
        model = build_ugatt_example()
        traj = flow(model, 2.0, [0.0, 1.0], DisturbanceSignal.constant(0.0), step=2e-5)
        idx = np.searchsorted(traj.times, 1.9)
        assert abs(traj.states[idx, 1]) <= 1e-6

    def test_transient_grows_with_disturbance_strength(self):
        model = build_ugatt_example()
        peaks = []
        for K in (10.0, 100.0):
            traj = flow(model, 2.0, [1.0, 1.0], DisturbanceSignal.constant(K), step=1e-4)
            peaks.append(np.abs(traj.states[:, 0]).max())
        assert peaks[1] > peaks[0] > 1.0


class TestBlowupExample:
    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            build_blowup_example(0.1)

    def test_escape_region(self):
        model, _ = build_blowup_example(3.0)
        for z0 in [(-1.0, 2.0), (-4.0, -2.0), (-2.5, 0.0)]:
            traj = flow(model, 12.0, np.array(z0), step=1e-2)
            assert traj.escaped is not None
            lo, hi = traj.escaped
            assert np.isfinite(lo) and np.isfinite(hi) and lo < hi

    def test_safe_region_converges(self):
        model, _ = build_blowup_example(3.0)
        traj = flow(model, 15.0, np.array([1.0, 1.0]), step=5e-3)
        assert traj.escaped is None
        assert model.norm(traj.final_state) < 0.01

    def test_origin_is_a_true_equilibrium(self):
        # the time reparametrization must not poison the field at 0
        model, cand = build_blowup_example(3.0)
        rhs0 = model.rhs(np.zeros(2), 0.0)
        assert np.all(np.isfinite(rhs0)) and np.all(rhs0 == 0.0)
        traj = flow(model, 1.0, np.zeros(2), step=1e-2)
        assert np.all(traj.states == 0.0)
        assert cand(np.zeros(2)) == 0.0

    def test_decay_rate_dominates_norm_outside_ball(self):
        # along the reparametrized field, dV <= -||z|| for ||z|| >= 2
        data = blowup_construction(3.0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            th = rng.uniform(0, 2 * np.pi)
            r = rng.uniform(2.0, 8.0)
            z = np.array([r * np.cos(th), r * np.sin(th)])
            vdot = float(data.h(z) * data.vdot_along_F(z))
            assert vdot <= -np.linalg.norm(z) + 1e-9

    def test_decay_rate_holds_at_large_states(self):
        # log cosh of |x1| or |z2| past 710 must not overflow: V, F2 and h
        # stay finite and quiet, and dV <= -||z|| still holds there
        data = blowup_construction(3.0)
        zs = [(1e6, 1e6), (800.0, -800.0), (-0.97, 800.0), (-0.5, -1e6)]
        zs += [(a, b) for a in (710.0, 3e3, 1e6) for b in (-1e6, -720.0, -0.5, 0.0, 2.0, 900.0)]
        zs += [(a, b) for a in (-0.9, 0.0, 5.0) for b in (-1e6, -711.0, 750.0, 4e5)]
        zs = np.array(zs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, f, h, vdot = data.V(zs), data.F2(zs), data.h(zs), data.vdot_along_F(zs)
        assert np.all((0.0 < v) & (v < 3.0)) and np.all(np.isfinite(f))
        assert np.all(h * vdot <= -np.linalg.norm(zs, axis=1) * (1.0 - 1e-12))

    def test_huge_and_non_finite_rows_do_not_raise(self):
        # float math raises where numpy returns inf or nan (x ** 2, exp, cosh,
        # log1p(-1), 0 / 0); integrator stages do reach such states, so the
        # field must return there, row by row and batched alike
        data = blowup_construction(3.0)
        inf, nan = np.inf, np.nan
        wild = [(a, b) for a in (inf, -inf, nan, 1e300, -1e300, 0.0)
                for b in (inf, -inf, nan, 1e300, -1e300, 0.5)]
        # the seam z1 = -1, and x1 + c -> 0- at the edge of W's bump
        edges = [(-1.0, 0.5), (-1.0 + 1e-16, 0.5), (-1.0 + 1e-16, -1e300)]
        edges += [(np.expm1(-3.0 - 1e-15 * k), 0.25) for k in (0, 1, 4, 16)]
        zs = np.array(wild + edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (data.V, data.vdot_along_F, data.h, data.F2):
                batch = fn(zs)
                assert batch.shape == zs.shape[:1] + np.shape(fn(zs[0]))
                for z, want in zip(zs, batch):
                    np.testing.assert_array_equal(fn(z), want)
                assert np.all(np.isfinite(batch[len(wild):]))
        # the bump vanishes as x1 + c -> 0-: V is continuous there
        np.testing.assert_allclose(data.V(zs[-3:]), data.V(zs[-4]), rtol=1e-12)

    def test_overflowing_field_reports_an_escape(self):
        # one RK4 step of 0.1 from deep in the escape half-plane takes a stage
        # past float range; the field returns a non-finite row there, which
        # the flow turns into an escape
        data = blowup_construction(3.0)
        non_finite = []

        def rhs(z, _d):
            f = data.F2(z)
            non_finite.append(not np.isfinite(f).all())
            return f

        model = SystemModel("blowup", 2, DisturbanceSet.interval(0.0, 0.0), rhs=rhs)
        traj = flow(model, 12.0, [-4.0, -2.0], step=0.1)
        assert any(non_finite) and traj.escaped is not None

    def test_rate_matches_central_difference_of_v(self):
        # vdot_along_F is the derivative of V along F: a central difference
        # of V along F must agree, off the z1 = -1 seam; -1 < z1 < -0.95 is
        # the strip where W's bump eta is active
        data = blowup_construction(3.0)
        rng = np.random.default_rng(0)
        zs = np.concatenate([rng.uniform(-4.0, 4.0, size=(400, 2)),
                             np.stack([rng.uniform(-0.99, -0.955, 100),
                                       rng.uniform(-3.0, 3.0, 100)], axis=1)])
        zs = zs[np.abs(zs[:, 0] + 1.0) > 0.005]
        rates = data.vdot_along_F(zs)
        h = 1e-6
        for z, rate in zip(zs, rates):
            F = data.F2(z) / data.h(z)
            diff = (data.V(z + h * F) - data.V(z - h * F)) / (2 * h)
            assert rate == pytest.approx(diff, rel=1e-6, abs=1e-12)
            assert data.vdot_along_F(z) == rate  # a row alone, bit for bit

    def test_candidate_positive_and_bounded(self):
        _, cand = build_blowup_example(3.0)
        rng = np.random.default_rng(1)
        zs = rng.normal(scale=3.0, size=(500, 2))
        for z in zs:
            v = cand(z)
            assert 0.0 < v < 3.0 or np.allclose(z, 0)
            assert v <= cand.psi2(np.linalg.norm(z)) + 1e-12

    def test_noncoercivity_inf_collapses_left(self):
        # V approaches 1 + (2/pi) arctan(z2) as z1 -> -inf: inf over large
        # spheres stays bounded while the sup stays near 3
        _, cand = build_blowup_example(3.0)
        for R in (5.0, 10.0, 50.0):
            vals = [cand(np.array([-np.sqrt(R**2 - z2**2), z2]))
                    for z2 in np.linspace(-0.9 * R, 0.9 * R, 101)]
            assert min(vals) < 1.2
        # but psi1-style growth fails: inf does not grow with R
        assert cand.psi1 is None


class TestL2BlockModel:
    def test_block_shapes_and_eigs(self):
        block = build_l2_block_model(5, 0.0)
        for i in range(1, 6):
            A = block.generator[:i, :i]
            assert A.shape == (i, i)
            np.testing.assert_allclose(np.linalg.eigvals(A).real, -1.0, atol=1e-12)

    def test_operator_norm_below_two(self):
        block = build_l2_block_model(40, 0.0)
        for i in range(1, 41):
            assert np.linalg.norm(block.generator[:i, :i], 2) <= 2.0

    def test_lyapunov_inequality_strict(self):
        block = build_l2_block_model(8, 0.0)
        for i in range(1, 9):
            P = block.lyapunov_block(i)
            A = block.generator[:i, :i]
            Q = A.T @ P + P @ A + P
            assert np.linalg.eigvalsh(Q).max() < 0
            assert np.linalg.norm(P, 2) == pytest.approx(1.0, abs=1e-12)

    def test_one_solve_matches_per_block_solves(self):
        # block i's Lyapunov matrix is the leading corner of block n's; this
        # pins that the corners equal per-block solves bit for bit, blocks
        # 22-30 (where float lambda_min drifts off the exact value) included
        from scipy.linalg import solve_continuous_lyapunov

        n = 30
        block = build_l2_block_model(n, 0.0)
        lam = block.lambda_mins()
        for i in range(1, n + 1):
            M = np.diag(np.full(i, -0.5)) + np.diag(np.ones(i - 1), 1)
            P = solve_continuous_lyapunov(M.T, -np.eye(i))
            P = 0.5 * (P + P.T)
            P = P / np.linalg.norm(P, 2)
            assert np.array_equal(block.lyapunov_block(i), P), i
            assert lam[i - 1] == np.linalg.eigvalsh(P).min(), i

    @pytest.mark.parametrize("n", [12, 40])
    def test_v_matches_integer_oracle(self, n):
        block = build_l2_block_model(n, 0.0)
        Ps = []
        for i in range(1, n + 1):
            P = np.array(integer_lyapunov_block(i), dtype=float)
            Ps.append(P / np.linalg.norm(P, 2))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=block.dim)
            ref, start = 0.0, 0
            for i, P in enumerate(Ps, 1):
                xi = x[start:start + i]
                ref += xi @ P @ xi
                start += i
            assert abs(block.V(x) - ref) <= 1e-13 * ref
        assert block.V(np.zeros(block.dim)) == 0.0

    def test_v_is_nonnegative_along_witness_directions(self):
        # at n = 120 block 111's float form rounds below 0 along its own
        # smallest-eigenvalue direction; each block's form counts as >= 0
        block = build_l2_block_model(120, 0.0)
        for w in block.witness_directions():
            assert block.V(w / np.linalg.norm(w)) >= 0.0

    def test_v_rejects_bad_states(self):
        block = build_l2_block_model(5, 0.0)
        dim = block.dim
        for x in (np.ones(dim + 4), np.ones(dim - 1), np.ones((dim, 1)),
                  np.full(dim, np.nan), np.r_[np.inf, np.ones(dim - 1)]):
            with pytest.raises(ValueError):
                block.V(x)
        with pytest.raises(ValueError):
            block.candidate(np.ones(dim + 4))

    def test_lambda_min_matches_exact_oracle(self):
        block = build_l2_block_model(12, 0.0)
        lam = block.lambda_mins()
        for i in (1, 4, 8, 12):
            assert lam[i - 1] == pytest.approx(exact_lambda_min_normalized(i), rel=1e-6)

    def test_lambda_min_strictly_decreasing_oracle(self):
        vals = [exact_lambda_min_normalized(i) for i in range(1, 31)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[29] < 0.05

    def test_v_decays_like_exp_minus_t(self):
        block = build_l2_block_model(12, 0.0)
        model, cand = block.system, block.candidate
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=model.dim)
            v0 = cand(x)
            for t in (0.5, 1.0, 2.0):
                traj = flow(model, t, x, step=1e-2)
                assert cand(traj.final_state) <= np.exp(-t) * v0 * 1.001

    def test_epsilon_variant_decay_and_instability(self):
        block = build_l2_block_model(25, 0.25)
        model, cand = block.system, block.candidate
        wit = block.singular_direction(6.0)
        traj = flow(model, 6.0, wit, step=1e-2)
        growth = model.norm(traj.final_state)
        assert growth > 1.0  # exponential instability witness
        v0 = cand(wit)
        assert cand(traj.final_state) <= np.exp((2 * 0.25 - 1) * 6.0) * v0 * 1.001

    def test_lyapunov_matrix_is_rounded_binomial_sum(self):
        # P = int_0^inf e^{-t} e^{N^T t} e^{N t} dt entry by entry, not the
        # recurrence the build runs; n = 60 takes in blocks 32-60, where a
        # float Lyapunov solve is off in the last bits
        n = 60
        P = build_l2_block_model(n, 0.0).lyapunov
        for i in range(n):
            for j in range(n):
                exact = sum(math.comb(i + j - 2 * k, i - k) for k in range(min(i, j) + 1))
                assert P[i, j] == float(exact), (i, j)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            build_l2_block_model(3, 0.7)

    def test_rejects_n_past_float_range(self):
        with pytest.raises(ValueError, match="515"):
            build_l2_block_model(516)

    @pytest.mark.parametrize("eps", [0.0, 0.25])
    @pytest.mark.parametrize("t,step", [(0.7, 0.7), (2.0, 2.0), (1.37, 1e-2)])
    def test_flow_matches_per_block_exponentials(self, eps, t, step):
        # the triangular layout: block i is row i - 1 of the state's lower
        # triangle, and evolves by its own exponential expm(A_i t)
        from scipy.linalg import expm

        n = 12
        block = build_l2_block_model(n, eps)
        x = np.random.default_rng(7).normal(size=block.dim)
        ref, start = [], 0
        for i in range(1, n + 1):
            A = np.diag(np.full(i, -1.0 + eps)) + np.diag(np.ones(i - 1), 1)
            ref.append(expm(A * t) @ x[start:start + i])
            start += i
        ref = np.concatenate(ref)
        y = flow(block.system, t, x, step=step).final_state
        assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


    @pytest.mark.parametrize("eps", [0.0, 0.25])
    @pytest.mark.parametrize("t", [0.01, 0.37, 2.0, 10.0])
    def test_block_exponential_matches_decimal_series(self, eps, t):
        # expm(A_n t) is upper-triangular Toeplitz with e^{(-1+eps)t} t^k/k!
        # on the k-th superdiagonal; the series runs in 50 digits
        from decimal import Decimal, localcontext

        from nclyap.models import _block_exponential

        n = 40
        E = _block_exponential(n, eps, t)
        with localcontext() as ctx:
            ctx.prec = 50
            c = [(Decimal(-1.0 + eps) * Decimal(t)).exp()]
            for k in range(1, n):
                c.append(c[-1] * Decimal(t) / k)
            tol = Decimal(4e-16) * max(c)
            assert not np.tril(E, -1).any()
            for i, j in zip(*np.triu_indices(n)):
                assert abs(Decimal(float(E[i, j])) - c[j - i]) <= tol


class TestSwitchedLinear:
    def test_rejects_empty_mode_list(self):
        with pytest.raises(ValueError, match="at least one mode"):
            build_switched_linear([])
        with pytest.raises(ValueError, match="at least one mode"):
            model_from_descriptor({"kind": "switched_linear", "modes": []})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mode(self, bad):
        good, broken = [[-1.0, 0.0], [0.0, -1.0]], [[-1.0, bad], [0.0, -2.0]]
        with pytest.raises(ValueError, match="mode 1 has a non-finite entry"):
            build_switched_linear([good, broken])
        with pytest.raises(ValueError, match="mode 1 has a non-finite entry"):
            model_from_descriptor({"kind": "switched_linear", "modes": [good, broken]})
        with pytest.raises(ValueError, match="mode 0 has a non-finite entry"):
            build_linear(broken)
        with pytest.raises(ValueError, match="mode 0 has a non-finite entry"):
            model_from_descriptor({"kind": "linear", "a": broken})

    def test_single_mode_no_switch(self):
        from scipy.linalg import expm

        A = np.array([[-1.0, 1.0], [0.0, -2.0]])
        sw = build_switched_linear([A])
        d = DisturbanceSignal.constant(0)
        np.testing.assert_allclose(evolve(sw, d, 1.5), expm(A * 1.5), atol=1e-12)

    def test_two_modes_one_switch(self):
        from scipy.linalg import expm

        A0 = np.array([[-1.0, 0.0], [1.0, -1.0]])
        A1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sw = build_switched_linear([A0, A1])
        d = DisturbanceSignal((0.0, 0.6), (0, 1))
        got = evolve(sw, d, 1.0)
        want = expm(A1 * 0.4) @ expm(A0 * 0.6)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # random partitions, s = 0 and s > 0, against the ordered product
        rng = np.random.default_rng(11)
        for i in range(40):
            dim, n_modes, pieces = (int(v) for v in rng.integers(1, [5, 4, 6]))
            modes = [rng.normal(size=(dim, dim)) * 0.7 for _ in range(n_modes)]
            bps = (0.0, *np.sort(rng.uniform(0.05, 3.0, pieces - 1)).tolist())
            d = DisturbanceSignal(bps, tuple(rng.integers(n_modes, size=pieces).tolist()))
            t = float(rng.uniform(0.5, 3.5))
            s = 0.0 if i % 2 == 0 else float(rng.uniform(0.0, t))
            edges = [s, *d.switch_times(s, t), t]
            want = np.eye(dim)
            for a, b in zip(edges, edges[1:]):
                want = expm(modes[d.value_at(a)] * (b - a)) @ want
            got = evolve(build_switched_linear(modes), d, t, s)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_evolve_escape_raises(self):
        sw = build_switched_linear([[[30.0]]])
        d = DisturbanceSignal.constant(0)
        with pytest.raises(EscapeError) as err:
            evolve(sw, d, 1.0)
        e, signal, bracket = err.value.witness
        np.testing.assert_array_equal(e, [1.0])
        assert flow(sw.system, 1.0, e, signal, step=1.0).escaped == bracket

    def test_evolve_builds_one_exponential_per_mode_and_length(self, monkeypatch):
        import nclyap.models

        calls = []
        real = nclyap.models.expm

        def counting(M):
            calls.append(M)
            return real(M)

        monkeypatch.setattr(nclyap.models, "expm", counting)
        sw = build_switched_linear([[[-1.0, 0.0], [0.0, -2.0]], [[-1.5, 0.5], [0.0, -0.8]]])
        # eight quarter pieces alternating the modes, then a tenth on mode 0
        d = DisturbanceSignal(tuple(0.25 * k for k in range(9)), (0, 1) * 4 + (0,))
        evolve(sw, d, 2.0)
        assert len(calls) == 2
        calls.clear()
        evolve(sw, d, 2.1)
        assert len(calls) == 3

    def test_empty_interval_is_identity(self):
        sw = build_switched_linear([np.zeros((2, 2))])
        d = DisturbanceSignal.constant(0)
        np.testing.assert_allclose(evolve(sw, d, 2.0, 2.0), np.eye(2))

    def test_cocycle_identity_random_partitions(self):
        rng = np.random.default_rng(4)
        A0 = rng.normal(size=(3, 3)) * 0.5
        A1 = rng.normal(size=(3, 3)) * 0.5
        sw = build_switched_linear([A0, A1])
        for _ in range(10):
            bps = np.sort(rng.uniform(0.1, 2.9, 3))
            d = DisturbanceSignal((0.0, *bps), tuple(int(v) for v in rng.integers(2, size=4)))
            t, r, s = 3.0, float(rng.uniform(1.0, 2.0)), 0.5
            full = evolve(sw, d, t, s)
            split = evolve(sw, d, t, r) @ evolve(sw, d, r, s)
            np.testing.assert_allclose(full, split, atol=1e-10)

    def test_mode_index_validation(self):
        sw = build_switched_linear([np.zeros((2, 2))])
        d = DisturbanceSignal.constant(3)
        with pytest.raises(ValueError):
            evolve(sw, d, 1.0)

    def test_flow_uses_exact_propagator(self):
        A0 = np.array([[-1.0]])
        A1 = np.array([[-3.0]])
        sw = build_switched_linear([A0, A1])
        d = DisturbanceSignal((0.0, 0.5), (0, 1))
        traj = flow(sw.system, 1.0, [2.0], d, step=0.1)
        assert traj.final_state[0] == pytest.approx(2.0 * np.exp(-0.5) * np.exp(-1.5), abs=1e-12)


@pytest.mark.parametrize("kind", ["block", "switched"])
def test_flow_builds_each_step_map_once(kind):
    # models keep no cache: the flow kernel asks for one step map per
    # distinct (d value, step) pair of its node grid, and reuses it
    from collections import Counter
    from dataclasses import replace

    if kind == "block":
        system, d = build_l2_block_model(6, 0.25).system, DisturbanceSignal.constant(0.0)
    else:
        system = build_switched_linear([[[-1.0, 0.0], [0.0, -2.0]],
                                        [[-1.5, 0.5], [0.0, -0.8]]]).system
        d = DisturbanceSignal((0.0, 0.37, 1.1), (0, 1, 0))
    calls = Counter()

    def counting(dval, dt):
        calls[dval, dt] += 1
        return system.propagator(dval, dt)

    x = np.random.default_rng(0).normal(size=system.dim)
    traj = flow(replace(system, propagator=counting), 2.3, x, d, step=0.01)
    grid = {(d.value_at(t), h) for t, h in zip(traj.times, np.diff(traj.times).tolist())}
    assert calls.keys() == grid
    assert set(calls.values()) == {1}
    assert len(calls) < len(traj.times) - 1
    np.testing.assert_array_equal(traj.states, flow(system, 2.3, x, d, step=0.01).states)


class TestDescriptors:
    def test_roundtrip_all_kinds(self):
        descriptors = [
            {"kind": "scalar_example", "variant": "ii"},
            {"kind": "ugatt"},
            {"kind": "blowup", "c": 3.0},
            {"kind": "l2_block", "n": 3, "epsilon": 0.0},
            {"kind": "linear", "a": [[-1.0]]},
            {"kind": "switched_linear", "modes": [[[-1.0]], [[-2.0]]]},
        ]
        for desc in descriptors:
            model = model_from_descriptor(desc)
            assert model.meta["kind"] == desc["kind"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_descriptor({"kind": "nope"})


def test_rk4_and_l2_block_paths_never_import_scipy_linalg():
    # a fresh interpreter, since other test modules import scipy.linalg
    import nclyap

    code = (
        "import sys\n"
        "import nclyap\n"
        "from nclyap.models import build_l2_block_model, build_ugatt_example\n"
        "from nclyap.probes import probe_attractivity\n"
        "from nclyap.systems import flow\n"
        "probe_attractivity(build_ugatt_example(), 'UGAS', r_grid=(1.0,), budget=2,\n"
        "                   horizon=2.0, step=5e-2)\n"
        "block = build_l2_block_model(12)\n"
        "flow(block.system, 1.0, block.singular_direction(1.0), step=0.5)\n"
        "sys.exit('scipy.linalg' in sys.modules and 'scipy.linalg was imported')\n"
    )
    src = str(Path(nclyap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
