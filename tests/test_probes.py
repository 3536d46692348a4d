import json

import numpy as np
import pytest

from nclyap import probes
from nclyap.comparison import identity_table, power_table
from nclyap.models import (
    build_l2_block_model,
    build_linear,
    build_scalar_example,
    build_switched_linear,
    build_ugatt_example,
)
from nclyap.probes import (
    ProbeReport,
    classify_rep,
    classify_rfc,
    decompose_sigma_chi,
    estimate_mu,
    estimate_switched_bound,
    probe_attractivity,
)
from nclyap.systems import DisturbanceSet, DisturbanceSignal, SystemModel, flow

from test_systems import beyond_unit_magnitude


class TestEstimateMu:
    def test_growth_variant_reaches_e(self):
        model = build_scalar_example("ii")
        mu = estimate_mu(model, (1.0,), (0.0, 1.0), budget=4, seed=0, step=1e-2)
        # constant d = 1 is in the corner set by construction
        assert mu.values[0, 1] >= np.e - 2e-2

    def test_tau_zero_column_is_identity(self):
        model = build_scalar_example("iv")
        mu = estimate_mu(model, (0.5, 1.0, 2.0), (0.0, 0.5), budget=3, seed=1)
        np.testing.assert_allclose(mu.values[:, 0], [0.5, 1.0, 2.0], rtol=1e-12)

    def test_saturating_variant_approaches_one(self):
        model = build_scalar_example("i")
        mu = estimate_mu(model, (0.1,), (0.0, 4.0), budget=4, seed=2,
                         magnitude=50.0, step=5e-3)
        assert 0.9 <= mu.values[0, -1] <= 1.001

    def test_budget_monotonicity(self):
        model = build_scalar_example("ii")
        small = estimate_mu(model, (1.0,), (0.0, 1.0), budget=3, seed=3)
        large = estimate_mu(model, (1.0,), (0.0, 1.0), budget=8, seed=3)
        assert np.all(large.values >= small.values - 1e-12)


class TestFourWayClassification:
    def test_variant_i_rfc_not_rep(self):
        model = build_scalar_example("i")
        assert classify_rfc(model, budget=4, seed=0, step=2e-2).verdict == "consistent"
        assert classify_rep(model, budget=4, seed=0, step=2e-2).verdict == "refuted"

    def test_variant_ii_neither(self):
        model = build_scalar_example("ii")
        rfc = classify_rfc(model, budget=4, seed=0, step=2e-2)
        assert rfc.verdict == "refuted"
        assert rfc.witnesses  # replayable constant-d witness
        assert classify_rep(model, budget=4, seed=0, step=2e-2).verdict == "refuted"

    def test_variant_iii_rep_not_rfc(self):
        model = build_scalar_example("iii")
        assert classify_rfc(model, budget=4, seed=0, step=2e-2).verdict == "refuted"
        assert classify_rep(model, budget=4, seed=0, step=2e-2).verdict == "consistent"

    def test_variant_iv_both(self):
        model = build_scalar_example("iv")
        assert classify_rfc(model, budget=4, seed=0, step=2e-2).verdict == "consistent"
        assert classify_rep(model, budget=4, seed=0, step=2e-2).verdict == "consistent"

    def test_stable_linear_is_consistent(self):
        lin = build_linear([[-1.0]])
        assert classify_rfc(lin, budget=4, seed=0).verdict == "consistent"
        assert classify_rep(lin, budget=4, seed=0).verdict == "consistent"

    @pytest.mark.parametrize("lo", [2.0, 0.0])
    def test_rfc_probes_a_bounded_set_up_to_its_bound(self, lo):
        # x' = d x on D = [lo, 5]: the corner d = 5 gives mu(2, 2) = 2 e^10
        model = SystemModel("growth", 1, DisturbanceSet.interval(lo, 5.0),
                            rhs=lambda x, d: d * x)
        report = classify_rfc(model, budget=2, seed=0)
        assert report.verdict == "consistent"
        assert report.tables["mu"][-1][-1] == pytest.approx(2.0 * np.exp(10.0), rel=1e-4)

    def test_half_infinite_set_beyond_unit_magnitude_is_swept_from_its_end(self):
        # x' = -d x on D = [2, inf): at magnitude 1 the window [2, 1] is
        # empty, so the sweep starts at the finite end, d = 2
        model = SystemModel("decay", 1, DisturbanceSet.interval(2.0, np.inf),
                            rhs=lambda x, d: -d * x)
        rfc = classify_rfc(model, budget=2, seed=0)
        assert rfc.verdict == "consistent"
        assert rfc.tables["magnitudes"] == [2.0, 4.0, 16.0, 64.0]
        rep = classify_rep(model, budget=2, seed=0)
        assert rep.verdict == "consistent"
        assert list(rep.tables["eps_delta"]["eps=0.5,h=0.5"]) == ["2.0", "10.0", "100.0", "1000.0"]
        # the equilibrium is checked at the first sweep magnitude, not at 1
        rep = classify_rep(model, budget=2, seed=0, magnitudes=(4.0, 16.0))
        assert list(rep.tables["eps_delta"]["eps=0.5,h=0.5"]) == ["4.0", "16.0"]

    def test_half_infinite_set_beyond_unit_magnitude_mu(self):
        # estimate_mu reads its one magnitude through the sweep rule: d = 2
        mu = estimate_mu(beyond_unit_magnitude(), (1.0,), (0.0, 1.0))
        assert mu.values.tolist() == [[1.0, 1.0]]

    def test_sweep_of_an_interval(self):
        assert DisturbanceSet.interval(2.0, np.inf).sweep((1.0, 1.5, 4.0)) == (2.0, 4.0)
        assert DisturbanceSet.interval(-np.inf, -3.0).sweep((1.0, 8.0)) == (3.0, 8.0)
        assert DisturbanceSet.real_line().sweep((1.0, 4.0, 1.0)) == (1.0, 4.0)
        with pytest.raises(ValueError, match="no value within any of the magnitudes"):
            DisturbanceSet.real_line().sweep((-1.0,))
        with pytest.raises(ValueError, match="no value within any of the magnitudes"):
            DisturbanceSet.interval(2.0, np.inf).sweep(())

    def test_rep_requires_equilibrium(self):
        shifted = SystemModel("affine", 1, DisturbanceSet.interval(-1, 1),
                              rhs=lambda x, d: -x + 1.0)
        with pytest.raises(ValueError):
            classify_rep(shifted, budget=2)

    def test_ugatt_example_not_rep(self):
        model = build_ugatt_example()
        report = classify_rep(model, h_grid=(0.5,), eps_grid=(0.5,), budget=4,
                              seed=0, step=5e-3)
        assert report.verdict == "refuted"


class TestAttractivity:
    def test_half_infinite_set_beyond_unit_magnitude(self):
        # probe_attractivity reads its one magnitude through the sweep rule,
        # so x' = -d x on D = [2, inf) is probed under d = 2 and decays
        report = probe_attractivity(beyond_unit_magnitude(), "UGAS")
        assert report.verdict == "consistent"

    def test_linear_ugas_with_exponential_fit(self):
        lin = build_linear([[-1.0]])
        report = probe_attractivity(lin, "UGAS", r_grid=(0.5, 1.0, 2.0),
                                    budget=4, horizon=12.0, seed=0)
        assert report.verdict == "consistent"
        beta = report.tables["beta"]
        # fitted envelope matches r e^{-t} up to sampling slack
        for r in (0.5, 1.0, 2.0):
            for t in (0.0, 1.0, 3.0):
                assert beta(r, t) <= r * np.exp(-t) * 1.02 + 1e-9
                assert beta(r, t) >= r * np.exp(-t) * 0.98 - 1e-9

    def test_ugatt_example_consistent_with_tau_bound(self):
        model = build_ugatt_example()
        report = probe_attractivity(model, "UGATT", r_grid=(0.5, 1.0),
                                    eps_grid=(0.01,), budget=8, horizon=8.0,
                                    seed=0, magnitude=2.0, step=2e-3)
        assert report.verdict == "consistent"
        # measured y-subsystem hitting time from y0 = 1 bounds the uniform
        # reach time: after t* the disturbance channel is dead, and the x
        # component needs at most another hitting time
        traj = flow(model, 4.0, [0.0, 1.0], step=2e-5)
        t_star = traj.times[np.nonzero(np.abs(traj.states[:, 1]) <= 1e-6)[0][0]]
        assert all(v <= 2 * t_star for v in report.tables["tau"].values())

    def test_ugatt_draws_each_budget_doubling_once_per_radius(self, monkeypatch):
        # every eps at a radius reuses that radius's doubling draws, and each
        # draw flows all its (state, signal) pairs in one call: the base draw
        # and one doubling at each of 3 radii, with no escape to refine, where
        # a call per signal made 36 and a draw per (radius, eps) made 54
        calls = []
        flow_batch = probes.flow_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return flow_batch(*args, **kwargs)

        monkeypatch.setattr(probes, "flow_batch", counting)
        report = probe_attractivity(build_ugatt_example(), "UGATT", eps_grid=(0.05, 0.1),
                                    budget=3, horizon=4.0, step=2e-2, stability_rel=0.25,
                                    seed=0)
        assert len(calls) == 6
        assert report.verdict == "consistent"
        assert report.tables["tau"] == {
            "r=0.5,eps=0.05": 0.7000000000000001, "r=0.5,eps=0.1": 0.58,
            "r=1.0,eps=0.05": 1.1, "r=1.0,eps=0.1": 0.98,
            "r=2.0,eps=0.05": 1.52, "r=2.0,eps=0.1": 1.4000000000000001,
        }

    def test_escapes_confirmed_one_batch_per_step_factor(self, monkeypatch):
        # x' = d x at magnitude 64 escapes under every growing signal; all
        # (state, signal) pairs flow in one call, then each signal with
        # escapes flows its escaped rows once at step / 8 and the rows still
        # escaped once at step / 64
        calls = []
        flow_batch = probes.flow_batch

        def counting(model, t, X, d, step):
            calls.append((t, X, d, step))
            return flow_batch(model, t, X, d, step=step)

        monkeypatch.setattr(probes, "flow_batch", counting)
        model, step = build_scalar_example("ii"), 2e-2
        cells, _ = probes._mu_scan(model, (1.0,), (0.0, 0.5), 3, seed=0,
                                   magnitude=64.0, pieces=8, step=step)
        assert np.isinf(cells[0, 1])
        (t, X, signals, h), *refines = calls
        # six states under the corners -64, 0, 64 and three random signals
        assert h == step and len(X) == len(signals) == 36
        escapes = {}
        for d, tr in zip(signals, flow_batch(model, t, X, signals, step=step)):
            escapes[id(d)] = escapes.get(id(d), 0) + (tr.escaped is not None)
        per_signal = {}
        for _, X, d, h in refines:
            assert isinstance(d, DisturbanceSignal)
            per_signal.setdefault(id(d), []).append((h, len(X)))
        assert per_signal
        for key, runs in per_signal.items():
            assert len(runs) <= 2
            assert [h for h, _ in runs] == [step / 8.0, step / 64.0][:len(runs)]
            assert runs[0][1] == escapes[key]
            assert all(a >= b for (_, a), (_, b) in zip(runs, runs[1:]))
        assert set(per_signal) == {key for key, count in escapes.items() if count}
        assert max(len(runs) for runs in per_signal.values()) == 2

    def test_confirmed_escapes_match_solo_refined_flows(self):
        # each summary is bit for bit the flow of its state alone at the last
        # step of the 1, 1/8, 1/64 refinement that its escape reached
        model = build_scalar_example("ii")
        step, horizon = 2e-2, 0.5
        trajs = list(probes._sample(model, probes.sub_rng(0, 11, 0), 1.0, 3, 3, horizon,
                                    magnitude=64.0, pieces=8, step=step, interior=1))
        assert len(trajs) == 6 * 6  # six states under six signals
        refined = 0
        for tr in trajs:
            solo = flow(model, horizon, tr.x0, tr.signal, step=step)
            for factor in (8.0, 64.0):
                if solo.escaped is not None:
                    solo = flow(model, horizon, tr.x0, tr.signal, step=step / factor)
                    refined += 1
            np.testing.assert_array_equal(tr.times, solo.times)
            np.testing.assert_array_equal(tr.norms, solo.norms)
            assert tr.escaped == solo.escaped
        assert refined > 0 and any(tr.escaped is not None for tr in trajs)

    def test_block_eps_quarter_ugas_refuted(self):
        block = build_l2_block_model(30, 0.25)
        wit = block.singular_direction(10.0)
        report = probe_attractivity(block.system, "UGAS", r_grid=(1.0,),
                                    budget=2, horizon=10.0, seed=0, step=5e-2,
                                    extra_directions=(wit,))
        assert report.verdict == "refuted"
        assert report.witnesses

    @pytest.mark.parametrize("notion", ["weak_attractive", "uniform_weak_attractive"])
    def test_weak_notions_refuted_by_finite_escape(self, notion):
        # x' = x^2 escapes from x0 > 0 at t = 1/x0: a solution that does not
        # exist for all time refutes attractivity, weak or not
        square = SystemModel("square", 1, DisturbanceSet.finite([0.0]), rhs=lambda x, d: x ** 2)
        step = 1e-2
        report = probe_attractivity(square, notion, r_grid=(0.5, 1.0), eps_grid=(0.1,),
                                    budget=2, horizon=40.0, step=step)
        assert report.verdict == "refuted"
        (wit,) = report.witnesses
        assert wit.note == "finite escape"
        replay = flow(square, wit.t, wit.x, wit.signal, step=step / 64)
        assert replay.escaped is not None and replay.escaped[1] <= wit.t

    def test_uniform_weak_attractivity_bound(self):
        lin = build_linear([[-1.0]])
        psi2 = power_table(2.0, r_max=8.0)
        alpha = identity_table(8.0)
        report = probe_attractivity(lin, "uniform_weak_attractive",
                                    r_grid=(1.0, 2.0), eps_grid=(0.1,),
                                    budget=3, horizon=12.0, seed=0,
                                    psi2=psi2, alpha=alpha)
        assert report.verdict == "consistent"
        assert all(v["ok"] for v in report.tables["reach_bound"].values())

    def test_us_search_finds_delta_map(self):
        lin = build_linear([[-0.5]])
        report = probe_attractivity(lin, "US", eps_grid=(0.5, 0.1), budget=3,
                                    horizon=6.0, seed=0)
        assert report.verdict == "consistent"
        assert set(report.tables["eps_delta"]) == {"0.5", "0.1"}

    def test_rejects_unknown_notion(self):
        lin = build_linear([[-1.0]])
        with pytest.raises(ValueError):
            probe_attractivity(lin, "UAS")


class TestSigmaChi:
    def test_decay_model_sigma_is_identity(self):
        lin = build_linear([[-1.0]])
        mu = estimate_mu(lin, (0.25, 0.5, 1.0, 2.0), (0.0, 0.5, 1.0), budget=3, seed=0)
        sigma, chi = decompose_sigma_chi(mu)
        np.testing.assert_allclose(sigma(np.array([0.25, 1.0, 2.0])),
                                   [0.25, 1.0, 2.0], rtol=1e-6)
        assert np.all(chi.values <= 1e-9)

    def test_sigma_floor_is_radius(self):
        model = build_scalar_example("iv")
        mu = estimate_mu(model, (0.5, 1.0), (0.0, 1.0), budget=3, seed=1)
        sigma, _ = decompose_sigma_chi(mu)
        assert sigma(0.5) >= 0.5 - 1e-9
        assert sigma(1.0) >= 1.0 - 1e-9

    def test_saturating_chi_bounded_by_one(self):
        model = build_scalar_example("i")
        mu = estimate_mu(model, (0.25, 0.5), (0.0, 2.0, 4.0), budget=4, seed=2,
                         magnitude=30.0, step=5e-3)
        _, chi = decompose_sigma_chi(mu)
        assert np.all(chi.values <= 1.0 + 1e-6)

    def test_identity_breach_flagged(self):
        from nclyap.comparison import KLSurface

        bad = KLSurface(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                        np.array([[0.5, 0.6], [1.9, 2.0]]), kind="increasing")
        with pytest.raises(ValueError):
            decompose_sigma_chi(bad)


class TestSwitchedBound:
    def test_single_hurwitz_mode_negative_omega(self):
        sw = build_switched_linear([[[-1.0, 0.5], [0.0, -2.0]]])
        fit = estimate_switched_bound(sw, horizon=8.0, budget=4, seed=0)
        assert fit.omega < 0  # spectral abscissa is -1
        assert fit.M >= 1.0
        assert fit.chain_max_ratio <= 1.0 + 1e-9

    def test_zero_matrix_identity_evolution(self):
        sw = build_switched_linear([np.zeros((2, 2))])
        fit = estimate_switched_bound(sw, horizon=5.0, budget=3, seed=0)
        assert fit.M == pytest.approx(1.0, abs=1e-9)
        assert fit.omega == pytest.approx(0.0, abs=1e-9)

    def test_destabilizing_switching_positive_omega(self):
        # two Hurwitz modes whose half-period alternation has spectral
        # radius > 1: the classic switched instability
        a = 10.0
        A0 = np.array([[-0.1, a], [-1 / a, -0.1]])
        A1 = np.array([[-0.1, 1 / a], [-a, -0.1]])
        sw = build_switched_linear([A0, A1])
        fit = estimate_switched_bound(sw, horizon=10.0, budget=6, seed=0,
                                      h_period=np.pi / 1.0)
        assert fit.omega > 0
        # periodic witness replays the growth
        from nclyap.models import evolve

        growth = np.linalg.norm(evolve(sw, fit.witness_signal, 10.0), 2)
        assert growth > np.linalg.norm(evolve(sw, DisturbanceSignal.constant(0), 10.0), 2)


class TestProbeReport:
    def test_refuted_requires_witness(self):
        with pytest.raises(ValueError):
            ProbeReport("RFC", "refuted")

    def test_none_witness_rejected(self):
        with pytest.raises(ValueError):
            ProbeReport("REP", "refuted", witnesses=(None,))

    def test_json_serialization_includes_signal(self):
        model = build_scalar_example("ii")
        report = classify_rfc(model, budget=3, seed=0, step=2e-2)
        data = json.loads(report.to_json())
        assert data["verdict"] == "refuted"
        sig = data["witnesses"][0]["signal"]
        DisturbanceSignal.from_json(sig)  # replayable


# Verdicts (UGAS, UGATT, weak_attractive, RFC, REP) at magnitude 1, seed 0,
# horizon 2, budget 3 and step 2e-2, recorded before the probes shared one
# sampling path.  The blow-up model is pinned on RFC (its escape witness)
# and REP only, because its attractivity probes are slow.  "refuted" needs
# a confirmed finite escape or a stated evidence rule; a trajectory still
# above eps at the horizon (UGATT) or never within it (weak_attractive)
# makes the report "inconclusive".  By that rule UGATT and weak_attractive
# moved from "refuted" to "inconclusive" on scalar (i)-(iv), the l2 block
# model, x' = -x and the stable switched pair: at horizon 2 a trajectory
# from r = 0.5 is still above eps = 0.05.
GOLDEN_VERDICTS = {
    "scalar-i": ("inconclusive", "inconclusive", "inconclusive", "consistent", "consistent"),
    "scalar-ii": ("refuted", "inconclusive", "inconclusive", "consistent", "consistent"),
    "scalar-iii": ("refuted", "inconclusive", "inconclusive", "consistent", "consistent"),
    "scalar-iv": ("refuted", "inconclusive", "inconclusive", "consistent", "consistent"),
    "ugatt": ("consistent", "consistent", "consistent", "consistent", "consistent"),
    "l2-block": ("inconclusive", "inconclusive", "inconclusive", "consistent", "consistent"),
    "linear": ("inconclusive", "inconclusive", "inconclusive", "consistent", "consistent"),
    "switched": ("inconclusive", "inconclusive", "inconclusive", "consistent", "consistent"),
    "blowup": (None, None, None, "refuted", "consistent"),
}


def test_golden_verdicts():
    from nclyap.models import build_blowup_example

    models = {
        "scalar-i": build_scalar_example("i"),
        "scalar-ii": build_scalar_example("ii"),
        "scalar-iii": build_scalar_example("iii"),
        "scalar-iv": build_scalar_example("iv"),
        "ugatt": build_ugatt_example(),
        "l2-block": build_l2_block_model(12, 0.0).system,
        "linear": build_linear([[-1.0]]),
        "switched": build_switched_linear([[[-1.0, 0.0], [0.0, -2.0]],
                                           [[-1.5, 0.5], [0.0, -0.8]]]).system,
        "blowup": build_blowup_example(3.0)[0],
    }
    probes = {
        "UGAS": lambda m: probe_attractivity(m, "UGAS", budget=3, horizon=2.0, seed=0,
                                             magnitude=1.0, step=2e-2),
        "UGATT": lambda m: probe_attractivity(m, "UGATT", budget=3, horizon=2.0, seed=0,
                                              magnitude=1.0, step=2e-2),
        "weak_attractive": lambda m: probe_attractivity(m, "weak_attractive", budget=3,
                                                        horizon=2.0, seed=0,
                                                        magnitude=1.0, step=2e-2),
        "RFC": lambda m: classify_rfc(m, budget=3, seed=0, step=2e-2, magnitudes=(1.0,)),
        "REP": lambda m: classify_rep(m, budget=3, seed=0, step=2e-2, magnitudes=(1.0,)),
    }
    got = {}
    replays = []
    for name, expected in GOLDEN_VERDICTS.items():
        reports = [None if want is None else probe(models[name])
                   for want, probe in zip(expected, probes.values())]
        got[name] = tuple(None if rep is None else rep.verdict for rep in reports)
        replays += [(models[name], w) for rep in reports if rep and rep.verdict == "refuted"
                    for w in rep.witnesses]
    assert got == GOLDEN_VERDICTS
    # every refutation replays: an escape by its time at the finest step the
    # probes confirm escapes with, any other witness to its value at the
    # probes' step
    for model, w in replays:
        if np.isinf(w.value):
            replay = flow(model, w.t, w.x, w.signal, step=2e-2 / 64)
            assert replay.escaped is not None and replay.escaped[1] <= w.t, w
        else:
            replay = flow(model, w.t, w.x, w.signal, step=2e-2)
            assert replay.escaped is None and replay.times[-1] == w.t, w
            assert replay.norms[-1] == pytest.approx(w.value, rel=1e-12), w
