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
from nclyap.systems import DisturbanceSignal


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

    def test_rep_requires_equilibrium(self):
        from nclyap.systems import DisturbanceSet, SystemModel

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
        from nclyap.systems import flow

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
        # every eps at a radius reuses that radius's doubling draws: 2 flows
        # per signal for each radius (the base draw and one doubling), over
        # 3 radii and 6 signals, where a draw per (radius, eps) made 54
        calls = []
        flow_batch = probes.flow_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return flow_batch(*args, **kwargs)

        monkeypatch.setattr(probes, "flow_batch", counting)
        report = probe_attractivity(build_ugatt_example(), "UGATT", eps_grid=(0.05, 0.1),
                                    budget=3, horizon=4.0, step=2e-2, stability_rel=0.25,
                                    seed=0)
        assert len(calls) == 36
        assert report.verdict == "consistent"
        assert report.tables["tau"] == {
            "r=0.5,eps=0.05": 0.7000000000000001, "r=0.5,eps=0.1": 0.58,
            "r=1.0,eps=0.05": 1.1, "r=1.0,eps=0.1": 0.98,
            "r=2.0,eps=0.05": 1.52, "r=2.0,eps=0.1": 1.4000000000000001,
        }

    def test_block_eps_quarter_ugas_refuted(self):
        block = build_l2_block_model(30, 0.25)
        wit = block.singular_direction(10.0)
        report = probe_attractivity(block.system, "UGAS", r_grid=(1.0,),
                                    budget=2, horizon=10.0, seed=0, step=5e-2,
                                    extra_directions=(wit,))
        assert report.verdict == "refuted"
        assert report.witnesses

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
# and REP only, because its attractivity probes are slow.
GOLDEN_VERDICTS = {
    "scalar-i": ("inconclusive", "refuted", "refuted", "consistent", "consistent"),
    "scalar-ii": ("refuted", "refuted", "refuted", "consistent", "consistent"),
    "scalar-iii": ("refuted", "refuted", "refuted", "consistent", "consistent"),
    "scalar-iv": ("refuted", "refuted", "refuted", "consistent", "consistent"),
    "ugatt": ("consistent", "consistent", "consistent", "consistent", "consistent"),
    "l2-block": ("inconclusive", "refuted", "refuted", "consistent", "consistent"),
    "linear": ("inconclusive", "refuted", "refuted", "consistent", "consistent"),
    "switched": ("inconclusive", "refuted", "refuted", "consistent", "consistent"),
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
    for name, expected in GOLDEN_VERDICTS.items():
        got[name] = tuple(None if want is None else probe(models[name]).verdict
                          for want, probe in zip(expected, probes.values()))
    assert got == GOLDEN_VERDICTS
