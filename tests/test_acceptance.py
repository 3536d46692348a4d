"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from nclyap.cli import ExperimentConfig, run
from nclyap.comparison import (
    KLSurface,
    TabulatedMonotone,
    gk_threshold,
    identity_table,
    kl_from_alpha,
    lipschitz_minorant,
    power_table,
    sontag_factorize,
)
from nclyap.converse import ConverseConfig, assemble_w, construct_vk_integral, estimate_flow_lipschitz, invert_table
from nclyap.lyapunov import coercivity_profile, verify_decay
from nclyap.models import (
    build_blowup_example,
    build_l2_block_model,
    build_linear,
    build_scalar_example,
    build_switched_linear,
    build_ugatt_example,
)
from nclyap.probes import classify_rep, classify_rfc, probe_attractivity
from nclyap.systems import check_axioms, check_homogeneity, flow

from _oracles import exact_lambda_min_normalized


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


STABLE_PAIR = [
    [[-1.0, 0.0], [0.0, -2.0]],
    [[-1.5, 0.5], [0.0, -0.8]],
]


def test_criterion_1_four_way_classification():
    t0 = time.time()
    expected = {
        "i": ("consistent", "refuted"),
        "ii": ("refuted", "refuted"),
        "iii": ("refuted", "consistent"),
        "iv": ("consistent", "consistent"),
    }
    got = {}
    for variant in expected:
        model = build_scalar_example(variant)
        rfc = classify_rfc(model, seed=0)  # default budgets
        rep = classify_rep(model, seed=0)
        got[variant] = (rfc.verdict, rep.verdict)
    elapsed = time.time() - t0
    ok = got == expected and elapsed < 60.0
    report(1, ok, f"four-way table {got} at default budgets in {elapsed:.1f}s (< 60s)")


def test_criterion_2_block_model_decay_and_noncoercivity():
    t0 = time.time()
    block = build_l2_block_model(40, 0.0)
    model, cand = block.system, block.candidate
    rng = np.random.default_rng(42)
    decay_ok = True
    for _ in range(100):
        x = rng.normal(size=model.dim)
        x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
        v0 = cand(x)
        for t in (0.5, 1.0, 2.0):
            traj = flow(model, t, x, step=t)  # exact single propagator step
            if cand(traj.final_state) > np.exp(-t) * v0 * 1.001:
                decay_ok = False
    lam_oracle = [exact_lambda_min_normalized(i) for i in range(1, 31)]
    decreasing = all(b < a for a, b in zip(lam_oracle, lam_oracle[1:]))
    lam_builder = block.lambda_mins()
    agree = all(
        abs(lam_builder[i - 1] - lam_oracle[i - 1]) <= 1e-6 * lam_oracle[i - 1] + 1e-14
        for i in range(1, 31)
    )
    prof = coercivity_profile(cand, model, [1.0], direction_budget=32, seed=0,
                              witness_directions=block.witness_directions())
    inf_ok = prof.inf_estimates[0] < 0.05
    elapsed = time.time() - t0
    ok = decay_ok and decreasing and agree and inf_ok and elapsed < 120.0
    report(2, ok, (
        f"V decay on 100 states {decay_ok}, lambda_min strictly decreasing "
        f"1..30 {decreasing} (solves match oracle: {agree}), coercivity inf "
        f"{prof.inf_estimates[0]:.2e} < 0.05, in {elapsed:.1f}s (< 120s)"))


def test_criterion_3_epsilon_instability_with_lyapunov_decay():
    block = build_l2_block_model(40, 0.25)
    model, cand = block.system, block.candidate
    rng = np.random.default_rng(7)
    starts = [block.singular_direction(10.0)]
    for _ in range(5):
        v = rng.normal(size=model.dim)
        starts.append(v / np.linalg.norm(v))
    growth_ok = False
    decay_ok = True
    worst_growth = 0.0
    for x in starts:
        v0 = cand(x)
        grew_here = True
        for t in (2.5, 5.0, 10.0):
            traj = flow(model, t, x, step=t)
            n_ratio = model.norm(traj.final_state) / model.norm(x)
            if cand(traj.final_state) > np.exp(-0.5 * t) * v0 * 1.001:
                decay_ok = False
            if t == 10.0:
                worst_growth = max(worst_growth, n_ratio)
                grew_here = n_ratio >= np.exp(0.2 * 10.0)
        growth_ok = growth_ok or grew_here
    ok = growth_ok and decay_ok
    report(3, ok, (
        f"instability witness growth {worst_growth:.2f} >= e^2 = {np.e**2:.2f} "
        f"while V(phi(t,x)) <= e^(-t/2) V(x) x 1.001 on the same trajectories: {decay_ok}"))


def test_criterion_4_blowup_escape_convergence_decay():
    model, cand = build_blowup_example(3.0)
    escapes_ok = True
    for z1 in np.linspace(-4.0, -1.0, 7):
        for z2 in np.linspace(-2.0, 2.0, 9):
            traj = flow(model, 12.0, np.array([z1, z2]), step=1e-2)
            if traj.escaped is None or not np.isfinite(traj.escaped[1]):
                escapes_ok = False
    conv_ok = True
    rng = np.random.default_rng(3)
    starts = [np.array([1.0, 1.0]), np.array([2.0, 0.0]), np.array([0.0, 2.0])]
    for _ in range(5):
        v = rng.normal(size=2)
        v = np.abs(v)  # z1 >= 0 quadrant
        starts.append(v / np.linalg.norm(v) * rng.uniform(0.5, 2.0))
    for z0 in starts:
        traj = flow(model, 15.0, z0, step=5e-3)
        if traj.escaped is not None or model.norm(traj.final_state) >= 0.01:
            conv_ok = False
    xs = []
    for _ in range(12):
        v = rng.normal(size=2)
        xs.append(v / np.linalg.norm(v) * rng.uniform(2.0, 4.0))
    decay = verify_decay(cand, identity_table(8.0), model, xs,
                         [model.default_signal()], tol=5e-3,
                         h_sequence=np.array([1e-3, 3e-4, 1e-4, 3e-5, 1e-5]),
                         step=1e-6)
    ok = escapes_ok and conv_ok and decay.passed
    report(4, ok, (
        f"escape grid (63 starts) all escaped {escapes_ok}, safe region to "
        f"||z|| < 0.01 {conv_ok}, dV <= -||z|| check {decay.verdict} "
        f"(worst margin {decay.worst_margin:.2e})"))


def test_criterion_5_converse_golden_values():
    model = build_linear([[-1.0]])
    cfg = ConverseConfig(rho=identity_table(12.0), alpha1=identity_table(12.0),
                         k_max=4, disturbance_budget=2, quadrature_step=1e-3)
    v1 = construct_vk_integral(model, 1, cfg)
    golden = v1(np.array([np.e]))
    golden_ok = abs(golden - (np.e - 2.0)) <= 1e-4
    horizon_ok = cfg.horizon(1.0, 1) == pytest.approx(np.log(2.0), abs=1e-12)
    W = assemble_w(model, cfg)
    pos_ok = W(np.array([0.0])) == 0.0 and all(
        W(np.array([x])) > 0.0 for x in (0.5, 1.0, 2.0, 4.0))
    mono_ok = True
    rate_ok = True
    h = 1e-3
    for t0 in (0.0, 0.4, 0.8, 1.2):
        x0 = flow(model, t0, np.array([2.0]), step=0.1).final_state
        x1 = flow(model, t0 + h, np.array([2.0]), step=0.1).final_state
        w0, w1 = W(x0), W(x1)
        if w1 > w0:
            mono_ok = False
        if (w1 - w0) / h > -W.psi1(float(np.abs(x0[0]))) + 1e-3:
            rate_ok = False
    ok = golden_ok and horizon_ok and pos_ok and mono_ok and rate_ok
    report(5, ok, (
        f"V1(e) = {golden:.6f} vs e-2 = {np.e - 2:.6f} (within 1e-4: {golden_ok}), "
        f"T(1,1) = ln 2 {horizon_ok}, W positive/zero {pos_ok}, "
        f"nonincreasing {mono_ok} with psi1 floor {rate_ok}"))


def test_criterion_6_converse_on_switched_pair():
    sw = build_switched_linear(STABLE_PAIR)
    probe = probe_attractivity(sw.system, "UGAS", r_grid=(0.5, 1.0, 2.0),
                               budget=6, horizon=12.0, seed=0, step=2e-2)
    assert probe.verdict == "consistent"
    R = 2.0
    cfg = ConverseConfig.from_kl_bound(
        probe.tables["beta"], k_max=2, disturbance_budget=6,
        quadrature_step=5e-3, seed=0, R=R)
    k = 2
    vk = construct_vk_integral(sw.system, k, cfg)
    clamp = float(invert_table(cfg.rho)(1.0 / k))
    rng = np.random.default_rng(1)
    bound_ok = True
    pos_ok = True
    states = []
    for _ in range(200):
        u = rng.normal(size=2)
        states.append(u / np.linalg.norm(u) * rng.uniform(0.05, R))
    # all 200 states in one batch; each value is that of vk(x) bit for bit
    for x, val in zip(states, vk.values(states)):
        if val > cfg.alpha1(np.linalg.norm(x)) + 1e-3:
            bound_ok = False
        if np.linalg.norm(x) > clamp and val <= 0.0:
            pos_ok = False
    T = cfg.horizon(R, k)
    L = estimate_flow_lipschitz(sw.system, R, T, budget=10, seed=3, step=2e-3)
    M = T * L
    lip_ok = True
    pts = []
    for _ in range(120):
        u = rng.normal(size=2)
        pts.append(u / np.linalg.norm(u) * rng.uniform(0.05, R))
    pt_values = vk.values(pts)
    count = 0
    worst = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if count >= 500:
                break
            x, y = pts[i], pts[j]
            lhs = abs(pt_values[i] - pt_values[j])
            rhs = M * np.linalg.norm(x - y) * 1.01 + 1e-9
            worst = max(worst, lhs / rhs)
            if lhs > rhs:
                lip_ok = False
            count += 1
    ok = bound_ok and pos_ok and lip_ok
    report(6, ok, (
        f"V_k <= alpha1 + 1e-3 on 200 states {bound_ok}, positivity beyond "
        f"rho^-1(1/k) {pos_ok}, Lipschitz bound on 500 pairs {lip_ok} "
        f"(worst ratio {worst:.3f})"))


def test_criterion_7_comparison_module_battery():
    rng = np.random.default_rng(0)
    minorant_ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 20))
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
        vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, n))])
        alpha = TabulatedMonotone(grid, vals, "Kinf")
        rho = lipschitz_minorant(alpha)
        if np.any(rho.values > alpha.values + 1e-12):
            minorant_ok = False
        diffs = np.abs(rho.values[:, None] - rho.values[None, :])
        gaps = np.abs(grid[:, None] - grid[None, :])
        if np.any(diffs > gaps + 1e-12):
            minorant_ok = False

    surfaces = []
    r = np.linspace(0.0, 10.0, 21)
    t = np.linspace(0.0, 5.0, 26)
    for f in (lambda r, t: r * np.exp(-t),
              lambda r, t: 2 * r * np.exp(-2 * t),
              lambda r, t: r / (1 + t)):
        surfaces.append(KLSurface(r, t, f(r[:, None], t[None, :])))
    sontag_ok = True
    for beta in surfaces:
        a1, a2 = sontag_factorize(beta)
        bound = a2(a1(beta.r_grid)[:, None] * np.exp(-beta.t_grid)[None, :])
        if not np.all(beta.values <= bound + 1e-9 * (1 + np.abs(beta.values))):
            sontag_ok = False

    alpha = power_table(2.0, 8.0, n=2001)
    r_grid = np.linspace(0.0, 4.0, 17)
    t_grid = np.linspace(0.0, 3.0, 31)
    beta = kl_from_alpha(alpha, r_grid, t_grid)
    dom_ok = True
    for s in range(100):
        srng = np.random.default_rng((1234, s))
        y0 = float(srng.choice(r_grid[1:]))
        u = srng.uniform(0.0, 1.0, t_grid.size - 1)
        y = y0
        for j in range(1, t_grid.size):
            dt = (t_grid[j] - t_grid[j - 1]) / 32
            for _ in range(32):
                rate = lambda z: float(alpha(max(z, 0.0))) * (1 + u[j - 1])
                k1 = -rate(y)
                k2 = -rate(y + 0.5 * dt * k1)
                k3 = -rate(y + 0.5 * dt * k2)
                k4 = -rate(y + dt * k3)
                y = max(y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), 0.0)
            if y > beta(y0, float(t_grid[j])) + 1e-6:
                dom_ok = False
    ok = minorant_ok and sontag_ok and dom_ok
    report(7, ok, (
        f"1000 random minorant checks {minorant_ok}, 3 factorization "
        f"surfaces dominate {sontag_ok}, comparison surface dominates 100 "
        f"decaying samples {dom_ok}"))


def zoo_entries():
    blow, _ = build_blowup_example(3.0)
    return [
        ("scalar-i", build_scalar_example("i"), dict(radius=1.0, magnitude=2.0)),
        ("scalar-ii", build_scalar_example("ii"), dict(radius=1.0, magnitude=2.0)),
        ("scalar-iii", build_scalar_example("iii"), dict(radius=0.35, magnitude=2.0)),
        ("scalar-iv", build_scalar_example("iv"), dict(radius=1.0, magnitude=2.0)),
        ("ugatt", build_ugatt_example(), dict(radius=1.0, magnitude=1.0)),
        ("blowup", blow, dict(radius=1.2)),
        ("l2-block", build_l2_block_model(12, 0.0).system, dict(radius=1.0)),
        ("linear", build_linear([[-1.0]]), dict(radius=1.0)),
        ("switched", build_switched_linear(STABLE_PAIR).system, dict(radius=1.0)),
    ]


def test_criterion_8_axiom_suite():
    detail = []
    ok = True
    for name, model, kw in zoo_entries():
        rep = check_axioms(model, sample_budget=8, seed=0, step=1e-3,
                           t_max=0.4, **kw)
        entry_ok = (rep.identity_max == 0.0 and rep.causality_max == 0.0
                    and rep.cocycle_max <= 1e-6)
        ok = ok and entry_ok
        detail.append(f"{name}:{rep.cocycle_max:.1e}")
    homo_ok = True
    for name, model, kw in zoo_entries():
        if name in ("l2-block", "linear", "switched", "scalar-ii", "scalar-iv"):
            h = check_homogeneity(model, sample_budget=8, seed=1, step=1e-3,
                                  radius=kw["radius"])
            if h.max_residual > 1e-8:
                homo_ok = False
    refuted = check_homogeneity(build_scalar_example("i"), sample_budget=12,
                                seed=2, radius=1.5, lambda_max=2.0,
                                magnitude=2.0)
    homo_ok = homo_ok and refuted.max_residual > 1e-3
    ok = ok and homo_ok
    report(8, ok, (
        "identity/causality exact, cocycle residuals [" + " ".join(detail) +
        f"] <= 1e-6; homogeneity linear/switched <= 1e-8 and variant (i) "
        f"refuted: {homo_ok}"))


def test_criterion_9_hierarchy_consistency():
    # the implications are theorems about one fixed disturbance class, so
    # every probe here quantifies over the same sampled class: one
    # magnitude level at a time, aligned horizons and radii
    grid = (0.5, 1.0, 2.0)
    violations = []
    some_ugas = False
    summaries = {}
    for name, model, kw in zoo_entries():
        sweep = (1.0, 4.0, 16.0, 64.0) if not model.disturbance_set.bounded else (1.0,)
        for mag in sweep:
            ugas = probe_attractivity(model, "UGAS", r_grid=grid, budget=5,
                                      horizon=16.0, seed=0, magnitude=mag,
                                      step=2e-2).verdict
            ugatt = probe_attractivity(model, "UGATT", r_grid=grid,
                                       eps_grid=(0.1,), budget=5, horizon=16.0,
                                       seed=0, magnitude=mag, step=2e-2,
                                       stability_rel=0.25).verdict
            rfc = classify_rfc(model, C_grid=grid, tau_grid=(0.0, 0.25, 0.5),
                               budget=5, seed=0, step=2e-2,
                               magnitudes=(mag,)).verdict
            rep = classify_rep(model, budget=5, seed=0, step=2e-2,
                               h_grid=(0.5,), eps_grid=(0.5,),
                               magnitudes=(mag,)).verdict
            some_ugas = some_ugas or ugas == "consistent"
            summaries[f"{name}@{mag:g}"] = (ugas[0], ugatt[0], rfc[0], rep[0])
            if ugas == "consistent" and not (ugatt == "consistent" and rfc == "consistent"):
                violations.append((name, mag, "UGAS without UGATT/RFC", ugas, ugatt, rfc))
            homo = model.homogeneous
            if homo is None:
                homo = check_homogeneity(model, sample_budget=6, seed=3,
                                         radius=kw["radius"]).max_residual <= 1e-8
            if homo and (rep == "consistent") != (rfc == "consistent"):
                violations.append((name, mag, "homogeneous REP/RFC mismatch", rep, rfc))
    ok = not violations and some_ugas
    report(9, ok, ("per-level verdicts (UGAS,UGATT,RFC,REP) "
                   f"{summaries}; violations: {violations}"))


def test_criterion_10_reproduce_determinism(tmp_path):
    targets = [
        ("switched", {"budget": 4}),
        ("ex62", {"n": 10, "epsilon": 0.0}),
        ("ex26", {}),
        ("ex213", {}),
        ("ex61", {}),
    ]
    ok = True
    mismatches = []
    for target, extra in targets:
        bodies = []
        for tag in ("run1", "run2"):
            out = tmp_path / target / tag
            cfg = ExperimentConfig("reproduce",
                                   params={"target": target, **extra},
                                   seed=123, out=str(out))
            run(cfg)
            csvs = sorted(p.name for p in out.glob("*.csv"))
            bodies.append({name: (out / name).read_bytes() for name in csvs})
        if bodies[0] != bodies[1]:
            ok = False
            mismatches.append(target)
    report(10, ok, ("byte-identical CSV bodies across two seeded runs for all "
                    f"5 reproduce targets" + (f"; mismatches: {mismatches}" if mismatches else "")))
