"""Empirical classification of stability notions for disturbed systems.

All verdicts are three-valued: "consistent" means no refutation was found
at the given sampling budget (it is never a certificate), "refuted" always
carries a replayable witness, and "inconclusive" is the honest fallback.
Suprema over the disturbance class are approximated by corner constant
signals, random piecewise-constant signals and, for unbounded disturbance
value sets, a magnitude-sweep meta-loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .comparison import KLSurface, TabulatedMonotone
from .models import evolve
from .systems import DisturbanceSignal, _unit_direction, flow_batch, sub_rng

__all__ = [
    "ProbeReport",
    "Witness",
    "estimate_mu",
    "classify_rfc",
    "classify_rep",
    "probe_attractivity",
    "decompose_sigma_chi",
    "estimate_switched_bound",
    "SwitchedBoundFit",
]

NOTIONS = (
    "US",
    "UGAS",
    "weak_attractive",
    "uniform_weak_attractive",
    "UGATT",
    "RFC",
    "REP",
)


@dataclass(frozen=True)
class Witness:
    """A replayable (x, d, t) triple exhibiting the refuting behavior."""

    x: np.ndarray
    signal: DisturbanceSignal
    t: float
    value: float
    note: str = ""

    def to_json_dict(self):
        return {
            "x": [float(v) for v in np.atleast_1d(self.x)],
            "signal": self.signal.to_json(),
            "t": float(self.t),
            "value": float(self.value),
            "note": self.note,
        }


@dataclass(frozen=True)
class ProbeReport:
    notion: str
    verdict: str  # consistent / refuted / inconclusive
    witnesses: tuple = ()
    tables: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        if self.notion not in NOTIONS:
            raise ValueError(f"unknown notion {self.notion!r}")
        if self.verdict not in ("consistent", "refuted", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "refuted" and not self.witnesses:
            raise ValueError("refuted verdicts must carry a witness")
        if any(w is None for w in self.witnesses):
            raise ValueError("witnesses must not be None")

    def to_json(self):
        tables = {}
        for k, v in self.tables.items():
            if isinstance(v, (KLSurface, TabulatedMonotone)):
                tables[k] = v.to_csv()
            elif isinstance(v, np.ndarray):
                tables[k] = v.tolist()
            else:
                tables[k] = v
        return json.dumps(
            {
                "notion": self.notion,
                "verdict": self.verdict,
                "notes": self.notes,
                "witnesses": [w.to_json_dict() for w in self.witnesses],
                "tables": tables,
            },
            indent=2,
            default=str,
        )


@dataclass(frozen=True)
class _TrajSummary:
    """Norm history of one probe trajectory (states are not retained)."""

    x0: np.ndarray
    signal: DisturbanceSignal
    times: np.ndarray
    norms: np.ndarray
    escaped: tuple | None


def _sphere_states(rng, dim, radius, count, extra=()):
    # deterministic directions first, the extra ones and both signs of the
    # first three axes (so escape half-planes and corner behavior cannot be
    # missed by sampling luck), then randoms
    axes = [s * e for e in np.eye(dim)[:3] for s in (1.0, -1.0)]
    states = [np.asarray(e, dtype=float) / np.linalg.norm(e) * radius
              for e in list(extra) + axes]
    states += [_unit_direction(rng, dim) * radius for _ in range(count)]
    return states


# ---------------------------------------------------------------------------
# reachability envelope mu
# ---------------------------------------------------------------------------

def _refine(model, horizon, summaries, rows, d, step):
    """Confirm the escapes among the summaries at ``rows``, flowed under d.

    Stiff dynamics under large disturbance magnitudes can blow up the
    fixed-step integrator spuriously, so an escape claim is only believed
    once it survives steps 8 and 64 times finer: the escaped rows flow again
    as one batch at step / 8, then the rows still escaped as one batch at
    step / 64.  Rows never mix, so each summary is that of the state's own
    flow at its last step.
    """
    for h in (step / 8.0, step / 64.0):
        rows = [k for k in rows if summaries[k].escaped is not None]
        if not rows:
            return
        for k, tr in zip(rows, flow_batch(model, horizon, [summaries[k].x0 for k in rows], d,
                                          step=h)):
            summaries[k] = _TrajSummary(summaries[k].x0, d, tr.times, tr.norms, tr.escaped)


def _sample(model, rng, radius, n_states, n_signals, horizon, *, magnitude, pieces, step,
            extra=(), interior=0):
    """Flow sampled start states under sampled probe signals over the horizon.

    The states are the sphere of the given radius (``extra`` and axis
    directions, then ``n_states`` random ones) followed by the first
    ``interior`` of them pulled inside the ball; the signals are the probe
    signals of the disturbance set.  ``rng`` is drawn in exactly that order.
    Every pair yields one ``_TrajSummary``, state-major.  The first read
    flows all (state, signal) pairs as one batch at ``step``; a signal's
    escapes are confirmed (``_refine``) when its first pair is read, so a
    caller that stops early skips the remaining signals' refinements.
    """
    states = _sphere_states(rng, model.dim, radius, n_states, extra=extra)
    states += [s * float(rng.uniform(0.2, 0.9)) for s in states[:interior]]
    signals = model.disturbance_set.probe_signals(
        rng, max(horizon, 1e-6), n_signals, pieces=pieces, magnitude=magnitude)
    pairs = [(x, d) for x in states for d in signals]
    flows = flow_batch(model, horizon, [x for x, _ in pairs], [d for _, d in pairs], step=step)
    summaries = [_TrajSummary(x, d, tr.times, tr.norms, tr.escaped)
                 for (x, d), tr in zip(pairs, flows)]
    for k in range(len(summaries)):
        if k < len(signals):  # the first pair of signal k
            _refine(model, horizon, summaries, range(k, len(summaries), len(signals)),
                    signals[k], step)
        yield summaries[k]


def _mu_scan(model, C_grid, tau_grid, budget, *, seed, magnitude, pieces, step):
    """Sampled lower estimate of the reachability sup, with argmax witnesses.

    Each radius C flows the axis directions and 3 random states on its
    sphere, plus the first of them pulled inside the ball.  Escaped
    trajectories mark their cells +inf.  Returns (cells, witnesses) where witnesses[i][j] is the
    achieving ``Witness`` for cell (i, j).
    """
    C_grid = np.asarray(C_grid, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    tau_max = float(tau_grid[-1])
    cells = np.zeros((C_grid.size, tau_grid.size))
    wits = [[None] * tau_grid.size for _ in range(C_grid.size)]
    for i, C in enumerate(C_grid):
        trajs = _sample(model, sub_rng(seed, 11, i), C, 3, budget, tau_max,
                        magnitude=magnitude, pieces=pieces, step=step, interior=1)
        for tr in trajs:
            # the sup of the norm up to each tau, inf from the escape on
            jt = np.maximum(np.searchsorted(tr.times, tau_grid, side="right") - 1, 0)
            vals = np.maximum.accumulate(tr.norms)[jt]
            escaped = tau_grid >= (np.inf if tr.escaped is None else tr.escaped[0])
            vals[escaped] = np.inf
            for j in np.flatnonzero(vals > cells[i]):
                cells[i, j] = vals[j]
                t = (tr.escaped[1] if escaped[j]
                     else float(tr.times[int(np.argmax(tr.norms[: jt[j] + 1]))]))
                wits[i][j] = Witness(tr.x0, tr.signal, t, float(vals[j]))
    # running max over C keeps the estimate monotone in its first argument
    cells = np.maximum.accumulate(cells, axis=0)
    return cells, wits


def estimate_mu(model, C_grid, tau_grid, budget=8, *, seed=0, magnitude=1.0, step=1e-2):
    """Monotone lower estimate of the reachability envelope over the grid.

    The sample set always contains the sphere of each radius (so the tau=0
    column equals C exactly) and the constant corner signals of the
    disturbance set, beside ``budget`` random 8-piece signals; increasing
    the budget never decreases any cell.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cells, _ = _mu_scan(model, C_grid, tau_grid, budget, seed=seed,
                        magnitude=model.disturbance_set.sweep((magnitude,))[0],
                        pieces=8, step=step)
    return KLSurface(np.asarray(C_grid, float), np.asarray(tau_grid, float), cells,
                     kind="increasing")


# ---------------------------------------------------------------------------
# robust forward completeness
# ---------------------------------------------------------------------------

def classify_rfc(model, C_grid=(0.25, 0.5, 1.0, 2.0), tau_grid=(0.0, 0.5, 1.0, 2.0),
                 budget=4, *, seed=0, magnitudes=(1.0, 4.0, 16.0, 64.0), step=2e-2):
    """Probe robust forward completeness via a disturbance-magnitude sweep.

    The signals have 8 pieces.  Refuted when some cell escapes, crosses
    1e6, or grows by a factor of 4 or more from one sweep level to the next
    (to at least ten times the largest C); consistent when all cells
    stabilize below 1e6.
    """
    magnitudes = model.disturbance_set.sweep(magnitudes)
    prev = None
    for mag in magnitudes:
        cells, wits = _mu_scan(model, C_grid, tau_grid, budget, seed=seed,
                               magnitude=mag, pieces=8, step=step)
        # the first flagged cell in row-major order holds its own argmax
        # (cells are a running max over C), so its witness is always set
        bad = ~np.isfinite(cells) | (cells > 1e6)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            return ProbeReport(
                "RFC",
                "refuted",
                witnesses=(replace(wits[i][j], note=(f"cell C={C_grid[i]}, tau={tau_grid[j]}, "
                                                     f"magnitude={mag}")),),
                tables={"mu": cells.tolist(), "magnitude": mag},
                notes="reachability envelope diverged under the magnitude sweep",
            )
        if prev is not None:
            ratio = cells / np.maximum(prev, 1e-12)
            growing = (ratio >= 4.0) & (cells >= 10.0 * np.max(C_grid))
            if np.any(growing):
                i, j = np.argwhere(growing)[0]
                return ProbeReport(
                    "RFC",
                    "refuted",
                    witnesses=(replace(wits[i][j],
                                       note=f"growth x{ratio[i, j]:.1f} between magnitudes"),),
                    tables={"mu": cells.tolist(), "magnitude": mag},
                    notes="cell growth unbounded in the sweep parameter",
                )
        prev = cells
    return ProbeReport(
        "RFC",
        "consistent",
        tables={"mu": prev.tolist(), "magnitudes": list(magnitudes)},
        notes="no refutation at this budget (sampled check, not a certificate)",
    )


# ---------------------------------------------------------------------------
# robust equilibrium point
# ---------------------------------------------------------------------------

def _check_equilibrium(model, magnitude):
    """Reject a vector field that does not vanish at 0 under the corner values
    at the magnitude (a propagator model is linear, so 0 is always its
    equilibrium)."""
    if model.rhs is None:
        return
    zero = np.zeros((1, model.dim))
    for v in model.disturbance_set.corner_values(magnitude):
        r = np.linalg.norm(model.rhs(zero, v))
        if not (r <= 1e-9):  # also rejects non-finite residuals
            raise ValueError("model does not keep 0 an equilibrium")


def classify_rep(model, h_grid=(0.5,), eps_grid=(0.5,), budget=4, *,
                 seed=0, magnitudes=(1.0, 10.0, 100.0, 1000.0), step=2e-2):
    """Probe robustness of the zero equilibrium by bisecting delta(eps, h).

    For each grid cell the probe halves a delta, at most 20 times, until
    the reachability under the sampled 4-piece disturbances of each sweep
    magnitude stays below eps.  Refuted when the reachability has a
    positive plateau as delta shrinks, or when the passing delta collapses
    across the magnitude sweep (the last level at most half the one before,
    and at most a quarter of the first) instead of stabilizing; each
    refutation carries an exceedance witness.
    """
    magnitudes = model.disturbance_set.sweep(magnitudes)
    _check_equilibrium(model, magnitudes[0])
    eps_delta = {}
    for eps in eps_grid:
        for h in h_grid:
            deltas = []
            exceed_wit = None
            unresolved = False
            for mag in magnitudes:
                delta = float(eps)
                trail = []
                for level in range(20):
                    cells, wits = _mu_scan(
                        model, (delta,), (h,), budget, seed=seed + 7 * level,
                        magnitude=mag, pieces=4, step=step,
                    )
                    m_val = float(cells[0, 0])
                    trail.append(m_val)
                    if wits[0][0] is not None and m_val > eps:
                        exceed_wit = replace(
                            wits[0][0], note=f"eps={eps}, h={h}, magnitude={mag}, delta={delta}")
                    if m_val <= eps:
                        break
                    delta *= 0.5
                else:
                    tail = trail[-5:]
                    plateau = len(tail) == 5 and min(tail) >= eps and min(tail) >= 0.5 * max(tail)
                    if plateau:
                        return ProbeReport(
                            "REP", "refuted", witnesses=(exceed_wit,),
                            tables={"eps_delta": eps_delta, "trail": trail},
                            notes=f"reachability plateau >= eps at eps={eps}, h={h}, magnitude={mag}",
                        )
                    # reachability still shrinking with delta, but the
                    # passing delta sits below the bisection floor: record
                    # the floor as an upper bound and keep sweeping
                    unresolved = True
                deltas.append(delta)
            if len(deltas) >= 2:
                final_ratio = deltas[-1] / deltas[-2]
                total = deltas[-1] / deltas[0]
                if final_ratio <= 0.5 and total <= 0.25:
                    # a collapse means level 0 of the last magnitude
                    # exceeded eps, which set the exceedance witness
                    return ProbeReport(
                        "REP", "refuted", witnesses=(exceed_wit,),
                        tables={"eps_delta": eps_delta, "delta_trail": deltas},
                        notes=(
                            f"passing delta collapses under the magnitude sweep at "
                            f"eps={eps}, h={h}: {deltas}"
                        ),
                    )
            if unresolved:
                return ProbeReport(
                    "REP", "inconclusive", tables={"eps_delta": eps_delta},
                    notes=f"bisection exhausted without plateau at eps={eps}, h={h}",
                )
            eps_delta[f"eps={eps},h={h}"] = {str(m): d for m, d in zip(magnitudes, deltas)}
    return ProbeReport(
        "REP", "consistent", tables={"eps_delta": eps_delta},
        notes="no refutation at this budget (sampled check, not a certificate)",
    )


# ---------------------------------------------------------------------------
# attractivity notions
# ---------------------------------------------------------------------------

def probe_attractivity(model, notion, r_grid=(0.5, 1.0, 2.0), eps_grid=(0.05, 0.1),
                       budget=6, *, horizon=10.0, seed=0, magnitude=1.0, step=1e-2,
                       extra_directions=(), psi2=None, alpha=None, stability_rel=0.05):
    """Probe an attractivity-type notion by trajectory sampling.

    The signals have 8 pieces.  US searches an eps -> delta map.  UGAS fits
    a dominating decay surface, refuted by a trajectory that peaks at 5 r
    or more and ends above r, and inconclusive while one ends above r / 10.
    UGATT and the weak notions estimate a reach time tau(r, eps) per grid
    cell: UGATT the worst last time a trajectory is above eps, stable under
    budget doubling; the weak notions the worst first time one is within
    eps, checked against the analytic bound (psi2(r)+1)/alpha(eps) for the
    uniform notion when (psi2, alpha) are supplied.

    Two rules hold for every notion but US.  A confirmed finite escape in
    any draw refutes, with the escaped start state, signal and escape time
    as witness.  A trajectory still above eps at the horizon (UGATT) or
    never within eps (weak notions) refutes nothing: the report is
    inconclusive, as UGAS is for its tail.
    """
    if notion not in ("weak_attractive", "uniform_weak_attractive", "UGATT", "US", "UGAS"):
        raise ValueError(f"notion {notion!r} not probeable here")
    magnitude = model.disturbance_set.sweep((magnitude,))[0]

    def collect(r, seed_salt=0):
        rng = sub_rng(seed, 29, seed_salt, int(r * 1e6) % 1000003)
        return _sample(model, rng, r, budget, budget, horizon, magnitude=magnitude,
                       pieces=8, step=step, extra=extra_directions)

    if notion == "US":
        eps_delta = {}
        for eps in eps_grid:
            delta = float(eps)
            found = None
            for _ in range(20):
                trajs = collect(delta, seed_salt=1)
                worst = 0.0
                for tr in trajs:
                    if tr.escaped is not None:
                        worst = np.inf
                        break
                    worst = max(worst, float(tr.norms.max()))
                if worst <= eps:
                    found = delta
                    break
                delta *= 0.5
            if found is None:
                return ProbeReport("US", "inconclusive",
                                   notes=f"no delta found for eps={eps} at this budget")
            eps_delta[str(eps)] = found
        return ProbeReport("US", "consistent", tables={"eps_delta": eps_delta},
                           notes="no refutation at this budget")

    @cache
    def draw(r, doubling=0):
        """The trajectories of one draw at radius r, up to its first escape."""
        trajs = []
        for tr in collect(r, seed_salt=doubling):
            trajs.append(tr)
            if tr.escaped is not None:
                break
        return trajs

    def escape(trajs):
        """The refutation by a draw's escaped trajectory (its last), or None."""
        tr = trajs[-1]
        return tr.escaped and ProbeReport(
            notion, "refuted", notes="escaped trajectory",
            witnesses=(Witness(tr.x0, tr.signal, tr.escaped[1], np.inf, note="finite escape"),))

    for r in r_grid:
        if refuted := escape(draw(r)):
            return refuted

    if notion == "UGAS":
        witnesses = []
        t_grid = np.linspace(0.0, horizon, 41)
        beta_vals = np.zeros((len(r_grid), t_grid.size))
        ok_tail = True
        for i, r in enumerate(r_grid):
            for tr in draw(r):
                norms = tr.norms
                peak = float(norms.max())
                final = float(norms[-1])
                if peak >= 5.0 * r and final > r:
                    witnesses.append(Witness(tr.x0, tr.signal,
                                             float(tr.times[int(norms.argmax())]), peak,
                                             note=f"growth factor {peak / r:.2f} from sphere r={r}"))
                if final > 0.1 * r:
                    ok_tail = False
                idx = np.minimum(np.searchsorted(tr.times, t_grid, side="right") - 1,
                                 len(tr.times) - 1)
                future_sup = np.maximum.accumulate(norms[::-1])[::-1]  # decreasing
                beta_vals[i] = np.maximum(beta_vals[i], future_sup[idx])
        beta_vals = np.maximum.accumulate(beta_vals, axis=0)
        if witnesses:
            return ProbeReport("UGAS", "refuted", witnesses=tuple(witnesses[:3]),
                               notes="norm growth witness")
        beta = KLSurface(np.asarray(r_grid, float), t_grid, beta_vals, kind="increasing")
        if not ok_tail:
            return ProbeReport("UGAS", "inconclusive", tables={"beta": beta},
                               notes="trajectories not decayed by the horizon")
        return ProbeReport("UGAS", "consistent", tables={"beta": beta},
                           notes="fitted dominating decay surface; no refutation at this budget")

    def reach(trajs, eps):
        """UGATT: the worst last time a trajectory is above eps; weak notions:
        the worst first time one is within eps.  None when one has not
        settled by the horizon."""
        worst = 0.0
        for tr in trajs:
            inside = tr.norms <= eps
            if not (inside[-1] if notion == "UGATT" else inside.any()):
                return None
            if notion != "UGATT":
                worst = max(worst, float(tr.times[int(np.argmax(inside))]))
            elif not inside.all():
                worst = max(worst, float(tr.times[np.flatnonzero(~inside)[-1]]))
        return worst

    table = {}
    bound_checks = {}
    for r in r_grid:
        for eps in eps_grid:
            trajs = draw(r)
            tau = reach(trajs, eps)
            # UGATT's convergence in budget: append fresh same-size draws
            # until the estimate moves by less than the stability tolerance
            stable = notion != "UGATT"
            for doubling in range(1, 4):
                if stable or tau is None:
                    break
                more = draw(r, doubling)
                if refuted := escape(more):
                    return refuted
                trajs = trajs + more
                tau_prev, tau = tau, reach(trajs, eps)
                stable = (tau is not None and abs(tau - tau_prev)
                          <= stability_rel * max(tau_prev, 1e-9) + 1e-9)
            if tau is None or not stable:
                why = ("tau estimate not converged under budget doubling" if tau is not None
                       else "not settled by the horizon: a trajectory "
                       + ("ends above eps" if notion == "UGATT" else "never comes within eps"))
                return ProbeReport(notion, "inconclusive", tables={"tau": table},
                                   notes=f"{why} at r={r}, eps={eps}")
            table[f"r={r},eps={eps}"] = tau
            if notion == "uniform_weak_attractive" and psi2 is not None and alpha is not None:
                bound = (float(psi2(r)) + 1.0) / float(alpha(eps))
                bound_checks[f"r={r},eps={eps}"] = {
                    "tau_hat": tau, "bound": bound, "ok": bool(tau <= bound)
                }
    tables = {"tau": table}
    if bound_checks:
        tables["reach_bound"] = bound_checks
        if not all(v["ok"] for v in bound_checks.values()):
            bad = next(k for k, v in bound_checks.items() if not v["ok"])
            return ProbeReport(notion, "inconclusive", tables=tables,
                               notes=f"measured reach time exceeds the analytic bound at {bad}")
    return ProbeReport(notion, "consistent", tables=tables,
                       notes="no refutation at this budget")


# ---------------------------------------------------------------------------
# sigma + chi decomposition
# ---------------------------------------------------------------------------

def decompose_sigma_chi(mu_table):
    """Split a reachability table into sigma(r) = mu(r, 0) and the excess chi.

    The identity axiom forces mu(r, 0) >= r; tables below it by more than
    1e-9 (1 + r) are flagged as an upstream breach.
    """
    if mu_table.t_grid[0] != 0.0:
        raise ValueError("mu table must include tau = 0")
    r = mu_table.r_grid
    sigma_vals = mu_table.values[:, 0].copy()
    if np.any(sigma_vals < r - 1e-9 * (1 + r)):
        raise ValueError("mu(r, 0) < r: identity axiom breach upstream")
    grid = r if r[0] == 0.0 else np.concatenate([[0.0], r])
    vals = sigma_vals if r[0] == 0.0 else np.concatenate([[0.0], sigma_vals])
    vals = np.maximum.accumulate(vals)
    vals = vals + 1e-12 * (1.0 + vals[-1]) * np.arange(vals.size)
    vals[0] = 0.0
    sigma = TabulatedMonotone(grid, vals, "Kinf")
    chi_vals = np.maximum(mu_table.values - mu_table.values[:, [0]], 0.0)
    chi = KLSurface(mu_table.r_grid, mu_table.t_grid, chi_vals, kind="increasing")
    return sigma, chi


# ---------------------------------------------------------------------------
# switched-systems exponential envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchedBoundFit:
    M: float
    omega: float
    M_tilde: float
    h: float
    chain_max_ratio: float
    witness_signal: DisturbanceSignal


def _switching_signals(model, rng, horizon, budget, h_period):
    n_modes = len(model.modes)
    sigs = [DisturbanceSignal.constant(q) for q in range(n_modes)]
    # periodic round-robin patterns at the base period (the standard
    # destabilization witnesses for switched systems)
    for half in (h_period / 2, h_period / 4):
        bps, vals = [], []
        t, q = 0.0, 0
        while t < horizon:
            bps.append(t)
            vals.append(q)
            q = (q + 1) % n_modes
            t += half
        sigs.append(DisturbanceSignal(tuple(bps), tuple(vals)))
    grid = np.arange(0.0, horizon, h_period / 2)
    for _ in range(budget):
        sigs.append(
            DisturbanceSignal(
                tuple(float(b) for b in grid),
                tuple(int(rng.integers(n_modes)) for _ in grid),
            )
        )
    return sigs


def estimate_switched_bound(model, horizon=10.0, budget=12, *, h_period=1.0, seed=0):
    """Fit the minimal exponential envelope of the evolution-operator norm.

    Samples switching signals (constants, periodic round-robins, random
    patterns), measures sup ||Phi_d(t, 0)|| on a grid of 20 times in
    (0, horizon], and fits
    (M, omega) by log-linear regression with M lifted so the envelope
    dominates every sample (and M >= 1, forced by Phi_d(0,0) = I).  Also
    reproduces the submultiplicative chain bound ||Phi_d(t,0)|| <=
    M_tilde^{k+1} with M_tilde the measured sup over one period.
    """
    rng = sub_rng(seed, 41)
    sigs = _switching_signals(model, rng, horizon, budget, h_period)
    t_grid = np.linspace(0.0, horizon, 21)[1:]
    # norms[s, j] = ||Phi_d(t_j, 0)|| for signal s
    norms = np.array([[float(np.linalg.norm(evolve(model, d, float(t)), 2)) for t in t_grid]
                      for d in sigs])
    k = norms.max(axis=0)
    logs = np.log(np.maximum(k, 1e-300))
    omega = float(np.polyfit(t_grid, logs, 1)[0])
    logM = float(np.max(logs - omega * t_grid))
    M = max(1.0, float(np.exp(logM)))
    # one-period chain bound: M_tilde is the sup over the whole period, so
    # it is always >= ||Phi_d(0,0)|| = 1
    M_tilde = max([1.0] + [float(np.linalg.norm(evolve(model, d, float(t)), 2))
                           for d in sigs for t in np.linspace(0.0, h_period, 9)[1:]])
    bounds = np.array([M_tilde ** (int(np.floor(t / h_period)) + 1) for t in t_grid])
    chain_ratio = float(np.max(norms[:6] / bounds))
    witness = sigs[int(np.argmax(norms[:, -1]))]
    return SwitchedBoundFit(M, omega, float(M_tilde), float(h_period),
                            chain_ratio, witness)
