"""Evaluation and verification of (non-)coercive Lyapunov candidates.

Verification here is sampled, never exhaustive: the decay condition
quantifies over the whole disturbance class, so a sampled check can refute
but not certify.  Report vocabulary follows that asymmetry: a passing
verdict means "no violation found" at the given budget.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .systems import EscapeError, _unit_direction, flow, flow_batch, sub_rng

__all__ = [
    "LyapunovCandidate",
    "DiniEstimate",
    "DecayReport",
    "IntegralBoundReport",
    "CoercivityProfile",
    "dini_derivative",
    "verify_decay",
    "verify_integral_bound",
    "coercivity_profile",
    "decay_tolerance",
]


@dataclass(frozen=True)
class LyapunovCandidate:
    """A scalar functional on states with optional sandwich data.

    ``psi2`` is the upper comparison bound (always present for a valid
    candidate in principle, optional here); ``psi1`` is the lower bound and
    is absent exactly for non-coercive candidates.  Decay rates are passed
    to the checks (``verify_decay``, ``verify_integral_bound``) instead.
    """

    eval: object
    name: str = "V"
    psi1: object = None
    psi2: object = None

    def __call__(self, x):
        return float(self.eval(np.asarray(x, dtype=float)))


def decay_tolerance(bound, rel_tol=1e-3):
    """Default margin tolerance: relative to the bound with a tiny floor."""
    return rel_tol * abs(bound) + 1e-9


@dataclass(frozen=True)
class DiniEstimate:
    """Monitored lower Dini derivative proxy.

    ``value`` is the minimum forward-difference quotient over the h
    sequence; the full quotient sequence is kept so non-convergence is
    visible to the caller.
    """

    value: float
    hs: np.ndarray
    quotients: np.ndarray

    def converged(self):
        """Whether the last two quotients agree within 20% of ``value``."""
        if len(self.quotients) < 2:
            return False
        tail = self.quotients[-2:]
        scale = max(1e-12, abs(self.value))
        return abs(tail[1] - tail[0]) <= 0.2 * scale


def default_h_sequence(terms=8, floor=None):
    """The geometric sequence 1e-2 * 2^-j, cut at ``floor``."""
    hs = 1e-2 * 0.5 ** np.arange(terms)
    if floor is not None:
        hs = hs[hs >= floor * (1 - 1e-12)]
        if hs.size == 0:
            hs = np.array([floor])
    return hs


def dini_derivative(V, model, x, d=None, h_sequence=None, step=None):
    """Forward-difference proxy for the lower Dini derivative of V along the flow.

    The limit inferior is approximated by the minimum quotient over a
    decreasing h sequence (default geometric, ratio 1/2, floored at ten
    integrator steps).  Short-horizon escape is a hard error: the Dini
    derivative presupposes the short-time flow exists.
    """
    x = model.state(x)
    if d is None:
        d = model.default_signal()
    est, escaped = next(_dini_batch(V, model, [x], d, h_sequence, step))
    if est is None:
        raise EscapeError("flow escaped within the Dini horizon", witness=(x, d, escaped))
    return est


def _dini_batch(V, model, X, d, h_sequence, step):
    """``dini_derivative`` from each row of X under d, flowed as one batch:
    yields ``(estimate, None)``, or ``(None, bracket)`` for a row that escaped."""
    exact_flow = model.propagator is not None
    if h_sequence is None:
        if step is None:
            step = 1e-4
        h_sequence = default_h_sequence(floor=10 * step)
    else:
        h_sequence = np.sort(np.asarray(h_sequence, dtype=float))[::-1]
    if step is None:
        # exact propagators do not accumulate step error, so the floor h
        # itself is a safe step; vector fields need ten substeps below it
        step = h_sequence[-1] if exact_flow else h_sequence[-1] / 10.0
    if h_sequence[-1] < step * (1 - 1e-12):
        raise ValueError("h floor must be at least the integrator step")
    h_max = float(h_sequence[0])
    for x, traj in zip(X, flow_batch(model, h_max, X, d, step=step)):
        if traj.escaped is not None:
            yield None, traj.escaped
            continue
        v0 = float(V(x))
        quotients = np.array(
            [(float(V(traj.state_at(h))) - v0) / h for h in h_sequence]
        )
        yield DiniEstimate(float(np.min(quotients)), np.asarray(h_sequence), quotients), None


@dataclass(frozen=True)
class DecaySample:
    x: np.ndarray
    signal: object
    dini: float
    bound: float
    margin: float
    escaped: bool = False


@dataclass(frozen=True)
class DecayReport:
    """Sampled check of the dissipation inequality V' <= -alpha(||x||).

    The verdict is "pass" exactly when the worst margin stays within
    tolerance; "pass" means no violation found at this budget, not a
    certificate.
    """

    samples: tuple
    worst_margin: float
    verdict: str
    tol_rel: float

    @property
    def passed(self):
        return self.verdict == "pass"

    @property
    def witnesses(self):
        return [s for s in self.samples if s.margin > decay_tolerance(s.bound, self.tol_rel)]

    def summary(self):
        if self.passed:
            return (
                f"no violation found over {len(self.samples)} samples "
                f"(worst margin {self.worst_margin:.3e})"
            )
        w = self.witnesses[0]
        return (
            f"decay violated at x with ||x||-bound {w.bound:.3e}: "
            f"dini {w.dini:.3e}, margin {w.margin:.3e}"
        )

    def to_json(self):
        return json.dumps(
            {
                "verdict": self.verdict,
                "worst_margin": self.worst_margin,
                "samples": len(self.samples),
                "witnesses": [
                    {
                        "x": list(map(float, s.x)),
                        "signal": s.signal.to_json() if s.signal is not None else None,
                        "dini": s.dini,
                        "bound": s.bound,
                        "margin": s.margin,
                        "escaped": s.escaped,
                    }
                    for s in self.witnesses
                ],
            },
            indent=2,
        )

    def to_csv(self):
        buf = io.StringIO()
        buf.write("dini,bound,margin,escaped\n")
        for s in self.samples:
            buf.write(f"{s.dini!r},{s.bound!r},{s.margin!r},{int(s.escaped)}\n")
        return buf.getvalue()


def verify_decay(V, alpha, model, state_samples, disturbance_samples, tol=1e-3,
                 h_sequence=None, step=None):
    """Check dini(V) <= -alpha(||x||) + tol over the sample product set.

    ``tol`` is relative to each sample's bound (see ``decay_tolerance``).
    Escaped short flows are recorded as failing samples with witnesses
    rather than raising.
    """
    X = [model.state(x) for x in state_samples]
    ests = [list(_dini_batch(V, model, X, d, h_sequence, step))
            for d in disturbance_samples] if X else []
    samples = []
    worst = -np.inf
    for i, x in enumerate(X):
        bound = -float(alpha(model.norm(x)))
        for d, batch in zip(disturbance_samples, ests):
            est = batch[i][0]
            if est is None:
                samples.append(DecaySample(x, d, np.inf, bound, np.inf, escaped=True))
                worst = np.inf
                continue
            margin = est.value - bound
            worst = max(worst, margin)
            samples.append(DecaySample(x, d, est.value, bound, margin))
    bad = any(
        s.margin > decay_tolerance(s.bound, tol) for s in samples
    )
    verdict = "fail" if bad else "pass"
    return DecayReport(tuple(samples), float(worst), verdict, tol)


@dataclass(frozen=True)
class IntegralBoundReport:
    passed: bool
    slack: float
    worst_intermediate_residual: float
    integral: float
    v0: float


def verify_integral_bound(V, alpha, model, x, d=None, horizon=10.0, quadrature_step=1e-3):
    """Check the accumulated-decay bound along one trajectory.

    Composite-trapezoid quadrature of ``alpha(||phi(s)||)`` over the full
    horizon must not exceed ``V(x)`` (within the tolerance 1e-4 V(x) + 1e-9),
    and the running form ``V(phi(t)) - V(x) <= -integral_0^t`` must hold at
    intermediate sample times.  Escape before the horizon is a distinct error since the
    bound presumes the trajectory exists.
    """
    x = model.state(x)
    traj = flow(model, horizon, x, d, step=quadrature_step)
    if traj.escaped is not None:
        raise EscapeError(
            "trajectory escaped before the quadrature horizon",
            witness=(x, traj.signal, traj.escaped),
        )
    g = np.array([float(alpha(n)) for n in traj.norms])
    t = traj.times
    increments = 0.5 * (g[1:] + g[:-1]) * np.diff(t)
    running = np.concatenate([[0.0], np.cumsum(increments)])
    v0 = float(V(x))
    tol = 1e-4 * v0 + 1e-9
    integral = float(running[-1])
    slack = v0 + tol - integral
    vt = np.array([float(V(s)) for s in traj.states])
    inter_resid = float(np.max((vt - v0) + running))
    passed = bool(slack >= 0.0 and inter_resid <= tol)
    return IntegralBoundReport(passed, float(v0 - integral), inter_resid, integral, v0)


@dataclass(frozen=True)
class CoercivityProfile:
    radii: np.ndarray
    inf_estimates: np.ndarray
    sup_estimates: np.ndarray
    inf_witnesses: tuple
    noncoercive_flag: bool

    def to_csv(self):
        buf = io.StringIO()
        buf.write("radius,inf,sup\n")
        for r, lo, hi in zip(self.radii, self.inf_estimates, self.sup_estimates):
            buf.write(f"{float(r)!r},{float(lo)!r},{float(hi)!r}\n")
        return buf.getvalue()


def coercivity_profile(V, model, radii, direction_budget=64, *, seed=0,
                       witness_directions=None):
    """Estimate inf/sup of V on spheres of the given radii.

    Directions are sampled uniformly; any supplied witness directions (for
    block models: per-block eigendirections of the smallest Lyapunov-block
    eigenvalue) are always included.  The candidate is flagged
    non-coercive when the inf estimate at some radius drops below 5% of
    the sup estimate.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    dirs = []
    if witness_directions is None:
        witness_directions = getattr(model, "witness_directions", lambda: [])()
    for w in witness_directions:
        w = np.asarray(w, dtype=float)
        dirs.append(w / np.linalg.norm(w))
    dirs += [_unit_direction(sub_rng(seed, 131, i), model.dim) for i in range(direction_budget)]
    infs, sups, wits = [], [], []
    for r in radii:
        vals = np.array([float(V(r * u)) for u in dirs])
        infs.append(vals.min())
        sups.append(vals.max())
        wits.append(r * dirs[int(vals.argmin())])
    infs = np.array(infs)
    sups = np.array(sups)
    flagged = bool(np.any(infs < 0.05 * np.maximum(sups, 1e-300)))
    return CoercivityProfile(radii, infs, sups, tuple(wits), flagged)
