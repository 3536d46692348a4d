"""Numerical converse Lyapunov constructions for UGAS systems.

Builds the max-type and integral-type candidate families from sampled
trajectories: each member thresholds and clamps the decayed norm through a
unit-Lipschitz reshaping function, integrates (or maximizes) it over a
finite horizon derived from the fitted decay bound, and the assembled sum
weights the members so the series converges with a computable Lipschitz
constant on every ball.

Suprema over the disturbance class are sampled maxima, so every
constructed value is a lower estimate; the inequalities that upper-bound
the construction stay valid, and the decay property is checked empirically
downstream rather than inherited.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .comparison import (TabulatedMonotone, gk_threshold, invert_table, lipschitz_minorant,
                         sontag_factorize)
from .systems import EscapeError, _csv, _unit_direction, flow, flow_batch, sub_rng

__all__ = [
    "ConverseConfig",
    "ConstructedLyapunov",
    "VkEvaluator",
    "estimate_flow_lipschitz",
    "construct_vk_integral",
    "construct_vk_max",
    "assemble_w",
]


@dataclass(frozen=True)
class ConverseConfig:
    """Parameters of the converse constructions.

    ``rho`` must pass the unit-Lipschitz grid check and ``alpha1`` must be
    class Kinf; both normally come from a fitted decay surface via
    ``from_kl_bound``.  ``eta`` only matters for the max-type variant.
    The sampled disturbances have 8 pieces.
    """

    rho: TabulatedMonotone
    alpha1: TabulatedMonotone
    k_max: int = 8
    R: float = 1.0
    disturbance_budget: int = 8
    eta: float = 0.5
    quadrature_step: float = 1e-3
    seed: int = 0
    magnitude: float = 1.0

    def __post_init__(self):
        if self.alpha1.class_tag != "Kinf":
            raise ValueError("alpha1 must be class Kinf")
        if self.rho.class_tag != "Kinf":
            raise ValueError("rho must be class Kinf")
        g, v = self.rho.grid, self.rho.values
        diffs = np.abs(v[:, None] - v[None, :])
        gaps = np.abs(g[:, None] - g[None, :])
        if np.any(diffs > gaps + 1e-9):
            raise ValueError("rho fails the unit-Lipschitz grid check")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.quadrature_step <= 0:
            raise ValueError("quadrature_step must be positive")

    @classmethod
    def from_kl_bound(cls, beta, **kwargs):
        """Derive (rho, alpha1) from a fitted decay surface.

        The surface is inflated by 5% before factorization so that
        trajectories sampled later stay below it; rho is the unit-Lipschitz
        minorant of the inverse of the factorization's outer function.
        """
        from .comparison import KLSurface

        inflated = KLSurface(beta.r_grid, beta.t_grid, beta.values * (1.0 + 0.05),
                             kind="KL")
        alpha1, alpha2 = sontag_factorize(inflated)
        rho = lipschitz_minorant(invert_table(alpha2))
        return cls(rho=rho, alpha1=alpha1, **kwargs)

    def horizon(self, R, k):
        """Integration horizon ln(1 + k alpha1(R))."""
        return float(np.log1p(k * float(self.alpha1(R))))

    def signals(self, model, horizon):
        rng = sub_rng(self.seed, 59)
        return model.disturbance_set.probe_signals(
            rng, max(horizon, 1e-6), self.disturbance_budget, magnitude=self.magnitude,
        )


def estimate_flow_lipschitz(model, R, tau, budget=12, *, seed=0, step=1e-3, magnitude=1.0):
    """Empirical Lipschitz constant of the flow on the R-ball over [0, tau].

    Maximizes the endpoint-pair stretching ratio over sampled state pairs
    (random, antipodal and nearby pairs), sampled 8-piece disturbances and all
    trajectory sample times; a propagator model of dimension at most 8
    instead takes exact operator norms of its flowed basis.  Escape
    invalidates the estimate and is a hard error; its witness is the
    escaped row's start, the signal and the escape bracket.
    """
    if R <= 0 or tau <= 0:
        raise ValueError("R and tau must be positive")
    rng = sub_rng(seed, 61)
    signals = model.disturbance_set.probe_signals(rng, tau, budget, magnitude=magnitude)
    if model.propagator is not None and model.dim <= 8:
        # linear evolution in small dimension: flow the canonical basis and
        # take exact operator norms at every sample time, which dominates
        # any pair-sampled ratio
        best = 1.0
        basis = np.eye(model.dim)
        for d in signals:
            cols = list(flow_batch(model, tau, basis, d, step=step))
            for e, tr in zip(basis, cols):
                if tr.escaped is not None:
                    raise EscapeError(
                        "escape during Lipschitz estimation", witness=(e, d, tr.escaped))
            mats = np.stack([tr.states for tr in cols], axis=-1)  # (n_times, dim, dim)
            best = max(best, float(np.linalg.norm(mats, ord=2, axis=(1, 2)).max()))
        return best
    pairs = []
    for _ in range(budget):
        x = _unit_direction(rng, model.dim) * R * rng.uniform(0.2, 1.0)
        pairs.append((x, -x))
        pairs.append((x, x + _unit_direction(rng, model.dim) * R * 1e-3))
        pairs.append((x, _unit_direction(rng, model.dim) * R * rng.uniform(0.2, 1.0)))
    gaps = [float(np.linalg.norm(x - y)) for x, y in pairs]
    pairs = [(x, y, gap) for (x, y), gap in zip(pairs, gaps) if gap != 0.0]
    best = 0.0
    for d in signals:
        # rows alternate x, y, so each pair's two trajectories come together
        rows = flow_batch(model, tau, [z for x, y, _ in pairs for z in (x, y)], d, step=step)
        for (x, y, gap), tx, ty in zip(pairs, rows, rows):
            for z, tz in ((x, tx), (y, ty)):
                if tz.escaped is not None:
                    raise EscapeError(
                        "escape during Lipschitz estimation: flow is not complete "
                        "on the ball", witness=(z, d, tz.escaped))
            diffs = np.linalg.norm(tx.states - ty.states, axis=1)
            best = max(best, float(diffs.max()) / gap)
    return best


@dataclass(frozen=True)
class VkEvaluator:
    """One member of the constructed family (integral or max type).

    Values are maxima over a frozen set of sampled disturbances, drawn once
    on the horizon of the reference radius ``config.R`` and shared by every
    state (beyond that horizon each signal keeps its last value), so they
    are lower estimates of the disturbance supremum; increasing the budget
    never decreases a value.
    """

    model: object
    k: int
    config: ConverseConfig
    kind: str  # "integral" or "max"
    _signals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "_signals", tuple(
            self.config.signals(self.model, self.horizon(self.config.R))))

    def horizon(self, R):
        T = self.config.horizon(R, self.k)
        if self.kind == "max":
            return T / (1.0 - self.config.eta)
        return T

    def __call__(self, x, step=None):
        model = self.model
        x = model.state(x)
        R = model.norm(x)
        if R == 0.0:
            return 0.0
        T = self.horizon(R)
        if T <= 0.0:
            return 0.0
        step = step or self.config.quadrature_step
        cfg = self.config
        best = 0.0
        for d in self._signals:
            traj = flow(model, T, x, d, step=step)
            if traj.escaped is not None:
                raise EscapeError(
                    "escape during the construction horizon refutes the "
                    "UGAS premise", witness=(x, d, traj.escaped))
            g = gk_threshold(self.k, cfg.rho(traj.norms))
            if self.kind == "integral":
                val = float(np.trapezoid(g, traj.times))
            else:
                val = float(np.max(np.exp(cfg.eta * traj.times) * g))
            best = max(best, val)
        return best

    def value_checked(self, x):
        """Value plus a quadrature flag: halving the step must move it by less
        than 1e-4 relative."""
        v1 = self(x)
        v2 = self(x, step=self.config.quadrature_step / 2)
        flagged = abs(v2 - v1) > 1e-4 * max(abs(v1), 1e-12)
        return v2, flagged


def construct_vk_integral(model, k, config):
    """Integral-type member: sampled-sup of the clamped decayed norm integral."""
    return VkEvaluator(model, k, config, "integral")


def construct_vk_max(model, k, config):
    """Max-type member with the exponential reweighting e^{eta s}.

    The maximization horizon is extended by 1/(1 - eta) so the exponential
    growth cannot outlive the decay bound's e^{-s} envelope.
    """
    return VkEvaluator(model, k, config, "max")


@dataclass(frozen=True)
class ConstructedLyapunov:
    """Weighted sum of the family members with its companion decay floor.

    ``weights[k-1] = 2^{-k} / (1 + M(k, k))`` with ``M(R, k) =
    T(R, k) L(R, k)``; the floor ``psi1(r)`` is the identically truncated
    weighted sum of the clamps, the rate against which decay of W is
    checked.  The truncation is exact below ``rho^{-1}(1/k_max)``.
    """

    evaluators: tuple
    weights: np.ndarray
    config: ConverseConfig
    horizons: dict
    lipschitz: dict
    metadata: dict = field(default_factory=dict)

    def __call__(self, x):
        return float(sum(w * vk(x) for w, vk in zip(self.weights, self.evaluators)))

    def psi1(self, r):
        r = np.asarray(r, dtype=float)
        rho_r = self.config.rho(r)
        total = np.zeros_like(np.atleast_1d(rho_r), dtype=float)
        for w, vk in zip(self.weights, self.evaluators):
            total = total + w * gk_threshold(vk.k, rho_r)
        return float(total[0]) if np.ndim(r) == 0 else total

    def export_csv(self, state_grid):
        """Sampled W over a user-supplied state grid."""
        dim = self.evaluators[0].model.dim
        xs = (np.atleast_1d(np.asarray(x, dtype=float)) for x in state_grid)
        return _csv([*(f"x_{i+1}" for i in range(dim)), "W"], ((*x, self(x)) for x in xs))

    def export_metadata(self):
        return json.dumps(
            {
                "weights": [float(w) for w in self.weights],
                "horizons": {f"{k}": v for k, v in self.horizons.items()},
                "lipschitz": {f"R={k[0]},k={k[1]}": v for k, v in self.lipschitz.items()},
                "k_max": self.config.k_max,
                "eta": self.config.eta,
                "disturbance_budget": self.config.disturbance_budget,
                "quadrature_step": self.config.quadrature_step,
                "seed": self.config.seed,
                **self.metadata,
            },
            indent=2,
        )


def assemble_w(model, config, kind="integral", lipschitz_budget=8):
    """Assemble the weighted construction W with its weights and tables.

    The member family is integral-type by default (the non-coercive
    construction); ``kind="max"`` assembles the max-type family with the
    same weight pattern.  ``M(R, k)`` tables are built for the reference
    radius ``config.R`` and for the weight anchors R = k; their flow
    Lipschitz estimates integrate with step ``max(quadrature_step, 1e-3)``.
    """
    cfg = config
    evaluators = []
    horizons = {}
    lipschitz = {}
    weights = np.zeros(cfg.k_max)
    build = construct_vk_integral if kind == "integral" else construct_vk_max
    step = max(cfg.quadrature_step, 1e-3)
    for k in range(1, cfg.k_max + 1):
        vk = build(model, k, cfg)
        evaluators.append(vk)
        for R in {float(k), float(cfg.R)}:
            T = vk.horizon(R)
            horizons[(R, k)] = T
            if T <= 0.0:
                lipschitz[(round(R, 12), k)] = 0.0
                continue
            L = estimate_flow_lipschitz(
                model, R, T, budget=lipschitz_budget, seed=cfg.seed,
                step=step, magnitude=cfg.magnitude)
            lipschitz[(round(R, 12), k)] = cfg.horizon(R, k) * L
        weights[k - 1] = 2.0 ** (-k) / (1.0 + lipschitz[(round(float(k), 12), k)])
    return ConstructedLyapunov(
        tuple(evaluators), weights, cfg, horizons, lipschitz,
        metadata={"kind": kind, "model": model.name},
    )
