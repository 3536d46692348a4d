"""Disturbed dynamical systems: signals, flow evaluation and axiom checks.

A system is a triple of state space, disturbance class and transition map.
Disturbances are piecewise-constant signals with finitely many breakpoints,
which makes shift and concatenation exact (their arithmetic runs on rational
breakpoints) and keeps the simulated flow causal by construction.  Vector
fields are integrated with fixed-step RK4, split exactly at the signal's
switching times; linear and switched-linear models can instead supply an
exact propagator (matrix exponential semantics).  ``flow_batch`` is the one
integration loop, and ``flow`` its one-row case.  Divergence is never an
exception path for either: it is reported through the trajectory's
``escaped`` bracket, once a state's norm passes ``EXPLOSION_THRESHOLD``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "DisturbanceSignal",
    "DisturbanceSet",
    "SystemModel",
    "Trajectory",
    "EscapeError",
    "flow",
    "flow_batch",
    "check_axioms",
    "check_homogeneity",
    "AxiomReport",
    "HomogeneityReport",
    "sub_rng",
]

EXPLOSION_THRESHOLD = 1e12

# Bytes of states in one chunk of rows, which ``flow_batch`` integrates together.
_CHUNK_BYTES = 1 << 25


class EscapeError(RuntimeError):
    """A trajectory escaped where the caller required completeness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def sub_rng(seed, *key):
    """Deterministic per-sample substream, independent of evaluation order."""
    return np.random.default_rng((int(seed), *[int(k) for k in key]))


def _rational(x):
    """The number x as an exact fraction.  ``fractions`` is imported here, on
    first use: only signal shifts and concatenations need it."""
    from fractions import Fraction

    return Fraction(x)


def _csv(header, rows):
    """CSV text of a header and rows of cells, one line each.  Strings are
    written as they are, ints and bools as integers, and floats and numpy
    scalars in their shortest round-trip form, ``repr(float(v))``."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in (header, *rows))


def _csv_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, int, np.bool_, np.integer)):
        return str(int(v))
    return repr(float(v))


def _unit_direction(rng, dim):
    """A uniformly random unit vector (zero in the null event of a zero draw)."""
    v = rng.normal(size=dim)
    n = np.linalg.norm(v)
    return v / n if n > 0 else np.zeros(dim)


# ---------------------------------------------------------------------------
# disturbance signals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceSignal:
    """Piecewise-constant disturbance on right-open intervals.

    ``values[i]`` is taken on ``[breakpoints[i], breakpoints[i+1])``; the
    last value extends to infinity and doubles as the tail value.  Lookups
    read the float ``breakpoints``; ``shift`` and ``concat`` compute on the
    exact rational ones, so that ``d1.concat(d2, t).shift(t)`` is ``d2``
    again, where ``(t + b) - t`` in floats need not be ``b``.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(self.values)
        if len(bp) != len(vals) or not bp:
            raise ValueError("need one value per breakpoint")
        if not all(map(math.isfinite, bp)):
            raise ValueError("breakpoints must be finite")
        if bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _exact(self):
        """The breakpoints as exact rationals (their floats round to ``breakpoints``)."""
        return tuple(map(_rational, self.breakpoints))

    @classmethod
    def _from_exact(cls, exact, values):
        """The signal with these rational breakpoints; a piece that vanishes
        when its breakpoints round to floats gives way to the next one."""
        pieces = {}  # float breakpoint -> (exact breakpoint, value); the last one wins
        for e, v in zip(exact, values):
            pieces[float(e)] = (e, v)
        sig = cls(tuple(pieces), tuple(v for _, v in pieces.values()))
        sig.__dict__["_exact"] = tuple(e for e, _ in pieces.values())
        return sig

    @classmethod
    def constant(cls, value):
        return cls((0.0,), (value,))

    def value_at(self, t):
        if t < 0:
            raise ValueError("signals are defined on t >= 0")
        return self.values[bisect_right(self.breakpoints, t) - 1]

    def __call__(self, t):
        return self.value_at(t)

    def shift(self, tau):
        """The signal ``t -> d(t + tau)``; exact for piecewise-constant data."""
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if tau == 0.0:
            return self
        # the piece holding tau is the one value_at picks there
        i = bisect_right(self.breakpoints, tau) - 1
        tau = _rational(tau)
        return self._from_exact((_rational(0),) + tuple(e - tau for e in self._exact[i + 1:]),
                                self.values[i:])

    def concat(self, other, t):
        """Equal to this signal on [0, t) and to ``other(. - t)`` afterwards."""
        if t <= 0:
            raise ValueError("concatenation time must be positive")
        keep = sum(b < t for b in self.breakpoints)
        t = _rational(t)
        return self._from_exact(self._exact[:keep] + tuple(t + e for e in other._exact),
                                self.values[:keep] + other.values)

    def switch_times(self, t0, t1):
        """Breakpoints strictly inside (t0, t1)."""
        return [b for b in self.breakpoints if t0 < b < t1]

    def to_json(self):
        return json.dumps([[b, v] for b, v in zip(self.breakpoints, self.values)])

    @classmethod
    def from_json(cls, text):
        pairs = json.loads(text)
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


# ---------------------------------------------------------------------------
# disturbance value sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceSet:
    """Descriptor of the disturbance value set D.

    kind "interval": scalar values in [lo, hi] (lo/hi may be +-inf, in
    which case probes sweep a magnitude parameter); kind "finite": an
    explicit tuple of values (e.g. mode indices of a switched system).
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    members: tuple = ()

    def __post_init__(self):
        if self.kind not in ("interval", "finite"):
            raise ValueError("kind must be interval or finite")
        if self.kind == "finite" and not self.members:
            raise ValueError("finite set needs members")
        # NaN fails this comparison; infinite bounds pass it
        if self.kind == "interval" and not self.lo <= self.hi:
            raise ValueError(f"interval needs lo <= hi, got [{self.lo!r}, {self.hi!r}]")

    @classmethod
    def real_line(cls):
        return cls("interval", -np.inf, np.inf)

    @classmethod
    def interval(cls, lo, hi):
        return cls("interval", float(lo), float(hi))

    @classmethod
    def finite(cls, members):
        return cls("finite", members=tuple(members))

    @property
    def bounded(self):
        if self.kind == "finite":
            return True
        return bool(np.isfinite(self.lo) and np.isfinite(self.hi))

    def clipped(self, magnitude):
        """Effective bounds at a sweep magnitude (for unbounded sets)."""
        lo = np.maximum(self.lo, -magnitude)
        hi = np.minimum(self.hi, magnitude)
        return lo, hi

    def corner_values(self, magnitude=1.0):
        if self.kind == "finite":
            return list(self.members)
        lo, hi = self.clipped(magnitude)
        vals = {float(lo), float(hi), 0.0} if lo <= 0.0 <= hi else {float(lo), float(hi)}
        return sorted(vals)

    def sample_value(self, rng, magnitude=1.0):
        if self.kind == "finite":
            return self.members[rng.integers(len(self.members))]
        lo, hi = self.clipped(magnitude)
        return float(rng.uniform(lo, hi))

    def sample_signal(self, rng, horizon, pieces=8, magnitude=1.0):
        """Random piecewise-constant signal with switch times on a uniform grid."""
        pieces = max(1, int(pieces))
        bps = tuple(horizon * i / pieces for i in range(pieces))
        vals = tuple(self.sample_value(rng, magnitude) for _ in range(pieces))
        return DisturbanceSignal(bps, vals)

    def probe_signals(self, rng, horizon, budget, pieces=8, magnitude=1.0):
        """Corner constants plus ``budget`` random piecewise-constant signals;
        just the constant when there is one corner (an undisturbed system)."""
        corners = self.corner_values(magnitude)
        sigs = [DisturbanceSignal.constant(v) for v in corners]
        if len(corners) > 1:
            sigs += [self.sample_signal(rng, horizon, pieces, magnitude) for _ in range(budget)]
        return sigs


# ---------------------------------------------------------------------------
# system models and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemModel:
    """A simulatable disturbed system.

    Exactly one of ``rhs`` (vector field ``f(X, d_value)``) or
    ``propagator`` (``(d_value, dt) -> (X -> X)``, exact linear evolution)
    must be supplied.  Both act on states as rows, as ``flow_batch`` calls
    them: ``X`` has shape ``(B, dim)``, and row b of the result depends on
    row b of ``X`` alone.  A propagator's map is linear, so 0 is an
    equilibrium of every propagator model; it is built on every call and
    keeps no cache.  ``norm`` and ``Trajectory.norms`` are Euclidean.
    """

    name: str
    dim: int
    disturbance_set: DisturbanceSet
    rhs: object = None
    propagator: object = None
    homogeneous: bool | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.rhs is None) == (self.propagator is None):
            raise ValueError("supply exactly one of rhs or propagator")

    def norm(self, x):
        # float(np.linalg.norm(x)) bit for bit, without its per-call dispatch
        x = np.asarray(x, dtype=float).ravel(order="K")
        return math.sqrt(x.dot(x))

    def state(self, x):
        return _states(self, [np.atleast_1d(x)])[0]

    def default_signal(self):
        if self.disturbance_set.kind == "finite":
            return DisturbanceSignal.constant(self.disturbance_set.members[0])
        lo, hi = self.disturbance_set.clipped(1.0)
        return DisturbanceSignal.constant(0.0 if lo <= 0.0 <= hi else float(0.5 * (lo + hi)))


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution, possibly truncated by a finite-escape bracket."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    norms: np.ndarray  # Euclidean norm of each state
    signal: DisturbanceSignal
    escaped: tuple | None = None  # (last finite sample time, first over-threshold time)

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self):
        return float(self.times[-1])

    def state_at(self, t):
        """Linear interpolation between recorded samples."""
        if t < self.times[0] or t > self.times[-1]:
            raise ValueError("time outside the sampled range")
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        j = min(j, len(self.times) - 2) if len(self.times) > 1 else 0
        if len(self.times) == 1 or self.times[j] == t:
            return self.states[j]
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        return (1 - w) * self.states[j] + w * self.states[j + 1]

    def to_csv(self):
        head = ["t", *(f"x_{i+1}" for i in range(self.states.shape[1])), "d"]
        return _csv(head, ((t, *s, self.signal.value_at(float(t)))
                           for t, s in zip(self.times, self.states)))


def _states(model, X):
    """X as a float array of one state per row, checked finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValueError(f"state must have shape ({model.dim},)")
    if len(X) == 0:
        raise ValueError("need at least one state")
    if not np.isfinite(X).all():
        raise ValueError("state must be finite")
    return X


def flow(model, t, x, d=None, step=1e-3):
    """Simulate the model from x over [0, t] under the signal d: the one
    trajectory of ``flow_batch`` on the single row x."""
    return next(flow_batch(model, t, model.state(x)[None], d, step))


def flow_batch(model, t, X, d=None, step=1e-3):
    """Simulate the model from each row of X over [0, t] under the signal d.

    Vector-field models use fixed-step classical RK4, split exactly at the
    signal's breakpoints so the integrator only ever reads d on [0, t].
    Propagator models apply the exact evolution operator, built once per
    distinct (d value, step) pair of the node grid and kept for one chunk of
    rows.  Each node advances all rows still alive by one step.  A row
    whose norm passes ``EXPLOSION_THRESHOLD`` (1e12) or goes non-finite leaves the
    batch, and ``escaped`` brackets its escape time; non-finite states are
    never returned.  Rows never mix, so each trajectory is the flow of its
    row alone.  Yields one ``Trajectory`` per row, integrating a chunk of at
    most ``_CHUNK_BYTES`` of states when its first row is asked for.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"horizon t must be finite and nonnegative, got {t!r}")
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    X = _states(model, X)
    if d is None:
        d = model.default_signal()
    edges = [0.0] + d.switch_times(0.0, t) + [t] if t > 0 else []
    times, dvals = [0.0], []  # dvals[k]: the signal's value from node k to k + 1
    for t0, t1 in zip(edges, edges[1:]):
        # fixed-step nodes covering (t0, t1], last step shortened to land on t1
        n_full = int(np.floor((t1 - t0) / step + 1e-12))
        nodes = [t0 + i * step for i in range(1, n_full + 1)]
        if nodes and nodes[-1] >= t1 - 1e-12 * max(1.0, abs(t1)):
            nodes.pop()
        times += nodes + [t1]
        dvals += [d.value_at(t0)] * (len(nodes) + 1)
    times = np.array(times)
    rows = max(1, _CHUNK_BYTES // (8 * times.size * model.dim))
    return (traj for lo in range(0, len(X), rows)
            for traj in _integrate(model, times, dvals, X[lo:lo + rows], d))


def _integrate(model, times, dvals, X, d):
    states = np.empty((len(X), times.size, model.dim))
    last = np.full(len(X), times.size - 1)  # index of each row's last state
    alive = slice(None)  # every row, until the first escape
    cur = states[:, 0] = X
    f = model.rhs
    # one step map per (d value, step), kept for this chunk: the steps of a
    # node grid differ in their last bits, so a flow builds about ten maps
    propagator = None if model.propagator is None else cache(model.propagator)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (dval, h) in enumerate(zip(dvals, np.diff(times).tolist()), 1):
            if propagator is not None:
                nxt = propagator(dval, h)(cur)
            else:
                k1 = f(cur, dval)
                k2 = f(cur + 0.5 * h * k1, dval)
                k3 = f(cur + 0.5 * h * k2, dval)
                k4 = f(cur + h * k3, dval)
                nxt = cur + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            # C order, so that the norms round as math.sqrt(x.dot(x)) does
            nxt = np.ascontiguousarray(nxt, dtype=float)
            sq = np.vecdot(nxt, nxt)
            # sqrt is monotone, and a NaN or inf row fails the comparison
            if not math.sqrt(sq.max()) <= EXPLOSION_THRESHOLD:
                ok = np.sqrt(sq) <= EXPLOSION_THRESHOLD
                alive = np.arange(len(X))[alive]
                last[alive[~ok]] = k - 1
                alive, nxt = alive[ok], nxt[ok]
                if not alive.size:
                    break
            states[alive, k] = nxt
            cur = nxt
    for b, j in enumerate(last):
        escaped = None if j == times.size - 1 else (float(times[j]), float(times[j + 1]))
        S = states[b, :j + 1]
        yield Trajectory(times[:j + 1], S, np.sqrt(np.vecdot(S, S)), d, escaped)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    identity_max: float
    causality_max: float
    cocycle_max: float
    continuity_max: float
    samples: int
    escaped_excluded: int

    def passed(self, tol):
        """True when some sample was checked and every residual is in tolerance."""
        return (
            self.samples > 0
            and self.identity_max == 0.0
            and self.causality_max == 0.0
            and self.cocycle_max <= tol
            and self.continuity_max <= tol
        )


@dataclass(frozen=True)
class HomogeneityReport:
    max_residual: float
    worst: tuple | None
    samples: int
    escaped_excluded: int


def check_axioms(model, sample_budget=10, *, seed=0, step=1e-3,
                 radius=1.0, t_max=0.5, magnitude=1.0):
    """Executable checks of the defining system axioms on random samples.

    Identity and causality are exact properties of the simulator and are
    required to hold bit-for-bit; the cocycle residual and the step-halving
    continuity residual are integration-accuracy checks, which
    ``AxiomReport.passed(tol)`` compares with a tolerance.  Each sample's
    signals have 4 pieces.  Escaped samples are excluded from the maxima
    and counted; a report with no sample left does not pass.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    id_max = ca_max = co_max = cont_max = 0.0
    escaped = 0
    used = 0
    for i in range(sample_budget):
        rng = sub_rng(seed, 83, i)
        x = _unit_direction(rng, model.dim) * radius * rng.uniform(0.1, 1.0)
        t = float(rng.uniform(0.05, t_max))
        h = float(rng.uniform(0.05, t_max))
        dset = model.disturbance_set
        d = dset.sample_signal(rng, t + h, pieces=4, magnitude=magnitude)
        d_other = dset.sample_signal(rng, t + h, pieces=4, magnitude=magnitude)

        direct = flow(model, t + h, x, d, step=step)
        if direct.escaped is not None:
            escaped += 1
            continue
        # identity: phi(0, x, d) == x, bit-level
        tr0 = flow(model, 0.0, x, d, step=step)
        id_max = max(id_max, float(np.max(np.abs(tr0.final_state - x), initial=0.0)))
        # causality: signals agreeing on [0, t+h] give identical flows
        d_tilde = d.concat(d_other, t + h)
        again = flow(model, t + h, x, d_tilde, step=step)
        ca_max = max(ca_max, float(np.max(np.abs(again.final_state - direct.final_state))))
        # cocycle: phi(h, phi(t, x, d), d(t+.)) == phi(t+h, x, d)
        first = flow(model, t, x, d, step=step)
        if first.escaped is not None:
            escaped += 1
            continue
        second = flow(model, h, first.final_state, d.shift(t), step=step)
        if second.escaped is not None:
            escaped += 1
            continue
        co_max = max(co_max, float(np.linalg.norm(second.final_state - direct.final_state)))
        # continuity in t, certified up to integrator convergence: the
        # step-halved endpoint must agree with the full-step endpoint
        halved = flow(model, t + h, x, d, step=step / 2)
        if halved.escaped is None:
            cont_max = max(cont_max, float(np.linalg.norm(halved.final_state - direct.final_state)))
        used += 1
    return AxiomReport(id_max, ca_max, co_max, cont_max, used, escaped)


def check_homogeneity(model, sample_budget=10, *, seed=0, step=1e-3,
                      radius=1.0, lambda_max=2.0, magnitude=1.0):
    """Residuals of ``phi(t, lambda x, d) = lambda phi(t, x, d)`` over samples,
    at times t drawn from [0.05, 0.5] under 4-piece signals."""
    worst = None
    res_max = 0.0
    escaped = 0
    used = 0
    for i in range(sample_budget):
        rng = sub_rng(seed, 97, i)
        x = _unit_direction(rng, model.dim) * radius * rng.uniform(0.1, 1.0)
        lam = float(rng.uniform(0.0, lambda_max))
        t = float(rng.uniform(0.05, 0.5))
        d = model.disturbance_set.sample_signal(rng, t, pieces=4, magnitude=magnitude)
        base, scaled = flow_batch(model, t, [x, lam * x], d, step=step)
        if base.escaped is not None or scaled.escaped is not None:
            escaped += 1
            continue
        r = float(np.linalg.norm(scaled.final_state - lam * base.final_state))
        if r > res_max:
            res_max = r
            worst = (x, lam, t, d)
        used += 1
    return HomogeneityReport(res_max, worst, used, escaped)
