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
import numbers
from bisect import bisect_left, bisect_right
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
# Bytes of states that one propagator apply takes in: a leap's apply takes
# every node it fills, which at high dimension would copy megabytes at once.
_APPLY_BYTES = 1 << 20
# The longest time step of a propagator's leap map.  The matrix exponential
# loses accuracy on long steps (expm(A 2.56) of A = [[-1.5, 0.5], [0, -0.8]]
# is 3.7e-13 off, where every step up to 1.0 is within 3e-16), and its
# entries overflow under a fast expanding mode.
_LEAP_SECONDS = 1.0


class EscapeError(RuntimeError):
    """A trajectory escaped where the caller required completeness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _completed(traj, message):
    """``traj``, or an ``EscapeError`` whose witness (start, signal, bracket) ``flow`` replays."""
    if traj.escaped is not None:
        raise EscapeError(message, witness=(traj.states[0], traj.signal, traj.escaped))
    return traj


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

    def __contains__(self, value):
        """Whether ``value`` is in D: one of the members, or a real number in [lo, hi]."""
        if self.kind == "finite":
            return value in self.members
        return isinstance(value, numbers.Real) and self.lo <= value <= self.hi

    @property
    def bounded(self):
        if self.kind == "finite":
            return True
        return bool(np.isfinite(self.lo) and np.isfinite(self.hi))

    def _window(self, magnitude):
        return (-magnitude if self.lo == -math.inf else self.lo,
                magnitude if self.hi == math.inf else self.hi)

    def clipped(self, magnitude):
        """The bounds probed at a sweep magnitude: lo and hi, an infinite one
        replaced by -magnitude or magnitude.  A half-infinite D whose finite
        end lies beyond the magnitude leaves nothing to probe."""
        lo, hi = self._window(magnitude)
        if not lo <= hi:
            raise ValueError(f"D = [{self.lo!r}, {self.hi!r}] has no value within "
                             f"magnitude {magnitude!r}")
        return lo, hi

    def sweep(self, magnitudes):
        """The magnitudes of a probe's sweep: 1.0 alone for a bounded D, which
        is probed whole; else ``magnitudes`` in order and without repeats,
        where one whose window is empty, below the finite end of a
        half-infinite D, gives way to that end's magnitude.  A probe that
        takes one magnitude reads it as ``sweep((magnitude,))[0]``."""
        if self.bounded:
            return (1.0,)
        swept = []
        for m in magnitudes:
            lo, hi = self._window(m)
            if not lo <= hi:
                m = abs(self.hi if self.hi != math.inf else self.lo)
                if not math.isfinite(m):
                    continue
            if m not in swept:
                swept.append(m)
        if not swept:
            raise ValueError(f"D = [{self.lo!r}, {self.hi!r}] has no value within any "
                             f"of the magnitudes {tuple(magnitudes)!r}")
        return tuple(swept)

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

    Exactly one of ``rhs`` (vector field ``f(X, d)``) or ``propagator``
    (``(d_value, dt) -> (X -> X)``, exact linear evolution) must be
    supplied.  Both act on states as rows, as ``flow_batch`` calls them:
    ``X`` has shape ``(B, dim)``, and row b of the result depends on row b
    of ``X`` alone.  A vector field's ``d`` is one value or a ``(B, 1)``
    column of one value per row, so it must broadcast; a propagator's is
    one value, and the kernel groups rows by value for it.  A propagator's
    map is the exact evolution over any ``dt``, since the kernel reaches a
    node by composing maps over different time steps; it is linear, so 0 is
    an equilibrium of every propagator model, and it is built on every call
    and keeps no cache.  ``norm`` and ``Trajectory.norms`` are Euclidean.
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
        """The constant signal at the first member of a finite D, or at the
        value of an interval D nearest 0."""
        dset = self.disturbance_set
        if dset.kind == "finite":
            return DisturbanceSignal.constant(dset.members[0])
        return DisturbanceSignal.constant(float(min(max(0.0, dset.lo), dset.hi)))


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

    ``t`` is one horizon or a sequence of one per row, and ``d`` one signal
    or a sequence of one per row (None: the model's default signal).
    Vector-field models use fixed-step classical RK4, split exactly at the
    signal's breakpoints so the integrator only ever reads d on [0, t].
    Propagator models apply the exact evolution operator, each map built
    once per (d value, time step) and kept for one chunk of rows.  Each row
    keeps the nodes of its own flow: rows whose signals share their
    breakpoints share one node grid, up to the longest of their horizons,
    and a row whose horizon ends inside a piece takes its own shortened last
    step there and retires.  Within a piece a vector field's rows advance
    together, one RK4 step per node with a column of their values.  A
    propagator's rows of one value leap together: the j-th full-step node
    of a piece comes from an earlier one by the map at step 2^m, so a
    piece of F full steps takes ceil(log2(F + 1)) leaps, each one apply
    over all the nodes it fills (split into applies of at most
    ``_APPLY_BYTES`` of states), before the last steps.  A leap's map
    spans at most ``_LEAP_SECONDS``: once leaps reach that span they stop
    doubling, and each further one fills one span more.  A row whose
    leaps give a bad node is stepped again one map per node.  A row whose
    norm passes ``EXPLOSION_THRESHOLD`` (1e12) or goes non-finite leaves
    the batch, and ``escaped`` brackets its escape time; non-finite states
    are never returned.  Rows never mix, so each trajectory is the
    flow of its row alone.  Yields one ``Trajectory`` per row, integrating a
    chunk of at most ``_CHUNK_BYTES`` of states when its first row is asked
    for.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    X = _states(model, X)
    ts = [t] * len(X) if np.ndim(t) == 0 else list(t)
    ds = [d] * len(X) if d is None or isinstance(d, DisturbanceSignal) else list(d)
    if len(ts) != len(X) or len(ds) != len(X):
        raise ValueError(f"need one horizon and one signal per row, got {len(ts)} "
                         f"and {len(ds)} for {len(X)} rows")
    for h in ts:
        if not 0 <= h < math.inf:
            raise ValueError(f"horizon t must be finite and nonnegative, got {h!r}")
    ts = [float(h) for h in ts]
    if any(s is None for s in ds):
        default = model.default_signal()
        ds = [default if s is None else s for s in ds]
    # one node grid per breakpoint tuple, to the longest horizon among its
    # rows; n[b] is the index of row b's last node, at its own horizon
    grids, n = {}, [0] * len(X)
    for bps, rows in _by_breakpoints(ds, range(len(X))).items():
        _, _, starts = grids[bps] = _grid(bps, max(ts[b] for b in rows), step)
        for b in rows:
            if ts[b] > 0:
                p = bisect_left(bps, ts[b]) - 1  # the piece that holds the horizon
                n[b] = starts[p] + _full_steps(bps[p], ts[b], step) + 1
    chunk = max(1, _CHUNK_BYTES // (8 * (max(n) + 1) * model.dim))
    return (traj for lo in range(0, len(X), chunk)
            for traj in _integrate(model, grids, step, X[lo:lo + chunk], ts[lo:lo + chunk],
                                   ds[lo:lo + chunk], n[lo:lo + chunk]))


def _by_breakpoints(ds, rows):
    """The rows grouped by their signals' breakpoints, in order of first appearance."""
    groups = {}
    for b in rows:
        groups.setdefault(ds[b].breakpoints, []).append(b)
    return groups


def _full_steps(t0, t1, step):
    """The number of full steps in the piece (t0, t1]: the nodes t0 + i step,
    the last one dropped when it lands within 1e-12 of t1, where the shortened
    step to t1 ends the piece."""
    count = math.floor((t1 - t0) / step + 1e-12)
    if count and t0 + count * step >= t1 - 1e-12 * max(1.0, abs(t1)):
        count -= 1
    return count


def _grid(bps, horizon, step):
    """The nodes of a flow to the horizon under signals with the breakpoints:
    their times, the steps between them as floats, and the index in the
    times where each piece starts."""
    times, starts = [0.0], []
    edges = [0.0, *(b for b in bps if 0.0 < b < horizon), horizon] if horizon > 0 else []
    for t0, t1 in zip(edges, edges[1:]):
        starts.append(len(times) - 1)
        times += [t0 + i * step for i in range(1, _full_steps(t0, t1, step) + 1)] + [t1]
    times = np.array(times)
    return times, np.diff(times).tolist(), starts


def _integrate(model, grids, step, X, ts, ds, n):
    states = np.empty((len(X), max(n) + 1, model.dim))
    states[:, 0] = X
    last = list(n)  # index of each row's last state
    ends = {}  # escaped row -> the end of the step it did not survive
    if model.propagator is None:
        f = model.rhs

        def step_map(v, h):
            def rk4(x):
                k1 = f(x, v)
                k2 = f(x + 0.5 * h * k1, v)
                k3 = f(x + 0.5 * h * k2, v)
                k4 = f(x + h * k3, v)
                return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return rk4
    else:
        # one step map per (d value, step), kept for this chunk
        step_map = cache(model.propagator)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for bps, rows in _by_breakpoints(ds, range(len(X))).items():
            _, steps, starts = grid = grids[bps]
            rows.sort(key=lambda b: -n[b])  # stable: equal horizons keep their order
            for p, k0 in enumerate(starts):
                rows = [b for b in rows if last[b] > k0]
                if not rows:
                    break
                k1 = starts[p + 1] if p + 1 < len(starts) else len(steps)
                if model.propagator is None:
                    # a vector field takes the column of the rows' own values
                    v = np.array([ds[b].values[p] for b in rows])[:, None]
                    _advance(step_map, v, rows, k0, k1, grid, X, states, ts, n, last, ends)
                else:
                    # a propagator builds its maps per value, for that value's rows
                    by_value = {}
                    for b in rows:
                        by_value.setdefault(ds[b].values[p], []).append(b)
                    for v, cls in by_value.items():
                        _leap(step_map, v, cls, k0, k1, grid, step, states, ts, n, last,
                              ends)
    for b, j in enumerate(last):
        # a row's nodes are its grid's up to its last step, which ends at its horizon
        times = grids[ds[b].breakpoints][0][:j + 1]
        escaped = (float(times[j]), ends[b]) if j < n[b] else None
        if escaped is None and times[j] != ts[b]:
            times = np.append(times[:j], ts[b])
        S = states[b, :j + 1]
        yield Trajectory(times, S, np.sqrt(np.vecdot(S, S)), ds[b], escaped)


# no row of a batch whose squares sum to less than this passes
# EXPLOSION_THRESHOLD, whatever the rounding of that sum
_SAFE_SQUARES = 0.5 * EXPLOSION_THRESHOLD**2


def _advance(step_map, v, rows, k0, k1, grid, X, states, ts, n, last, ends):
    """Step the rows, longest horizon first, from node k0 to node k1 under
    the column v of one value per row, which is cut with the rows.  A row
    stops early at its own last node, or at its last finite one when it
    escapes."""
    times, steps, _ = grid
    dst, retire = _index(rows), n[rows[-1]]
    # at node 0 the rows start from X itself, where a slice of rows is no copy
    cur = X[dst] if k0 == 0 else states[rows, k0]
    for k in range(k0 + 1, k1 + 1):
        if k < retire:
            nxt = step_map(v, steps[k - 1])(cur)
        else:
            # the rows whose horizon ends here take their own last step to it
            go = _going(rows, n, k)
            nxt = np.empty_like(cur)
            if go:
                nxt[:go] = step_map(v[:go], steps[k - 1])(cur[:go])
            own = {}
            for j in range(go, len(rows)):
                own.setdefault(ts[rows[j]] - float(times[k - 1]), []).append(j)
            for h, js in own.items():
                nxt[js] = step_map(v[js], h)(cur[js])
        # C order, so that the norms round as math.sqrt(x.dot(x)) does
        nxt = np.ascontiguousarray(nxt, dtype=float)
        flat = nxt.ravel()
        # a NaN or inf fails the comparison, and then each row is checked
        if not flat.dot(flat) <= _SAFE_SQUARES:
            ok = np.sqrt(np.vecdot(nxt, nxt)) <= EXPLOSION_THRESHOLD
            for j in np.flatnonzero(~ok):
                b = rows[j]
                last[b] = k - 1
                ends[b] = float(times[k]) if n[b] > k else ts[b]
            rows = [b for b, keep in zip(rows, ok) if keep]
            if not rows:
                return
            nxt, v, dst, retire = nxt[ok], v[ok], _index(rows), n[rows[-1]]
        states[dst, k] = nxt
        if k == retire:
            go = _going(rows, n, k)
            if not go:
                return
            rows, nxt, v = rows[:go], nxt[:go], v[:go]
            dst, retire = _index(rows), n[rows[-1]]
        cur = nxt


def _leap(step_map, v, rows, k0, k1, grid, step, states, ts, n, last, ends):
    """Fill the rows' nodes k0 + 1 to k1 with the exact maps of the value v.

    The rows come longest horizon first.  Node k0 + j, j full steps in, is
    node k0 + j - s advanced by the map over s steps, where s is the
    largest power of two up to j whose map spans at most ``_LEAP_SECONDS``
    (or 1), so its value depends on j alone: with nodes k0 to k0 + f - 1
    filled, each round maps nodes k0 + f - s to k0 + f - 1 of the rows that
    need more s steps on, and s doubles while it may.  Then each row takes
    its own shortened last step, to its horizon or to the piece's end.  A
    leap may fill a row's nodes past its last one in the piece, which are
    neither read nor checked.  A row with a node whose norm passes
    ``EXPLOSION_THRESHOLD`` or goes non-finite is stepped again from node
    k0, one map per node by ``_advance``, so it escapes where single steps
    do: a leap's map can overflow on a bounded row.
    """
    times, steps, _ = grid
    # every state as a row of one 2-d view: row b's node k is row b * width + k
    nodes, width = states.reshape(-1, states.shape[2]), states.shape[1]
    tops = [min(n[b], k1) for b in rows]  # each row's last node in the piece
    full = tops[0] - k0 - 1  # the most full steps a row takes
    origins = np.array(rows) * width + k0
    # (time step, source nodes, shift to the nodes they fill); nodes k0 to
    # k0 + filled - 1 are filled before each round
    jobs, span, filled = [], 1, 1
    while filled <= full:
        need = sum(top - k0 > filled for top in tops)  # rows with a full-step node past them
        src = origins[:need, None] + np.arange(filled - span, min(filled, full + 1 - span))
        jobs.append((step * span, src.ravel(), span))
        filled += src.shape[1]
        if step * 2 * span <= _LEAP_SECONDS:
            span *= 2
    # then the shortened last steps, one map per distinct length
    own = {}
    for b, top in zip(rows, tops):
        h = steps[k1 - 1] if n[b] > k1 else ts[b] - float(times[top - 1])
        own.setdefault(h, []).append(b * width + top - 1)
    jobs += [(h, np.array(src), 1) for h, src in own.items()]
    # each apply takes in at most _APPLY_BYTES of states; a NaN or inf
    # fails the escape test, and then each row's nodes are checked
    safe, per = True, max(1, _APPLY_BYTES // (8 * states.shape[2]))
    for dt, src, shift in jobs:
        advance = step_map(v, dt)
        for i in range(0, len(src), per):
            k = src[i:i + per]
            nodes[k + shift] = new = advance(nodes[k])
            flat = new.ravel()
            safe &= bool(flat.dot(flat) <= _SAFE_SQUARES)
    if safe:
        return
    again = []
    for b, top in zip(rows, tops):
        S = states[b, k0 + 1:top + 1]
        if not (np.sqrt(np.vecdot(S, S)) <= EXPLOSION_THRESHOLD).all():
            again.append(b)
    if again:
        # _advance cuts a column of values with the rows; here each row's is v
        _advance(lambda _, h: step_map(v, h), np.zeros(len(again)), again, k0, k1, grid,
                 states[:, 0], states, ts, n, last, ends)


def _going(rows, n, k):
    """How many of the rows, longest horizon first, go on past node k."""
    go = len(rows)
    while go and n[rows[go - 1]] == k:
        go -= 1
    return go


def _index(rows):
    """The row indices as a slice when they are consecutive and ascending."""
    lo = rows[0]
    return slice(lo, lo + len(rows)) if rows == list(range(lo, lo + len(rows))) else np.array(rows)


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
    dset = model.disturbance_set
    magnitude = dset.sweep((magnitude,))[0]
    id_max = ca_max = co_max = cont_max = 0.0
    escaped = 0
    used = 0
    for i in range(sample_budget):
        rng = sub_rng(seed, 83, i)
        x = _unit_direction(rng, model.dim) * radius * rng.uniform(0.1, 1.0)
        t = float(rng.uniform(0.05, t_max))
        h = float(rng.uniform(0.05, t_max))
        d = dset.sample_signal(rng, t + h, pieces=4, magnitude=magnitude)
        d_other = dset.sample_signal(rng, t + h, pieces=4, magnitude=magnitude)

        # the direct flow, the identity phi(0, x, d), the flow under a signal
        # that agrees with d on [0, t+h] only, and the cocycle's first leg
        direct, tr0, again, first = flow_batch(
            model, [t + h, 0.0, t + h, t], [x] * 4, [d, d, d.concat(d_other, t + h), d],
            step=step)
        if direct.escaped is not None:
            escaped += 1
            continue
        # identity: phi(0, x, d) == x, bit-level
        id_max = max(id_max, float(np.max(np.abs(tr0.final_state - x), initial=0.0)))
        # causality: signals agreeing on [0, t+h] give identical flows
        ca_max = max(ca_max, float(np.max(np.abs(again.final_state - direct.final_state))))
        # cocycle: phi(h, phi(t, x, d), d(t+.)) == phi(t+h, x, d)
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
    magnitude = model.disturbance_set.sweep((magnitude,))[0]
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
