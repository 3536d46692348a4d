"""Grid-based algebra for comparison functions.

Comparison functions (class K, K-infinity and L) are stored
as monotone tables over a finite grid with declared extrapolation rules.
Piecewise-linear interpolation between grid points preserves class
membership, which is what makes a tabulated representation sound.

The module also provides the function-construction building blocks used by
the converse Lyapunov machinery: the soft clamp ``gk_threshold``, the unit
Lipschitz lower envelope ``lipschitz_minorant``, the exponential
factorization fit ``sontag_factorize`` and the comparison-principle surface
``kl_from_alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import _csv

__all__ = [
    "TabulatedMonotone",
    "KLSurface",
    "SontagFitError",
    "gk_threshold",
    "lipschitz_minorant",
    "sontag_factorize",
    "kl_from_alpha",
    "identity_table",
    "power_table",
    "invert_table",
]

CLASS_TAGS = ("K", "Kinf", "L")


class SontagFitError(RuntimeError):
    """Raised when no monotone pair dominates the surface on its grid.

    Carries the worst-violated grid point as ``(r, t, beta_value, bound)``.
    """

    def __init__(self, message, worst_point=None):
        super().__init__(message)
        self.worst_point = worst_point


def _as_grid(x, name, min_size=2):
    g = np.array(x, dtype=float, copy=True)
    if g.ndim != 1 or g.size < min_size:
        raise ValueError(f"{name} must be a 1-D array with at least {min_size} entries")
    if np.any(~np.isfinite(g)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(np.diff(g) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if g[0] < 0:
        raise ValueError(f"{name} must be nonnegative")
    return g


@dataclass(frozen=True)
class TabulatedMonotone:
    """A comparison function sampled on a strictly increasing grid.

    Parameters
    ----------
    grid : array_like
        Strictly increasing nonnegative abscissae.  Class K/Kinf tables
        must start at 0.
    values : array_like
        Function samples, one per grid point.
    class_tag : str
        One of ``K``, ``Kinf``, ``L``.
    slope : float, optional
        Extrapolation slope beyond the last grid point for K/Kinf tables.
        Defaults to the last segment's slope.  Must be positive for Kinf
        so that unboundedness stays representable.  Class L tables ignore
        it and extrapolate with the constant tail value.
    """

    grid: np.ndarray
    values: np.ndarray
    class_tag: str
    slope: float | None = None

    def __post_init__(self):
        g = _as_grid(self.grid, "grid")
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != g.shape:
            raise ValueError("grid and values must have the same length")
        if np.any(~np.isfinite(v)) or np.any(v < 0):
            raise ValueError("values must be finite and nonnegative")
        tag = self.class_tag
        if tag not in CLASS_TAGS:
            raise ValueError(f"unknown class_tag {tag!r}")
        if tag in ("K", "Kinf"):
            if g[0] != 0.0 or v[0] != 0.0:
                raise ValueError(f"class {tag} requires value 0 at abscissa 0")
            if np.any(np.diff(v) <= 0):
                raise ValueError(f"class {tag} requires strictly increasing values")
        elif np.any(np.diff(v) > 0):
            raise ValueError("class L requires nonincreasing values")
        slope = self.slope
        if slope is None:
            slope = float((v[-1] - v[-2]) / (g[-1] - g[-2]))
            object.__setattr__(self, "slope", slope)
        if tag == "Kinf" and slope <= 0:
            raise ValueError("Kinf extrapolation slope must be strictly positive")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        self.grid.setflags(write=False)
        self.values.setflags(write=False)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        y = np.interp(x, self.grid, self.values)
        if self.class_tag == "L":
            # constant-limit tail
            y = np.where(x > self.grid[-1], self.values[-1], y)
        else:
            over = x > self.grid[-1]
            if np.any(over):
                y = np.where(over, self.values[-1] + self.slope * (x - self.grid[-1]), y)
        return float(y) if y.ndim == 0 else y

    def to_csv(self):
        """Two-column CSV with a header line carrying the class tag."""
        head = ["abscissa", "value", f"class={self.class_tag}", f"slope={float(self.slope)!r}"]
        return _csv(head, zip(self.grid, self.values))

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = lines[0].split(",")
        tag = head[2].split("=", 1)[1]
        slope = float(head[3].split("=", 1)[1])
        rows = np.array([[float(a) for a in ln.split(",")] for ln in lines[1:]])
        return cls(rows[:, 0], rows[:, 1], tag, slope=slope)


def invert_table(f):
    """Exact piecewise-linear inverse of a strictly increasing table; values
    beyond the table range invert through the extrapolation tail."""
    if f.class_tag not in ("K", "Kinf"):
        raise ValueError("can only invert class K/Kinf tables")
    return TabulatedMonotone(f.values, f.grid, f.class_tag, slope=1.0 / f.slope)


def identity_table(r_max=10.0, n=101):
    g = np.linspace(0.0, r_max, n)
    return TabulatedMonotone(g, g, "Kinf", slope=1.0)


def power_table(p, r_max=10.0, n=201, scale=1.0):
    g = np.linspace(0.0, r_max, n)
    return TabulatedMonotone(g, scale * g**p, "Kinf")


@dataclass(frozen=True)
class KLSurface:
    """A comparison surface sampled on an (r, t) grid.

    ``kind="KL"`` enforces class-KL shape: each t-slice is class K in r and
    each r-slice (r > 0) is nonincreasing in t.  ``kind="increasing"``
    holds reachability-style surfaces (the mu-tables) that are
    nondecreasing in both arguments with a zero r = 0 slice.
    """

    r_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray  # shape (len(r_grid), len(t_grid))
    kind: str = "KL"

    def __post_init__(self):
        r = _as_grid(self.r_grid, "r_grid", min_size=1)
        t = _as_grid(self.t_grid, "t_grid", min_size=1)
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (r.size, t.size):
            raise ValueError("values must have shape (len(r_grid), len(t_grid))")
        if self.kind not in ("KL", "increasing"):
            raise ValueError("kind must be 'KL' or 'increasing'")
        finite = np.isfinite(v)
        if np.any(v[finite] < 0):
            raise ValueError("surface values must be nonnegative")
        if self.kind == "KL":
            if np.any(~finite):
                raise ValueError("KL surface values must be finite")
            if np.any(np.diff(v, axis=0) < 0):
                raise ValueError("KL surface must be nondecreasing in r")
            if np.any(np.diff(v, axis=1) > 1e-12 * (1 + np.abs(v[:, :-1]))):
                raise ValueError("KL surface must be nonincreasing in t")
            if r[0] == 0.0 and np.any(v[0] != 0.0):
                raise ValueError("KL surface must vanish on the r = 0 slice")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)
        for a in (self.r_grid, self.t_grid, self.values):
            a.setflags(write=False)

    def __call__(self, r, t):
        """Bilinear interpolation; r extrapolates linearly, t holds its tail."""
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        tg, rg, v = self.t_grid, self.r_grid, self.values
        if tg.size == 1:
            col = v[:, 0]
        else:
            t_c = np.clip(t, tg[0], tg[-1])
            jt = np.clip(np.searchsorted(tg, t_c, side="right") - 1, 0, tg.size - 2)
            wt = (t_c - tg[jt]) / (tg[jt + 1] - tg[jt])
            col = v[:, jt] * (1 - wt) + v[:, jt + 1] * wt
        if rg.size == 1:
            out = col[0] * np.ones_like(r)
        else:
            r_c = np.clip(r, rg[0], rg[-1])
            ir = np.clip(np.searchsorted(rg, r_c, side="right") - 1, 0, rg.size - 2)
            wr = (r_c - rg[ir]) / (rg[ir + 1] - rg[ir])
            out = col[ir] * (1 - wr) + col[ir + 1] * wr
            over = r > rg[-1]
            if np.any(over):
                tail_slope = (col[-1] - col[-2]) / (rg[-1] - rg[-2])
                out = np.where(over, col[-1] + tail_slope * (r - rg[-1]), out)
        return float(out) if out.ndim == 0 else out

    def to_csv(self):
        """CSV with the r grid as header row and the t grid as header column."""
        return _csv(["kind", self.kind],
                    [["t\\r", *self.r_grid], *zip(self.t_grid, *self.values)])

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        kind = lines[0].split(",")[1]
        r = np.array([float(x) for x in lines[1].split(",")[1:]])
        t, rows = [], []
        for ln in lines[2:]:
            parts = ln.split(",")
            t.append(float(parts[0]))
            rows.append([float(x) for x in parts[1:]])
        return cls(r, np.array(t), np.array(rows).T, kind=kind)


def gk_threshold(k, r):
    """Soft clamp ``max(r - 1/k, 0)``; 1-Lipschitz in r.

    ``k`` must be a positive integer; ``r`` may be a scalar or array.
    """
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    out = np.maximum(r - 1.0 / k, 0.0)
    return float(out) if out.ndim == 0 else out


def lipschitz_minorant(alpha):
    """Largest unit-Lipschitz class-Kinf minorant of a Kinf table.

    Computed as the lower 1-Lipschitz envelope over the grid,
    ``rho(s) = min_u (alpha(u) + |s - u|)``, pinned to vanish at 0.  The
    result lives on the same grid; its extrapolation slope is capped at 1
    so the minorant property survives beyond the grid.
    """
    if alpha.class_tag != "Kinf":
        raise ValueError("lipschitz_minorant requires a class Kinf input")
    g, v = alpha.grid, alpha.values
    env = np.min(v[None, :] + np.abs(g[:, None] - g[None, :]), axis=1)
    env[0] = 0.0
    return TabulatedMonotone(g, env, "Kinf", slope=min(1.0, alpha.slope))


def _monotone_envelope_table(s_points, required, slope_floor):
    """Smallest strictly increasing Kinf table dominating scatter points."""
    order = np.argsort(s_points, kind="stable")
    s_sorted = s_points[order]
    req_sorted = np.maximum.accumulate(required[order])
    # compress to unique abscissae, keeping the max requirement at each
    s_u, idx = np.unique(s_sorted, return_index=True)
    req_u = np.maximum.reduceat(req_sorted, idx)
    req_u = np.maximum.accumulate(req_u)
    if s_u[0] > 0.0:
        s_u = np.concatenate([[0.0], s_u])
        req_u = np.concatenate([[0.0], req_u])
    # strictify flat runs by an epsilon ladder (only ever raises values)
    eps = 1e-12 * (1.0 + req_u[-1])
    vals = req_u + eps * np.arange(1, req_u.size + 1)
    vals[0] = 0.0
    slope = max(slope_floor, (vals[-1] - vals[-2]) / (s_u[-1] - s_u[-2]))
    return TabulatedMonotone(s_u, vals, "Kinf", slope=slope)


def sontag_factorize(beta):
    """Fit Kinf tables (alpha1, alpha2) with beta(r,t) <= alpha2(alpha1(r) e^{-t}).

    This is a constrained data fit by alternating monotone regression, not a
    proof construction: the only contract is grid-wise domination.  Raises
    :class:`SontagFitError` with the worst-violated grid point if the fit
    fails on the grid within 4 rounds of alternation.
    """
    if beta.kind != "KL":
        raise ValueError("sontag_factorize requires a KL surface")
    r, t, B = beta.r_grid, beta.t_grid, beta.values
    with np.errstate(over="ignore"):
        et = np.exp(t)

    def fit_alpha1(alpha2):
        with np.errstate(over="ignore", invalid="ignore"):
            req = invert_table(alpha2)(B) * et[None, :]
        need = np.max(req, axis=1)
        vals = np.maximum.accumulate(np.maximum(r, need))
        if not np.all(np.isfinite(vals)):
            i, j = np.unravel_index(np.nanargmax(req), req.shape)
            raise SontagFitError(
                "alpha1 fit diverged: the surface decays too slowly relative "
                "to e^{-t} on its t grid",
                worst_point=(float(r[i]), float(t[j]), float(B[i, j]), float("inf")),
            )
        eps = 1e-12 * (1.0 + vals[-1])
        vals = vals + eps * np.arange(1, vals.size + 1)
        vals[0] = 0.0 if r[0] == 0.0 else vals[0]
        if r[0] > 0.0:
            g = np.concatenate([[0.0], r])
            vals = np.concatenate([[0.0], vals])
        else:
            g = r
        return TabulatedMonotone(g, vals, "Kinf")

    def fit_alpha2(alpha1):
        s = (alpha1(r)[:, None] * np.exp(-t)[None, :]).ravel()
        return _monotone_envelope_table(s, B.ravel(), slope_floor=1e-9)

    alpha2 = identity_table(max(1.0, float(np.max(B)) * 1.5))
    alpha1 = fit_alpha1(alpha2)
    for _ in range(4):
        alpha2 = fit_alpha2(alpha1)
        alpha1 = fit_alpha1(alpha2)

    # final grid-domination audit
    bound = alpha2(alpha1(r)[:, None] * np.exp(-t)[None, :])
    gap = B - bound
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[worst] > 1e-9 * (1.0 + abs(B[worst])):
        i, j = worst
        raise SontagFitError(
            "no monotone pair dominates the surface on the grid",
            worst_point=(float(r[i]), float(t[j]), float(B[i, j]), float(bound[i, j])),
        )
    return alpha1, alpha2


def kl_from_alpha(alpha, r_grid, t_grid):
    """KL surface from numerically flowing ``dy/dt = -alpha(y)`` per r in r_grid.

    Any continuous y whose Dini quotients satisfy ``dy/dt <= -alpha(y)``
    is dominated by the returned surface (comparison principle), which is
    what makes it usable as a verification oracle.  Each t-grid interval
    takes 64 RK4 substeps, and values below 1e-12 are clamped to 0 to
    avoid step collapse of stiff decays.
    """
    r_grid = _as_grid(np.asarray(r_grid, dtype=float), "r_grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    vals = np.empty((r_grid.size, t_grid.size))
    vals[:, 0] = r_grid
    y = r_grid.copy()

    def a(z):
        # negative extrapolation tails of the rate table are clamped so the
        # comparison flow can only decrease
        return np.maximum(alpha(z), 0.0)

    for j in range(1, t_grid.size):
        dt = (t_grid[j] - t_grid[j - 1]) / 64
        for _ in range(64):
            k1 = -a(y)
            k2 = -a(np.maximum(y + 0.5 * dt * k1, 0.0))
            k3 = -a(np.maximum(y + 0.5 * dt * k2, 0.0))
            k4 = -a(np.maximum(y + dt * k3, 0.0))
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            y = np.maximum(y, 0.0)
            y[y < 1e-12] = 0.0
        if np.any(~np.isfinite(y)):
            raise RuntimeError("integration failure in kl_from_alpha (step collapse)")
        vals[:, j] = y
    # monotone repair in r only ever raises values, so domination survives
    vals = np.maximum.accumulate(vals, axis=0)
    vals = np.minimum.accumulate(vals, axis=1)
    return KLSurface(r_grid, t_grid, vals, kind="KL")
