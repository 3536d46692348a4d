"""Reference computations made apart from nclyap.

Nothing here imports the package under test.  Each function recomputes a
quantity the program reports, from the mathematics of the example rather
than from the program's code path:

* the l2 block example's Lyapunov blocks from their exact integer
  recurrence, with lambda_min taken through rational inversion;
* the block exponential in closed form;
* scalar example (ii), x' = d x, in closed form, and any other vector field
  through ``scipy.integrate.solve_ivp`` at tight tolerance;
* the criterion-5 converse member V_1 of x' = -x.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ESCAPE_THRESHOLD = 1e12  # nclyap's default norm threshold for a finite escape


# ---------------------------------------------------------------------------
# l2 block example
# ---------------------------------------------------------------------------

def integer_lyapunov(n):
    """P with P[a][b] = [a == b] + P[a-1][b] + P[a][b-1] (Python integers).

    This is M^T P + P M = -I for M = -I/2 + N, N the nilpotent shift.  The
    recurrence does not depend on the block size, so block i uses the
    leading i x i corner of the n x n solution.
    """
    P = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            up = P[a - 1][b] if a else 0
            left = P[a][b - 1] if b else 0
            P[a][b] = int(a == b) + up + left
    return P


def _rational_inverse(rows):
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def lambda_min_normalized(P_int, i):
    """lambda_min(P_i / ||P_i||_2) = 1 / (lambda_max(P_i^{-1}) ||P_i||_2).

    P_i^{-1} is exact (rational), so its largest eigenvalue is well
    conditioned in floating point even where lambda_min(P_i) sits far below
    float64 resolution relative to ||P_i||.
    """
    rows = [r[:i] for r in P_int[:i]]
    inv = np.array([[float(v) for v in row] for row in _rational_inverse(rows)])
    lam_max_inv = float(np.linalg.eigvalsh(inv).max())
    norm = float(np.linalg.norm(np.array(rows, dtype=float), 2))
    return 1.0 / (lam_max_inv * norm)


def block_offsets(n):
    return [i * (i - 1) // 2 for i in range(1, n + 2)]


def block_propagator(i, epsilon, t):
    """exp(A_i t) = e^{(-1+eps) t} sum_{k<i} t^k N^k / k! (upper Toeplitz)."""
    coef = np.empty(i)
    c = 1.0
    for k in range(i):
        coef[k] = c
        c *= t / (k + 1)
    E = np.zeros((i, i))
    for k in range(i):
        E[np.arange(i - k), np.arange(k, i)] = coef[k]
    return math.exp((-1.0 + epsilon) * t) * E


def block_flow(x, n, epsilon, t):
    off = block_offsets(n)
    y = np.empty_like(x)
    for i in range(1, n + 1):
        seg = slice(off[i - 1], off[i])
        y[seg] = block_propagator(i, epsilon, t) @ x[seg]
    return y


class BlockV:
    """V(x) = sum_i x_i^T (P_i / ||P_i||_2) x_i from the integer recurrence."""

    def __init__(self, n):
        P = np.array(integer_lyapunov(n), dtype=float)
        self.n = n
        self.blocks = []
        for i in range(1, n + 1):
            Pi = P[:i, :i]
            self.blocks.append(Pi / np.linalg.norm(Pi, 2))

    def __call__(self, x):
        off = block_offsets(self.n)
        return float(sum(x[off[i]:off[i + 1]] @ Pi @ x[off[i]:off[i + 1]]
                         for i, Pi in enumerate(self.blocks)))


# ---------------------------------------------------------------------------
# scalar example (ii) and general witness replay
# ---------------------------------------------------------------------------

def _pieces(breakpoints, values, t):
    """(start, end, value) pieces of a piecewise-constant signal on [0, t]."""
    out = []
    for j, (b, v) in enumerate(zip(breakpoints, values)):
        end = breakpoints[j + 1] if j + 1 < len(breakpoints) else math.inf
        if b >= t:
            break
        out.append((b, min(end, t), v))
    return out


def scalar_ii_log_norm(x0, breakpoints, values, times):
    """log |x(s)| at the given times for x' = d x: log|x0| + int_0^s d."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.size)
    base = math.log(abs(x0))
    for m, s in enumerate(times):
        out[m] = base + sum((e - b) * v for b, e, v in _pieces(breakpoints, values, s))
    return out


def scalar_ii_knots(breakpoints, t):
    """Times where log|x| can peak on [0, t]: the signal's breakpoints and t."""
    return sorted({0.0, float(t), *[b for b in breakpoints if 0.0 < b < t]})


def ugatt_rhs(z, d):
    x, y = z
    return [d * x * y - x ** 3 - np.cbrt(x), -(y ** 3) - np.cbrt(y)]


def replay_ode(rhs, x0, breakpoints, values, t, rtol=1e-10, atol=1e-12):
    """Norm history of x' = rhs(x, d) under the signal, by solve_ivp (DOP853)."""
    from scipy.integrate import solve_ivp

    state = np.asarray(x0, dtype=float)
    peak = float(np.linalg.norm(state))
    for b, e, v in _pieces(breakpoints, values, t):
        if e <= b:
            continue
        sol = solve_ivp(lambda _s, z: rhs(z, v), (b, e), state, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if sol.status != 0:
            return math.inf, math.inf
        peak = max(peak, float(np.max(np.linalg.norm(sol.y, axis=0))))
        state = sol.y[:, -1]
        if peak > ESCAPE_THRESHOLD:
            break
    return peak, float(np.linalg.norm(state))


# ---------------------------------------------------------------------------
# criterion-5 member
# ---------------------------------------------------------------------------

def linear_v1(x):
    """V_1 for x' = -x with identity rho and alpha_1.

    The horizon is ln(1 + |x|) and the clamp g_1(r) = max(r - 1, 0), so
    V_1(x) = int_0^{ln |x|} (|x| e^{-s} - 1) ds = |x| - 1 - ln|x| for
    |x| >= 1; at x = e this is e - 2.
    """
    r = abs(float(x))
    return r - 1.0 - math.log(r) if r > 1.0 else 0.0


def interp_table(grid, values, slope, r):
    """Evaluate a tabulated class-K function with linear extrapolation."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    r = np.asarray(r, dtype=float)
    inside = np.interp(r, grid, values)
    return np.where(r > grid[-1], values[-1] + slope * (r - grid[-1]), inside)
