"""Model zoo: the example systems, plus switched-linear and ODE builders.

Every builder pins all free parameters so runs are reproducible from the
JSON descriptor alone.  Linear models carry exact propagators, which keep
no cache (the l2 block model's exponential comes from its closed form);
nonlinear models carry vector fields for the fixed-step integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .lyapunov import LyapunovCandidate
from .systems import DisturbanceSet, EscapeError, SystemModel, flow_batch

__all__ = [
    "build_scalar_example",
    "build_ugatt_example",
    "build_blowup_example",
    "blowup_construction",
    "build_l2_block_model",
    "build_switched_linear",
    "build_linear",
    "evolve",
    "BlockOperatorModel",
    "SwitchedLinearModel",
    "model_from_descriptor",
]


# ---------------------------------------------------------------------------
# scalar examples: the four-way FC/RFC/REP zoo
# ---------------------------------------------------------------------------

def build_scalar_example(variant):
    """One of the four scalar systems separating FC, RFC and REP.

    (i)   x' = |d| (x - x^3)             RFC, 0 not a robust equilibrium
    (ii)  x' = d x                       forward complete, not RFC, not REP
    (iii) x' = x/(|d|+1) + d max(|x|-1,0)   REP, forward complete, not RFC
    (iv)  x' = x/(|d|+1)                 REP and RFC

    D is the whole real line; probes sweep a disturbance magnitude.
    """
    variant = str(variant).lower()
    if variant == "i":
        rhs = lambda x, d: abs(d) * (x - x**3)
        homogeneous = False
    elif variant == "ii":
        rhs = lambda x, d: d * x
        homogeneous = True
    elif variant == "iii":
        rhs = lambda x, d: x / (abs(d) + 1.0) + d * np.maximum(np.abs(x) - 1.0, 0.0)
        homogeneous = False
    elif variant == "iv":
        rhs = lambda x, d: x / (abs(d) + 1.0)
        homogeneous = True
    else:
        raise ValueError("variant must be one of 'i', 'ii', 'iii', 'iv'")
    return SystemModel(
        name=f"scalar-{variant}",
        dim=1,
        disturbance_set=DisturbanceSet.real_line(),
        rhs=rhs,
        homogeneous=homogeneous,
        meta={"kind": "scalar_example", "variant": variant},
    )


def build_ugatt_example():
    """Planar system that is uniformly globally attractive at 0 but whose
    origin is not a robust equilibrium.

    x' = d x y - x^3 - x^{1/3},  y' = -y^3 - y^{1/3}, with signed cube
    roots (sgn(s)|s|^{1/3}); the y subsystem reaches 0 in finite time, after
    which the disturbance is powerless.
    """

    def rhs(z, d):
        x, y = z[..., 0], z[..., 1]
        return np.stack(
            [d * x * y - x**3 - np.cbrt(x), -(y**3) - np.cbrt(y)], axis=-1
        )

    return SystemModel(
        name="ugatt-not-rep",
        dim=2,
        disturbance_set=DisturbanceSet.real_line(),
        rhs=rhs,
        homogeneous=False,
        meta={"kind": "ugatt"},
    )


# ---------------------------------------------------------------------------
# the planar blow-up example with a non-coercive Lyapunov function
# ---------------------------------------------------------------------------

def _log_cosh(a):
    """log cosh a without overflow: past |a| = 20, cosh a is e^|a| / 2 to
    within 1e-17 relative, so log cosh a is |a| - log 2 there."""
    a = np.abs(a)
    return np.where(a > 20.0, a - np.log(2.0), np.log(np.cosh(np.minimum(a, 20.0))))


class _BlowupData:
    """Pinned instantiation of the blow-up construction.

    Free functions fixed as: delta = tanh, eps1 = 2 tanh, eps2 = tanh/2,
    rho(r) = (2/pi) arctan(r), psi(x) = x for x >= 0 and e^x - 1 for x < 0,
    eta(x) = exp(1/(x+c)) on x < -c (0 otherwise), W uses the normalized
    1 + (2/pi) arctan inner factor (which is what keeps both of W's rate
    factors nonnegative and puts V's plateau range at (1, 3)).  The time
    reparametrization h blends from 1 on the unit ball to the defining
    max formula beyond radius 2 via a smoothstep, which keeps it positive
    and locally Lipschitz.  With x = psi^{-1}(z1) on z1 > -1,

        F(z) = (psi'(x) (-eps1(x) - delta(z2)), delta(x) - eps2(z2)),
        V(z) = rho(v1(x, z2)) + eta(x) (1 + (2/pi) arctan(z2)),
        v1(x, z2) = log cosh x + log cosh z2,

    and on z1 <= -1, F(z) = (0, -1 - eps2(z2)) and V(z) = 2 + (2/pi) arctan(z2).
    All of these act on arrays of states as rows.
    """

    def __init__(self, c):
        self.c = float(c)

    def _prelude(self, z):
        """The factors V and F share, for states z as rows: z1, z2, the mask
        z1 > -1, x1 = psi^{-1}(z1), the bump mask x1 < -c, exp(1/(x1 + c)),
        eta, (2/pi) arctan(z2) and v1."""
        z = np.asarray(z, dtype=float)
        z1, z2 = z[..., 0], z[..., 1]
        inner = z1 > -1.0
        w = np.where(inner, z1, 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # psi(x) = x (x >= 0), e^x - 1 (x < 0) inverts on z1 > -1
            x1 = np.where(w >= 0.0, w, np.log1p(np.maximum(w, -1.0 + 1e-300)))
            ex = np.exp(1.0 / (x1 + self.c))
        bump = x1 < -self.c
        eta = np.where(bump, ex, 0.0)
        a2 = (2.0 / np.pi) * np.arctan(z2)
        v1 = _log_cosh(x1) + _log_cosh(z2)
        return z1, z2, inner, x1, bump, ex, eta, a2, v1

    def V(self, z):
        _, _, inner, _, _, _, eta, a2, v1 = self._prelude(z)
        out = np.where(inner, (2.0 / np.pi) * np.arctan(v1) + eta * (1.0 + a2), 2.0 + a2)
        return float(out) if out.ndim == 0 else out

    def _field(self, z):
        """F(z) and the rate of V along it, each transcendental factor evaluated once."""
        z1, z2, inner, x1, bump, ex, eta, a2, v1 = self._prelude(z)
        t1, t2 = np.tanh(x1), np.tanh(z2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            eta_prime = np.where(bump, -ex / (x1 + self.c) ** 2, 0.0)
        # psi'(psi^{-1}(z1)) is 1 for z1 >= 0 and 1 + z1 below
        f1 = np.where(inner, np.where(z1 >= 0.0, 1.0, 1.0 + z1) * (-(2.0 * t1) - t2), 0.0)
        f2 = np.where(inner, t1 - 0.5 * t2, -1.0 - 0.5 * t2)
        vin = ((2.0 / np.pi) / (1.0 + v1 * v1) * (-(2.0 * t1) * t1 - (0.5 * t2) * t2)
               + (-eta_prime * (1.0 + a2) * (2.0 * t1 + t2)
                  + eta * (2.0 / np.pi) / (1.0 + z2 * z2) * (t1 - 0.5 * t2)))
        vout = (-1.0 - 0.5 * t2) * (2.0 / np.pi) / (1.0 + z2 * z2)
        return np.stack([f1, f2], axis=-1), np.where(inner, vin, vout)

    def vdot_along_F(self, z):
        """Analytic derivative of V along z' = F(z); continuous across z1 = -1."""
        out = self._field(z)[1]
        return float(out) if out.ndim == 0 else out

    def h(self, z):
        return self._h(np.asarray(z, dtype=float), self.vdot_along_F(z))

    @staticmethod
    def _h(z, vd):
        n = np.linalg.norm(z, axis=-1)
        u = np.clip(n - 1.0, 0.0, 1.0)
        blend = u * u * (3.0 - 2.0 * u)  # smoothstep: 0 on ||z|| <= 1, 1 beyond 2
        # vd < 0 wherever blend > 0 (the rate only vanishes at the origin),
        # so the ratio is only formed where it is finite
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where((blend > 0.0) & (np.abs(vd) > 0.0),
                             n / np.where(np.abs(vd) > 0.0, np.abs(vd), 1.0),
                             0.0)
        return np.maximum(1.0, blend * ratio)

    def F2(self, z):
        f, vd = self._field(z)
        return np.asarray(self._h(np.asarray(z, dtype=float), vd))[..., None] * f


def blowup_construction(c=3.0):
    """The pinned analytic pieces of the blow-up example (V, F, h, rates)."""
    return _BlowupData(c)


def build_blowup_example(c=3.0):
    """The time-reparametrized planar vector field with its non-coercive V.

    Solutions started in the half-plane z1 <= -1 blow up in finite time
    while V stays trapped in (1, 3); solutions with z1 > -1 are conjugate
    to a globally asymptotically stable system and converge to 0.  Along
    the returned field, dV <= -||z|| whenever ||z|| >= 2.

    The parameter ``c`` must satisfy eps1(-c) < -1 and
    delta(-c) < -sup|eps2|; these are asserted at build time (c = 3 works
    for the pinned choices).  The candidate's upper envelope psi2 is
    tabulated from V on spheres of radius up to 12.
    """
    data = _BlowupData(c)
    if not (2.0 * np.tanh(-c) < -1.0):
        raise ValueError(f"c={c} rejected: need eps1(-c) < -1")
    if not (np.tanh(-c) < -0.5):  # sup |eps2| = 1/2 for eps2 = tanh/2
        raise ValueError(f"c={c} rejected: need delta(-c) < -sup|eps2|")

    def rhs(z, _d):
        return data.F2(z)

    model = SystemModel(
        name="blowup",
        dim=2,
        disturbance_set=DisturbanceSet.interval(0.0, 0.0),
        rhs=rhs,
        homogeneous=False,
        meta={"kind": "blowup", "c": float(c)},
    )

    # numeric upper envelope psi2: sup of V on spheres, slightly inflated
    radii = np.linspace(0.0, 12.0, 121)[1:]
    angles = np.linspace(0.0, 2 * np.pi, 181)[:-1]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    sup = np.array([np.max(data.V(r * dirs)) for r in radii])
    env = np.maximum.accumulate(sup) * 1.05
    env = env + 1e-9 * np.arange(1, env.size + 1)
    grid = np.concatenate([[0.0], radii])
    vals = np.concatenate([[0.0], env])
    from .comparison import TabulatedMonotone

    psi2 = TabulatedMonotone(
        grid,
        vals,
        "Kinf",
        slope=max(1e-3, float(env[-1] - env[-2]) / (radii[-1] - radii[-2])),
    )

    candidate = LyapunovCandidate(eval=data.V, name="V-blowup", psi2=psi2)
    return model, candidate


# ---------------------------------------------------------------------------
# the l2 block-operator example
# ---------------------------------------------------------------------------

def _block_matrix(i, epsilon):
    A = np.diag(np.full(i, -1.0 + epsilon)) + np.diag(np.ones(i - 1), 1)
    return A


def _block_exponential(n, epsilon, t):
    """expm(A_n t) from its closed form: upper-triangular Toeplitz with entry
    e^{(-1 + epsilon) t} t^k / k! on the k-th superdiagonal.

    Terms below the smallest normal float are set to 0: subnormal entries
    would slow every product with the matrix.
    """
    c = np.cumprod([np.exp((-1.0 + epsilon) * t), *(t / np.arange(1, n))])
    c[c < np.finfo(float).tiny] = 0.0
    # row i of the reversed windows of [0]*(n-1) + c is c shifted right by i
    padded = np.concatenate([np.zeros(n - 1), c])
    return np.lib.stride_tricks.sliding_window_view(padded, n)[::-1].copy()


def _row(i):
    """Slice of block i + 1 (row i of the lower triangle) in the flat state."""
    return slice(i * (i + 1) // 2, (i + 1) * (i + 2) // 2)


@dataclass(frozen=True)
class BlockOperatorModel:
    """Truncation of the block-diagonal operator with bidiagonal blocks.

    Block i is the i x i matrix with -1 + epsilon on the diagonal and 1 on
    the superdiagonal; the attached quadratic functional sums the per-block
    forms through P_i, the leading i x i corner of ``lyapunov`` over its
    spectral norm ``lyapunov_norms[i - 1]``.  The tail blocks beyond the
    truncation are exactly zero for states supported on the first
    ``n_blocks`` blocks, so the truncation is exact there.

    Block i is the leading i x i corner of ``generator`` (block n), and
    expm(A_i t) that of expm(generator t).  The state is the lower triangle
    of an n x n array in ``np.tril_indices(n)`` order (block i is row i - 1),
    so one product with ``_block_exponential(n, epsilon, dt).T`` advances every
    block, and in V row i - 1 of one product with ``lyapunov`` (block n's P)
    gives x_i^T P x_i.
    """

    n_blocks: int
    epsilon: float
    generator: np.ndarray
    lyapunov: np.ndarray
    lyapunov_norms: np.ndarray

    @property
    def dim(self):
        return self.n_blocks * (self.n_blocks + 1) // 2

    @cached_property
    def _tril(self):
        # where the state's entries sit in the flattened n x n array
        return np.flatnonzero(np.tri(self.n_blocks, dtype=bool))

    def propagator(self, _d, dt):
        ET = _block_exponential(self.n_blocks, self.epsilon, dt).T
        n, tril = self.n_blocks, self._tril

        def advance(X):
            Y = np.zeros((len(X), n * n))
            Y[:, tril] = X
            return np.take((Y.reshape(-1, n, n) @ ET).reshape(len(X), -1), tril, axis=1)

        return advance

    def lyapunov_block(self, i):
        """P_i, the unit-norm Lyapunov matrix of block i (size i, 1 <= i <= n)."""
        return self.lyapunov[:i, :i] / self.lyapunov_norms[i - 1]

    def V(self, x):
        """The sum over blocks of x_i^T P_i x_i.

        Along a block's smallest-eigenvalue eigendirection the float sum is
        rounding noise from about block 25 on: at n = 40 it is off the exact
        rational value by 1e-4 relative at block 30, and at block 120 it
        reads 5.8e-22 where the exact value is 7.5e-22.
        """
        X = np.zeros((self.n_blocks, self.n_blocks))
        X.flat[self._tril] = self.system.state(x)
        return float(((X @ self.lyapunov) * X).sum(axis=1) @ (1.0 / self.lyapunov_norms))

    def lambda_mins(self):
        n = self.n_blocks
        return np.array([np.linalg.eigvalsh(self.lyapunov_block(i)).min() for i in range(1, n + 1)])

    def witness_directions(self):
        """Unit vectors hitting each block's smallest-eigenvalue eigendirection."""
        dirs = np.zeros((self.n_blocks, self.dim))
        for i in range(self.n_blocks):
            dirs[i, _row(i)] = np.linalg.eigh(self.lyapunov_block(i + 1))[1][:, 0]
        return list(dirs)

    def singular_direction(self, t):
        """Top right-singular direction of the largest block's propagator at time t.

        This is the natural instability witness for epsilon > 0: the
        largest block's transient amplification peaks along it.
        """
        _, _, vt = np.linalg.svd(_block_exponential(self.n_blocks, self.epsilon, t))
        v = np.zeros(self.dim)
        v[_row(self.n_blocks - 1)] = vt[0]
        return v

    @cached_property
    def system(self):
        return SystemModel(
            name=f"l2-block-n{self.n_blocks}-eps{self.epsilon}",
            dim=self.dim,
            disturbance_set=DisturbanceSet.interval(0.0, 0.0),
            propagator=self.propagator,
            homogeneous=True,
            meta={"kind": "l2_block", "n": self.n_blocks, "epsilon": self.epsilon},
        )

    @property
    def candidate(self):
        from .comparison import power_table

        return LyapunovCandidate(
            eval=self.V,
            name="V-l2-block",
            psi2=power_table(2.0, r_max=256.0, n=513),  # V(x) <= ||x||^2 since ||P_i|| = 1
        )


def build_l2_block_model(n, epsilon=0.0):
    """Construct the first n blocks and their Lyapunov matrices.

    P_i solves the shifted equation (A_i + I/2)^T P + P (A_i + I/2) = -I at
    epsilon = 0, then is rescaled to unit spectral norm, which yields
    A_i^T P_i + P_i A_i < -P_i strictly.  The solve happens on the
    epsilon = 0 blocks regardless of epsilon: the same P_i witness the
    shifted decay rate 2 epsilon - 1 for the epsilon variant.  One solve
    serves every block: M_i = A_i + I/2 is upper-triangular and the leading
    corner of M_n, so the i x i corner of block n's equation is block i's.
    """
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if not (0.0 <= epsilon < 0.5):
        raise ValueError("epsilon must lie in [0, 0.5)")
    M = _block_matrix(n, 0.5)  # A_n + I/2 at epsilon = 0
    P = solve_continuous_lyapunov(M.T, -np.eye(n))
    P = 0.5 * (P + P.T)
    R = M.T @ P + P @ M + np.eye(n)
    norms = np.array([np.linalg.norm(P[:i, :i], 2) for i in range(1, n + 1)])
    for i in range(1, n + 1):
        resid = np.linalg.norm(R[:i, :i], 2)
        scale = 1.0 + 2.0 * np.linalg.norm(M[:i, :i], 2) * norms[i - 1]
        if not np.isfinite(resid) or resid > 1e-10 * scale:
            raise RuntimeError(f"Lyapunov solve failed for block {i} (residual {resid:.2e})")
    return BlockOperatorModel(int(n), float(epsilon), _block_matrix(n, epsilon), P, norms)


# ---------------------------------------------------------------------------
# switched linear systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchedLinearModel:
    """Finitely many generator matrices selected by a switching signal.

    The mode q propagator over a step dt is expm(A_q dt); ``evolve`` gives
    the evolution operator over an interval as the flow of the canonical
    basis, one exponential per piece of the signal's partition.
    """

    modes: tuple
    dimension: int

    def mode(self, q):
        qi = int(q)
        if qi != q or not (0 <= qi < len(self.modes)):
            raise ValueError(f"mode index {q!r} out of range")
        return qi

    def propagator(self, q, dt):
        E = expm(self.modes[self.mode(q)] * dt)
        # E @ x on every row; X @ E.T would round differently
        return lambda X: np.matmul(E, X[..., None])[..., 0]

    @cached_property
    def system(self):
        return SystemModel(
            name=f"switched-{len(self.modes)}modes-dim{self.dimension}",
            dim=self.dimension,
            disturbance_set=DisturbanceSet.finite(range(len(self.modes))),
            propagator=self.propagator,
            homogeneous=True,
            meta={
                "kind": "switched_linear",
                "modes": [m.tolist() for m in self.modes],
            },
        )


def build_switched_linear(modes):
    """Switched linear model; disturbance values index into the mode list."""
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in modes]
    if not mats:
        raise ValueError("need at least one mode")
    dim = mats[0].shape[0]
    for q, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError("all modes must be square matrices of equal dimension")
        if not np.isfinite(m).all():
            raise ValueError(f"mode {q} has a non-finite entry")
    return SwitchedLinearModel(tuple(mats), dim)


def evolve(model, d, t, s=0.0):
    """Evolution operator Phi_d(t, s), whose columns are the flows of the
    canonical basis under ``d.shift(s)`` over t - s: one ``flow_batch`` step,
    so one exponential, per piece of the signal.  A column whose norm passes
    the flow's escape threshold raises ``EscapeError``; its witness is the
    basis vector, the shifted signal and the escape bracket, which ``flow``
    replays."""
    if t < s:
        raise ValueError("need t >= s")
    basis = np.eye(model.dimension)
    if t == s:
        return basis
    ds = d.shift(s)
    cols = list(flow_batch(model.system, t - s, basis, ds, step=t - s))
    for e, tr in zip(basis, cols):
        if tr.escaped is not None:
            raise EscapeError("evolution operator escaped", witness=(e, ds, tr.escaped))
    return np.stack([tr.final_state for tr in cols], axis=1)


def build_linear(a):
    """Undisturbed linear system x' = A x with an exact propagator."""
    A = np.atleast_2d(np.asarray(a, dtype=float))
    return replace(build_switched_linear([A]).system, name=f"linear-dim{A.shape[0]}",
                   meta={"kind": "linear", "a": A.tolist()})


# ---------------------------------------------------------------------------
# descriptor registry (JSON-reproducible model construction)
# ---------------------------------------------------------------------------

def model_from_descriptor(desc):
    """Rebuild a model from its JSON descriptor (the ``meta`` dict)."""
    kind = desc.get("kind")
    if kind == "scalar_example":
        return build_scalar_example(desc["variant"])
    if kind == "ugatt":
        return build_ugatt_example()
    if kind == "blowup":
        model, _ = build_blowup_example(desc.get("c", 3.0))
        return model
    if kind == "l2_block":
        return build_l2_block_model(desc["n"], desc.get("epsilon", 0.0)).system
    if kind == "switched_linear":
        return build_switched_linear(desc["modes"]).system
    if kind == "linear":
        return build_linear(desc["a"])
    raise ValueError(f"unknown model kind {kind!r}")
