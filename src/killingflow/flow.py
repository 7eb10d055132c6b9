"""Finite-volume solver for the graphical mean curvature flow.

The height u(r, theta, t) of the evolving Killing graph over a geodesic
ball satisfies du/dt = Q[u], with the flow operator in divergence form

    Q[u] = (W / rho) div(rho grad u / W),   W = sqrt(rho^-2 + |grad u|^2)

(Dajczer, Hinojosa & de Lira, Calc. Var. PDE 33 (2008)) in polar
coordinates of the base, metric dr^2 + xi^2 dtheta^2.  It is discretised
on vertex-centred finite volumes with W lagged at the faces (Deckelnick,
Dziuk & Elliott, Acta Numerica 14 (2005), section 3):
Q[u]_j = sum_k w_jk (u_k - u_j), w_jk = P_j c_jk / dV_j, where dV_j
integrates rho xi^(n-1) over node j's cell (dtheta dV_j in 2-D), the face
conductance c_jk is rho xi^(n-1) / (W_f h) on r-faces and
h rho_j / (xi_j W_f dtheta) on theta-faces, and the row prefactor
P_j = sqrt(rho_j^-2 + max(s_- s_+, 0) + max(s^theta_- s^theta_+, 0) / xi_j^2)
reads the face slopes either side of node j (at the pole, the W of the
slope ``_pole_fourier`` fits to the first ring).  With the nodal W as P_j
the discrete CMC graph falls below its continuum supersolution (by 1.9e-2
on E2, 64 x 64).  Every w_jk is positive for any slope and any n; the 2-D
stencil has five points and is the radial one on rotationally symmetric
data.  The weights (``_radial_weights``, ``_polar_weights``) feed

* ``radial_Q``, ``discretize_Q`` and the explicit Euler step (a debugging
  fallback), which checks dt max_j sum_k w_jk <= cfl on the weights of the
  state it steps;
* the default semi-implicit step, which lags them one step and solves with
  the M-matrix I - dt L(u) (diagonal 1 + dt sum_k w_jk, entries -dt w_jk):
  on the 2-D grid one band LU (LAPACK dgbsv) in a node order that keeps
  the rings in turn and folds theta within each ring, so every entry lies
  within nt + 1 of the diagonal; on the radial grid a tridiagonal solve.
  Both steps keep min(u0, phi) <= u <= max(u0, phi).

What depends only on n, the profiles and the grid is computed once and
shared read-only: ``Grid.r``/``Grid.theta``, the node factors, the finite
volumes and the pole ring's Fourier modes (``_grid_factors``) and the 2-D
index patterns (``_stencil``, ``_band_layout``).  A step evaluates no
profile.  Radial fields (ntheta = 1) may live in any base dimension
n = model.n; the 2-D grid represents n = 2 only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
# every step solves a banded system, so scipy.linalg loads with the module
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv

from .geometry import ModelGeometry, ProfileSpec, R_MIN, ambient_frame
from .kernel import Factors, factors


def __getattr__(name: str):
    """Lazy shim for the benchmark tracer (bench/spans.py), which wraps
    ``flow.spla.spsolve``.  flow calls no sparse solver, so
    scipy.sparse.linalg is imported only when that name is read."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        return spla
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FlowError(RuntimeError):
    pass


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# grid and problem data


@dataclass(frozen=True)
class Grid:
    """Uniform polar grid: nr radial intervals on [0, R], ntheta angles.

    Node (j, i) sits at (j*hr, i*dtheta); row 0 is the pole, row nr the
    Dirichlet boundary.  ntheta = 1 selects the radial fast path.
    """

    R: float
    nr: int
    ntheta: int

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise FlowError(f"R must be positive and finite, got {self.R}")
        if self.nr < 8:
            raise FlowError("nr must be >= 8")
        if self.ntheta != 1 and self.ntheta < 8:
            raise FlowError("ntheta must be >= 8 (or exactly 1 for radial)")

    @property
    def hr(self) -> float:
        return self.R / self.nr

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.ntheta

    # r and theta are computed once per Grid and shared read-only
    @functools.cached_property
    def r(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.R, self.nr + 1))

    @functools.cached_property
    def theta(self) -> np.ndarray:
        return _read_only(np.arange(self.ntheta) * self.dtheta)

    @property
    def radial(self) -> bool:
        return self.ntheta == 1

    def shape(self) -> tuple[int, int]:
        return (self.nr + 1, self.ntheta)


@dataclass
class BallProblem:
    """Dirichlet problem for the flow on the ball of radius R.

    phi and u0 are callables phi(theta) and u0(r, theta) accepting numpy
    arrays.  T defaults to zeta(R)/2.
    """

    model: ModelGeometry
    R: float
    phi: Callable
    u0: Callable
    T: float | None = None

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise FlowError(f"R must be positive and finite, got {self.R}")
        if self.T is None:
            self.T = 0.5 * self.model.zeta(self.R)
        if not 0.0 < self.T < math.inf:
            raise FlowError(f"T must be positive and finite, got {self.T}")

    def sample(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """(u0 field, phi row) on the grid, with compatibility enforced."""
        r = grid.r[:, None]
        th = grid.theta[None, :]
        u0 = np.broadcast_to(np.asarray(self.u0(r, th), dtype=float),
                             grid.shape()).copy()
        phi = np.broadcast_to(np.asarray(self.phi(grid.theta), dtype=float),
                              (grid.ntheta,)).copy()
        if not np.all(np.isfinite(u0)):
            raise FlowError("u0 must be finite on the closed ball")
        if not np.all(np.isfinite(phi)):
            raise FlowError("phi must be finite on the boundary")
        gap = float(np.max(np.abs(u0[-1] - phi)))
        if gap > 1e-12:
            raise FlowError(
                f"u0 and phi disagree at the boundary (gap {gap:.3e})")
        if float(np.ptp(u0[0])) > 1e-12:
            raise FlowError("u0 must be single-valued at the pole")
        return u0, phi


@dataclass(frozen=True)
class StepControl:
    scheme: str = "semi-implicit"
    cfl: float = 0.5
    dt_max: float = 1e-3

    def __post_init__(self):
        if self.scheme not in ("semi-implicit", "explicit-euler"):
            raise FlowError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl <= 1.0:
            raise FlowError("cfl must be in (0, 1]")
        if not 0.0 < self.dt_max < math.inf:
            raise FlowError(
                f"dt_max must be positive and finite, got {self.dt_max}")


@dataclass(frozen=True)
class FlowState:
    t: float
    u: np.ndarray
    W: np.ndarray
    step_count: int


# ---------------------------------------------------------------------------
# derivatives


def _theta_shift(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u at theta_{i+1} and at theta_{i-1}: periodic neighbours along
    axis 1."""
    return (np.concatenate((u[:, 1:], u[:, :1]), axis=1),
            np.concatenate((u[:, -1:], u[:, :-1]), axis=1))


def _theta_slope(u: np.ndarray, k: float) -> np.ndarray:
    up, um = _theta_shift(u)
    return (up - um) / (2.0 * k)


def _theta_derivs(u: np.ndarray, k: float):
    up, um = _theta_shift(u)
    return (up - um) / (2.0 * k), (up - 2.0 * u + um) / (k * k)


class _Cells(NamedTuple):
    """Finite volumes on increasing radii r: face f halfway between nodes f
    and f + 1, node j's cell between its faces (from r_0 at j = 0).  Nodes
    that do not move (the last, a first one off the pole) get infinite
    measure, so their rows of weights are zero."""

    dr: np.ndarray          # r_{f+1} - r_f
    inv_rho2: np.ndarray    # rho^-2 at the nodes
    inv_rho2_f: np.ndarray  # rho^-2 at the faces
    inv_xi2_f: np.ndarray   # xi^-2 at the faces
    cond: np.ndarray        # rho xi^(n-1) / dr at the faces
    dV: np.ndarray          # integral of rho xi^(n-1) over each cell


_GAUSS = np.polynomial.legendre.leggauss(8)     # nodes, weights on [-1, 1]


def _cells(n: int, xi: ProfileSpec, rho: ProfileSpec, r) -> _Cells:
    """The finite volumes of the radii r in base dimension n.  The cell
    measures come from one 8-point Gauss-Legendre pass, exact for the
    Euclidean polynomials up to n = 16 and to roundoff for smooth profiles
    (xi_j^(n-1) h would be O(1) wrong next to the pole for n >= 3)."""
    r = np.asarray(r, dtype=float)
    dr = np.diff(r)
    mid = r[:-1] + 0.5 * dr
    face = factors(xi, rho, mid)
    lo = np.concatenate(([r[0]], mid[:-1]))
    x, wq = _GAUSS
    s = 0.5 * (lo + mid)[:, None] + 0.5 * (mid - lo)[:, None] * x
    dV = np.append(0.5 * (mid - lo) * (rho.value(s) * xi.value(s) ** (n - 1)
                                       @ wq), math.inf)
    if r[0] > R_MIN:
        dV[0] = math.inf
    return _Cells(dr=dr, inv_rho2=np.asarray(rho.value(r), dtype=float) ** -2,
                  inv_rho2_f=face.rho ** -2, inv_xi2_f=face.inv_xi2,
                  cond=face.rho * face.xi ** (n - 1) / dr, dV=dV)


class _GridFactors(NamedTuple):
    """What the solver reads that depends only on the base dimension, the
    warping profiles and the grid.  ``at`` holds the kernel factors at
    every node; ``op`` views them on rows 1..nr-1 as (nr - 1, 1) columns,
    the rows where the 2-D weights and second fundamental form read them.
    cos and sin on the first ring give the pole row its slope."""

    at: Factors
    op: Factors
    rho1: np.ndarray      # rho' at every node
    cells: _Cells
    cos: np.ndarray
    sin: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid_factors(n: int, xi: ProfileSpec, rho: ProfileSpec,
                  grid: Grid) -> _GridFactors:
    """The per-grid invariants, evaluated once per (n, xi, rho, grid);
    every array is read-only.  The key is the model's dimension and two
    frozen profiles, since ModelGeometry is not hashable."""
    at = Factors(*map(_read_only, factors(xi, rho, grid.r)))
    return _GridFactors(
        at=at, op=Factors(*(a[1:-1, None] for a in at)),
        rho1=_read_only(np.asarray(rho.d1(grid.r), dtype=float)),
        cells=_Cells(*map(_read_only, _cells(n, xi, rho, grid.r))),
        cos=_read_only(np.cos(grid.theta)), sin=_read_only(np.sin(grid.theta)))


def _pole_fourier(u_ring: np.ndarray, h: float, gf: _GridFactors):
    """Local Cartesian gradient (a, b) at the pole from the first Fourier
    modes of the first grid ring (row at r = h)."""
    a = 2.0 * float(np.mean(u_ring * gf.cos)) / h
    b = 2.0 * float(np.mean(u_ring * gf.sin)) / h
    return a, b


def compute_W(model: ModelGeometry, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Tilt factor W = sqrt(rho^{-2} + |grad u|^2) on the grid.

    Deterministic function of (model, grid, u); the stepper stores exactly
    this field so recomputation is bit-identical.
    """
    r = grid.r
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    rho = gf.at.rho
    if grid.radial:
        v = u[:, 0] if u.ndim == 2 else u
        ur = np.gradient(v, r)
        ur[0] = 0.0
        ur[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * grid.hr)
        W = np.sqrt(1.0 / rho ** 2 + ur ** 2)
        return W[:, None] if u.ndim == 2 else W
    h = grid.hr
    ur = np.empty_like(u)
    ur[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    ur[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    ut = _theta_slope(u[1:], grid.dtheta)
    grad2 = np.empty_like(u)
    grad2[1:] = ur[1:] ** 2 + (ut / gf.at.xi[1:, None]) ** 2
    a, b = _pole_fourier(u[1], h, gf)
    grad2[0] = a * a + b * b
    return np.sqrt(1.0 / rho[:, None] ** 2 + grad2)


# ---------------------------------------------------------------------------
# spatial operator


def _d2_nonuniform(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Second derivative along the last axis on a (possibly) nonuniform
    grid, 3-point stencil."""
    d2 = np.zeros_like(u)
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    d2[..., 1:-1] = 2.0 * (u[..., :-2] / (h1 * (h1 + h2))
                           - u[..., 1:-1] / (h1 * h2)
                           + u[..., 2:] / (h2 * (h1 + h2)))
    d2[..., 0] = d2[..., 1]
    d2[..., -1] = d2[..., -2]
    return d2


def _radial_weights(c: _Cells,
                    u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (w_lo, w_up) towards nodes j - 1 and j + 1 of the radial
    operator on the finite volumes c.  At a pole first node the slope is
    zero and P = 1/rho; rows of nodes that do not move are zero."""
    s = np.concatenate(([0.0], np.diff(u) / c.dr, [0.0]))  # 0 past the ends
    g = np.concatenate(([0.0], c.cond / np.sqrt(c.inv_rho2_f + s[1:-1] ** 2),
                        [0.0]))
    P = np.sqrt(c.inv_rho2 + np.maximum(s[:-1] * s[1:], 0.0)) / c.dV
    return P * g[:-1], P * g[1:]


@functools.lru_cache(maxsize=16)
def _stencil(nr: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the 2-D semi-implicit system in natural node order
    j * nt + i, in the entry order _implicit_entries returns: five entries
    per interior node, the pole equation, the ties of the other pole copies
    to node 0, the boundary.  _band_layout maps each entry into the banded
    array the step solves; discretize_Q reads its interior neighbour pairs
    from the same arrays."""
    j = np.arange(1, nr)[:, None]
    i = np.arange(nt)[None, :]

    def node(dj, di):
        return (j + dj) * nt + (i + di) % nt

    offsets = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    ring = nt + np.arange(nt)
    ties = np.arange(1, nt)
    boundary = nr * nt + np.arange(nt)
    rows = np.concatenate([np.tile(node(0, 0).ravel(), len(offsets)),
                           np.zeros(nt + 1, dtype=int), ties, ties, boundary])
    cols = np.concatenate([np.concatenate([node(*o).ravel() for o in offsets]),
                           [0], ring, ties, np.zeros(nt - 1, dtype=int),
                           boundary])
    return _read_only(rows), _read_only(cols)


@functools.lru_cache(maxsize=16)
def _band_layout(nr: int, nt: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(pos, entry, kl, ku): the banded order of the 2-D system.

    pos[node] is the node's slot.  Rings keep their order and theta is
    folded within each, i = 0, 1, nt - 1, 2, nt - 2, ..., so periodic
    neighbours sit at most two slots apart.  Ring 0 holds the pole copies
    in the same folded order and then the pole equation, node 0, in its
    last slot, next to the first ring its row reads: that gives kl = nt + 1
    and ku = nt, where the natural order has ku = 2 nt - 1.  entry[e]
    is the flat index of _stencil entry e in the Fortran-order
    (2 kl + ku + 1) x N array dgbsv factors in place, which stores A[p, q]
    at row kl + ku + p - q of column q; its first kl rows are the fill-in
    room for the row interchanges."""
    i = np.arange(nt)
    fold = np.where(2 * i <= nt, 2 * i - 1, 2 * (nt - i))
    ring0 = fold - 1
    fold[0], ring0[0] = 0, nt - 1
    pos = np.concatenate([ring0, (np.arange(1, nr + 1)[:, None] * nt
                                  + fold).ravel()])
    rows, cols = _stencil(nr, nt)
    p, q = pos[rows], pos[cols]
    kl, ku = int(np.max(p - q)), int(np.max(q - p))
    entry = kl + ku + p - q + (2 * kl + ku + 1) * q
    return _read_only(pos), _read_only(entry), kl, ku


def _polar_weights(gf: _GridFactors, grid: Grid,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, w_ring): w[m] weighs, on interior rows, the neighbour at
    _stencil's offset m + 1; w_ring weighs the first ring in the pole row.
    W_f on a face adds the mean of the centred cross-differences at its two
    nodes."""
    c, f = gf.cells, gf.op
    k = grid.dtheta
    dr = c.dr[:, None]
    s = np.diff(u, axis=0) / dr                     # r-face slopes
    ct = _theta_slope(u, k)
    cross = 0.5 * (ct[:-1] + ct[1:])
    g_r = c.cond[:, None] / np.sqrt(c.inv_rho2_f[:, None] + s * s
                                    + cross * cross * c.inv_xi2_f[:, None])
    st = (_theta_shift(u[1:-1])[0] - u[1:-1]) / k   # slopes at i + 1/2
    cr = (u[2:] - u[:-2]) / (dr[1:] + dr[:-1])
    cross = 0.5 * (cr + _theta_shift(cr)[0])
    inv_rho2 = c.inv_rho2[1:-1, None]
    g_t = (grid.hr / (k * k)) * f.rho / (
        f.xi * np.sqrt(inv_rho2 + cross * cross + st * st * f.inv_xi2))
    P = np.sqrt(inv_rho2 + np.maximum(s[:-1] * s[1:], 0.0)
                + np.maximum(_theta_shift(st)[1] * st, 0.0) * f.inv_xi2
                ) / c.dV[1:-1, None]
    w = np.stack([P * g_r[1:], P * g_r[:-1], P * g_t,
                  P * _theta_shift(g_t)[1]])
    a, b = _pole_fourier(u[1], grid.hr, gf)
    w_ring = (math.sqrt(c.inv_rho2[0] + a * a + b * b)
              / (grid.ntheta * c.dV[0])) * g_r[0]
    return w, w_ring


def _weights(model: ModelGeometry, grid: Grid, u: np.ndarray) -> tuple:
    """The stencil at u: (w_lo, w_up) on a radial grid, (w, w_ring) on a
    polar one."""
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    if grid.radial:
        return _radial_weights(gf.cells, u.reshape(-1))
    return _polar_weights(gf, grid, u)


def _apply(w: tuple, u: np.ndarray) -> np.ndarray:
    """sum_k w_jk (u_k - u_j) for a stencil w of _weights, in u's shape."""
    if u.ndim == 1 or u.shape[1] == 1:
        w_lo, w_up = w
        du = np.concatenate(([0.0], np.diff(u.reshape(-1)), [0.0]))
        return (w_up * du[1:] - w_lo * du[:-1]).reshape(u.shape)
    nr, nt = u.shape[0] - 1, u.shape[1]
    w, w_ring = w
    m = (nr - 1) * nt
    rows, cols = (s[m:5 * m] for s in _stencil(nr, nt))
    flat = u.ravel()
    Q = np.zeros_like(u)
    Q[1:-1] = np.sum(w * (flat[cols] - flat[rows]).reshape(w.shape), axis=0)
    Q[0] = np.dot(w_ring, u[1] - u[0, 0])
    return Q


def radial_Q(model: ModelGeometry, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Discrete flow operator for radial fields on an increasing r grid,
    in base dimension model.n.  The first node may be the pole (r = 0);
    off the pole it reads zero, like the last (Dirichlet) node."""
    u = np.asarray(u, dtype=float)
    return _apply(_radial_weights(_cells(model.n, model.xi, model.rho, r), u),
                  u)


def discretize_Q(model: ModelGeometry, grid: Grid,
                 u: np.ndarray) -> np.ndarray:
    """Discrete flow operator on the polar grid (second order in space).

    Boundary row is returned as zero (the Dirichlet row never moves).
    """
    return _apply(_weights(model, grid, u), u)


# ---------------------------------------------------------------------------
# time stepping


def _radius(grid: Grid, w: tuple) -> float:
    """max_j sum_k w_jk: the largest Gershgorin radius of the stencil w."""
    if grid.radial:
        return float(np.max(w[0] + w[1]))
    return max(float(np.max(np.sum(w[0], 0))), float(np.sum(w[1])))


def _cfl_dt(model: ModelGeometry, grid: Grid, control: StepControl,
            u: np.ndarray) -> float:
    """The explicit step's limit cfl / max_j sum_k w_jk at the state u."""
    return control.cfl / _radius(grid, _weights(model, grid, u))


def _radial_implicit(model: ModelGeometry, grid: Grid, v: np.ndarray,
                     dt: float, phi0: float) -> np.ndarray:
    """One lagged-coefficient step of a radial field: a tridiagonal solve
    of (I - dt L(v)) v_new = v with the Dirichlet value phi0 at r = R."""
    w_lo, w_up = _weights(model, grid, v)
    bands = np.zeros((3, v.size))         # upper, main, lower diagonals
    bands[0, 1:] = -dt * w_up[:-1]
    bands[1] = 1.0 + dt * (w_lo + w_up)
    bands[2, :-1] = -dt * w_lo[1:]
    rhs = v.copy()
    rhs[-1] = phi0
    return solve_banded((1, 1), bands, rhs)


def _implicit_entries(model: ModelGeometry, grid: Grid, u: np.ndarray,
                      dt: float) -> np.ndarray:
    """Entries of I - dt L(u) on the polar grid, in _stencil order, from
    the stencil weights, with identity rows on the boundary and ties of the
    pole copies to node 0."""
    nt = grid.ntheta
    w, w_ring = _weights(model, grid, u)
    return np.concatenate([(1.0 + dt * np.sum(w, 0)).ravel(), -dt * w.ravel(),
                           [1.0 + dt * np.sum(w_ring)], -dt * w_ring,
                           np.ones(nt - 1), -np.ones(nt - 1), np.ones(nt)])


def _polar_implicit(model: ModelGeometry, grid: Grid, u: np.ndarray,
                    dt: float, phi_row: np.ndarray) -> np.ndarray:
    """One lagged-coefficient step of a polar field: (I - dt L(u)) u_new = u
    with the Dirichlet row phi_row, solved in _band_layout's order by a
    band LU (partial pivoting, which this M-matrix does not need but the
    band array has room for)."""
    nt = grid.ntheta
    pos, entry, kl, ku = _band_layout(grid.nr, nt)
    band = np.zeros(u.size * (2 * kl + ku + 1))
    band[entry] = _implicit_entries(model, grid, u, dt)
    rhs = np.empty(u.size)
    rhs[pos] = u.ravel()
    rhs[pos[1:nt]] = 0.0                  # pole tie rows
    rhs[pos[-nt:]] = phi_row
    # the transpose of the C-order (N, 2 kl + ku + 1) buffer is the
    # Fortran-order band array, so dgbsv factors and solves in place
    _, _, sol, info = dgbsv(kl, ku, band.reshape(u.size, -1).T, rhs,
                            overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise FlowError(f"banded solve failed (LAPACK dgbsv info={info})")
    u_new = sol[pos].reshape(grid.shape())
    u_new[0, :] = u_new[0, 0]
    return u_new


def step(state: FlowState, problem: BallProblem, grid: Grid,
         control: StepControl, dt: float | None = None,
         phi_row: np.ndarray | None = None) -> FlowState:
    """Advance the flow one time step and re-impose the Dirichlet row."""
    model = problem.model
    if phi_row is None:
        phi_row = np.broadcast_to(
            np.asarray(problem.phi(grid.theta), dtype=float),
            (grid.ntheta,)).copy()
    dt = control.dt_max if dt is None else dt
    if dt <= 0:
        raise FlowError("dt must be positive")
    u = state.u
    if control.scheme == "explicit-euler":
        w = _weights(model, grid, u)
        lim = control.cfl / _radius(grid, w)          # as _cfl_dt at u
        if dt > lim:
            raise FlowError(
                f"explicit step dt={dt:.3e} exceeds the CFL limit {lim:.3e}")
        u_new = u + dt * _apply(w, u)
    elif grid.radial:
        u_new = _radial_implicit(model, grid, u.reshape(-1), dt,
                                 float(phi_row[0])).reshape(u.shape)
    else:
        u_new = _polar_implicit(model, grid, u, dt, phi_row)
    u_new[-1] = phi_row if u_new.ndim == 2 else phi_row[0]
    if not np.all(np.isfinite(u_new)):
        raise FlowError("non-finite field after step (linear solve failed?)")
    return FlowState(t=state.t + dt, u=u_new,
                     W=compute_W(model, grid, u_new),
                     step_count=state.step_count + 1)


# ---------------------------------------------------------------------------
# derived geometric fields


def second_fundamental_form(model: ModelGeometry, grid: Grid,
                            u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|A|^2 field, nH field) of the graph of u over the polar grid.

    Assembled from the ambient Christoffels of the warped metric applied to
    the graph parametrization (one derivative order lower than
    differentiating the mean curvature expression).  Pole and boundary rows
    are copies of the nearest interior row; treat them as extrapolation.
    """
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    if grid.radial:
        a2, nh = _radial_sff(model.n, gf.at, gf.rho1, grid.r, u.reshape(-1))
        return a2.reshape(u.shape), nh.reshape(u.shape)
    h = grid.hr
    sl = slice(1, -1)
    ut, utt = _theta_derivs(u, grid.dtheta)
    Ur = (u[2:] - u[:-2]) / (2 * h)
    Urr = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
    Urt = (ut[2:] - ut[:-2]) / (2 * h)
    Ut, Utt = ut[sl], utt[sl]
    xi, xi1, rho = gf.op.xi, gf.op.xi1, gf.op.rho
    rho1 = gf.rho1[sl, None]
    lrho = rho1 / rho
    W = np.sqrt(1.0 / rho ** 2 + Ur ** 2 + Ut ** 2 / xi ** 2)
    a_rr = (Urr + 2 * Ur * lrho + rho * rho1 * Ur ** 3) / W
    a_rt = (Urt + Ut * lrho + rho * rho1 * Ur ** 2 * Ut
            - (xi1 / xi) * Ut) / W
    a_tt = (Utt + rho * rho1 * Ut ** 2 * Ur + xi * xi1 * Ur) / W
    g_rr = 1.0 + rho ** 2 * Ur ** 2
    g_rt = rho ** 2 * Ur * Ut
    g_tt = xi ** 2 + rho ** 2 * Ut ** 2
    det = g_rr * g_tt - g_rt ** 2
    i_rr = g_tt / det
    i_rt = -g_rt / det
    i_tt = g_rr / det
    s11 = i_rr * a_rr + i_rt * a_rt
    s12 = i_rr * a_rt + i_rt * a_tt
    s21 = i_rt * a_rr + i_tt * a_rt
    s22 = i_rt * a_rt + i_tt * a_tt
    nH = np.zeros_like(u)
    A2 = np.zeros_like(u)
    nH[sl] = s11 + s22
    A2[sl] = s11 ** 2 + 2 * s12 * s21 + s22 ** 2
    nH[0], nH[-1] = nH[1], nH[-2]
    A2[0], A2[-1] = A2[1], A2[-2]
    return A2, nH


def radial_second_fundamental_form(model: ModelGeometry, r: np.ndarray,
                                   u: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Principal curvatures of a radial graph: the profile direction and
    the (n-1)-fold spherical direction.  Returns (|A|^2, nH) on the grid.
    u may stack several fields; r runs along its last axis."""
    return _radial_sff(model.n, factors(model.xi, model.rho, r),
                       np.asarray(model.rho.d1(r), dtype=float), r, u)


def _radial_sff(n: int, f: Factors, rho1: np.ndarray, r: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ur = np.gradient(u, r, axis=-1)
    urr = _d2_nonuniform(r, u)
    pole = r[0] <= R_MIN
    if pole:
        ur[..., 0] = 0.0
        urr[..., 0] = 2.0 * (u[..., 1] - u[..., 0]) / (r[1] - r[0]) ** 2
    rho, xi_ratio = f.rho, f.xi_ratio
    W = np.sqrt(1.0 / rho ** 2 + ur ** 2)
    lam_r = (urr + 2 * ur * rho1 / rho + rho * rho1 * ur ** 3) \
        / (W * (1.0 + rho ** 2 * ur ** 2))
    lam_t = xi_ratio * ur / W
    if pole:
        lam_t[..., 0] = urr[..., 0] / W[..., 0]
        lam_r[..., 0] = urr[..., 0] / W[..., 0]
    A2 = lam_r ** 2 + (n - 1) * lam_t ** 2
    nH = lam_r + (n - 1) * lam_t
    return A2, nH


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    problem: BallProblem
    grid: Grid
    control: StepControl
    states: list
    times: np.ndarray
    max_grad: np.ndarray
    max_A: np.ndarray


def _max_grad(model: ModelGeometry, grid: Grid, state: FlowState) -> float:
    rho = _grid_factors(model.n, model.xi, model.rho, grid).at.rho
    if state.u.ndim == 2:
        rho = rho[:, None]
    grad2 = state.W ** 2 - 1.0 / rho ** 2
    return float(math.sqrt(max(float(np.max(grad2)), 0.0)))


def solve_ball(problem: BallProblem, grid: Grid, control: StepControl,
               snapshot_every: int = 0) -> Trajectory:
    """Integrate the Dirichlet flow to time T, collecting snapshots.

    snapshot_every = 0 keeps only the initial and final states.  Q has no
    zeroth-order term, so constants solve the flow and the maximum
    principle gives sup|u(t)| <= sup0 = max(sup|u0|, sup|phi|).  A state
    whose sup norm exceeds 10 max(sup0, 1) aborts the run: such growth can
    only be numerical instability.
    """
    if snapshot_every < 0:
        raise FlowError(f"snapshot_every must be >= 0, got {snapshot_every}")
    model = problem.model
    if not grid.radial and model.n != 2:
        raise FlowError(f"the polar grid represents base dimension 2 only; "
                        f"use a radial grid (ntheta = 1) for n = {model.n}")
    if grid.R != problem.R:
        raise FlowError(f"grid radius {grid.R} differs from the problem "
                        f"radius {problem.R}")
    u0, phi = problem.sample(grid)
    if grid.radial:
        u0 = u0[:, 0]
    state = FlowState(t=0.0, u=u0, W=compute_W(model, grid, u0),
                      step_count=0)
    sup0 = max(float(np.max(np.abs(u0))), float(np.max(np.abs(phi))))
    guard = 10.0 * max(sup0, 1.0)
    n_steps = max(int(math.ceil(problem.T / control.dt_max)), 1)
    dt = problem.T / n_steps
    states = [state]
    times = [0.0]
    mg = [_max_grad(model, grid, state)]
    a2, _ = second_fundamental_form(model, grid, state.u)
    ma = [float(np.sqrt(np.max(a2)))]
    for sidx in range(n_steps):
        state = step(state, problem, grid, control, dt=dt, phi_row=phi)
        if float(np.max(np.abs(state.u))) > guard:
            raise FlowError(
                f"divergence guard tripped at t={state.t:.4g}: "
                f"sup|u| exceeds 10x the maximum-principle bound "
                f"{guard / 10.0:.4g}")
        times.append(state.t)
        mg.append(_max_grad(model, grid, state))
        a2, _ = second_fundamental_form(model, grid, state.u)
        ma.append(float(np.sqrt(np.max(a2))))
        last = sidx == n_steps - 1
        if last or (snapshot_every and (sidx + 1) % snapshot_every == 0):
            states.append(state)
    return Trajectory(problem=problem, grid=grid, control=control,
                      states=states, times=np.asarray(times),
                      max_grad=np.asarray(mg), max_A=np.asarray(ma))


def radial_solve(problem: BallProblem, nr: int,
                 control: StepControl, snapshot_every: int = 0) -> Trajectory:
    """Radial fast path: same contracts as solve_ball on a 1D grid."""
    grid = Grid(R=problem.R, nr=nr, ntheta=1)
    return solve_ball(problem, grid, control, snapshot_every)


# ---------------------------------------------------------------------------
# evolution identity residuals


@dataclass(frozen=True)
class IdentityReport:
    max_abs_tilt: float        # residual of the tilt-factor evolution law
    max_abs_height: float      # residual of the height evolution identity
    min_slack_cylinder: float  # slack of the radial-cylinder inequality
    snapshots: int


def _intrinsic_laplacian(F: np.ndarray, r: np.ndarray, g_rr: np.ndarray,
                         dlogJ: np.ndarray) -> np.ndarray:
    """Laplacian of a radial F on the graph: G' + G (log J)' with the
    radial flux G = F'/g_rr and the area density J = sqrt(g_rr) xi^{n-1}.
    Differencing the flux J G itself, which grows like r^n at the pole,
    would leave an error of C(n,3) h^2/r^2 there."""
    G = np.gradient(F, r, axis=-1) / g_rr
    return np.gradient(G, r, axis=-1) + G * dlogJ


def residual_identities(model: ModelGeometry, trajectory: Trajectory,
                        burn_in: float = 0.1) -> IdentityReport:
    """Discrete residuals of the evolution identities along a radial run.

    Checks, with the material derivative D_t = d/dt - (nH u_r / W) d/dr
    correcting for the graphical gauge (the graph parametrization slides
    tangentially relative to the normal flow):

    * tilt factor:  D_t W - Lap W + W (|A|^2 + Ric(N, N)) + 2 |grad W|^2 / W
      should vanish,
    * height:       D_t u - Lap u + 2 <grad log rho, N><grad s, N>
      should vanish,
    * cylinder size: D_t zeta - Lap zeta
      + n xi' + rho^2 |grad s|^2 xi (<grad log rho, grad r> - xi'/xi)
      should be nonnegative (equality on the model space itself).

    All Laplacians/gradients are intrinsic to the evolving graph.  Residuals
    are maximized over interior nodes (3 trimmed at each end) and interior
    snapshots.  Snapshots in the first ``burn_in`` fraction of the time span
    are skipped: generic initial data is only zeroth-order compatible with
    the Dirichlet condition, and the resulting corner nonsmoothness at
    (r = R, t = 0) would dominate the residual no matter how fine the grid.
    """
    if len(trajectory.states) < 3:
        raise FlowError("need at least 3 snapshots")
    grid = trajectory.grid
    if not grid.radial:
        raise FlowError("identity residuals are implemented for radial runs")
    n = model.n
    r = grid.r
    t = np.asarray([s.t for s in trajectory.states])
    U = np.stack([s.u for s in trajectory.states])
    # the evaluated snapshots: interior in time and past the burn-in
    t_min = t[0] + burn_in * (t[-1] - t[0])
    win = slice(max(int(np.searchsorted(t, t_min)), 1), t.size - 1)
    if win.start >= win.stop:
        raise FlowError("no snapshots past the burn-in window")
    rho = np.asarray(model.rho.value(r), dtype=float)
    rho1 = np.asarray(model.rho.d1(r), dtype=float)
    xi = np.asarray(model.xi.value(r), dtype=float)
    xi1 = np.asarray(model.xi.d1(r), dtype=float)
    zeta = np.asarray([model.zeta(float(x)) for x in r])
    frame = ambient_frame(model)
    ric = np.asarray([frame.ricci_eigenvalues(float(x)) if x > R_MIN
                      else frame.ricci_eigenvalues(1e-6)
                      for x in r])
    Ur_all = np.gradient(U, r, axis=1)
    Ur_all[:, 0] = 0.0
    W_all = np.sqrt(1.0 / rho ** 2 + Ur_all ** 2)
    u, ur, W = U[win], Ur_all[win], W_all[win]
    sl = np.s_[:, 3:-3]
    # Each residual is summed in place and reduced to its extreme before
    # the next one is formed, and fields are dropped after their last use:
    # that bounds the (snapshot x node) arrays alive at once.
    A2, nH = radial_second_fundamental_form(model, r, u)
    gauge = nH * ur / W
    del nH
    xi_ratio = np.where(r > R_MIN, xi1 / np.where(xi > 0, xi, 1.0), 0.0)
    g_rr = 1.0 + rho ** 2 * ur ** 2
    dlogJ = np.gradient(g_rr, r, axis=-1) / (2.0 * g_rr) + (n - 1) * xi_ratio
    # tilt factor
    Wr = np.gradient(W, r, axis=-1)
    res = np.gradient(W_all, t, axis=0)[win] - gauge * Wr
    res -= _intrinsic_laplacian(W, r, g_rr, dlogJ)
    ricNN = (1.0 / (rho * W)) ** 2 * ric[:, 0] + (ur / W) ** 2 * ric[:, 1]
    res += W * (A2 + ricNN)
    res += 2.0 * (Wr ** 2 / g_rr) / W
    max_tilt = float(np.max(np.abs(res[sl])))
    del A2, Wr, ricNN
    # height
    res = np.gradient(U, t, axis=0)[win] - gauge * ur
    res -= _intrinsic_laplacian(u, r, g_rr, dlogJ)
    res += 2.0 * (-(rho1 / rho) * ur / W) * (1.0 / (rho ** 2 * W))
    max_height = float(np.max(np.abs(res[sl])))
    # cylinder size
    res = -gauge * xi
    res -= _intrinsic_laplacian(zeta, r, g_rr, dlogJ)
    res += n * xi1
    grad_s2 = 1.0 / rho ** 2 - 1.0 / (rho ** 4 * W ** 2)
    # the warping correction pairs the full ambient gradients, so the
    # coefficient is rho'/rho itself, with no tangential projection
    res += rho ** 2 * grad_s2 * xi * (rho1 / rho - xi_ratio)
    min_slack = float(np.min(res[sl]))
    return IdentityReport(max_abs_tilt=max_tilt, max_abs_height=max_height,
                          min_slack_cylinder=min_slack,
                          snapshots=len(trajectory.states))


# ---------------------------------------------------------------------------
# snapshot persistence


def _spec_hash(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def model_hash(model: ModelGeometry) -> str:
    return _spec_hash(model.spec_dict())


def _node_text(grid: Grid) -> list[str]:
    """The ",r,theta," text of every node, in row order."""
    return [f",{r!r},{th!r}," for r in grid.r.tolist()
            for th in grid.theta.tolist()]


def _write_snapshot(path: str, state: FlowState, nodes: list[str]) -> None:
    t = repr(state.t)
    rows = ["t,r,theta,u,W\r\n"]
    rows += [f"{t}{node}{u!r},{W!r}\r\n" for node, u, W in
             zip(nodes, np.ravel(state.u).tolist(),
                 np.ravel(state.W).tolist(), strict=True)]
    with open(path, "w", newline="") as fh:
        fh.writelines(rows)


def save_snapshot(path: str, grid: Grid, state: FlowState) -> None:
    """Write one snapshot as CSV t,r,theta,u,W (CRLF line ends) with
    shortest round-trip float formatting, so reading it back is bit-exact."""
    _write_snapshot(path, state, _node_text(grid))


def load_snapshot(path: str, grid: Grid) -> FlowState:
    """Read a snapshot written by save_snapshot on the same grid.  Raises
    FlowError unless it holds one row per node, at the grid's r and theta
    (compared exactly: the values round-trip through repr)."""
    shape = (grid.nr + 1, grid.ntheta)
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise FlowError(f"{path}: not a snapshot table: {exc}") from exc
    if len(rows) != shape[0] * shape[1]:
        raise FlowError(f"{path}: {len(rows)} rows, the grid has "
                        f"{shape[0] * shape[1]} nodes")
    if not (np.array_equal(rows[:, 1], np.repeat(grid.r, shape[1]))
            and np.array_equal(rows[:, 2], np.tile(grid.theta, shape[0]))):
        raise FlowError(f"{path}: r/theta columns differ from the grid")
    u = rows[:, 3].reshape(shape)
    W = rows[:, 4].reshape(shape)
    if grid.radial:
        u = u[:, 0]
        W = W[:, 0]
    return FlowState(t=float(rows[-1, 0]), u=u, W=W, step_count=-1)


def save_run(dirpath: str, trajectory: Trajectory) -> str:
    """Persist a trajectory: one CSV per snapshot plus a JSON manifest.
    Returns the manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    grid = trajectory.grid
    nodes = _node_text(grid)      # the same in every snapshot
    files = []
    for i, state in enumerate(trajectory.states):
        name = f"snapshot_{i:05d}.csv"
        _write_snapshot(os.path.join(dirpath, name), state, nodes)
        files.append(name)
    manifest = {
        "snapshots": files,
        "grid": {"R": grid.R, "nr": grid.nr, "ntheta": grid.ntheta},
        "control": {"scheme": trajectory.control.scheme,
                    "cfl": trajectory.control.cfl,
                    "dt_max": trajectory.control.dt_max},
        "model_hash": model_hash(trajectory.problem.model),
        "model": trajectory.problem.model.spec_dict(),
        "T": trajectory.problem.T,
        "times": [repr(float(x)) for x in trajectory.times],
        "max_grad": [repr(float(x)) for x in trajectory.max_grad],
        "max_A": [repr(float(x)) for x in trajectory.max_A],
    }
    mpath = os.path.join(dirpath, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def load_run(manifest_path: str) -> dict:
    """Load a manifest and its snapshots; values round-trip bit-exactly."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest["model_hash"] != _spec_hash(manifest["model"]):
        raise FlowError(f"{manifest_path}: model_hash does not match the "
                        f"stored model")
    g = manifest["grid"]
    grid = Grid(R=g["R"], nr=g["nr"], ntheta=g["ntheta"])
    base = os.path.dirname(manifest_path)
    states = [load_snapshot(os.path.join(base, f), grid)
              for f in manifest["snapshots"]]
    return {
        "manifest": manifest,
        "grid": grid,
        "states": states,
        "times": np.asarray([float(x) for x in manifest["times"]]),
        "max_grad": np.asarray([float(x) for x in manifest["max_grad"]]),
        "max_A": np.asarray([float(x) for x in manifest["max_A"]]),
    }
