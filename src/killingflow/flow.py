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
data.  The weights are stored as the symmetric conductances c_jk = c_kj
and the row measures m_j = dV_j / P_j (``_radial_weights``,
``_polar_weights``; the pole row's measure is ntheta dV_0 / P_0), and feed

* ``discretize_Q`` (and ``radial_Q``, the same operator on the nodes of a
  radial grid) and the explicit Euler step (a debugging fallback), which
  checks dt max_j sum_k w_jk <= cfl on the weights of the state it steps;
* the default semi-implicit step, which lags them one step.  Row j of the
  M-matrix I - dt L(u) times m_j is the symmetric, strictly diagonally
  dominant S = diag(m) - dt C, C the graph Laplacian of the conductances,
  with the Dirichlet row moved into the right-hand side.  S is solved by
  one banded Cholesky (LAPACK dpbsv): in natural ring order, with the pole
  as one unknown, its half-bandwidth is ntheta on the 2-D grid and 1 on
  the radial one.  The factor of this Stieltjes matrix has no positive
  off-diagonal entry, so both steps keep min(u0, phi) <= u <= max(u0, phi).

What depends only on n, the profiles and the grid is computed once and
shared read-only: ``Grid.r``/``Grid.theta``, the node factors, the finite
volumes and the pole ring's Fourier modes (``_grid_factors``), which are
checked to be finite when built.  A step evaluates no profile.  Radial
fields (ntheta = 1) may live in any base dimension n = model.n; the 2-D
grid represents n = 2 only.

The diagnostics follow one rule on both grids.  ``_slopes`` takes u_r and
u_theta / xi by centred differences on rows 1..nr-1, a second-order
one-sided difference on the rim row and, at the pole, the gradient fitted
to the first ring (0 on a radial grid); W is formed from them in
``_tilt`` alone.  |A| is evaluated on rows 1..nr-1, and its pole and rim
rows copy the nearest interior row.  ``solve_ball`` takes max|grad u| and
max|A| of each state from one pass (``_diagnostics``) that builds no field;
``second_fundamental_form`` and ``residual_identities`` read the same ones.
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
from scipy.linalg.lapack import dpbsv

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


class _Cells(NamedTuple):
    """Finite volumes on the nodes r of a radial grid: face f halfway
    between nodes f and f + 1, node j's cell between its faces (from the
    pole at j = 0).  The Dirichlet node does not move: it gets infinite
    measure, so its row of weights is zero."""

    dr: np.ndarray          # r_{f+1} - r_f
    inv_rho2: np.ndarray    # rho^-2 at the nodes
    inv_rho2_f: np.ndarray  # rho^-2 at the faces
    inv_xi2_f: np.ndarray   # xi^-2 at the faces
    cond: np.ndarray        # rho xi^(n-1) / dr at the faces
    dV: np.ndarray          # integral of rho xi^(n-1) over each cell


_GAUSS = np.polynomial.legendre.leggauss(8)     # nodes, weights on [-1, 1]


def _cells(n: int, xi: ProfileSpec, rho: ProfileSpec, r) -> _Cells:
    """The finite volumes of the grid nodes r in base dimension n.  The cell
    measures come from one 8-point Gauss-Legendre pass, exact for the
    Euclidean polynomials up to n = 16 and to roundoff for smooth profiles
    (xi_j^(n-1) h would be O(1) wrong next to the pole for n >= 3)."""
    r = np.asarray(r, dtype=float)
    dr = np.diff(r)
    mid = r[:-1] + 0.5 * dr
    lo = np.concatenate(([r[0]], mid[:-1]))
    x, wq = _GAUSS
    s = 0.5 * (lo + mid)[:, None] + 0.5 * (mid - lo)[:, None] * x
    rho_r = rho.value(r)
    with np.errstate(over="ignore", invalid="ignore"):
        face = factors(xi, rho, mid)
        cond = face.rho * face.xi ** (n - 1) / dr
        dV = 0.5 * (mid - lo) * (rho.value(s) * xi.value(s) ** (n - 1) @ wq)
        # the weights, W and the curvature forms multiply the profiles up
        # to these powers: past an overflow a step only makes inf and nan
        bad = [(float(at[~np.isfinite(a)][0]), name) for name, at, a in (
            ("rho^2", r, rho_r ** 2), ("xi^2", r, xi.value(r) ** 2),
            ("the face conductance rho xi^(n-1) / h", mid, cond),
            ("the cell measure of rho xi^(n-1)", r[:-1], dV))
            if not np.all(np.isfinite(a))]
    if bad:
        r_bad, name = min(bad)
        raise FlowError(f"{name} overflows at r = {r_bad:.6g} (xi: {xi.kind}, "
                        f"rho: {rho.kind}): the grid reaches past the radii "
                        f"this model can represent in double precision")
    return _Cells(dr=dr, inv_rho2=rho_r ** -2,
                  inv_rho2_f=face.rho ** -2, inv_xi2_f=face.inv_xi2,
                  cond=cond, dV=np.append(dV, math.inf))


class _GridFactors(NamedTuple):
    """What the solver reads that depends only on the base dimension, the
    warping profiles and the grid.  ``at`` holds the kernel factors at
    every node; ``op`` views them on rows 1..nr-1 as (nr - 1, 1) columns,
    the rows where the 2-D weights and second fundamental form read them.
    cos and sin on the first ring give the pole row its slope."""

    at: Factors
    op: Factors
    cells: _Cells
    cos: np.ndarray
    sin: np.ndarray


@functools.lru_cache(maxsize=32)
def _grid_factors(n: int, xi: ProfileSpec, rho: ProfileSpec,
                  grid: Grid) -> _GridFactors:
    """The per-grid invariants, evaluated once per (n, xi, rho, grid);
    every array is read-only.  The key is the model's dimension and two
    frozen profiles, since ModelGeometry is not hashable.  The cells come
    first: building them raises FlowError where the profiles overflow."""
    cells = _Cells(*map(_read_only, _cells(n, xi, rho, grid.r)))
    at = Factors(*map(_read_only, factors(xi, rho, grid.r)))
    return _GridFactors(
        at=at, op=Factors(*(a[1:-1, None] for a in at)), cells=cells,
        cos=_read_only(np.cos(grid.theta)), sin=_read_only(np.sin(grid.theta)))


def _pole_fourier(u_ring: np.ndarray, h: float, gf: _GridFactors):
    """Local Cartesian gradient (a, b) at the pole from the first Fourier
    modes of the first grid ring (row at r = h)."""
    nt = u_ring.size
    a = 2.0 * (float(np.add.reduce(u_ring * gf.cos)) / nt) / h
    b = 2.0 * (float(np.add.reduce(u_ring * gf.sin)) / nt) / h
    return a, b


def _slopes(gf: _GridFactors, grid: Grid, u: np.ndarray):
    """(u_r, u_theta / xi) at every node of u, a field of the grid's
    shape; at the pole, the polar components of the gradient
    ``_pole_fourier`` fits.  A radial grid's u_theta is the scalar 0.0,
    and its u may stack fields as columns."""
    h = grid.hr
    ur = np.empty_like(u)
    ur[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    ur[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    if grid.radial:
        ur[0] = 0.0
        return ur, 0.0
    a, b = _pole_fourier(u[1], h, gf)
    ur[0] = a * gf.cos + b * gf.sin
    vt = np.empty_like(u)
    vt[0] = b * gf.cos - a * gf.sin
    vt[1:] = _theta_slope(u[1:], grid.dtheta) / gf.at.xi[1:, None]
    return ur, vt


def _tilt(rho, ur, vt=0.0):
    """The tilt factor W = sqrt(rho^-2 + u_r^2 + (u_theta / xi)^2)."""
    return np.sqrt(1.0 / rho ** 2 + (ur ** 2 + vt ** 2))


def compute_W(model: ModelGeometry, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Tilt factor W on the grid, from the slopes of ``_slopes``.  The
    stepper stores exactly this field, so recomputation is bit-identical."""
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    v = u.reshape(grid.shape())
    return _tilt(gf.at.rho[:, None], *_slopes(gf, grid, v)).reshape(u.shape)


# ---------------------------------------------------------------------------
# spatial operator


class _Radial(NamedTuple):
    """The radial stencil at a state: w_jk = c_jk / m_j."""

    g: np.ndarray   # conductance of each face, between nodes f and f + 1
    m: np.ndarray   # row measure dV / P of each node, inf where it is fixed


class _Polar(NamedTuple):
    """The 2-D stencil at a state: w_jk = c_jk / m_j on rings 1..nr-1, and
    c_{0,(1,i)} / m0 in the pole row."""

    g_r: np.ndarray   # (nr, nt) r-face conductances; row 0 joins the pole
    g_t: np.ndarray   # (nr - 1, nt) theta-face conductances at i + 1/2
    m: np.ndarray     # (nr - 1, nt) row measures dV / P
    m0: float         # the pole row's measure nt dV_0 / P_0


def _radial_weights(c: _Cells, u: np.ndarray) -> _Radial:
    """The radial operator on the finite volumes c.  At the pole the slope
    is zero and P = 1/rho; the Dirichlet node has infinite measure, so its
    row of weights is zero."""
    s = np.diff(u) / c.dr
    g = c.cond / np.sqrt(c.inv_rho2_f + s * s)
    s = np.concatenate(([0.0], s, [0.0]))                  # 0 past the ends
    return _Radial(g, c.dV / np.sqrt(c.inv_rho2
                                     + np.maximum(s[:-1] * s[1:], 0.0)))


def _polar_weights(gf: _GridFactors, grid: Grid, u: np.ndarray) -> _Polar:
    """The 2-D operator at u.  W_f on a face adds the mean of the centred
    cross-differences at its two nodes."""
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
    m = c.dV[1:-1, None] / np.sqrt(
        inv_rho2 + np.maximum(s[:-1] * s[1:], 0.0)
        + np.maximum(_theta_shift(st)[1] * st, 0.0) * f.inv_xi2)
    a, b = _pole_fourier(u[1], grid.hr, gf)
    m0 = grid.ntheta * c.dV[0] / math.sqrt(c.inv_rho2[0] + a * a + b * b)
    return _Polar(g_r, g_t, m, m0)


def _weights(model: ModelGeometry, grid: Grid,
             u: np.ndarray) -> _Radial | _Polar:
    """The stencil at u on the grid."""
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    if grid.radial:
        return _radial_weights(gf.cells, u.reshape(-1))
    return _polar_weights(gf, grid, u)


def _apply(w: _Radial | _Polar, u: np.ndarray) -> np.ndarray:
    """sum_k w_jk (u_k - u_j) for a stencil w of _weights, in u's shape:
    the net flux into each cell over its measure."""
    if isinstance(w, _Radial):
        flux = np.concatenate(([0.0], w.g * np.diff(u.reshape(-1)), [0.0]))
        return (np.diff(flux) / w.m).reshape(u.shape)
    f_r = w.g_r * np.diff(u, axis=0)
    f_t = w.g_t * (_theta_shift(u[1:-1])[0] - u[1:-1])
    Q = np.zeros_like(u)
    Q[1:-1] = (f_r[1:] - f_r[:-1] + f_t - _theta_shift(f_t)[1]) / w.m
    Q[0] = np.sum(f_r[0]) / w.m0
    return Q


@functools.lru_cache(maxsize=32)
def _radial_grid(R: float, nr: int) -> Grid:
    """Grid(R, nr, 1) and its nodes, built once for radial_Q's calls."""
    return Grid(R=R, nr=nr, ntheta=1)


def radial_Q(model: ModelGeometry, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``discretize_Q`` of a radial field u on the nodes r of the radial
    grid Grid(R=r[-1], nr=r.size - 1, ntheta=1), np.linspace(0, R, nr + 1);
    raises FlowError for any other radii."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise FlowError("radial_Q takes a 1-d array of radii")
    grid = _radial_grid(float(r[-1]), r.size - 1)
    if not np.array_equal(r, grid.r):
        raise FlowError("radial_Q takes the nodes np.linspace(0, R, nr + 1) "
                        "of a radial grid")
    return discretize_Q(model, grid, np.asarray(u, dtype=float))


def discretize_Q(model: ModelGeometry, grid: Grid,
                 u: np.ndarray) -> np.ndarray:
    """Discrete flow operator on the polar grid (second order in space).

    Boundary row is returned as zero (the Dirichlet row never moves).
    """
    return _apply(_weights(model, grid, u), u)


# ---------------------------------------------------------------------------
# time stepping


def _radius(w: _Radial | _Polar) -> float:
    """max_j sum_k w_jk: the largest Gershgorin radius of the stencil w."""
    if isinstance(w, _Radial):
        g = np.concatenate(([0.0], w.g, [0.0]))
        return float(np.max((g[:-1] + g[1:]) / w.m))
    rows = (w.g_r[1:] + w.g_r[:-1] + w.g_t + _theta_shift(w.g_t)[1]) / w.m
    return max(float(np.max(rows)), float(np.sum(w.g_r[0])) / w.m0)


def _cfl_dt(model: ModelGeometry, grid: Grid, control: StepControl,
            u: np.ndarray) -> float:
    """The explicit step's limit cfl / max_j sum_k w_jk at the state u."""
    return control.cfl / _radius(_weights(model, grid, u))


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve S x = rhs for the symmetric positive definite S whose lower
    band is the C-order (N, kd + 1) array band, band[j, d] = S[j + d, j],
    by a banded Cholesky (LAPACK dpbsv) that overwrites both arguments."""
    # the transpose of the C-order buffer is the Fortran-order
    # (kd + 1) x N lower band storage dpbsv factors in place
    _, x, info = dpbsv(band.T, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise FlowError(f"banded Cholesky solve failed: the system is not "
                        f"positive definite (LAPACK dpbsv info={info})")
    # non-finite weights give a non-finite solution, which step reports
    return x


def _radial_implicit(model: ModelGeometry, grid: Grid, v: np.ndarray,
                     dt: float, phi0: float) -> np.ndarray:
    """One lagged-coefficient step of a radial field: (I - dt L(v)) v_new = v
    with the Dirichlet value phi0 at r = R, each row scaled by its measure
    into the symmetric tridiagonal diag(m) - dt C."""
    g, m = _weights(model, grid, v)
    g = dt * g
    band = np.zeros((v.size - 1, 2))
    band[:, 0] = m[:-1] + g
    band[1:, 0] += g[:-1]
    band[:-1, 1] = -g[:-1]
    rhs = m[:-1] * v[:-1]
    rhs[-1] += g[-1] * phi0
    return np.append(_band_solve(band, rhs), phi0)


def _polar_implicit(model: ModelGeometry, grid: Grid, u: np.ndarray,
                    dt: float, phi_row: np.ndarray) -> np.ndarray:
    """One lagged-coefficient step of a polar field: (I - dt L(u)) u_new = u
    with the Dirichlet row phi_row.  Each row is scaled by its measure into
    S = diag(m) - dt C, unknowns in natural order: the pole, then rings
    1..nr-1 with theta fastest.  S's lower band holds the diagonal, the
    theta neighbour at offset 1, the theta wrap at nt - 1, the next ring
    at nt and the pole column at 1..nt, so kd = nt."""
    nr, nt = grid.nr, grid.ntheta
    w = _weights(model, grid, u)
    g_r, g_t = dt * w.g_r, dt * w.g_t
    band = np.zeros((1 + (nr - 1) * nt, nt + 1))
    rings = band[1:].reshape(nr - 1, nt, nt + 1)
    rings[:, :, 0] = w.m + g_r[1:] + g_r[:-1] + g_t + _theta_shift(g_t)[1]
    rings[:, :-1, 1] = -g_t[:, :-1]
    rings[:, 0, nt - 1] = -g_t[:, -1]
    rings[:-1, :, nt] = -g_r[1:-1]
    band[0, 0] = w.m0 + np.sum(g_r[0])
    band[0, 1:] = -g_r[0]
    rhs = np.concatenate(([w.m0 * u[0, 0]], (w.m * u[1:-1]).ravel()))
    rhs[-nt:] += g_r[-1] * phi_row
    x = _band_solve(band, rhs)
    return np.vstack((np.full(nt, x[0]), x[1:].reshape(nr - 1, nt), phi_row))


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
        lim = control.cfl / _radius(w)                # as _cfl_dt at u
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


def _radial_forms(n: int, f: Factors, ur, urr, W):
    """(|A|^2, nH) of a radial graph from its slope, second derivative and
    tilt factor at radii off the pole: the principal curvatures are lam_r
    along the profile and lam_t, (n-1)-fold, along the spheres."""
    lam_r = (urr + (2.0 + (f.rho * ur) ** 2) * f.lrho * ur) \
        / (W * (1.0 + (f.rho * ur) ** 2))
    lam_t = f.xi_ratio * ur / W
    return lam_r ** 2 + (n - 1) * lam_t ** 2, lam_r + (n - 1) * lam_t


def _curvatures(gf: _GridFactors, grid: Grid, n: int, u: np.ndarray,
                ur: np.ndarray, vt, W: np.ndarray):
    """(|A|^2, nH) on rows 1..nr-1 of a field u of the grid's shape (on a
    radial grid, of the columns of u), from its slopes (``_slopes``), its
    tilt factor W and centred second differences.  The 2-D branch writes the second fundamental form times
    W, b, in the frame (d_r, d_theta / xi), where the induced metric is
    g = I + rho^2 grad u grad u^T with det g = (rho W)^2; then
    nH = tr(g^-1 b) / W and |A|^2 = (nH)^2 - 2 det b / (det g W^2)."""
    h, f = grid.hr, gf.op
    p, w = ur[1:-1], W[1:-1]
    urr = (u[2:] - 2 * u[1:-1] + u[:-2]) / (h * h)
    if grid.radial:
        return _radial_forms(n, f, p, urr, w)
    q = vt[1:-1]
    ut = gf.at.xi[:, None] * vt         # u_theta, 0 on the pole row
    urt = (ut[2:] - ut[:-2]) / (2 * h) / f.xi
    up, um = _theta_shift(u[1:-1])
    utt = (up - 2 * u[1:-1] + um) / grid.dtheta ** 2 * f.inv_xi2
    rp, rq = f.rho * p, f.rho * q
    b11 = urr + (2.0 + rp * rp) * f.lrho * p
    b12 = urt + ((1.0 + rp * rp) * f.lrho - f.xi_ratio) * q
    b22 = utt + (rq * rq * f.lrho + f.xi_ratio) * p
    det = (f.rho * w) ** 2
    nH = ((1.0 + rq * rq) * b11 - 2.0 * rp * rq * b12
          + (1.0 + rp * rp) * b22) / (det * w)
    return nH * nH - 2.0 * (b11 * b22 - b12 * b12) / (det * w * w), nH


def second_fundamental_form(model: ModelGeometry, grid: Grid,
                            u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|A|^2 field, nH field) of the graph of u over the polar grid.

    Assembled from the ambient Christoffels of the warped metric applied to
    the graph parametrization (one derivative order lower than
    differentiating the mean curvature expression), on the slopes and W of
    ``compute_W`` and centred second differences.  On both grids the pole
    and rim rows are copies of the nearest interior row; treat them as
    extrapolation.  ``solve_ball`` records the maximum of |A| per step.
    """
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    v = u.reshape(grid.shape())
    ur, vt = _slopes(gf, grid, v)
    forms = _curvatures(gf, grid, model.n, v, ur, vt,
                        _tilt(gf.at.rho[:, None], ur, vt))
    return tuple(np.pad(a, ((1, 1), (0, 0)), mode="edge").reshape(u.shape)
                 for a in forms)


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


def _diagnostics(model: ModelGeometry, grid: Grid,
                 state: FlowState) -> tuple[float, float]:
    """(max|grad u|, max|A|) of a state, from its slopes and W.  The |A|
    field's pole and rim rows copy interior rows, so rows 1..nr-1 hold its
    maximum."""
    gf = _grid_factors(model.n, model.xi, model.rho, grid)
    u = state.u.reshape(grid.shape())
    ur, vt = _slopes(gf, grid, u)
    A2, _ = _curvatures(gf, grid, model.n, u, ur, vt,
                        state.W.reshape(grid.shape()))
    return (math.sqrt(float(np.max(ur * ur + vt * vt))),
            math.sqrt(float(np.max(A2))))


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
    diag = [_diagnostics(model, grid, state)]
    for sidx in range(n_steps):
        state = step(state, problem, grid, control, dt=dt, phi_row=phi)
        if float(np.max(np.abs(state.u))) > guard:
            raise FlowError(
                f"divergence guard tripped at t={state.t:.4g}: "
                f"sup|u| exceeds 10x the maximum-principle bound "
                f"{guard / 10.0:.4g}")
        times.append(state.t)
        diag.append(_diagnostics(model, grid, state))
        last = sidx == n_steps - 1
        if last or (snapshot_every and (sidx + 1) % snapshot_every == 0):
            states.append(state)
    max_grad, max_A = np.array(diag).T.copy()
    return Trajectory(problem=problem, grid=grid, control=control,
                      states=states, times=np.asarray(times),
                      max_grad=max_grad, max_A=max_A)


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
    gf = _grid_factors(n, model.xi, model.rho, grid)
    f = gf.at
    rho, xi = f.rho, f.xi
    zeta = model.zeta(r)
    ric_ss, ric_rr, _ = ambient_frame(model).ricci_eigenvalues(
        np.where(r > R_MIN, r, 1e-6))
    W_all = np.stack([s.W for s in trajectory.states])
    u, W = U[win], W_all[win]
    sl = np.s_[:, 3:-3]
    # Each residual is summed in place and reduced to its extreme before
    # the next one is formed, and fields are dropped after their last use:
    # that bounds the (snapshot x node) arrays alive at once.  The slopes
    # and forms are the solver's, on the transposed stack; the trim drops
    # the pole and rim columns (copies, and xi'/xi's stand-in at the pole).
    ur, _ = _slopes(gf, grid, u.T)
    A2, nH = (np.pad(a, ((1, 1), (0, 0)), mode="edge").T
              for a in _curvatures(gf, grid, n, u.T, ur, 0.0, W.T))
    ur = ur.T
    gauge = nH * ur / W
    del nH
    g_rr = 1.0 + rho ** 2 * ur ** 2
    dlogJ = np.gradient(g_rr, r, axis=-1) / (2.0 * g_rr) + (n - 1) * f.xi_ratio
    # tilt factor
    Wr = np.gradient(W, r, axis=-1)
    res = np.gradient(W_all, t, axis=0)[win] - gauge * Wr
    res -= _intrinsic_laplacian(W, r, g_rr, dlogJ)
    ricNN = (1.0 / (rho * W)) ** 2 * ric_ss + (ur / W) ** 2 * ric_rr
    res += W * (A2 + ricNN)
    res += 2.0 * (Wr ** 2 / g_rr) / W
    max_tilt = float(np.max(np.abs(res[sl])))
    del A2, Wr, ricNN
    # height
    res = np.gradient(U, t, axis=0)[win] - gauge * ur
    res -= _intrinsic_laplacian(u, r, g_rr, dlogJ)
    res += 2.0 * (-f.lrho * ur / W) * (1.0 / (rho ** 2 * W))
    max_height = float(np.max(np.abs(res[sl])))
    # cylinder size
    res = -gauge * xi
    res -= _intrinsic_laplacian(zeta, r, g_rr, dlogJ)
    res += n * f.xi1
    grad_s2 = 1.0 / rho ** 2 - 1.0 / (rho ** 4 * W ** 2)
    # the warping correction pairs the full ambient gradients, so the
    # coefficient is rho'/rho itself, with no tangential projection
    res += rho ** 2 * grad_s2 * xi * (f.lrho - f.xi_ratio)
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


def save_snapshot(path: str, grid: Grid, state: FlowState) -> None:
    """Write one snapshot to exactly ``path`` as a NumPy ``.npy`` table
    (NEP 1): an (N, 5) little-endian float64 array with columns
    t, r, theta, u, W and one row per node, theta varying fastest.  No
    float goes through text, so reading it back is bit-exact."""
    nr1, nt = grid.shape()
    table = np.empty((nr1 * nt, 5), dtype="<f8")
    table[:, 0] = state.t
    table[:, 1] = np.repeat(grid.r, nt)
    table[:, 2] = np.tile(grid.theta, nr1)
    table[:, 3] = np.ravel(state.u)
    table[:, 4] = np.ravel(state.W)
    # np.save on a path would append ".npy" to one that lacks it
    with open(path, "wb") as fh:
        np.save(fh, table, allow_pickle=False)


def load_snapshot(path: str, grid: Grid) -> FlowState:
    """Read a snapshot written by save_snapshot on the same grid, never
    unpickling.  Raises FlowError, naming the file, unless it is an (N, 5)
    ``<f8`` table with one row per node, one t, and the grid's r and theta
    (compared exactly)."""
    nr1, nt = grid.shape()
    try:
        with open(path, "rb") as fh:
            table = np.load(fh, allow_pickle=False)
    except (EOFError, ValueError) as exc:
        raise FlowError(f"{path}: not a .npy snapshot table: {exc}") from exc
    if not (isinstance(table, np.ndarray) and table.shape == (nr1 * nt, 5)
            and table.dtype == np.dtype("<f8")):
        raise FlowError(f"{path}: not the ({nr1 * nt}, 5) <f8 table of a "
                        f"grid with {nr1 * nt} nodes")
    if not (np.array_equal(table[:, 1], np.repeat(grid.r, nt))
            and np.array_equal(table[:, 2], np.tile(grid.theta, nr1))):
        raise FlowError(f"{path}: r/theta columns differ from the grid")
    if not np.all(table[:, 0] == table[0, 0]):
        raise FlowError(f"{path}: rows disagree on t")
    shape = (nr1,) if grid.radial else (nr1, nt)
    return FlowState(t=float(table[0, 0]), u=table[:, 3].reshape(shape),
                     W=table[:, 4].reshape(shape), step_count=-1)


def save_run(dirpath: str, trajectory: Trajectory) -> str:
    """Persist a trajectory: one ``.npy`` table per snapshot, written by
    save_snapshot, plus a JSON manifest.  Returns the manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    grid = trajectory.grid
    files = []
    for i, state in enumerate(trajectory.states):
        name = f"snapshot_{i:05d}.npy"
        save_snapshot(os.path.join(dirpath, name), grid, state)
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
