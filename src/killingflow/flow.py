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
conductance c_jk is rho xi^(n-1) / (W_f h) on r-faces, with h the
face's gap, and w rho_j / (xi_j W_f dtheta) on theta-faces, with w the
cell's width (r_{j+1} - r_{j-1}) / 2, and the row prefactor
P_j = sqrt(rho_j^-2 + max(s_- s_+, 0) + max(s^theta_- s^theta_+, 0) / xi_j^2)
reads the face slopes either side of node j (at the pole, the W of the
slope ``_pole_fourier`` fits to the first ring).  With the nodal W as P_j
the discrete CMC graph falls below its continuum supersolution (by 1.9e-2
on E2, 64 x 64).  Every w_jk is positive for any slope and any n; the 2-D
stencil has five points and is the radial one on rotationally symmetric
data.  Nothing asks the rows to be evenly spaced: a graded ``Grid`` (one
given its radii) runs through the same weights.  The weights are stored
as the symmetric conductances c_jk = c_kj
and the row measures m_j = dV_j / P_j (``_radial_weights``,
``_polar_weights``; the pole row's measure is ntheta dV_0 / P_0), and feed

* ``discretize_Q`` (and ``radial_Q``, the same operator on the nodes of a
  radial grid; on a radial grid both take a stack of fields along the
  last axis) and the explicit Euler step (a debugging fallback), which
  checks dt max_j sum_k w_jk <= cfl on the weights of the state it steps;
* the default semi-implicit step, which lags them one step.  Row j of the
  M-matrix I - dt L(u) times m_j is the symmetric, strictly diagonally
  dominant S = diag(m) - dt C, C the graph Laplacian of the conductances,
  with the Dirichlet row moved into the right-hand side.  Below 48 columns
  S is solved by one banded Cholesky (LAPACK dpbsv): in natural ring
  order, with the pole as one unknown, its half-bandwidth is ntheta on the
  2-D grid and 1 on the radial one.  The factor of this Stieltjes matrix
  has no positive off-diagonal entry, so both steps keep
  min(u0, phi) <= u <= max(u0, phi).  From 48 columns on, the 2-D S is
  solved by conjugate gradients preconditioned with the theta mean of its
  diagonally scaled form, which an FFT in theta splits into one
  tridiagonal solve per mode (one complex solve of all modes, with no
  transposed copy), until a bound of the error is <= 1e-14 of the data's
  largest value; each iteration tests that bound before it preconditions,
  so the preconditioner runs once per iteration.  The result is clipped
  to that interval, where the exact solution lies.

What depends only on n, the profiles and the grid is computed once and
shared read-only: ``Grid.r``/``Grid.theta``, the node factors, the finite
volumes, the row differences and the pole ring's Fourier modes
(``_grid_factors``, cached for 32 grids), which are checked to be finite
when built.  A step evaluates no profile.  On the 2-D grid the operator, the step and the diagnostics
read those factors as read-only (rows, ntheta) fields, the grid's
``_Fields``, which a run builds when it starts and drops when it
returns (``solve_ball``; every other public entry point per call), so
that only the running grid's fields take memory.  They write each result
in place into arrays of the call's own, read theta neighbours along the
flattened rows (``_theta_op``) rather than from shifted copies, and
write to no array they are given.  The radial operator and step do the
same on the cells: face slopes and fluxes go into one zero-padded array
each, and the band and the new field are filled in place, in the fewest
numpy calls.  Radial fields (ntheta = 1) may live in any base dimension
n = model.n; the 2-D grid represents n = 2 only, which ``_grid_factors``
checks.

The diagnostics follow one rule on both grids.  ``_slopes`` takes u_r and
u_theta / xi by three-point differences on rows 1..nr-1 (``_Steps``: one
formula on every grid, exact on quadratics in r, and the centred
differences of a uniform grid bit for bit), a second-order one-sided
difference on the rim row and, at the pole, the gradient fitted to the
first ring at r = r[1] (0 on a radial grid); W is formed from them in
``_tilt`` alone.  |A| is evaluated on rows 1..nr-1, and its pole and rim
rows copy the nearest interior row.  Every state ``step`` or
``solve_ball`` returns carries W, max|grad u| and max|A| from one
``_slopes`` pass (``_diagnose``) that builds no |A| field.  That pass
takes a stack of states of one layout on both grids, (S, nr + 1,
ntheta), so (S, nr + 1, 1) on a radial one: ``step`` diagnoses a block
of one state, and ``solve_ball``, whose time loop reads only u
(``_advance``), blocks of a few thousand nodes.  Every operation is
elementwise or a per-state reduction, so a state's values do not depend
on its block.  ``compute_W``, ``second_fundamental_form`` and
``residual_identities`` read the same slopes on the same layout.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy

from .geometry import (ModelGeometry, ProfileSpec, R_MIN, _integer, _positive,
                       ambient_frame)
from .kernel import Factors, factors


def _load_lapack(*names: str) -> list[Callable]:
    """LAPACK routines from scipy's compiled wrapper
    ``scipy.linalg._flapack``: dpbsv for the banded step, and dpttrf and
    zpttrs for the conjugate-gradient step's preconditioner.

    Every step solves a linear system, so the routines load with the
    module.  ``import scipy.linalg`` would also import about 90 modules
    flow never calls (numpy.testing and numpy.f2py among them), half of a
    command's start-up.  So the extension is loaded from its file in the
    scipy package, and the ``sys.modules`` entry the load leaves is taken
    back out: a later ``import scipy.linalg`` then loads ``_flapack`` as
    usual, and its routines are these.  Where ``_flapack`` is already
    imported, or its file is not there (an editable scipy install keeps
    it elsewhere) or fails to load, the public import gives the same
    routines.
    """
    name = "scipy.linalg._flapack"
    stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
             if os.path.isfile(stem + suffix)]
    if paths and name not in sys.modules:
        loader = importlib.machinery.ExtensionFileLoader(name, paths[0])
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return [getattr(module, routine) for routine in names]
        except (ImportError, OSError, AttributeError):
            pass
        finally:
            sys.modules.pop(name, None)
    from scipy.linalg import lapack
    return [getattr(lapack, routine) for routine in names]


dpbsv, dpttrf, zpttrs = _load_lapack("dpbsv", "dpttrf", "zpttrs")


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


class _DataError(FlowError):
    """Boundary or initial data a grid cannot take (``BallProblem.sample``),
    which the CLI reports as bad input rather than as a failed solve."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# grid and problem data


@dataclass(frozen=True)
class Grid:
    """Polar grid: nr radial intervals on [0, R], ntheta angles.

    Node (j, i) sits at (r[j], i*dtheta); row 0 is the pole, row nr the
    Dirichlet boundary.  R must be positive and finite and nr an integer
    >= 8; ntheta = 1 selects the radial fast path, and any other ntheta
    must be an integer >= 8 (FlowError otherwise).  Numpy integers are
    stored as int.  Without ``nodes`` the rows are uniform, r[j] = j*hr
    with hr = R/nr.  ``nodes`` gives any other radii, nr + 1 of them
    increasing from 0 to R (a graded grid), and is stored as a tuple.
    Nodes equal to the uniform ones are stored as None: a grid has one
    form, the uniform grid's, so that it steps, caches and is saved as
    that grid.
    """

    R: float
    nr: int
    ntheta: int
    nodes: tuple[float, ...] | None = None

    def __post_init__(self):
        _positive("R", self.R, FlowError)
        object.__setattr__(self, "nr", _integer("nr", self.nr, 8, FlowError))
        # ntheta = 1 is the radial grid; a polar one needs at least 8
        polar = self.ntheta != 1
        object.__setattr__(self, "ntheta", _integer(
            "ntheta of a polar grid" if polar else "ntheta", self.ntheta,
            8 if polar else 1, FlowError))
        if self.nodes is None:
            return
        try:
            r = np.array(self.nodes, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FlowError(f"nodes must be numbers: {exc}") from None
        if not (r.shape == (self.nr + 1,) and r[0] == 0.0
                and r[-1] == self.R and np.all(np.diff(r) > 0.0)):
            raise FlowError(f"nodes must be nr + 1 = {self.nr + 1} radii "
                            f"increasing from 0 to R = {self.R}")
        uniform = np.array_equal(r, np.linspace(0.0, self.R, self.nr + 1))
        object.__setattr__(self, "nodes",
                           None if uniform else tuple(r.tolist()))

    @property
    def hr(self) -> float:
        """The row spacing R/nr of a uniform grid."""
        if self.nodes is not None:
            raise FlowError("a graded grid has no one row spacing hr; "
                            "read its radii r")
        return self.R / self.nr

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.ntheta

    # r and theta are computed once per Grid and shared read-only
    @functools.cached_property
    def r(self) -> np.ndarray:
        if self.nodes is not None:
            return _read_only(np.array(self.nodes))
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
        _positive("R", self.R, FlowError)
        if self.T is None:
            self.T = 0.5 * self.model.zeta(self.R)
        _positive("T", self.T, FlowError)

    def _dirichlet_row(self, grid: Grid) -> np.ndarray:
        """phi on the boundary row of a grid of the problem's radius."""
        if grid.R != self.R:
            raise _DataError(f"grid radius {grid.R} differs from the "
                             f"problem radius {self.R}")
        phi = np.broadcast_to(np.asarray(self.phi(grid.theta), dtype=float),
                              (grid.ntheta,)).copy()
        if not np.all(np.isfinite(phi)):
            raise _DataError("phi must be finite on the boundary")
        return phi

    def sample(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """(u0 field, phi row) on the grid, with compatibility enforced."""
        phi = self._dirichlet_row(grid)
        r = grid.r[:, None]
        th = grid.theta[None, :]
        u0 = np.broadcast_to(np.asarray(self.u0(r, th), dtype=float),
                             grid.shape()).copy()
        if not np.all(np.isfinite(u0)):
            raise _DataError("u0 must be finite on the closed ball")
        gap = float(np.max(np.abs(u0[-1] - phi)))
        if gap > 1e-12:
            raise _DataError(
                f"u0 and phi disagree at the boundary (gap {gap:.3e})")
        if float(np.ptp(u0[0])) > 1e-12:
            raise _DataError("u0 must be single-valued at the pole")
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
        _positive("dt_max", self.dt_max, FlowError)


@dataclass(frozen=True)
class FlowState:
    """The field u at time t and its tilt factor W.  max_grad and max_A
    (max|grad u| and max|A|) are recorded by ``step`` and ``solve_ball``,
    which give each state a W array of its own, and read back by
    ``load_run``; a state built without them carries NaN."""

    t: float
    u: np.ndarray
    W: np.ndarray
    step_count: int
    max_grad: float = math.nan
    max_A: float = math.nan


# ---------------------------------------------------------------------------
# derivatives


def _theta_op(op, a: np.ndarray, da: int, b: np.ndarray, db: int,
              out: np.ndarray) -> np.ndarray:
    """out[..., i] = op(a[..., i + da], b[..., i + db]) for the periodic
    angle index i on the last axis, with da, db in (-1, 0, 1), a ufunc op
    and arrays of one shape.  The rows of ntheta values lie back to back,
    so off the wrap columns the neighbours of i are those of the flattened
    array: one op runs on it, and op then redoes the one or two columns
    where a shift wraps.  out must reshape to (-1,) as a view (a
    C-contiguous array, or a band column split into rows; not an array
    laid out like a caller's u, which may be in Fortran order) and share
    no memory with a or b."""
    nt, n = out.shape[-1], out.size
    lo, hi = int(da < 0 or db < 0), int(da > 0 or db > 0)
    a, b = a.reshape(-1), b.reshape(-1)
    op(a[lo + da:n - hi + da], b[lo + db:n - hi + db],
       out=out.reshape(-1)[lo:n - hi])
    rows = out.reshape(-1, nt)
    for i in (0,) * lo + (nt - 1,) * hi:      # the wrap columns
        op(a[(i + da) % nt::nt], b[(i + db) % nt::nt], out=rows[:, i])
    return out


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
    with np.errstate(over="ignore", invalid="ignore"):
        rho_r = rho.value(r)
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


class _Steps(NamedTuple):
    """The three-point differences along r on rows 1..nr-1 of a grid, from
    the spacings hm = r_j - r_{j-1} and hp = r_{j+1} - r_j:

        u_r  = (p u_{j+1} - q u_{j-1} + z u_j) / s,
        u_rr = ((wp u_{j+1} - 2 u_j) + wm u_{j-1}) / hh,

    s = hm + hp, hh = hm hp, p = hm / hp, q = hp / hm, z = q - p,
    wp = 2 hm / s and wm = 2 hp / s, both exact on quadratics; the arrays
    are (nr - 1, 1) columns.  On the rim row u_r = (a u_nr - b u_{nr-1} +
    c u_{nr-2}) / d, one-sided, with (a, b, c, d) = ``rim``.  A uniform
    grid's spacings are all hr, so there p = q = wp = wm = 1 and z = 0
    exactly, s = 2 hr, hh = hr hr and the rim reads (3, 4, 1, 2 hr): as
    1 x = x and x + 0 y = x for finite y (and x not -0), the differences
    of a finite field are the uniform grid's centred ones, bit for bit."""

    s: np.ndarray
    hh: np.ndarray
    p: np.ndarray
    q: np.ndarray
    z: np.ndarray
    wp: np.ndarray
    wm: np.ndarray
    rim: tuple[float, float, float, float]


def _steps(grid: Grid) -> _Steps:
    """The row differences of the grid; the spacings of a uniform grid are
    hr itself, not the differences of its rounded radii."""
    h = np.full(grid.nr, grid.hr) if grid.nodes is None else np.diff(grid.r)
    h1, h2 = float(h[-1]), float(h[-2])
    rim = (2.0 + 2.0 * h1 / (h1 + h2), 2.0 * (h1 + h2) / h2,
           h1 / h2 * (2.0 * h1 / (h1 + h2)), 2.0 * h1)
    hm, hp = h[:-1, None], h[1:, None]
    s = hm + hp
    p, q = hm / hp, hp / hm
    return _Steps(*map(_read_only, (s, hm * hp, p, q, q - p, 2.0 * hm / s,
                                    2.0 * hp / s)), rim)


class _GridFactors(NamedTuple):
    """What the solver reads that depends only on the base dimension, the
    warping profiles and the grid.  ``at`` holds the kernel factors at
    every node; ``op`` views them on rows 1..nr-1 as (nr - 1, 1) columns,
    the rows where the radial second fundamental form reads them, and
    ``inv_rho2_at`` the column 1 / rho^2 of W.  cos and sin on the first
    ring give the pole row its slope, ``steps`` the rows' r-differences."""

    at: Factors
    op: Factors
    inv_rho2_at: np.ndarray
    cells: _Cells
    cos: np.ndarray
    sin: np.ndarray
    steps: _Steps


@functools.lru_cache(maxsize=32)
def _grid_factors(n: int, xi: ProfileSpec, rho: ProfileSpec,
                  grid: Grid) -> _GridFactors:
    """The per-grid invariants, evaluated once per (n, xi, rho, grid);
    every array is read-only.  The key is the model's dimension and two
    frozen profiles, since ModelGeometry is not hashable.  Every operator,
    step and diagnostic reads this first, so it owns the rule that a polar
    grid holds n = 2 only.  Then the cells: building them raises FlowError
    where the profiles overflow."""
    if not grid.radial and n != 2:
        raise FlowError(f"the polar grid represents base dimension 2 only; "
                        f"use a radial grid (ntheta = 1) for n = {n}")
    cells = _Cells(*map(_read_only, _cells(n, xi, rho, grid.r)))
    at = Factors(*map(_read_only, factors(xi, rho, grid.r)))
    return _GridFactors(
        at=at, op=Factors(*(a[1:-1, None] for a in at)),
        inv_rho2_at=_read_only(1.0 / at.rho[:, None] ** 2), cells=cells,
        cos=_read_only(np.cos(grid.theta)), sin=_read_only(np.sin(grid.theta)),
        steps=_steps(grid))


class _Fields:
    """What the operator, the step and the diagnostics read on one grid:
    the base dimension n, the grid, its invariants ``gf`` and, on the 2-D
    grid, the factors they multiply by as read-only (rows, ntheta) arrays.
    A column broadcast along theta would run numpy's loops one row of
    ntheta at a time.  Every public entry point builds one, ``solve_ball``
    once per run, and drops it on return, so the fields of one grid at a
    time are alive.  Each field holds the values the 2-D formulas read,
    products of grid constants included, on the rows they read them:

    * r-faces 0..nr-1: dr, cond, inv_rho2_f, inv_xi2_f;
    * rows 1..nr-1: dr2 = dr_j + dr_{j-1}, inv_rho2 (rho^-2, as in the
      cells), dV, g_t = w rho / dtheta^2 with w = s / 2 the cell width
      (r_{j+1} - r_{j-1}) / 2, rho, lrho, inv_xi2, xi_ratio, and ``steps``,
      the r-differences, whose arrays are fields of these rows;
    * rows 0..nr: xi and inv_rho2_at = 1 / rho^2.

    On a radial grid only gf's ``steps`` and ``inv_rho2_at`` are set."""

    def __init__(self, model: ModelGeometry, grid: Grid):
        self.n, self.grid = model.n, grid
        self.gf = gf = _grid_factors(model.n, model.xi, model.rho, grid)
        c, at, k, st = gf.cells, gf.at, grid.dtheta, gf.steps
        self.steps = st
        self.inv_rho2_at = gf.inv_rho2_at
        if grid.radial:
            return

        def field(column):
            return _read_only(np.repeat(np.reshape(column, (-1, 1)),
                                        grid.ntheta, 1))

        self.steps = _Steps(*map(field, st[:-1]), st.rim)
        (self.dr, self.cond, self.inv_rho2_f, self.inv_xi2_f, self.dr2,
         self.inv_rho2, self.dV, self.g_t, self.rho, self.lrho, self.inv_xi2,
         self.xi_ratio, self.xi, self.inv_rho2_at) = map(field, (
             c.dr, c.cond, c.inv_rho2_f, c.inv_xi2_f, c.dr[1:] + c.dr[:-1],
             c.inv_rho2[1:-1], c.dV[1:-1],
             (0.5 * st.s / (k * k)) * at.rho[1:-1, None],
             at.rho[1:-1], at.lrho[1:-1], at.inv_xi2[1:-1],
             at.xi_ratio[1:-1], at.xi, self.inv_rho2_at))


def _pole_fourier(u_ring: np.ndarray, h: float, gf: _GridFactors):
    """Local Cartesian gradient (a, b) at the pole from the first Fourier
    modes of the first grid ring (row at r = h), one pair per ring of a
    stack of rings along the last axis."""
    nt = u_ring.shape[-1]
    a = 2.0 * (np.add.reduce(u_ring * gf.cos, axis=-1) / nt) / h
    b = 2.0 * (np.add.reduce(u_ring * gf.sin, axis=-1) / nt) / h
    return a, b


def _centred(st: _Steps, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = p a_{j+1} - q a_{j-1} + z a_j on rows 1..nr-1 of a, rows on
    axis -2: the numerator of the first difference of ``_Steps``, which is
    a_{j+1} - a_{j-1} on a uniform grid."""
    np.subtract(st.p * a[..., 2:, :], st.q * a[..., :-2, :], out=out)
    out += st.z * a[..., 1:-1, :]
    return out


def _slopes(fd: _Fields, u: np.ndarray):
    """(u_r, u_theta / xi) at every node of u; at the pole, the polar
    components of the gradient ``_pole_fourier`` fits.  u is a field of
    the grid's shape (nr + 1, ntheta) or a stack (S, nr + 1, ntheta) of
    them, ntheta = 1 on a radial grid.  A radial grid's u_theta is the
    scalar 0.0."""
    grid, gf, st = fd.grid, fd.gf, fd.steps
    ur = np.empty_like(u)
    _centred(st, u, ur[..., 1:-1, :])
    ur[..., 1:-1, :] /= st.s
    ca, cb, cc, cd = st.rim
    ur[..., -1, :] = (ca * u[..., -1, :] - cb * u[..., -2, :]
                      + cc * u[..., -3, :]) / cd
    if grid.radial:
        ur[..., 0, :] = 0.0
        return ur, 0.0
    a, b = (c[..., None] for c in _pole_fourier(u[..., 1, :], grid.r[1], gf))
    ur[..., 0, :] = a * gf.cos + b * gf.sin
    # the centred theta slope on every row; the pole row's is replaced
    vt = _theta_op(np.subtract, u, 1, u, -1, np.empty(u.shape))
    vt /= 2.0 * grid.dtheta
    vt[..., 1:, :] /= fd.xi[1:]
    vt[..., 0, :] = b * gf.cos - a * gf.sin
    return ur, vt


def _tilt(fd: _Fields, ur, vt):
    """(|grad u|^2, W) from the slopes of ``_slopes``: |grad u|^2 =
    u_r^2 + (u_theta / xi)^2 and the tilt factor W = sqrt(rho^-2 +
    |grad u|^2)."""
    grad2 = ur * ur
    grad2 += vt * vt
    W = grad2 + fd.inv_rho2_at
    return grad2, np.sqrt(W, out=W)


def compute_W(model: ModelGeometry, grid: Grid, u: np.ndarray) -> np.ndarray:
    """Tilt factor W on the grid, from the slopes of ``_slopes``.  The
    stepper stores exactly this field, so recomputation is bit-identical."""
    fd = _Fields(model, grid)
    v = u.reshape(grid.shape())
    return _tilt(fd, *_slopes(fd, v))[1].reshape(u.shape)


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
    """The radial operator on the finite volumes c at the 1-d field u, or
    at each field of a stack (..., nr + 1) of them, nodes along the last
    axis:

        g_f = cond_f / sqrt(rho_f^-2 + s_f^2),
        m_j = dV_j / sqrt(rho_j^-2 + max(s_{j-1} s_j, 0)),

    s_f = (u_{f+1} - u_f) / dr_f the face slopes, 0 past the ends.  At the
    pole the slope is zero and P = 1/rho; the Dirichlet node has infinite
    measure, so its row of weights is zero.  The slopes are written into
    one zero-padded array and every other result in place into the two
    arrays it returns."""
    # the face slopes, 0 past the ends
    s = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    f = np.subtract(u[..., 1:], u[..., :-1], out=s[..., 1:-1])
    f /= c.dr
    g = f * f
    g += c.inv_rho2_f
    g = np.divide(c.cond, np.sqrt(g, out=g), out=g)
    m = s[..., :-1] * s[..., 1:]
    m = np.maximum(m, 0.0, out=m)
    m += c.inv_rho2
    m = np.divide(c.dV, np.sqrt(m, out=m), out=m)
    return _Radial(g, m)


def _polar_weights(fd: _Fields, u: np.ndarray) -> _Polar:
    """The 2-D operator at u.  W_f on a face adds the mean of the centred
    cross-differences at its two nodes.  Every array the formulas form is
    written in place once made, and the three it returns are its own."""
    grid, c = fd.grid, fd.gf.cells
    k = grid.dtheta
    s = u[1:] - u[:-1]
    s /= fd.dr                                      # r-face slopes
    # g_r = cond / sqrt((rho^-2 + s^2) + cross^2 / xi^2), cross the mean of
    # the centred theta slopes at the face's two nodes
    cross = _theta_op(np.subtract, u, 1, u, -1, np.empty(u.shape))
    cross /= 2.0 * k
    cross = cross[:-1] + cross[1:]
    cross *= 0.5
    cross *= cross
    cross *= fd.inv_xi2_f
    g_r = s * s
    g_r += fd.inv_rho2_f
    g_r += cross
    g_r = np.divide(fd.cond, np.sqrt(g_r, out=g_r), out=g_r)
    # g_t = w rho / dtheta^2 / (xi sqrt((rho^-2 + cross^2) + st^2 / xi^2)),
    # st the slope at i + 1/2 and cross the mean of the centred
    # r-differences at i and i + 1
    ring = u[1:-1]
    st = _theta_op(np.subtract, ring, 1, ring, 0, np.empty(ring.shape))
    st /= k
    t = u[2:] - u[:-2]
    t /= fd.dr2
    g_t = _theta_op(np.add, t, 0, t, 1, np.empty(t.shape))
    g_t *= 0.5
    g_t *= g_t
    g_t += fd.inv_rho2
    t = np.multiply(st, st, out=t)
    t *= fd.inv_xi2
    g_t += t
    g_t = np.sqrt(g_t, out=g_t)
    g_t *= fd.xi[1:-1]
    g_t = np.divide(fd.g_t, g_t, out=g_t)
    # m = dV / sqrt((rho^-2 + max(s_- s_+, 0)) + max(st_- st_+, 0) / xi^2)
    m = s[:-1] * s[1:]
    m = np.maximum(m, 0.0, out=m)
    m += fd.inv_rho2
    t = _theta_op(np.multiply, st, -1, st, 0, np.empty(st.shape))
    t = np.maximum(t, 0.0, out=t)
    t *= fd.inv_xi2
    m += t
    m = np.divide(fd.dV, np.sqrt(m, out=m), out=m)
    a, b = _pole_fourier(u[1], grid.r[1], fd.gf)
    m0 = grid.ntheta * c.dV[0] / math.sqrt(c.inv_rho2[0] + a * a + b * b)
    return _Polar(g_r, g_t, m, m0)


def _radial_rows(u: np.ndarray) -> np.ndarray:
    """A radial field, or a stack of them, with its nodes along the last
    axis: a (..., nr + 1, 1) field of the grid's shape drops its column
    axis, and a 1-d field or a (..., nr + 1) stack is taken as it is."""
    return u[..., 0] if u.shape[-1] == 1 else u


def _weights(fd: _Fields, u: np.ndarray) -> _Radial | _Polar:
    """The stencil at u on the grid; on a radial grid, one stencil per
    field of a stack (``_radial_rows``)."""
    if fd.grid.radial:
        return _radial_weights(fd.gf.cells, _radial_rows(u))
    return _polar_weights(fd, u)


def _apply(w: _Radial | _Polar, u: np.ndarray) -> np.ndarray:
    """sum_k w_jk (u_k - u_j) for a stencil w of _weights, in u's shape:
    the net flux into each cell over its measure."""
    if isinstance(w, _Radial):
        v = _radial_rows(u)
        # the face fluxes, 0 past the ends
        flux = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
        f = np.subtract(v[..., 1:], v[..., :-1], out=flux[..., 1:-1])
        f *= w.g
        Q = flux[..., 1:] - flux[..., :-1]
        Q /= w.m
        return Q.reshape(u.shape)
    f_r = w.g_r * (u[1:] - u[:-1])
    f_t = _theta_op(np.subtract, u[1:-1], 1, u[1:-1], 0,
                    np.empty(w.g_t.shape))
    f_t *= w.g_t
    net = f_r[1:] - f_r[:-1]
    net += f_t
    Q = np.zeros(u.shape)
    _theta_op(np.subtract, net, 0, f_t, -1, Q[1:-1])
    Q[1:-1] /= w.m
    Q[0] = np.sum(f_r[0]) / w.m0
    return Q


@functools.lru_cache(maxsize=32)
def _radial_grid(R: float, nr: int) -> Grid:
    """Grid(R, nr, 1) and its nodes, built once for radial_Q's calls."""
    return Grid(R=R, nr=nr, ntheta=1)


def radial_Q(model: ModelGeometry, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``discretize_Q`` of a radial field u, or of a stack (..., nr + 1) of
    them, on the nodes r of the radial grid Grid(R=r[-1], nr=r.size - 1,
    ntheta=1), np.linspace(0, R, nr + 1); raises FlowError for any other
    radii."""
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
    """Discrete flow operator on the polar grid (second order in space),
    in u's shape.

    Boundary row is returned as zero (the Dirichlet row never moves).  On a
    radial grid u is one field, 1-d or of the grid's shape (nr + 1, 1), or
    a stack (..., nr + 1) of fields, each row of the last axis taken on
    its own, bit for bit as one call per field.
    """
    return _apply(_weights(_Fields(model, grid), u), u)


# ---------------------------------------------------------------------------
# time stepping


def _radius(w: _Radial | _Polar) -> float:
    """max_j sum_k w_jk: the largest Gershgorin radius of the stencil w."""
    if isinstance(w, _Radial):
        g = np.concatenate(([0.0], w.g, [0.0]))
        return float(np.max((g[:-1] + g[1:]) / w.m))
    net = w.g_r[1:] + w.g_r[:-1]
    net += w.g_t
    rows = _theta_op(np.add, net, 0, w.g_t, -1, np.empty(net.shape))
    rows /= w.m
    return max(float(np.max(rows)), float(np.sum(w.g_r[0])) / w.m0)


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


# From this many columns on, the 2-D step solves S by conjugate gradients
# in place of dpbsv, whose cost grows as nr nt^3.  One step (``_advance``)
# in ms, dpbsv -> conjugate gradients, on E2 and H2 states of asymmetric
# data at t = 0 and after 5 steps (4-5 iterations), best of 15, two runs,
# one core of a 2-vCPU Xeon, one BLAS thread:
#   48 x 32     0.54-0.61 -> 0.56-0.67
#   64 x 48     1.62-1.66 -> 0.78-0.90
#   96 x 64     4.63-4.73 -> 1.15-1.57
#   136 x 64    6.58-6.82 -> 1.44-1.94
#   136 x 128   24.2-24.7 -> 2.93-3.91
# dpbsv still wins at 32 columns and conjugate gradients win from 48 on, so
# every grid of fewer than 48 columns, the ladder's among them, steps on
# dpbsv bit for bit.
_CG_NTHETA = 48
_CG_RTOL = 1e-14        # stop at an error bound <= _CG_RTOL scale
_CG_MAX_ITER = 1000


def _theta_mean_preconditioner(d: np.ndarray, d0: float, g_r: np.ndarray,
                               g_t: np.ndarray) -> Callable:
    """z = M^-1 r for the scaled system S of ``_polar_implicit``, as a
    function solve(r, out) of flat vectors in S's unknown order: the ring
    diagonal d, the pole's diagonal d0 and the links -g_r and -g_t, laid
    out as ``_conjugate_gradients`` reads them.

    M = D^1/2 Pbar D^1/2, where D is S's diagonal and Pbar the theta mean
    of the Jacobi-scaled P = D^-1/2 S D^-1/2 (Golub & Van Loan, Matrix
    Computations, section 11.5): P has a unit diagonal and the links
    g / sqrt(d d') of S's, and Pbar replaces these on each ring and r-face
    by their means over theta.  The scaling first evens out the theta
    contrast of the conductances, which the mean of S itself misses.  Pbar
    is separable, with the Fourier modes in theta as eigenvectors of its
    ring blocks (Concus & Golub, SIAM J. Numer. Anal. 10, 1973), so an
    rfft over each ring splits Pbar z = r into one symmetric positive
    definite tridiagonal system in r per mode: mode k's diagonal is
    1 - 2 gbar_t cos(2 pi k / nt) and its links -gbar_r.  The pole joins
    mode 0, whose coefficients are ring sums, as the unknown nt z_pole
    with the diagonal 1 / nt, which keeps that block symmetric.  The modes
    stand in one block-diagonal tridiagonal system, which LAPACK dpttrf
    factors here once.  A solve takes the rfft of the transposed ring view
    down its theta axis straight into the mode-major (K, rings) rows of
    one complex vector, after the pole, and LAPACK zpttrs solves that in
    place on the real factor, its links cast to complex: no transposed
    copy is made.  The zero imaginary parts of the links add only signed
    zeros, so the real and imaginary parts come out as dpttrs solves them
    as two columns, bit for bit (``tests/test_bit_exact.py`` keeps that
    solve as the reference).  A diagonal entry <= 0
    (S is not positive definite) raises FlowError before any square root;
    a non-finite one passes, and so does the non-finite z it gives."""
    from numpy import fft       # only the conjugate-gradient step needs it
    if np.any(d <= 0.0) or d0 <= 0.0:
        raise FlowError("conjugate gradient solve failed: the system is not "
                        "positive definite (a diagonal entry <= 0)")
    rings, nt = d.shape
    K = nt // 2 + 1
    # D^-1/2 in S's unknown order
    jacobi = 1.0 / np.sqrt(np.concatenate(([d0], d.reshape(-1))))
    s = jacobi[1:].reshape(rings, nt)
    g = np.empty(rings)                     # gbar_r of faces 0..rings-1
    g[0] = jacobi[0] * np.add.reduce(g_r[0] * s[0])
    g[1:] = np.add.reduce(g_r[1:-1] * s[:-1] * s[1:], axis=1)
    g /= nt
    gt = np.add.reduce(_theta_op(np.multiply, s, 0, s, 1,
                                 np.empty(d.shape)) * g_t, axis=1)
    gt *= -2.0 / nt
    diag = np.empty(1 + K * rings)
    diag[0] = 1.0 / nt
    modes = diag[1:].reshape(K, rings)
    np.multiply.outer(np.cos(np.arange(K) * (2.0 * math.pi / nt)), gt,
                      out=modes)
    modes += 1.0
    e = np.zeros((K, rings))
    e[:, :-1] = -g[1:]
    e = np.concatenate(([-g[0]], e.reshape(-1)[:-1]))
    diag, e, info = dpttrf(diag, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise FlowError(f"conjugate gradient solve failed: the theta mean of "
                        f"the system is not positive definite (LAPACK dpttrf "
                        f"info={info})")
    e = e.astype(complex)                   # zpttrs reads complex links
    f = np.empty((diag.size, 1), dtype=complex)     # zpttrs' (n, 1) rhs
    modes = f[1:, 0].reshape(K, rings)
    rs = np.empty(jacobi.shape)
    rings_t = rs[1:].reshape(rings, nt).T

    def solve(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.multiply(r, jacobi, out=rs)
        fft.rfft(rings_t, axis=0, out=modes)
        f[0, 0] = rs[0]
        zpttrs(diag, e, f, overwrite_b=1)
        out[0] = f[0, 0].real / nt
        fft.irfft(modes, n=nt, axis=0, out=out[1:].reshape(rings, nt).T)
        out *= jacobi
        return out

    return solve


def _conjugate_gradients(d: np.ndarray, d0: float, g_r: np.ndarray,
                         g_t: np.ndarray, precondition: Callable,
                         b: np.ndarray, s1: np.ndarray,
                         scale: float) -> np.ndarray:
    """Solve S x = b by preconditioned conjugate gradients (Golub & Van
    Loan, Matrix Computations, section 11.5) from the start b / s1, with
    s1 = S 1 > 0.  S is the scaled system of ``_polar_implicit`` in its
    unknown order, the pole and then rings 1..nr-1 with theta fastest: the
    ring diagonal d, the pole's diagonal d0 and the links -g_r (r-faces
    0..nr-1; face 0 joins the pole, face nr-1 the Dirichlet row) and -g_t.

    S is a Stieltjes matrix, so S^-1 >= 0 and S^-1 s1 = 1 bound the error
    of an iterate by its residual r: |x - x*| <= max_i |r_i| / s1_i on
    every node.  The iteration stops once that bound is <= _CG_RTOL scale,
    scale the largest |value| of the step's data.  Each iteration tests the
    bound on its residual before it preconditions that residual, so the
    preconditioner runs once per iteration and never for a residual that
    already meets the bound.  The inner products are numpy sums of
    products, never a BLAS dot, so that no BLAS thread count changes a
    bit.  A curvature p.Sp <= 0 (S is not positive definite) or
    _CG_MAX_ITER iterations raise FlowError; a non-finite system stops at
    once, with the non-finite x that ``_sup_norm`` reports."""
    g_in, g_pole = g_r[1:-1], g_r[0]
    g_prev = np.roll(g_t, 1, axis=1)        # the link to theta_{i-1}
    buf = np.empty((2,) + d.shape)

    def apply(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        V, Y = v[1:].reshape(d.shape), out[1:].reshape(d.shape)
        np.multiply(d, V, out=Y)
        Y -= _theta_op(np.multiply, V, 1, g_t, 0, buf[0])
        Y -= _theta_op(np.multiply, V, -1, g_prev, 0, buf[1])
        Y[:-1] -= np.multiply(g_in, V[1:], out=buf[0, 1:])
        Y[1:] -= np.multiply(g_in, V[:-1], out=buf[0, 1:])
        Y[0] -= np.multiply(g_pole, v[0], out=buf[1, 0])
        out[0] = d0 * v[0] - np.add.reduce(np.multiply(g_pole, V[0],
                                                       out=buf[1, 0]))
        return out

    x = b / s1
    r = b - apply(x, np.empty(b.shape))
    z, q, t = np.empty(b.shape), np.empty(b.shape), np.empty(b.shape)
    stop = _CG_RTOL * scale
    for iteration in range(_CG_MAX_ITER + 1):
        bound = float(np.max(np.divide(np.abs(r, out=t), s1, out=t)))
        if not bound > stop:
            return x
        if iteration == _CG_MAX_ITER:
            raise FlowError(f"conjugate gradient solve failed: no "
                            f"convergence in {_CG_MAX_ITER} iterations "
                            f"(error bound {bound:.3e} > {stop:.3e})")
        precondition(r, z)
        if iteration == 0:
            p, rz = z.copy(), np.add.reduce(r * z)
        else:
            rz, rz_old = np.add.reduce(r * z), rz
            p *= rz / rz_old
            p += z
        pq = np.add.reduce(p * apply(p, q))
        if pq <= 0.0:
            raise FlowError(f"conjugate gradient solve failed: the system is "
                            f"not positive definite (p.Sp = {pq:.3e})")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q


def _radial_implicit(fd: _Fields, v: np.ndarray, dt: float,
                     phi0: float) -> np.ndarray:
    """One lagged-coefficient step of a 1-d radial field: (I - dt L(v)) v_new
    = v with the Dirichlet value phi0 at r = R, each row scaled by its
    measure into the symmetric tridiagonal S = diag(m) - dt C.  Its lower
    band holds (m_j + g_j) + g_{j-1} and -g_j, g = dt times the
    conductances, and the right-hand side m_j v_j, plus g phi0 in the last
    row.  The conductances are scaled in place; the band and the new
    field, whose rows below the rim hold the right-hand side that dpbsv
    solves in place, are the step's only other arrays."""
    g, m = _radial_weights(fd.gf.cells, v)
    g *= dt
    band = np.empty((g.size, 2))
    d = np.add(m[:-1], g, out=band[:, 0])
    d[1:] += g[:-1]
    # -g as g times -1.0, as in _polar_implicit's band
    np.multiply(g[:-1], -1.0, out=band[:-1, 1])
    band[-1, 1] = 0.0
    v_new = np.empty(v.size)
    rhs = np.multiply(m[:-1], v[:-1], out=v_new[:-1])
    rhs[-1] += g[-1] * phi0
    v_new[-1] = phi0
    rhs[:] = _band_solve(band, rhs)         # dpbsv solves in place: rhs
    return v_new


def _polar_implicit(fd: _Fields, u: np.ndarray, dt: float,
                    phi_row: np.ndarray) -> np.ndarray:
    """One lagged-coefficient step of a polar field: (I - dt L(u)) u_new = u
    with the Dirichlet row phi_row.  Each row is scaled by its measure into
    S = diag(m) - dt C, unknowns in natural order: the pole, then rings
    1..nr-1 with theta fastest.  The right-hand side b lies in the new
    field, from the pole row's last node on, and the solve overwrites it.

    Below _CG_NTHETA = 48 columns S is solved by dpbsv.  Its lower band
    holds the diagonal, the theta neighbour at offset 1, the theta wrap at
    nt - 1, the next ring at nt and the pole column at 1..nt, so kd = nt.
    The band is the step's largest array: the weights are freed before it
    is allocated, and their scaled copies before the solve.

    From 48 columns on, where dpbsv's nr nt^3 cost dominates the step, S
    is solved by conjugate gradients preconditioned with the theta mean of
    D^-1/2 S D^-1/2, D its diagonal (``_conjugate_gradients``,
    ``_theta_mean_preconditioner``), read off the weights with no band.
    It starts from b / (S 1), u to rounding off the rim ring, and stops
    once max_i |r_i| / (S 1)_i, a bound of the error on every node, is
    <= 1e-14 max(|u|, |phi|).  The exact solution of the Stieltjes system
    lies in [min(u, phi), max(u, phi)], so the result is clipped to that
    interval: the clip only moves a value toward the solution, by roundoff
    (a test bounds it by 1e-13)."""
    nr, nt = fd.grid.nr, fd.grid.ntheta
    w = _polar_weights(fd, u)
    g_r, g_t, m0 = w.g_r * dt, w.g_t * dt, w.m0
    diag = w.m + g_r[1:]
    diag += g_r[:-1]
    diag += g_t
    u_new = np.empty((nr + 1, nt))
    u_new[0, -1] = m0 * u[0, 0]
    np.multiply(w.m, u[1:-1], out=u_new[1:-1])
    u_new[-2] += g_r[-1] * phi_row
    u_new[-1] = phi_row
    rhs = u_new.reshape(-1)[nt - 1:nr * nt]
    if nt >= _CG_NTHETA:
        d = _theta_op(np.add, diag, 0, g_t, -1, np.empty(diag.shape))
        d0 = m0 + np.sum(g_r[0])
        s1 = np.concatenate(([m0], w.m.reshape(-1)))       # S 1
        s1[-nt:] += g_r[-1]
        lo = min(np.min(u), np.min(phi_row))
        hi = max(np.max(u), np.max(phi_row))
        x = _conjugate_gradients(
            d, d0, g_r, g_t, _theta_mean_preconditioner(d, d0, g_r, g_t),
            rhs, s1, max(-lo, hi))
        np.clip(x, lo, hi, out=rhs)
        u_new[0, :-1] = rhs[0]
        return u_new
    del w
    band = np.zeros((1 + (nr - 1) * nt, nt + 1))
    _theta_op(np.add, diag, 0, g_t, -1, band[1:, 0].reshape(nr - 1, nt))
    # the off-diagonal slots take -(dt g) as dt g times -1.0: numpy 2.4's
    # np.negative miscomputes from a 64-byte input stride into a strided
    # output
    np.multiply(g_t.reshape(-1), -1.0, out=band[1:, 1])
    band[nt::nt, 1] = 0.0                   # no theta link across rings
    np.multiply(g_t[:, -1], -1.0, out=band[1::nt, nt - 1])
    np.multiply(g_r[1:-1].reshape(-1), -1.0, out=band[1:1 + (nr - 2) * nt, nt])
    band[0, 0] = m0 + np.sum(g_r[0])
    np.multiply(g_r[0], -1.0, out=band[0, 1:])
    del g_r, g_t, diag
    rhs[:] = _band_solve(band, rhs)         # dpbsv solves in place: rhs
    u_new[0, :-1] = rhs[0]
    return u_new


def _advance(fd: _Fields, u: np.ndarray, control: StepControl, dt: float,
             phi_row: np.ndarray) -> np.ndarray:
    """The field u one time step dt on, with the Dirichlet row phi_row
    re-imposed.  The caller checks that it is finite (``_sup_norm``)."""
    if control.scheme == "explicit-euler":
        w = _weights(fd, u)
        lim = control.cfl / _radius(w)
        if dt > lim:
            raise FlowError(
                f"explicit step dt={dt:.3e} exceeds the CFL limit {lim:.3e}")
        u_new = u + dt * _apply(w, u)
        u_new[-1:] = phi_row
        return u_new
    if fd.grid.radial:
        return _radial_implicit(fd, u.reshape(-1), dt,
                                float(phi_row[0])).reshape(u.shape)
    return _polar_implicit(fd, u, dt, phi_row)


def _sup_norm(u: np.ndarray) -> float:
    """max|u| of a field a step made, as max(max u, -min u), which equals
    it without an |u| array; raises FlowError if u is not finite, which a
    nan in u makes both extremes and an inf one of them."""
    sup = max(float(u.max()), -float(u.min()))
    if not sup < math.inf:
        raise FlowError("non-finite field after step (linear solve failed?)")
    return sup


def step(state: FlowState, problem: BallProblem, grid: Grid,
         control: StepControl, dt: float | None = None) -> FlowState:
    """Advance the flow one time step and re-impose the Dirichlet row.  The
    new state's W, max_grad and max_A come from ``_diagnosed`` of a block
    of one state."""
    phi_row = problem._dirichlet_row(grid)
    dt = control.dt_max if dt is None else dt
    _positive("dt", dt, FlowError)
    fd = _Fields(problem.model, grid)
    u = _advance(fd, state.u, control, dt, phi_row)
    _sup_norm(u)
    return _diagnosed(fd, [(state.t + dt, u, state.step_count + 1)])[0]


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


def _curvatures(fd: _Fields, u: np.ndarray, ur: np.ndarray, vt,
                W: np.ndarray):
    """(|A|^2, nH) on rows 1..nr-1 of u, a field or a stack of fields as
    ``_slopes`` takes them, from its slopes, its tilt factor W and the
    three-point second differences of ``_Steps``.  The 2-D branch writes
    the second fundamental form times W, b, in the frame (d_r,
    d_theta / xi), where the induced metric is g = I + rho^2 grad u
    grad u^T with det g = (rho W)^2; then
    nH = tr(g^-1 b) / W and |A|^2 = (nH)^2 - 2 det b / (det g W^2)."""
    grid, st = fd.grid, fd.steps
    p, w = ur[..., 1:-1, :], W[..., 1:-1, :]
    urr = u[..., 1:-1, :] * 2
    urr = np.subtract(st.wp * u[..., 2:, :], urr, out=urr)
    urr += st.wm * u[..., :-2, :]
    urr /= st.hh
    if grid.radial:
        return _radial_forms(fd.n, fd.gf.op, p, urr, w)
    q = vt[..., 1:-1, :]
    ut = fd.xi * vt                     # u_theta, 0 on the pole row
    urt = _centred(st, ut, np.empty(q.shape))
    urt /= st.s
    urt /= fd.xi[1:-1]
    # the second theta difference on every row; rows 1..nr-1 are read
    utt = _theta_op(np.subtract, u, 1, u * 2, 0, ut)
    utt = _theta_op(np.add, utt, 0, u, -1, np.empty(u.shape))[..., 1:-1, :]
    utt /= grid.dtheta ** 2
    utt *= fd.inv_xi2
    # in place, in this order of operations:
    #   b11 = urr + ((2 + rp^2) rho'/rho) p,  rp = rho u_r, rq = rho q
    #   b12 = urt + ((1 + rp^2) rho'/rho - xi'/xi) q
    #   b22 = utt + (rq^2 rho'/rho + xi'/xi) p
    #   nH = (((1 + rq^2) b11 - ((2 rp) rq) b12) + (1 + rp^2) b22) / (det g W)
    #   |A|^2 = nH^2 - 2 (b11 b22 - b12^2) / ((det g W) W)
    rp, rq = fd.rho * p, fd.rho * q
    rp2, rq2 = rp * rp, rq * rq
    b11 = rp2 + 2.0
    b11 *= fd.lrho
    b11 *= p
    b11 += urr
    b12 = rp2 + 1.0
    b12 *= fd.lrho
    b12 -= fd.xi_ratio
    b12 *= q
    b12 += urt
    b22 = rq2 * fd.lrho
    b22 += fd.xi_ratio
    b22 *= p
    b22 += utt
    dw = fd.rho * w
    dw *= dw
    dw *= w                             # det g W
    nH = rq2 + 1.0
    nH *= b11
    rp *= 2.0
    rp *= rq
    rp *= b12
    nH -= rp
    rp2 += 1.0
    rp2 *= b22
    nH += rp2
    nH /= dw
    b11 *= b22
    b12 *= b12
    b11 -= b12
    b11 *= 2.0
    dw *= w
    b11 /= dw
    A2 = nH * nH
    A2 -= b11
    return A2, nH


def second_fundamental_form(model: ModelGeometry, grid: Grid,
                            u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|A|^2 field, nH field) of the graph of u over the polar grid.

    Assembled from the ambient Christoffels of the warped metric applied to
    the graph parametrization (one derivative order lower than
    differentiating the mean curvature expression), on the slopes and W of
    ``compute_W`` and three-point second differences.  On both grids the pole
    and rim rows are copies of the nearest interior row; treat them as
    extrapolation.  ``solve_ball`` records the maximum of |A| per step.
    """
    fd = _Fields(model, grid)
    v = u.reshape(grid.shape())
    ur, vt = _slopes(fd, v)
    forms = _curvatures(fd, v, ur, vt, _tilt(fd, ur, vt)[1])
    return tuple(np.pad(a, ((1, 1), (0, 0)), mode="edge").reshape(u.shape)
                 for a in forms)


def _diagnose(fd: _Fields, U: np.ndarray):
    """(W, max|grad u|, max|A|) of a stack U of states, (S, nr + 1,
    ntheta) on both grids: the W stack and one maximum of each per state,
    all from one ``_slopes`` pass.  The |A| field's pole and rim rows copy
    interior rows, so rows 1..nr-1 hold its maximum."""
    ur, vt = _slopes(fd, U)
    grad2, W = _tilt(fd, ur, vt)
    A2, _ = _curvatures(fd, U, ur, vt, W)
    return (W, np.sqrt(np.max(grad2, axis=(-2, -1))),
            np.sqrt(np.max(A2, axis=(-2, -1))))


def _diagnosed(fd: _Fields,
               block: list[tuple[float, np.ndarray, int]]) -> list[FlowState]:
    """The states (t, u, step_count) of a block with their W, max|grad u|
    and max|A|, from one ``_diagnose`` of the stack of the block's states
    in the grid's shape.  Each state owns its W, a copy out of the stack."""
    W, max_grad, max_A = _diagnose(fd, np.stack(
        [u.reshape(fd.grid.shape()) for _, u, _ in block]))
    return [FlowState(t=t, u=u, W=W[k].reshape(u.shape).copy(),
                      step_count=count, max_grad=float(max_grad[k]),
                      max_A=float(max_A[k]))
            for k, (t, u, count) in enumerate(block)]


# ---------------------------------------------------------------------------
# trajectories


# The most grid nodes solve_ball diagnoses in one block: a block holds
# S = max(1, _BLOCK_NODES // nodes) states.  Diagnostics cost per state in
# ms, one state -> a block of S -> 64 states (``_diagnosed`` of an E2
# state, best of 3 x 7 timings, one core of a 2-vCPU Xeon with 2 MiB of L2
# per core, numpy 2.4):
#   24 x 16    0.114 -> 0.039 (S = 20) -> 0.040
#   72 x 16    0.141 -> 0.102 (S = 7)  -> 0.150
#   136 x 16   0.167 -> 0.135 (S = 3)  -> 0.292
#   48 x 32    0.151 -> 0.101 (S = 5)  -> 0.212
#   96 x 64    0.319 -> 0.326 (S = 1)  -> 0.852
#   128 x 1    0.049 -> 0.008 (S = 63) -> 0.008
# Blocks much above 8K nodes lose to cache traffic.  A bound of 4096 nodes
# leaves the ladder's costliest rung, 136 x 16, one state per block.
# Counting nodes, not states, also bounds the memory a block holds.
_BLOCK_NODES = 8192


@dataclass
class Trajectory:
    problem: BallProblem
    grid: Grid
    control: StepControl
    states: list
    times: np.ndarray
    max_grad: np.ndarray
    max_A: np.ndarray


def solve_ball(problem: BallProblem, grid: Grid, control: StepControl,
               snapshot_every: int = 0) -> Trajectory:
    """Integrate the Dirichlet flow to time T, collecting snapshots.

    snapshot_every = 0 keeps only the initial and final states.  Q has no
    zeroth-order term, so constants solve the flow and the maximum
    principle gives sup|u(t)| <= sup0 = max(sup|u0|, sup|phi|).  A state
    whose sup norm exceeds 10 max(sup0, 1) aborts the run: such growth can
    only be numerical instability.

    A semi-implicit step on the 2-D grid solves its linear system by
    dpbsv below 48 columns and, from 48 on, by conjugate gradients
    preconditioned with the theta mean of the diagonally scaled system,
    stopped once a bound of the error is <= 1e-14 max(|u|, |phi|) and
    clipped to [min(u, phi), max(u, phi)], where the exact solution lies
    (``_polar_implicit``).  The two agree to 1e-12 relative on disk-sized
    runs and on the ladder's rungs; the clip moves a value by roundoff
    only.

    The time loop reads only u, so each step is ``_advance`` and the guard
    alone, which takes the one max|u| that also finds a non-finite field
    (``_sup_norm``).  The run's ``_Fields`` live until it returns.  The
    states, the initial one included, are diagnosed (W,
    max|grad u|, max|A|) in blocks of at most _BLOCK_NODES grid nodes (or
    of one state, if it has more), each by one ``_diagnosed`` call; the
    last block is flushed after the final step.  The values equal
    ``step``'s bit for bit.  A radial grid's states are (nr + 1,): callers,
    the benchmark among them, stack them against (nr + 1,) bounds.
    """
    snapshot_every = _integer("snapshot_every", snapshot_every, 0, FlowError)
    u0, phi = problem.sample(grid)
    if grid.radial:
        u0 = u0[:, 0]
    fd = _Fields(problem.model, grid)
    sup0 = max(float(np.max(np.abs(u0))), float(np.max(np.abs(phi))))
    guard = 10.0 * max(sup0, 1.0)
    n_steps = max(int(math.ceil(problem.T / control.dt_max)), 1)
    dt = problem.T / n_steps
    per_block = max(1, _BLOCK_NODES // math.prod(grid.shape()))
    states, times, max_grad, max_A = [], [0.0], [], []
    block = [(0.0, u0, 0)]

    def flush():
        for s in _diagnosed(fd, block):
            max_grad.append(s.max_grad)
            max_A.append(s.max_A)
            if (s.step_count in (0, n_steps) or snapshot_every
                    and s.step_count % snapshot_every == 0):
                states.append(s)
        block.clear()

    t, u = 0.0, u0
    for sidx in range(1, n_steps + 1):
        if len(block) == per_block:
            flush()
        u = _advance(fd, u, control, dt, phi)
        t += dt
        if _sup_norm(u) > guard:
            raise FlowError(
                f"divergence guard tripped at t={t:.4g}: "
                f"sup|u| exceeds 10x the maximum-principle bound "
                f"{guard / 10.0:.4g}")
        times.append(t)
        block.append((t, u, sidx))
    flush()
    return Trajectory(problem=problem, grid=grid, control=control,
                      states=states, times=np.asarray(times),
                      max_grad=np.asarray(max_grad), max_A=np.asarray(max_A))


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


def residual_identities(model: ModelGeometry,
                        trajectory: Trajectory) -> IdentityReport:
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
    snapshots.  Snapshots in the first tenth of the time span (the
    burn-in) are skipped: generic initial data is only zeroth-order
    compatible with the Dirichlet condition, and the resulting corner
    nonsmoothness at (r = R, t = 0) would dominate the residual no matter
    how fine the grid.
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
    t_min = t[0] + 0.1 * (t[-1] - t[0])
    win = slice(max(int(np.searchsorted(t, t_min)), 1), t.size - 1)
    if win.start >= win.stop:
        raise FlowError("no snapshots past the burn-in window")
    fd = _Fields(model, grid)
    f = fd.gf.at
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
    # and forms are the solver's, on the (snapshot, node, 1) stack; the trim
    # drops the pole and rim columns (copies, and xi'/xi's pole stand-in).
    ur, _ = _slopes(fd, u[..., None])
    A2, nH = (np.pad(a[..., 0], ((0, 0), (1, 1)), mode="edge")
              for a in _curvatures(fd, u[..., None], ur, 0.0, W[..., None]))
    ur = ur[..., 0]
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
# run persistence

_MANIFEST_KEYS = {"grid", "control", "model_hash", "model", "T",
                  "snapshot_steps"}


def _spec_hash(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def model_hash(model: ModelGeometry) -> str:
    return _spec_hash(model.spec_dict())


def save_run(dirpath: str, trajectory: Trajectory) -> str:
    """Persist a trajectory in dirpath as three files: ``snapshots.npy``,
    the (S, 2, nr + 1, ntheta) stack of u and W of each kept state;
    ``steps.npy``, the (K, 3) table of t, max|grad u| and max|A| of each
    step (both NumPy ``.npy``, NEP 1, of little-endian float64); and
    ``manifest.json``, the metadata with the step of each kept state and,
    for a graded grid, its radii.  Returns the manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    tr, shape = trajectory, trajectory.grid.shape()
    for name, array in (
            ("snapshots.npy", [(np.reshape(s.u, shape), np.reshape(s.W, shape))
                               for s in tr.states]),
            ("steps.npy", np.column_stack((tr.times, tr.max_grad, tr.max_A)))):
        with open(os.path.join(dirpath, name), "wb") as fh:
            np.save(fh, np.asarray(array, dtype="<f8"), allow_pickle=False)
    # a uniform grid's manifest names no nodes
    grid = {k: v for k, v in asdict(tr.grid).items() if v is not None}
    manifest = {"grid": grid, "control": asdict(tr.control),
                "model_hash": model_hash(tr.problem.model),
                "model": tr.problem.model.spec_dict(), "T": tr.problem.T,
                "snapshot_steps": [s.step_count for s in tr.states]}
    mpath = os.path.join(dirpath, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def _load_f8(path: str, shape: tuple) -> np.ndarray:
    """The ``.npy`` array at path, never unpickling.  Raises FlowError,
    naming the file, unless it is a ``<f8`` array of the given shape (None
    matches any length)."""
    try:
        with open(path, "rb") as fh:
            array = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise FlowError(f"{path}: not a .npy array: {exc}") from exc
    if not (isinstance(array, np.ndarray) and array.dtype == np.dtype("<f8")
            and array.ndim == len(shape)
            and all(n in (None, m) for n, m in zip(shape, array.shape))):
        raise FlowError(f"{path}: not a <f8 array of shape {shape}")
    return array


def load_run(manifest_path: str) -> dict:
    """Load a run written by save_run; every value round-trips bit for bit,
    each state taking t, max_grad and max_A from ``steps.npy`` at its step.
    Raises FlowError, naming the file, for a manifest that lacks a key, has
    a bad grid or steps, or a model that does not match its hash, and for
    an array that does not fit the manifest.  A radial run's states are
    (nr + 1,), as ``solve_ball`` returns them."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        missing = _MANIFEST_KEYS - manifest.keys()
        grid = Grid(**manifest["grid"])
    except (OSError, ValueError, AttributeError, TypeError, KeyError,
            FlowError) as exc:
        raise FlowError(
            f"{manifest_path}: not a run manifest: {exc!r}") from exc
    if missing:
        raise FlowError(f"{manifest_path}: not a run manifest: missing "
                        f"{', '.join(sorted(missing))}")
    if manifest["model_hash"] != _spec_hash(manifest["model"]):
        raise FlowError(f"{manifest_path}: model_hash does not match the "
                        f"stored model")
    base, kept = os.path.dirname(manifest_path), manifest["snapshot_steps"]
    steps = _load_f8(os.path.join(base, "steps.npy"), (None, 3))
    if not (isinstance(kept, list) and all(
            type(k) is int and 0 <= k < len(steps) for k in kept)):
        raise FlowError(f"{manifest_path}: snapshot_steps must be steps "
                        f"0..{len(steps) - 1}")
    snaps = _load_f8(os.path.join(base, "snapshots.npy"),
                     (len(kept), 2, *grid.shape()))
    shape = (grid.nr + 1,) if grid.radial else grid.shape()
    states = [FlowState(t=float(steps[k, 0]), u=uW[0].reshape(shape),
                        W=uW[1].reshape(shape), step_count=k,
                        max_grad=float(steps[k, 1]), max_A=float(steps[k, 2]))
              for k, uW in zip(kept, snaps)]
    times, max_grad, max_A = steps.T.copy()
    return {"manifest": manifest, "grid": grid, "states": states,
            "times": times, "max_grad": max_grad, "max_A": max_A}
