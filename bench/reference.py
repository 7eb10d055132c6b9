"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes: other tenants load the same cores, caches and
memory.  The reference kernel is timed right before and right after every
op, and the op's time is divided by the mean of the two.  Drift that slows
the op slows the kernel beside it too, so the quotient holds steady where
the raw time does not.

The kernel uses only Python, numpy and scipy, never ``killingflow``, so no
change to the package can move it.  It mixes what the ops spend their time
on: interpreted scalar code, vectorised numpy on small arrays, and sparse
assembly plus a sparse LU solve.
"""

from __future__ import annotations

from time import perf_counter

# the kernel's time on an unloaded 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1); normalised times are quoted in seconds at
# that speed
NOMINAL_S = 0.05

_N = 60     # the sparse system is the 5-point Laplacian on an _N x _N grid
_system = None


def _build():
    import numpy as np
    import scipy.sparse as sp
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
    eye = sp.identity(_N)
    lap = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
    return lap, np.linspace(0.0, 1.0, _N * _N)


def kernel_s() -> float:
    """Run the reference computation once and return its wall time."""
    global _system
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    if _system is None:
        _system = _build()
    lap, rhs = _system
    start = perf_counter()
    acc = 0.0
    f = lambda x: 0.5 * x + 1.0
    for i in range(60000):
        acc += f(i * 1e-6)
    x = np.linspace(0.0, 1.0, 4000)
    for _ in range(400):
        x = np.sin(x) * 0.9 + np.sqrt(x + 1.0) * 0.01
    shift = sp.identity(_N * _N, format="csr") * (1e-3 + 1e-9 * acc)
    for _ in range(3):
        spla.spsolve((lap + shift).tocsc(), rhs)
    return perf_counter() - start
