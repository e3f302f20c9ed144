"""
Stopping cubes and the jump to vector-valued inputs
===================================================

The stopping-time recursion turns any vector-valued input into a sparse
family whose form dominates the lattice maximal function pointwise.  The
same machinery then answers the transfer question: does a scalar sparse
bound survive when the operator acts on sequence-valued functions?
"""

import numpy as np

from sparsedom.dyadic import Cube, Grid, grid_norm
from sparsedom.sparse import SparseFamily, stopping_domination, verify_sparse
from sparsedom.spaces import AtomicMeasure, LebesgueSpace
from sparsedom.transfer import (
    HaarTransform,
    SparseOperator,
    scalar_hypothesis_check,
    vv_transfer_check,
)

rng = np.random.default_rng(1)
grid = Grid(1, 2)

# ---------------------------------------------------------------------
# stopping-time domination for an ell^4 x ell^{4/3} pair, growing the
# number of atoms: the adaptive constant should not drift with n
# ---------------------------------------------------------------------
rs = [1.0, 1.0]
ts = (4.0, 4.0 / 3.0)
print("stopping certificates, X = ell^4 x ell^{4/3}:")
for n in (2, 8, 32):
    spaces = [LebesgueSpace(t, AtomicMeasure.unit(n)) for t in ts]
    Fs = [rng.lognormal(sigma=1.0, size=grid.cell_shape + (n,)) for _ in rs]
    cert = stopping_domination(grid, Fs, rs, 1.0, spaces)
    print(f"  n={n:>2}: {len(cert.family.cubes)} cubes, c_stop={cert.c_stop:g}, "
          f"pointwise ok={cert.pointwise_ok}")

# ---------------------------------------------------------------------
# two model operators with scalar sparse bounds
# ---------------------------------------------------------------------
chain = verify_sparse([Cube(k, (0,)) for k in range(3)], 0.5)
assert isinstance(chain, SparseFamily)
T_sparse = SparseOperator(chain, rs=(1.0,))
T_haar = HaarTransform.random(grid, seed=0)

# the Haar model is an exact L2 isometry whatever the signs
f = rng.normal(size=grid.cell_shape)
print(f"\nHaar isometry: ||Tf||_2={grid_norm(grid, T_haar.apply(grid, [f]), 2.0):.6f}"
      f" vs ||f||_2={grid_norm(grid, f, 2.0):.6f}")

# scalar hypothesis first: form bounds against the (r,q)-maximal function
models = (("sparse", T_sparse), ("haar", T_haar))
results = scalar_hypothesis_check([T for _, T in models], grid, q=1.0, trials=25)
for (name, _), res in zip(models, results):
    bound = res["bound"] if res["bound"] is not None else "measured"
    print(f"scalar check [{name}]: worst ratio {res['max_ratio']:.4f}, "
          f"certified bound {bound}, passed={res['passed']}")

# ---------------------------------------------------------------------
# the transfer experiment: extend both models to ell^2-valued inputs
# and watch the worst form ratio stay flat as atoms are added
# ---------------------------------------------------------------------
reports = vv_transfer_check([T for _, T in models], grid, [2.0], q=1.0, s=float("inf"), trials=40)
for (name, _), rep in zip(models, reports):
    worst = {n: round(v, 4) for n, v in rep.worst.items()}
    print(f"\ntransfer [{name}] into ell^2: admissible={rep.admissible}")
    print(f"  worst ratios per atom count {worst}")
    print(f"  log-n slope {rep.slope:.4f} -> {rep.verdict}")
