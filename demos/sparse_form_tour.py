"""
A tour of sparse forms on the dyadic grid
=========================================

Build a grid, look at a multisublinear maximal function, then chase the
same quantity from the other side: the best sparse form a verified
1/2-sparse family can achieve.  Along the way, split an input at a
threshold and watch the Calderon-Zygmund estimates hold with room to
spare.
"""

import numpy as np

from sparsedom.dyadic import Grid, grid_norm
from sparsedom.maximal import scalar_maximal
from sparsedom.sparse import cz_decompose, optimal_sparse_form, verify_sparse

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------
# the grid: depth-2 refinement of [0,1), four cells, seven dyadic cubes
# ---------------------------------------------------------------------
grid = Grid(1, 2)
print(f"grid: d={grid.d}, depth={grid.depth}, cells={grid.cell_shape}")

# a pair of rough inputs and their product-average maximal function
fs = [rng.uniform(0.25, 4.0, size=grid.cell_shape) for _ in range(2)]
rs = [1.0, 1.0]
M = scalar_maximal(grid, fs, rs)
print("inputs:", np.round(fs[0], 3), np.round(fs[1], 3))
print("maximal function:", np.round(M, 3), "L1 norm", round(grid_norm(grid, M, 1.0), 4))

# ---------------------------------------------------------------------
# the sparse side: maximize sum |Q| <f1>_Q <f2>_Q over 1/2-sparse
# subfamilies of the seven cubes, exactly by a knapsack on the dyadic tree
# ---------------------------------------------------------------------
exact_val, family = optimal_sparse_form(fs, rs, grid, mode="exact")
greedy_val, greedy_fam = optimal_sparse_form(fs, rs, grid, mode="greedy")
print(f"\nexact optimal form {exact_val:.4f} over {len(family.cubes)} cubes")
print(f"greedy (principal cubes) form {greedy_val:.4f}, "
      f"fraction of optimum {greedy_val / exact_val:.3f}")

# each winner carries a verified certificate of disjoint witness sets
print("certificate checks out:", family.check_certificate())

# the equivalence: the maximal integral sits inside [eta*form, form*(L+1)],
# so the normalized ratio below is at least 1 and comfortably under 8
mnorm = grid_norm(grid, M, 1.0)
print(f"maximal / (eta * form) = {mnorm / (0.5 * exact_val):.4f}")

# ---------------------------------------------------------------------
# refusing a bad family: the full depth-2 tree is NOT 1/2-sparse
# (total demand 3/2 exceeds the unit of available measure)
# ---------------------------------------------------------------------
refusal = verify_sparse(list(grid.cubes()), 0.5)
print("\nfull tree at eta=1/2:", type(refusal).__name__)

# ---------------------------------------------------------------------
# Calderon-Zygmund splitting at a threshold: flat part small, averaged
# part within one doubling of the threshold, bad part on a small set
# ---------------------------------------------------------------------
lam = 0.8
parts = cz_decompose(grid, fs, rs, lam)
r = parts.r
print(f"\nCZ split at lambda={lam} (r={r})")
for j, (rj, thr) in enumerate(zip(rs, parts.component_thresholds)):
    print(f"  component {j}: sup|flat| {np.max(np.abs(parts.flat[j])):.4f}"
          f" <= {thr:.4f}; sup|averaged| {np.max(np.abs(parts.averaged[j])):.4f}"
          f" <= {2 ** (grid.d / rj) * thr:.4f}")
exceed = np.sum(np.abs(parts.bad) > lam) * grid.cell_measure
print(f"  bad part above lambda on measure {exceed:.4f}"
      f" <= {len(rs) / lam ** r:.4f}")
