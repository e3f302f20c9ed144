"""sparsedom: sparse domination of multisublinear maximal operators, desk scale.

A numerical laboratory on finite dyadic grids: shifted dyadic geometry and
r-averages, finite-dimensional quasi-Banach function spaces, scalar and
lattice maximal operators, sparse families with exact packing
verification, Calderon-Zygmund and stopping-time decompositions, multilinear
Muckenhoupt constants with sharp-exponent calculators, and transfer
experiments from scalar to vector-valued sparse domination.
"""

__version__ = "0.1.0"
