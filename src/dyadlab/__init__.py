"""Numerical workbench for weighted oscillation and singular-integral bounds
on a uniform lattice: the dyadic grid, Muckenhoupt-type weights, sparse
operators, discretized kernels and operator-norm estimation."""

from dyadlab import dyadic, lattice, normest, operators, oscillation, sparse, weights

__all__ = [
    "dyadic",
    "lattice",
    "normest",
    "operators",
    "oscillation",
    "sparse",
    "weights",
]

__version__ = "0.1.0"
