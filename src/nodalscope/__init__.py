"""Nodal sets, doubling indices, and small-scale equidistribution of exact
Laplacian eigenfunctions on flat tori."""

__version__ = "0.1.0"
