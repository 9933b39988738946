"""Centered-binomial approximation of lattice random sums.

Exact lattice-distribution arithmetic, the two approximation metrics,
error-bound calculators for independent / locally dependent sums and point
processes, and seeded Monte Carlo harnesses for the moving-window
exceedance and hard-core point count applications.  The package exports
nothing at the top level: import from the submodules.
"""

__version__ = "0.1.0"
