"""Second-Hankel-determinant machinery for bi-starlike and bi-convex maps.

The package reconstructs the coefficient system behind the closed-form
bounds on |a2 a4 - a3^2| for bi-starlike and bi-convex functions of order
beta, evaluates every bound, profile and critical point in closed form, and
confirms each one against independent oracles: truncated-series algebra,
grid maximization, and seeded sampling of the underlying coefficient class.

Each public name is imported from the submodule that defines it
(`from bihankel.bounds import h22_bound`).  This module imports nothing,
so `import bihankel` loads no submodule and not numpy: the command line
(`bihankel.cli`) must configure numpy's BLAS before numpy is loaded.
"""

__version__ = "0.1.0"
