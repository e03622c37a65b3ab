"""Tolerance policy.  Every numeric comparison in the package routes through here.

Absolute tolerances cover quantities that are O(1) by construction (norms,
unitarity residues); the scale-relative ones cover quantities whose error
budget grows with the magnitude of the function values involved.
"""

from __future__ import annotations

__all__ = [
    "TOL_HERM",
    "TOL_UNITARY",
    "TOL_NORM",
    "TOL_SPEC",
    "TOL_KNOT",
    "DEFAULT_GRID_N",
    "MAX_GRID_N",
    "GRID_N_RANGE",
    "CERTIFY_MEMO_SIZE",
    "SEARCH_PLAN_MEMO_SIZE",
    "MAX_TRIALS",
    "MAX_BUDGET",
    "MAX_DIM",
    "MAX_LITERAL_DEPTH",
    "MAX_R_VALUES",
    "VIOLATION_FACTOR",
    "OPEN_INTERVAL_SHRINK",
    "tol_calc",
    "tol_sync",
    "tol_ineq",
]

# absolute: Hermitian-symmetry residues and real-part checks of quadratic forms
TOL_HERM = 1e-10
# absolute: eigenvector-matrix unitarity, max |U*U - I|
TOL_UNITARY = 1e-10
# absolute: state norms and ensemble normalization sums
TOL_NORM = 1e-10
# eigenvalue containment slack: clamped inside, hard error beyond
TOL_SPEC = 1e-8
# relative slack, scaled by 1 + the largest |knot|, at a tabulated function's end knots
TOL_KNOT = 1e-12
# resolution of classification grids
DEFAULT_GRID_N = 128
# certification evaluates grid_n^2/2 pairs; 1024 points is about 0.5M pairs
MAX_GRID_N = 1024
GRID_N_RANGE = (2, MAX_GRID_N)
# synchrony certificates kept by classify_synchrony's memo; the default suite
# pool has at most 8^3 (f, g, h) triples on 2 intervals
CERTIFY_MEMO_SIZE = 1024
# falsify search plans kept by its memo; the 37 (check, drop) pairs on a few
# intervals and grid sizes
SEARCH_PLAN_MEMO_SIZE = 256
# suite trials per check id; all 23 ids at the cap already run for hours
MAX_TRIALS = 1_000_000
# candidates one falsify search examines
MAX_BUDGET = 10_000_000
# desk scale; the inequalities are dimension-free
MAX_DIM = 16
# product and sum literals nested inside one another; writing the report of a
# literal about 300 deep overflows Python's stack
MAX_LITERAL_DEPTH = 32
# power weights one classify scan certifies, one certificate each
MAX_R_VALUES = 64
# a gap below -VIOLATION_FACTOR * tol_ineq counts as a genuine violation
VIOLATION_FACTOR = 10.0
# relative endpoint pull-in used to stand in for open intervals
OPEN_INTERVAL_SHRINK = 1e-3


def tol_calc(scale: float) -> float:
    """Scale-relative tolerance for functional-calculus identities."""
    return 1e-9 * (1.0 + abs(scale))


def tol_sync(max_abs_product: float) -> float:
    """Tolerance for grid sign classification; absorbs rounding at boundary exponents."""
    return 1e-12 * (1.0 + abs(max_abs_product))


def tol_ineq(lhs: float, rhs: float) -> float:
    """Tolerance for inequality gaps; products of expectations accumulate relative error."""
    return 1e-9 * (1.0 + abs(lhs) + abs(rhs))
