"""Numeric tolerances and limits shared by the library, tests and docs.

These are the single source of truth; tests must reference these names
instead of re-declaring magic numbers.
"""

# Relative tolerance for checks that should agree up to rounding noise:
# symmetry of the distance, recomputing a total cost from a returned
# permutation, set-domain vs vector-domain agreement.
REL_TOL_EXACT = 1e-12

# Relative tolerance for agreement between the brute-force and the
# optimal-assignment backends (ties may be resolved differently).
REL_TOL_BACKENDS = 1e-10

# Absolute slack for the triangle inequality and for the built-in demo gate.
ABS_TOL_TRIANGLE = 1e-9

# The brute-force solver may visit all t! permutations when little can be
# pruned; above this many targets it refuses and points at the optimal
# backend.  A caller's cap may lower this limit but not raise it.
DEFAULT_BRUTE_CAP = 8

# Floats in report files are serialized with this many significant digits so
# that identical runs produce byte-identical output.
REPORT_FLOAT_DIGITS = 17
