"""Numeric tolerances and guard constants, kept in one place.

All values are chosen for IEEE-754 double precision.
"""

# Minimum per-edge margin cos(a_i + a_j) + eta accepted by the geometric
# kernel.  Points closer to the admissibility boundary are rejected so that
# sinh(l) stays bounded away from zero.
ADMISSIBILITY_EPS = 1e-12

# Draws `sample_admissible` makes before it gives up.
SAMPLE_MAX_TRIES = 100_000

# Largest distance (max norm) allowed between the solutions that
# `solve_prescribed_multistart` finds from different starts.
MULTISTART_TOL = 1e-8

# Central-difference step of the finite-difference Jacobian oracles.
FD_STEP = 1e-6

# Edge-margin inset of the factors `hexflow jacobian-check` samples: the FD
# oracles degrade near the polytope facets, where l ~ sqrt(margin).
FD_SAMPLE_MARGIN = 1e-2

# Gauss-Legendre line integrals: initial node count, node cap, and the
# relative change between successive estimates that counts as converged.
QUAD_INIT_NODES = 16
QUAD_MAX_NODES = 1024
QUAD_REL_TOL = 1e-10

# Face evaluations one batched kernel call may cover: the line integrals of
# many segments split each quadrature level into calls of at most this many
# face-node evaluations (but at least one segment's whole level), and
# `hexflow volume` evaluates its grid's Hessians in calls of this many
# points per face.
BATCH_FACE_EVALS = 2048

# Step control shared by the flows (dt) and the Newton line search (step
# length).  A trial step is shrunk by STEP_SHRINK until it stays inside the
# open angle box with every edge margin at least STEP_MARGIN and its Calabi
# energy does not rise; below STEP_FLOOR the step has stalled.  The flows'
# linearly implicit Euler step is A-stable, so dt has no cap: it grows by
# 1 / STEP_SHRINK after every accepted step (and stays finite).
STEP_SHRINK = 0.5
STEP_MARGIN = 1e-9
STEP_FLOOR = 1e-14

# Largest n for which the linear algebra of J is dense.  Above it,
# `GlobalJacobian.min_eigenvalue` is an iterative extremal estimate, and
# the p = 0, 1 and -1 arms of `solve._spd_apply` factor the CSR matrix by
# a sparse LDL^T, whose pivots also test that J is positive definite.
DENSE_EIG_MAX_N = 512
