"""Central numeric tolerances.

All comparisons in the kernel are relative to a problem scale unless noted;
the constants here are the dimensionless factors.
"""

# Coefficientwise agreement of algebraically identical quadrics.
COEFF_REL_TOL = 1e-12

# Gradient agreement along tangency circles/conics, relative to |grad S|.
GRAD_REL_TOL = 1e-12

# On-surface residual for sampled curve/chart points, relative to scale.
SURF_RESIDUAL_TOL = 1e-10

# Relative rank threshold for quadric classification (eigenvalue zeroing).
CLASSIFY_TOL = 1e-9

# Relative zero threshold for 2D conic classification.
CONIC_CLASSIFY_TOL = 1e-10

# Angle (radians) between gradients of tangent surfaces at shared points.
TANGENT_ANGLE_TOL = 1e-7

# Stub planes count as parallel below this relative cross-product norm.
PARALLEL_STUB_TOL = 1e-9

# Cyclic Jacobi: sweep cap and off-diagonal convergence factor (of ||A||_F).
JACOBI_SWEEP_CAP = 30
JACOBI_OFFDIAG_TOL = 1e-14

# Default parameter half-range when sampling unbounded conics.
UNBOUNDED_PARAM_RANGE = 4.0
