"""Implicit-surface kernel for quador lattice structures with quadric fillets.

Hubs are spheres, beams are quadrics of revolution tangent to both endpoint
spheres, and the concave edge where two stubs meet is replaced by a single
quadric fillet tangent to both.  The kernel provides exact implicit forms,
tangency conics with closed-form parametrizations, point membership for the
composed solid, and marching-cubes mesh export.
"""

from .algebra import (
    LinearForm,
    Quadric,
    QuadricClass,
    QuadricClassification,
    classify_quadric,
    jacobi_eigen3,
    principal_curvatures,
    subtract_square,
)
from .charts import SurfaceChart, parametrize
from .conics import (
    Conic,
    ConicClass,
    PlaneFrame,
    classify_conic,
    intersect_quadric_plane,
    pcurve,
    plane_frame,
    sample_conic,
)
from .errors import QuadorError
from .fillet import (
    FilletPatch,
    FilletStack,
    build_fillet,
    build_fillet_for_spec,
    fillet_extent,
    fillet_min_curvature_radius,
    fillet_planes,
    fillet_residual,
)
from .lattice import (
    Beam,
    BeamGeometry,
    BeamStack,
    FilletSpec,
    Hub,
    Lattice,
    StubView,
    ValidationReport,
    beam_quador,
    beam_radius,
    sphere_quadric,
    stub_views_at_hub,
    validate_lattice,
)
from .latticefile import lattice_to_json, load_lattice, load_lattice_path
from .solid import (
    Assembly,
    Mesh,
    RegionLabel,
    auto_bounds,
    build_assembly,
    classify_point,
    field_grid,
    field_value,
    marching_cubes,
)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"
