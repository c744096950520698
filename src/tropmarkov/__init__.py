"""Exact min-plus dynamics on tropicalized Markov cubic surfaces."""

from .errors import DomainError, ResourceError, UsageError
from .scalars import (
    CF,
    INF,
    ExtRat,
    continued_fraction,
    ext_min,
    is_prime,
    p_adic_valuation,
    thomae_gcd,
)
from .laurent import LaurentPoly
from .surface import (
    CellId,
    Params,
    cell_has_interior,
    cells_of,
    f0,
    fixed_set_point,
    in_tropicalization,
    is_meromorphic,
    level_set_shift,
    lift_from_plane,
    on_boundary_ray,
    on_skeleton,
    project_to_plane,
    thresholds,
    trop_poly_f,
)
from .dynamics import (
    GreedyTrace,
    Word,
    apply_word,
    euc,
    greedy_path,
    sk_norm,
    transit_matrix,
    trop_vieta,
    u_coords,
    u_inverse,
)
from .classifier import (
    ClassifyReport,
    FareyTriple,
    classify,
    exception_rays_punctured,
    farey_enumerate,
    farey_triangle,
    index_shift_bruteforce,
    index_shift_cf,
    punctured_torus_in_U,
    slope_T,
    stopping_time,
    table_orbit_triangles,
)
from .hyperbolic import (
    order_isomorphism_check,
    partial_orbit_boundary,
    partial_orbit_skeleton,
    partition_stats,
    partition_table,
    reduce_to_nets,
    reflect_boundary,
)
from .arithmetic import (
    SurfacePointL,
    ZpPoint,
    compact_radius,
    enumerate_zp_points,
    fatou_condition,
    fatou_witness,
    lift_consistency,
    matrix_divergence,
    surface_from_seed,
    vieta_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
