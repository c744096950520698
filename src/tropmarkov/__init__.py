"""Exact min-plus dynamics on tropicalized Markov cubic surfaces.

Submodules load on first use: ``import tropmarkov`` imports none of them, and
each name of ``__all__`` resolves (and stays bound) the first time it is read,
through the module-level ``__getattr__`` of PEP 562.
"""

from importlib import import_module

# Each export -> the submodule that defines it; a submodule maps to itself.
_EXPORTS = {
    **dict.fromkeys(("errors", "DomainError", "ResourceError", "UsageError"), "errors"),
    **dict.fromkeys(("scalars", "CF", "INF", "ExtRat", "continued_fraction", "ext_min",
                     "is_prime", "p_adic_valuation", "thomae_gcd"), "scalars"),
    **dict.fromkeys(("laurent", "LaurentPoly"), "laurent"),
    **dict.fromkeys(("surface", "CellId", "Params", "cell_has_interior", "cells_of", "f0",
                     "fixed_set_point", "in_tropicalization", "is_meromorphic",
                     "level_set_shift", "lift_from_plane", "on_boundary_ray", "on_skeleton",
                     "project_to_plane", "thresholds", "trop_poly_f"), "surface"),
    **dict.fromkeys(("dynamics", "GreedyTrace", "Word", "apply_word", "euc", "greedy_path",
                     "sk_norm", "transit_matrix", "trop_vieta", "u_coords", "u_inverse"),
                    "dynamics"),
    **dict.fromkeys(("classifier", "ClassifyReport", "FareyTriple", "classify",
                     "exception_rays_punctured", "farey_enumerate", "farey_triangle",
                     "index_shift_bruteforce", "index_shift_cf", "punctured_torus_in_U",
                     "slope_T", "stopping_time", "table_orbit_triangles"), "classifier"),
    **dict.fromkeys(("hyperbolic", "order_isomorphism_check", "partial_orbit_boundary",
                     "partial_orbit_skeleton", "partition_stats", "partition_table",
                     "reduce_to_nets", "reflect_boundary"), "hyperbolic"),
    **dict.fromkeys(("arithmetic", "SurfacePointL", "ZpPoint", "compact_radius",
                     "enumerate_zp_points", "fatou_condition", "fatou_witness",
                     "lift_consistency", "matrix_divergence", "surface_from_seed",
                     "vieta_exact"), "arithmetic"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
