"""Desk-scale workbench for dyadic Haar projections, Riesz transforms,
multiscale operator decompositions and their interpolatory estimates.

The package root loads on demand (PEP 562): ``import haarriesz`` imports
neither numpy nor a layer module, and the first lookup of a name below
imports the submodule that defines it."""

import importlib

__version__ = "0.1.0"

# every public name of the package root -> the submodule that defines it
_SOURCE = {
    **dict.fromkeys(("Direction", "DyadicCube", "GridFunction", "all_directions",
                     "axis_direction", "lp_norm"), "grid"),
    **dict.fromkeys(("HaarCoefficients", "conditional_expectation", "directional_project",
                     "haar_analyze", "haar_synthesize"), "haar"),
    **dict.fromkeys(("ResolvingKernel", "delta_conv", "derivative", "riesz",
                     "smoothing_conv"), "fourier"),
    **dict.fromkeys(("LinearFieldOp", "OpNormResult", "default_even_family",
                     "op_norm2_estimate", "rearrangement_operator", "ring_cover", "ring_norm",
                     "ring_projection_operator", "t_ell", "t_ell_operator"), "multiscale"),
    **dict.fromkeys(("BlockSpec", "SquareCollection", "bessel_lower_bound",
                     "build_collection", "f_eps_field", "gram_norm2",
                     "sharpness_experiment_pge2", "single_block_experiment_ple2"), "sharpness"),
    **dict.fromkeys(("Integrand", "check_separately_convex", "jensen_range_check",
                     "registry_integrands", "semicontinuity_experiment"), "semiconvexity"),
}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the name here,
    so later lookups find it without calling this again."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
