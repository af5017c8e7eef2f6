"""Euclidean Jordan algebras, exact convex state spaces, and spectrality tools.

The layers, bottom up: scalars/exactla/exactlp hold the exact rational and
Q(sqrt 5) arithmetic, with one fraction-free (Bareiss) elimination kernel
in exactla that the exact feasibility simplex of exactlp pivots with;
hypercomplex, algebra, and spectral implement the five simple algebra
families, their spectral decompositions, and the Jordan frames and
transporters; geometry, automorphisms, operational, and symmetry treat
polytopes as state spaces with frames, faces, automorphisms, strong
symmetry and regularity; classification ties the families to the
symmetric-space tables and bundles the theorem-verification batteries; cli
exposes it all as JSON-emitting subcommands.

The float side (hypercomplex, algebra, spectral) needs numpy; the exact
side (everything else, this module included) imports none of it at module
level.  Each EJA branch of an exact module imports the float side where it
dispatches to it, so polytope work (spectrality, strong symmetry,
regularity, frames, sections, plot data, rechecks, table rows) never loads
numpy, and the package's exports resolve on first use, each from its own
module.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The module each export lives in.  Nothing below is imported until one of
# its names is first read, so importing the package, or any exact-side
# module, loads no numpy.
_EXPORTS = {
    "algebra": (
        "EjaElement",
        "determinant",
        "inner",
        "jordan_product",
        "norm",
        "power",
        "quadratic_rep",
        "trace",
        "unit",
        "zero",
    ),
    "classification": (
        "ClassificationError",
        "FrSection",
        "MrTableRow",
        "eval_formula",
        "fr_polytope",
        "fr_section",
        "load_tables",
        "mr_table_all",
        "mr_table_lookup",
        "section_sample_check",
        "standard_frame",
        "table_consistency_check",
        "verify_converse_on_polytopes",
        "verify_main_theorem_if_direction",
    ),
    "geometry": (
        "AlgebraDescriptor",
        "Ball",
        "EjaStateSpace",
        "GeometryError",
        "Polytope",
        "SymmetryError",
        "algebra",
        "ball",
        "barycenter",
        "body_from_dict",
        "body_to_dict",
        "cube",
        "eja_state_space",
        "exposed_faces",
        "hexagon",
        "maximal_flags",
        "membership",
        "octahedron",
        "pentagon",
        "polytope",
        "rectangle",
        "simplex",
        "square",
    ),
    "operational": (
        "EjaFace",
        "OperationalError",
        "SpectralVerdict",
        "complement_face",
        "distinguishing_measurement",
        "enumerate_frames",
        "face_of_frame",
        "is_measurement",
        "is_spectral",
        "rank",
        "recheck_counterexample",
    ),
    "scalars": ("SQRT5", "Sqrt5", "format_scalar", "parse_scalar"),
    "spectral": (
        "SpectralDecomposition",
        "UnsupportedFamily",
        "eigenvalues",
        "extend_to_maximal_frame",
        "jordan_frame_transporter",
        "random_state",
        "spectral_decompose",
        "verify_strong_symmetry_eja",
    ),
    "symmetry": (
        "StrongSymmetryReport",
        "automorphism_group",
        "frame_flag_bijection",
        "is_regular",
        "is_strongly_symmetric",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys())


class _Package(types.ModuleType):
    """The package module: an export keeps its name when a submodule loads.

    The import system binds each submodule it loads on the package, so the
    first ``import jordan_spectra.algebra`` would otherwise replace the
    ``algebra`` factory with the module of the same name.
    """

    def __setattr__(self, name, value):
        if name in _ORIGIN and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
