"""Optimistic limits and complex volumes of hyperbolic link diagrams.

The pipeline: parse or pick a diagram, assemble its region (W) or side (V)
potential, solve the induced rational equation system, and evaluate the
corrected potential at each solution to read off the hyperbolic volume and
the Chern-Simons invariant mod pi^2.
"""

from .diagram import (Crossing, DiagramError, LinkDiagram, ValidationReport,
                      build_diagram, builtin, from_json, parse_pd, twist_diagram,
                      validate)
from .numerics import bloch_wigner, li2, plog
from .potential import (ALT_NEG_LOG, DEFAULT, Monomial, Potential, Term,
                        assemble_V, assemble_W, evaluate)
from .equations import EquationSystem, build_system
from .solver import SolveConfig, Solution, SolveError, refine, solve
from .optimistic import OptimisticResult, bw_volume, mod_eq, w0
from .correspondence import (BridgeReport, CorrespondenceError,
                             check_w_nondegenerate, check_z_nondegenerate,
                             sign_flip, sign_flip_point, verify_bridge, w_to_z, z_to_w)
from . import twistknot

__version__ = "0.1.0"

__all__ = [
    "ALT_NEG_LOG", "BridgeReport", "Crossing", "CorrespondenceError",
    "DEFAULT", "DiagramError", "EquationSystem", "LinkDiagram", "Monomial",
    "OptimisticResult", "Potential", "SolveConfig", "SolveError",
    "Solution", "Term", "ValidationReport", "assemble_V", "assemble_W",
    "bloch_wigner", "build_diagram", "build_system", "builtin", "bw_volume",
    "check_w_nondegenerate", "check_z_nondegenerate", "evaluate",
    "from_json", "li2", "mod_eq", "parse_pd",
    "plog", "refine", "sign_flip", "sign_flip_point", "solve",
    "twist_diagram", "twistknot", "validate", "verify_bridge", "w0",
    "w_to_z", "z_to_w",
]
