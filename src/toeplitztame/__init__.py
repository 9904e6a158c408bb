"""Tameness certificates for constant-length substitution shifts and
Toeplitz systems."""

__version__ = "0.1.0"

from .errors import ToeplitzError
from .odometer import OdometerHead, Scale, add_integer, head_index
from .substitution import (Substitution, height_and_pure_base, is_aperiodic,
                           is_primitive, language, parse_text,
                           substitution_power, validate)
from .gtheta import (AnalysisReport, SubsetGraph, build_gtheta,
                     cycle_count_upper_bound, tameness_verdict, to_dot,
                     two_cycles_share_vertex)
from .extended_bratteli import (essential_thickness, find_double_path,
                                thickness_census)
from .independence import (IndependenceScheme, independence_times,
                           synthesize_scheme, verify_patterns)
from .semicocycle import (DStage, FullShift, LevelFamily, SturmianFibonacci,
                          build_d_stage, build_f_family,
                          check_translate_disjointness, f5_eval, f6_eval,
                          realize_prefix, toeplitz5_window)

__all__ = [
    "AnalysisReport", "DStage", "FullShift", "IndependenceScheme",
    "LevelFamily", "OdometerHead", "Scale", "SturmianFibonacci",
    "SubsetGraph", "Substitution", "ToeplitzError", "add_integer",
    "build_d_stage", "build_f_family", "build_gtheta",
    "check_translate_disjointness", "cycle_count_upper_bound",
    "essential_thickness", "f5_eval", "f6_eval", "find_double_path",
    "head_index", "height_and_pure_base", "independence_times",
    "is_aperiodic", "is_primitive", "language", "parse_text",
    "realize_prefix", "substitution_power", "synthesize_scheme",
    "tameness_verdict", "thickness_census", "to_dot", "toeplitz5_window",
    "two_cycles_share_vertex", "validate", "verify_patterns",
]
