"""Tameness certificates for constant-length substitution shifts and
Toeplitz systems."""

__version__ = "0.1.0"

from .errors import ToeplitzError
from .odometer import (OdometerHead, OdometerPoint, Scale, add_heads,
                       add_integer, common_head_length, head_index,
                       integer_head)
from .substitution import (Substitution, fixed_point_window,
                           has_coincidence, height_and_pure_base,
                           is_aperiodic, is_primitive, language, parse_text,
                           substitution_power, validate)
from .gtheta import (AnalysisReport, SubsetGraph, build_gtheta,
                     canonical_semicocycle_eval, cycle_count_upper_bound,
                     discontinuity_membership, fiber_window, tameness_verdict,
                     to_dot, two_cycles_share_vertex)
from .extended_bratteli import (DiagramSpec, LevelMorphism, essential_thickness,
                                extendable_vertices, extended_image,
                                find_double_path, telescope, thickness_census)
from .independence import (IndependenceScheme, independence_times,
                           synthesize_scheme, verify_patterns)
from .semicocycle import (DStage, FullShift, LevelFamily, SturmianFibonacci,
                          build_d_stage, build_f_family, build_level_family,
                          check_translate_disjointness, f5_eval, f6_eval,
                          heads_and_special, realize_prefix, toeplitz5_window)

__all__ = [name for name in dir() if not name.startswith("_")]
