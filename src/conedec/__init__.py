"""Exact conic decompositions of rational polytopes.

Decomposes polytopes into cones four ways (alternating tangent-cone sum,
vertex generating functions, polar decomposition plain and weighted, and
polar decomposition at non-simple vertices via regular triangulations of
normal cones), counts lattice points by specializing generating functions,
and machine-verifies every identity against brute-force oracles.
"""

from .corpus import CorpusEntry, build_corpus, pentagon_cone, pyramid
from .deform import (LiftedTriangulation, LocalContribution, SimpleConeFrame,
                     compatible_decomposition, compatible_from_dual,
                     local_contribution, local_contributions,
                     nonsimple_decomposition, normal_cone_rays,
                     positive_conic_check, t_sigma, vertex_triangulation)
from .genfunc import (GFTerm, RationalGF, brion_gf, brute_force_count,
                      count_lattice_points, enumerate_parallelepiped,
                      gf_brute_force, gf_equal_as_functions,
                      gf_of_indicator_sum, gf_of_piece, gf_pretty,
                      gf_simplicial_cone, make_term, specialize)
from .indicators import (IndicatorSum, LocallyClosedPiece, VerificationReport,
                         ZPoly, default_box, gram_decomposition,
                         indicator_of_interior, indicator_of_polytope, piece,
                         verify_identity, verify_identity_exact,
                         weighted_indicator, whole_space_piece)
from .linalg import frac, kernel_basis, primitive, rank
from .polar import (SimplicityError, is_generic, lv_decomposition,
                    polarization, polarized_tangent_cone, rearrange_for_vertex,
                    weighted_lv_decomposition, weighted_polarized_piece_value)
from .polyhedra import (DegenerateInput, Face, Halfspace, Polytope, binding,
                        center_at_barycenter, halfspace, is_simple_polytope,
                        is_simple_vertex, polytope_from_halfspaces,
                        polytope_from_vertices)
from .triangulation import regular_triangulation

__all__ = [name for name in dir() if not name.startswith("_")]
