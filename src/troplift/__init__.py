"""troplift: exact min-plus linear algebra with certified Puiseux lifts.

Tropical determinants and rank notions, the rank-2 bicolored tree
correspondence, Newton-polytope predicates for the symmetric determinant,
membership oracles for four field modes, and constructive lift
certificates checked by an independent symbolic verifier.
"""

from .config import Config, default_truncation
from .lifts import (
    lift_corank1,
    lift_rank2_positive,
    lift_rank2_real,
    lift_sym_caterpillar,
    lift_sym_corank1,
    lift_sym_rank2_real,
)
from .membership import (
    MembershipVerdict,
    member_corank1,
    member_rank2,
    member_sym_corank1,
    member_sym_rank2,
)
from .monomials import SignedMonomialClass, sym_det_monomials
from .newton import (
    NewtonEdge,
    birkhoff_edge,
    initial_form,
    polytope_edges,
    polytope_vertices,
)
from .puiseux import PuiseuxSeries, ps_inv, ps_sqrt, quad_roots
from .quadext import QuadExt
from .trees import (
    BicoloredTree,
    is_caterpillar,
    one_fixed_point,
    symbic_classify,
    tree_from_rank2,
    tree_to_matrix,
)
from .tropical import (
    TropDetResult,
    barvinok_rank2,
    sym_barvinok_rank2,
    sym_trop_det,
    sym_trop_rank,
    trop_det,
    trop_rank,
)
from .tropmat import TropMatrix, trop_mat_mul
from .verify import CLAIMS, POSITIVITIES, LiftCertificate, verify_lift

__version__ = "0.1.0"
