"""Natural duality toolkit for finite positive MV-chains.

Exact, table-based implementations of the chain algebras, the lattice of
dualizing relations, the two hom-functors with their evaluation maps,
the distributive skeleton with its Priestley-power adjunction, and the
dual-side closure properties used to classify algebraically and
existentially closed members.
"""

from .algebra import (FinAlgebra, Hom, chain_algebra, congruences,
                      hom_enumerate, is_isomorphic, is_simple,
                      pmv_membership, power, product, subalgebra_generated,
                      trivial_algebra)
from .chain import Chain, Subalgebra, chain_subalgebras, divisors
from .closure import (enumerate_xn_structures, fep_star_check,
                      fhp_star_check, is_algebraically_closed,
                      is_existentially_closed)
from .duality import (StructMorphism, StructSpace, alter_ego, dual_algebra,
                      dual_space, evaluation_e, evaluation_eps,
                      x2_axiom_check, xn_membership)
from .errors import (AxiomViolationError, BudgetExceededError,
                     InvalidElementError, MalformedSequenceError,
                     NonMemberError, NotASubalgebraError, SizeLimitError,
                     WrongSignatureError)
from .relations import (BinRel, GoodSeq, compute_Sn, good_sequence_witness,
                        is_good_sequence, meet_irreducibles, rel_to_seq,
                        seq_to_rel, sn_relations, square_subalgebras_oracle)
from .skeleton import (adjunction_check, boolean_power, priestley_dual,
                       priestley_power, skeleton, skeleton_unit)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolationError", "BinRel", "BudgetExceededError", "Chain",
    "FinAlgebra", "GoodSeq", "Hom", "InvalidElementError",
    "MalformedSequenceError", "NonMemberError", "NotASubalgebraError",
    "SizeLimitError", "StructMorphism", "StructSpace", "Subalgebra",
    "WrongSignatureError", "adjunction_check", "alter_ego", "boolean_power",
    "chain_algebra", "chain_subalgebras", "compute_Sn", "congruences",
    "divisors", "dual_algebra", "dual_space", "enumerate_xn_structures",
    "evaluation_e", "evaluation_eps", "fep_star_check", "fhp_star_check",
    "good_sequence_witness", "hom_enumerate", "is_algebraically_closed",
    "is_existentially_closed", "is_good_sequence", "is_isomorphic",
    "is_simple", "meet_irreducibles", "pmv_membership", "power",
    "priestley_dual", "priestley_power", "product", "rel_to_seq",
    "seq_to_rel", "skeleton", "skeleton_unit", "sn_relations",
    "square_subalgebras_oracle", "subalgebra_generated", "trivial_algebra",
    "x2_axiom_check", "xn_membership",
]
