"""Certificate-producing clique immersions and cycle-matching edge colourings.

Every graph whose independence number is at most two immerses the complete
graph on its chromatic number of vertices.  :func:`construct_immersion`
builds such an immersion; :func:`verify_immersion` replays any certificate
against the host graph.  The supporting layers — cycle-matching edge
colourings, degree-bounded factor structure, conflict-graph colourings and
faithful immersions — are exported alongside their own validators and
brute-force oracles.
"""

from .colouring import (
    CycleMatchingColouring,
    brute_force_chi_prime_r,
    cycle_matching_colouring,
    spanning_ocm_set,
    validate_cm_colouring,
)
from .construct import construct_immersion
from .decorated import (
    DecoratedColouring,
    RegionPartition,
    critical_colouring,
    validate_decorated,
)
from .errors import CertificateError, GraphError, PremiseError, SizeGuardError
from .factor import (
    DeficiencyPair,
    FactorSubgraph,
    brute_force_deficiency,
    check_factor_properties,
    deficiency,
    max_f_bounded_subgraph,
)
from .generators import (
    emit_certificate,
    emit_dot,
    emit_edge_list,
    gen_alpha2,
    gen_family,
    gen_multigraph,
    parse_certificate,
    parse_edge_list,
)
from .graphs import Multigraph, alpha_at_most_2, components_of
from .immersion import (
    Immersion,
    PairColouring,
    chi_alpha2,
    faithful_immersion,
    refine_split,
    verify_immersion,
)
from .oracles import brute_alpha, brute_chi, brute_immersion_exists
from .reporting import ValidityReport

__all__ = [
    "CertificateError",
    "CycleMatchingColouring",
    "DecoratedColouring",
    "DeficiencyPair",
    "FactorSubgraph",
    "GraphError",
    "Immersion",
    "Multigraph",
    "PairColouring",
    "PremiseError",
    "RegionPartition",
    "SizeGuardError",
    "ValidityReport",
    "alpha_at_most_2",
    "brute_alpha",
    "brute_chi",
    "brute_force_chi_prime_r",
    "brute_force_deficiency",
    "brute_immersion_exists",
    "chi_alpha2",
    "check_factor_properties",
    "components_of",
    "construct_immersion",
    "critical_colouring",
    "cycle_matching_colouring",
    "deficiency",
    "emit_certificate",
    "emit_dot",
    "emit_edge_list",
    "faithful_immersion",
    "gen_alpha2",
    "gen_family",
    "gen_multigraph",
    "max_f_bounded_subgraph",
    "parse_certificate",
    "parse_edge_list",
    "refine_split",
    "spanning_ocm_set",
    "validate_cm_colouring",
    "validate_decorated",
    "verify_immersion",
]
