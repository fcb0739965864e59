"""Exact-arithmetic toolkit for edge posets of finite graded posets, quotients
by permutation-group actions, common-cover-transitivity tests, and
Peck/Sperner verification."""

from .actions import (
    CCTResult,
    PosetAction,
    QuotientPoset,
    action_on_edges,
    check_cct_triple,
    complement_self_duality,
    induced_bn_action,
    is_cct,
    product_action,
    q_map,
    quotient,
    wreath_action,
)
from .edges import (
    EdgePoset,
    edge_dual_witness,
    edge_map,
    edge_poset,
    edge_poset_to_json,
    h_bn_decomposition,
    h_poset,
    h_to_e_bijection,
    naive_edge_relation_is_graded,
)
from .peck import (
    ChainDecomposition,
    ExactMatrix,
    brute_force_k_antichain_union,
    is_peck,
    is_strongly_sperner,
    is_unitary_peck,
    lefschetz_power_rank,
    max_k_antichain_union,
    rank_profile,
    scd_boolean,
    scd_h_boolean,
    scd_transport,
)
from .perms import (
    PermGroup,
    Permutation,
    RootedTree,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian_2,
    hyperoctahedral,
    left_regular,
    named_group,
    rooted_tree,
    subgroup_sweep,
    symmetric,
    tree_automorphisms,
    tree_from_children,
    trivial,
    wreath,
)
from .partitions import (
    Partition,
    nu,
    p_count,
    pak_sequence_check,
    partitions_in_box,
    young_representative,
)
from .poset import (
    GradedPoset,
    PosetMorphism,
    antichain,
    boolean_algebra,
    chain,
    combine,
    disjoint_union,
    is_isomorphic,
    is_self_dual,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
