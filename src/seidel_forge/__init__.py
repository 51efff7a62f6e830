"""Switching classes of graphs whose Seidel matrix has largest eigenvalue 3.

Exact-arithmetic pipelines connecting three pictures of the same objects:
switching classes of graphs (Seidel matrices with lambda_max <= 3), n-subsets
of the 28 pair-classes of E_8 roots meeting a fixed switching root, and
sublattices of root lattices.  Includes the omega / s / s_e count tables,
Weyl-group orbit machinery, and independent brute-force cross-checks.
"""

from .exact_linalg import IntMatrix, is_psd, max_eig_le, rank
from .seidel_core import (
    Graph,
    SwitchingClassKey,
    adjacency_matrix,
    canonical_key,
    cone,
    seidel_of_graph,
    switch,
)
from .root_lattices import (
    GramError,
    LatticeSpec,
    PairClass,
    RootVector,
    classify_root_lattice,
    generates,
    gram_determinant,
    gram_to_graph,
    inner,
    n_r,
    orth_complement_in_E8,
    pair_classes,
    reflect,
    roots,
    standard_switching_root,
)
from .weyl_orbits import PermGroup, burnside_subset_counts
from .enumeration import (
    E8Context,
    FamilyWitness,
    OmegaTable,
    STable,
    brute_force_counts,
    construct_Dst_class,
    construct_Kn_class,
    dst_witness,
    e8_context,
    kn_witness,
    omega_table,
    phi,
    phi_graph,
    s_table,
    verify_cao,
    verify_fiber_n6,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "is_psd",
    "max_eig_le",
    "rank",
    "Graph",
    "SwitchingClassKey",
    "adjacency_matrix",
    "canonical_key",
    "cone",
    "seidel_of_graph",
    "switch",
    "GramError",
    "LatticeSpec",
    "PairClass",
    "RootVector",
    "classify_root_lattice",
    "generates",
    "gram_determinant",
    "gram_to_graph",
    "inner",
    "n_r",
    "orth_complement_in_E8",
    "pair_classes",
    "reflect",
    "roots",
    "standard_switching_root",
    "PermGroup",
    "burnside_subset_counts",
    "E8Context",
    "FamilyWitness",
    "OmegaTable",
    "STable",
    "brute_force_counts",
    "construct_Dst_class",
    "construct_Kn_class",
    "dst_witness",
    "e8_context",
    "kn_witness",
    "omega_table",
    "phi",
    "phi_graph",
    "s_table",
    "verify_cao",
    "verify_fiber_n6",
    "__version__",
]
