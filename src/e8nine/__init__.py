"""Certified construction of the nine-fold structures inside the E8 lattice."""

from .autgroup import (
    BlockAction,
    OneBlockReport,
    block_action,
    compute_stabilizer,
    one_block_stabilizer_analysis,
)
from .blocks import (
    Norm4Block,
    Norm4Partition,
    build_partition,
    certify_d8_glue,
    certify_scaled_e8,
    spread_from_partition,
)
from .frames import Frame, FrameArray, build_frame_array, orthogonal_pair_census, three_spaces
from .gf2 import (
    F2Subspace,
    FormTable,
    SpaceClass,
    build_forms,
    classify,
    double_profile,
    enumerate_isotropic_4spaces,
    intersection_profile,
    mod2_census,
    reduce_mod2,
)
from .lattice import (
    Lattice,
    RootPair,
    build_lattice,
    enumerate_shell,
    inner,
    recognize_d8,
    recognize_even_unimodular_e8,
    root_pairs,
)
from .permgroup import schreier_sims
from .spreadsearch import Spread, find_spread, verify_spread

__version__ = "0.1.0"

__all__ = [
    "BlockAction",
    "F2Subspace",
    "FormTable",
    "Frame",
    "FrameArray",
    "Lattice",
    "Norm4Block",
    "Norm4Partition",
    "OneBlockReport",
    "RootPair",
    "SpaceClass",
    "Spread",
    "block_action",
    "build_forms",
    "build_frame_array",
    "build_lattice",
    "build_partition",
    "certify_d8_glue",
    "certify_scaled_e8",
    "classify",
    "compute_stabilizer",
    "double_profile",
    "enumerate_isotropic_4spaces",
    "enumerate_shell",
    "find_spread",
    "inner",
    "intersection_profile",
    "mod2_census",
    "one_block_stabilizer_analysis",
    "orthogonal_pair_census",
    "recognize_d8",
    "recognize_even_unimodular_e8",
    "reduce_mod2",
    "root_pairs",
    "schreier_sims",
    "spread_from_partition",
    "three_spaces",
    "verify_spread",
]
