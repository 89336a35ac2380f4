"""Certified free subgroups of isometry groups of hyperbolic graphs.

The package certifies, on concrete desk-scale group actions, that suitable
powers of two hyperbolic isometries generate a free group of rank two with
quasi-isometrically embedded orbits, and independently verifies every
certificate with a brute-force word oracle.
"""

from .acylindricity import AcylEntry, AcylProfile, acyl_constants, acyl_profile, constant_P
from .certifier import (
    Certificate,
    CertificateRefused,
    ThreePointsReport,
    WitnessChain,
    analyze_pair,
    build_witness_chain,
    chain_base_points,
    nielsen_certify,
    prop6_certify,
    prop7_certify,
    prop8_certify,
    resolve_constants,
    theorem9_certify,
    three_points_check,
    validate_certificate,
)
from .hyperbolicity import EdgePath, HyperbolicityReport, all_geodesics, compute_delta
from .isometry import (
    AxisData,
    AxisPair,
    IsometryProfile,
    OverlapReport,
    classify,
    displacement_power,
    independence_test,
    overlap_diameter,
    quasi_axis,
)
from .models import (
    ActionModel,
    CapExceeded,
    CycleModel,
    CyclicFreeProductModel,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    ModelError,
    Word,
    build_model,
    parse_letters,
)
from .oracle import OracleReport, SweepTable, exceptional_sweep, freeness_to_depth

__version__ = "1.0.0"
