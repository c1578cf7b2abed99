"""Moduli-space machinery for hyperbolic invariant sets on surfaces.

The package models a two-sided subshift of finite type with trimmed
Cantor structure on each side: Gibbs measures and their scaling
functions, solenoid functions on leaf pairs, cocycle-gap pairs that
synthesize ratio functions, interval realizations with lengths, Bowen
dimension and periodic-orbit eigenvalues, and the boundary conditions
tying the two sides together.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .builtins import (
    BUILTIN_NAMES,
    BUILTIN_TABLES_VERSION,
    Builtin,
    BuiltinSide,
    builtin,
)
from .cocycle import (
    CocycleGapPair,
    GapRatios,
    MeasureLengthCocycle,
    cocycle_gap_rows,
    constant_cocycle,
    constant_gap_ratios,
    constant_pair,
    pair_from_json,
    pair_to_json,
    synthesize_ratio,
    validate_cocycle,
)
from .errors import (
    DepthTooShallow,
    GapOnDualSide,
    InadmissibleBoundaryWord,
    InadmissiblePair,
    LengthUnderflow,
    MalformedInstance,
    MismatchedSystems,
    MissingBoundaryData,
    MissingPairValue,
    NegativeGap,
    NoCommonLeaf,
    NonConvergentEigensolve,
    NoRoot,
    NotInDomain,
    NotPrimitive,
    ParseError,
    SftGeomError,
    TooShallow,
    UnknownBuiltin,
    WordTooShort,
)
from .gibbs import (
    AdmissiblePair,
    GibbsMeasure,
    Potential,
    bernoulli_potential,
    dual_measure_ratio,
    extended_scaling,
    markov_potential,
    measure_scaling,
    potential_from_json,
    potential_to_json,
    uniform_potential,
)
from .realize import (
    DimensionReport,
    RatioTable,
    TrainTrackRealization,
    additivity_defect,
    dimension_report,
    dual_pair,
    eigenvalue,
    eigenvalue_via_measure,
    lengths_from_ratio,
    livsic_sinai_check,
    natural_measure_check,
    pressure_of,
)
from .sft import (
    BoundaryData,
    BoundaryInstance,
    CocycleGapOrbit,
    CylinderCylinderInstance,
    CylinderGapInstance,
    GapLayout,
    MatchingInstance,
    PeriodicOrbit,
    S_SIDE,
    Seg,
    SftSystem,
    U_SIDE,
    Word,
    build_sft,
    cyl,
    enumerate_cylinders,
    gap,
    mother,
    periodic_orbits,
    system_from_json,
    system_to_json,
)
from .solenoid import (
    ConditionRow,
    SolenoidSpec,
    boundary_rows,
    bounded_equivalence,
    bounded_solenoid_class_check,
    cylinder_cylinder_rows,
    cylinder_gap_rows,
    extend_scaling,
    from_gibbs,
    from_realization,
    holder_estimate,
    matching_rows,
    measure_solenoid,
    solenoid_from_json,
    solenoid_to_json,
)
