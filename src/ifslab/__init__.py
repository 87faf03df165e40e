"""ifslab: exact-arithmetic laboratory for a one-parameter Moebius IFS family.

The family consists of three contractions of [0, 2t/3],

    x/(4x+4),   x/4,   x/4 + t/2     (t > 0),

the first two sharing the fixed point 0.  The package computes, at desk
scale and with exact rational arithmetic wherever possible: level-n
dimension brackets around the conformal dimension, subsystem convergence
reports, exact-overlap and semigroup-relation searches, freeness residue
certificates, cylinder-geometry verdicts with parameter windows, attractor
box-counting, and cylinder-weight (natural measure) statistics.
"""

from .moebius import (
    DegenerateMapError,
    IFSInstance,
    Interval,
    Matrix2,
    MoebiusMap,
    PoleError,
    as_fraction,
    family_matrices,
    invariant_interval,
    make_family,
)
from .words import (
    SubsystemSpec,
    SubsystemVariant,
    build_subsystem,
    chain_sorted,
    cylinder,
    iter_words,
    lex_successor,
    map_of_word,
    max_level,
)
from .pressure import (
    DimensionBracket,
    DistortionEstimate,
    LevelDimension,
    PressureEstimate,
    SubsystemDimensionReport,
    dimension_bracket,
    distortion_constant,
    partition_sum,
    pressure_estimate,
    solve_level_dimension,
    subsystem_dimension_report,
)
from .separation import (
    ConjugacyResult,
    OverlapReport,
    ResidueCheck,
    SeparationReport,
    appendix_conjugacy_check,
    diophantine_metric,
    exact_overlap_search,
    fixed_point_probe,
    overlap_search_maps,
    relation_search_ABC,
    residue_freeness_check,
    sesc_metric,
)
from .geometry import (
    BoxCountEstimate,
    CommonDisjointSearch,
    MeasureEstimate,
    NondegeneracyCertificate,
    OrderRelation,
    ParameterWindow,
    PairWitness,
    ThresholdWitness,
    WindowKind,
    box_counting,
    classify_intervals,
    find_common_disjoint_parameter,
    lemma3_find_threshold,
    lemma4_extremal_disjoint,
    lemma4_extremal_threshold,
    measure_stats,
    natural_measure_stats,
    nondegeneracy_certificate,
    verify_lemma2,
    verify_lemma4,
)

__version__ = "0.1.0"
