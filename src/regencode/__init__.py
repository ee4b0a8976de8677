"""Exact-repair regenerating codes: tradeoff formulas, constructions, verification."""

from .constructions import (
    blowup_full,
    blowup_simple,
    concat,
    copy_blowup,
    filenode_blowup,
    iterate,
)
from .dss import (
    BandwidthReport,
    InputError,
    LinearDss,
    ResourceError,
    encode,
    reconstruct,
    repair,
    rs_base,
    to_json,
)
from .gf import GF2, GF16, GF256, FieldMatrix, FieldSpec, mat_rank, mat_solve
from .tradeoff import (
    AsymptoticSetup,
    OperatingPoint,
    RangeError,
    SplitSpec,
    SystemParams,
    asymptotic_fraction,
    closecase_fraction,
    functional_capacity,
    lift_bound,
    mbr_point,
    msr_point,
    perf_p1,
    perf_p1_interpolated,
    perf_p2,
    perf_p3,
    perf_p4,
    split_params,
    timeshare_bound,
)
from .verifier import VerificationReport, measure_and_compare

__version__ = "0.1.0"
