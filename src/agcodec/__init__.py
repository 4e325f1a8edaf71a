"""Evaluation codes on Miura-Kamiya plane curves, with an interpolation
decoder driven by Groebner bases of modules and majority voting."""

from .code import (Code, VectorParseError, code_from_config, format_vector,
                   hermitian_decoding_distance, parse_vector,
                   points_ideal_basis, radius_rows, rational_points)
from .curvering import Curve, Monomial, RingElement, Semigroup
from .decoder import (DOWN, STATUS_FAILED, STATUS_LOW_CONFIDENCE, STATUS_OK,
                      UP, DecodeResult, GBState, ModulePair, VoteRecord,
                      decode, hamming_distance, initial_basis, leading, shift,
                      spoly, step, vote)
from .gf import Field, FieldElement, canonical_key
from .oracle import OracleReport, check_gb, lcm_check, nearest_codeword

__version__ = "0.1.0"

__all__ = [
    "Code", "Curve", "DOWN", "DecodeResult", "Field", "FieldElement",
    "GBState", "ModulePair", "Monomial", "OracleReport", "RingElement",
    "STATUS_FAILED", "STATUS_LOW_CONFIDENCE", "STATUS_OK", "Semigroup", "UP",
    "VectorParseError", "VoteRecord", "canonical_key", "check_gb",
    "code_from_config", "decode", "format_vector", "hamming_distance",
    "hermitian_decoding_distance", "initial_basis", "lcm_check", "leading",
    "nearest_codeword", "parse_vector", "points_ideal_basis", "radius_rows",
    "rational_points", "shift", "spoly", "step", "vote",
]
