"""Toolkit for linear complementary dual (LCD) codes over GF(2), GF(3), GF(4).

Core objects: FieldSpec / LinearCode / HullInfo / WeightDistribution.
Construction engines live in lcdkit.construct, minimum-distance bound
propagation in lcdkit.bounds, embedded reference data in lcdkit.corpus,
and the command line in lcdkit.cli.
"""

from .gf import GF2, GF3, GF4H, FieldSpec, field_by_name
from .codes import (
    BudgetExceeded,
    CodeError,
    EmptyCode,
    HullInfo,
    LinearCode,
    WeightDistribution,
    dual,
    hull,
    is_even_like,
    is_lcd,
    min_weight,
    new_code,
    parse_code,
    puncture,
    read_code_file,
    shorten,
    weight_distribution,
    write_code_file,
)

__all__ = [
    "GF2",
    "GF3",
    "GF4H",
    "FieldSpec",
    "field_by_name",
    "BudgetExceeded",
    "CodeError",
    "EmptyCode",
    "HullInfo",
    "LinearCode",
    "WeightDistribution",
    "dual",
    "hull",
    "is_even_like",
    "is_lcd",
    "min_weight",
    "new_code",
    "parse_code",
    "puncture",
    "read_code_file",
    "shorten",
    "weight_distribution",
    "write_code_file",
]

__version__ = "0.1.0"
