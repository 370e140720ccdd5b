"""Run configuration: enumeration bound, seed, format.

Precedence when the CLI resolves a value: flags, then environment
variables (TROPLIFT_SEED, TROPLIFT_MAX_N, TROPLIFT_FORMAT), then these
defaults.  No setting reaches the series truncation: the one truncated
step, the square root of the symmetric quadratic solve, runs to
default_truncation of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeLimit
from .tropmat import TropMatrix

MAX_ENUMERATION_BOUND = 8
DEFAULT_SEED = 1
OUTPUT_FORMATS = ("json", "dot", "text")
TRUNCATION_MARGIN = 20


@dataclass
class Config:
    enumeration_bound: int = MAX_ENUMERATION_BOUND
    seed: int = DEFAULT_SEED
    output_format: str = "json"
    acknowledge_large: bool = False

    def __post_init__(self):
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output format {self.output_format!r} is not one of {OUTPUT_FORMATS}")
        if self.enumeration_bound > MAX_ENUMERATION_BOUND and not self.acknowledge_large:
            raise SizeLimit(
                f"enumeration bound above {MAX_ENUMERATION_BOUND} needs acknowledge_large"
            )


def default_truncation(a: TropMatrix) -> Fraction:
    """Series order of the symmetric solve's square root, deep enough for
    every verification identity on this input: (largest entry magnitude)
    * n plus TRUNCATION_MARGIN."""
    return a.max_abs() * max(a.rows, a.cols) + TRUNCATION_MARGIN
