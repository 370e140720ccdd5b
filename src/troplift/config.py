"""Run configuration: truncation order, enumeration bound, seed, format.

Precedence when the CLI resolves a value: flags, then environment
variables (TROPLIFT_SEED, TROPLIFT_TRUNC, TROPLIFT_MAX_N, TROPLIFT_FORMAT),
then these defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeLimit
from .tropmat import TropMatrix

MAX_ENUMERATION_BOUND = 8
DEFAULT_SEED = 1
TRUNCATION_MARGIN = 20


@dataclass
class Config:
    truncation_order: Fraction | None = None  # None: derived per input
    enumeration_bound: int = MAX_ENUMERATION_BOUND
    seed: int = DEFAULT_SEED
    output_format: str = "json"
    acknowledge_large: bool = False

    def __post_init__(self):
        if self.enumeration_bound > MAX_ENUMERATION_BOUND and not self.acknowledge_large:
            raise SizeLimit(
                f"enumeration bound above {MAX_ENUMERATION_BOUND} needs acknowledge_large"
            )


def default_truncation(a: TropMatrix) -> Fraction:
    """Series order deep enough for every verification identity on this input:
    (largest entry magnitude) * n plus TRUNCATION_MARGIN."""
    return a.max_abs() * max(a.rows, a.cols) + TRUNCATION_MARGIN
