"""Exact-arithmetic toolkit for the multi-type TASEP on a ring,
multiline queues, and the associated counting formulas and chains."""

__version__ = "0.1.0"

from .core import (
    RingWord,
    TypeVector,
    VACANT,
    binomial,
    rat_str,
    reverse_permutation,
)
from .mlq import Arrangement, DiscreteMLQ, LabeledMLQ, bottom_word, label_mlq

__all__ = [
    "Arrangement",
    "DiscreteMLQ",
    "LabeledMLQ",
    "RingWord",
    "TypeVector",
    "VACANT",
    "binomial",
    "bottom_word",
    "label_mlq",
    "rat_str",
    "reverse_permutation",
    "__version__",
]
