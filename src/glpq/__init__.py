"""Exact symbolic kernel for the two-parameter quantum supergroup GL_pq(1|1)."""

from .coeff import RatFunc, TruncLaurent
from .nc import Element, Presentation, anticommutator, commutator, invert_even_unit
from .poly import Pol, SymbolSet
from .report import Check, Identity, Report
from .supermatrix import Schur, SuperMatrix, matrix_power, sdet, sinverse

__version__ = "0.1.0"

__all__ = [
    "Check", "Element", "Identity", "Pol", "Presentation", "RatFunc",
    "Report", "Schur", "SuperMatrix", "SymbolSet", "TruncLaurent",
    "anticommutator", "commutator", "invert_even_unit",
    "matrix_power", "sdet", "sinverse",
]
