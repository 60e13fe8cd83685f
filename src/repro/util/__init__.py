"""Small shared utilities used across the repro packages."""

from repro.util.errors import (
    IRError,
    FrontendError,
    AnalysisError,
    PlanError,
    VerificationError,
)
from repro.util.ids import IdAllocator

__all__ = [
    "IRError",
    "FrontendError",
    "AnalysisError",
    "PlanError",
    "VerificationError",
    "IdAllocator",
]
