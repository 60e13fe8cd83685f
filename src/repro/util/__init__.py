"""Small shared utilities used across the repro packages."""

from repro.util.ids import IdAllocator

__all__ = ["IdAllocator"]
