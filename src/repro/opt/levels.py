"""Optimization levels: which passes run over a chosen plan.

Kept free of heavy imports so :mod:`repro.pipeline.config` can embed an
:class:`OptLevel` in the frozen session configuration (and therefore in
every downstream cache key) without dragging the pass implementations —
and their analysis dependencies — into config construction.
"""

import enum


class OptLevel(enum.IntEnum):
    """``-O0`` (no transforms) / ``-O1`` (local: sync elimination +
    small-region serialization) / ``-O2`` (``-O1`` + parallel-region
    fusion) / ``-O3`` (``-O2`` + machine-model tiling)."""

    O0 = 0
    O1 = 1
    O2 = 2
    O3 = 3

    @classmethod
    def coerce(cls, value):
        """An :class:`OptLevel` from 2, "2", "O2", "-O2", or an OptLevel."""
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ValueError(f"not an optimization level: {value!r}")
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, str):
            text = value.strip().lstrip("-")
            if text.upper().startswith("O"):
                text = text[1:]
            if text.isdigit():
                return cls(int(text))
            raise ValueError(f"not an optimization level: {value!r}")
        raise ValueError(f"not an optimization level: {value!r}")

    @property
    def flag(self):
        return f"-O{int(self)}"

    def __repr__(self):  # stable across python versions, cache-key safe
        return f"OptLevel.{self.name}"
