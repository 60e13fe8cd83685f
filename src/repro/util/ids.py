"""Deterministic unique-id allocation.

Contexts, hierarchical nodes, and IR values all need stable unique
identifiers.  Ids are allocated per-allocator and are deterministic for a
given construction order, which keeps printed IR and canonical graph forms
stable across runs (important for golden tests).
"""


class IdAllocator:
    """Hands out consecutive integer ids, optionally tagged with a prefix.

    >>> ids = IdAllocator("ctx")
    >>> ids.fresh()
    'ctx0'
    >>> ids.fresh()
    'ctx1'
    >>> IdAllocator().fresh()
    0
    """

    def __init__(self, prefix=None):
        self._prefix = prefix
        self._next = 0

    def fresh(self):
        """Return the next unused id."""
        value = self._next
        self._next += 1
        if self._prefix is None:
            return value
        return f"{self._prefix}{value}"
