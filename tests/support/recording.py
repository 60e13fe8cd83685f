"""Lists that remember how they were used: which slots were stored to
(``RecordingList``), and how often they were walked (``ScanCounter``).

``VERIFY_COMPILED`` and ``payload.diff_table`` compare storage
*images*, so a store that rewrites a slot's own value leaves them no
trace.  The structured-lowering corpus runs with these as its global
storages (promotion never touches a global) and asserts the compiled
body stores to exactly the slots ``run_chunk`` does.
"""

from repro.emulator.interp import Interpreter


class RecordingList(list):
    """``list`` whose ``__setitem__`` notes the slots it is given: an
    integer, or each slot of a bounded slice (a sliced loop's store).
    ``[:]`` is a harness putting a copy back, not a store."""

    def __init__(self, values=()):
        super().__init__(values)
        self.stored = set()

    def __setitem__(self, slot, value):
        if type(slot) is int:
            self.stored.add(slot)
        elif slot.start is not None:
            self.stored.update(range(*slot.indices(len(self))))
        super().__setitem__(slot, value)


class ScanCounter(list):
    """A graph's edge list that counts how often it is walked."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def record_global_stores(monkeypatch):
    """Every interpreter built from here on holds its globals in
    :class:`RecordingList` storages."""
    initial = Interpreter._initial_storage
    monkeypatch.setattr(
        Interpreter, "_initial_storage",
        lambda self, gvar: RecordingList(initial(self, gvar)),
    )
