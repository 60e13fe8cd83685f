"""Basic blocks: straight-line instruction sequences ended by a terminator."""

from repro.ir.instructions import Terminator
from repro.util.errors import IRError


class BasicBlock:
    """A labeled sequence of instructions with exactly one terminator.

    Blocks know their parent function; predecessor/successor queries are
    computed from terminators on demand (the CFG is small and mutations are
    rare after construction).
    """

    def __init__(self, name, parent=None):
        self.name = name
        self.parent = parent
        self.instructions = []

    # -- construction ------------------------------------------------------

    def append(self, instruction):
        """Insert ``instruction`` at the end of the block.

        Assigns the function-unique ``uid`` and sets ``parent``.  Appending
        past a terminator is an error: dead instructions would silently be
        skipped by the interpreter and hide frontend bugs.
        """
        if self.is_terminated():
            raise IRError(
                f"block {self.name!r} already has a terminator; "
                f"cannot append {instruction.opcode}"
            )
        instruction.parent = self
        if self.parent is not None:
            instruction.uid = self.parent.allocate_uid()
        self.instructions.append(instruction)
        return instruction

    # -- structure queries ---------------------------------------------------

    @property
    def terminator(self):
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    def is_terminated(self):
        return self.terminator is not None

    def successors(self):
        term = self.terminator
        return term.successors() if term is not None else []

    def __iter__(self):
        return iter(self.instructions)

    def __repr__(self):
        return f"<block {self.name} ({len(self.instructions)} insts)>"
