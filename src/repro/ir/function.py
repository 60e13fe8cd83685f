"""Functions and modules of the repro IR."""

from repro.ir.basicblock import BasicBlock
from repro.ir.types import VOID
from repro.ir.values import Argument, GlobalVariable
from repro.util.errors import IRError


class Function:
    """A function: typed arguments, a CFG of basic blocks, and annotations.

    Two side tables carry frontend-produced metadata that the PS-PDG builder
    consumes (mirroring the paper's "IR with custom metadata", Fig. 12):

    ``loop_info``
        Maps a loop *header block name* to a :class:`CanonicalLoop` record
        (induction variable alloca, bounds, step) for loops lowered from
        structured ``for`` statements, giving DOALL its known trip counts.

    ``annotations``
        Ordered list of directive region annotations
        (:class:`repro.frontend.directives.RegionAnnotation`).
    """

    def __init__(self, name, arg_types=(), arg_names=(), return_type=VOID):
        if arg_names and len(arg_names) != len(arg_types):
            raise IRError("arg_names and arg_types must have equal length")
        names = list(arg_names) or [f"arg{i}" for i in range(len(arg_types))]
        self.name = name
        self.return_type = return_type
        self.args = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(arg_types, names))
        ]
        self.blocks = []
        self._block_names = {}
        self._next_uid = 0
        self.loop_info = {}
        self.annotations = []

    # -- construction ------------------------------------------------------

    def allocate_uid(self):
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def create_block(self, name):
        """Create and append a new uniquely-named basic block."""
        unique = name
        counter = 1
        while unique in self._block_names:
            unique = f"{name}.{counter}"
            counter += 1
        block = BasicBlock(unique, parent=self)
        self._block_names[unique] = block
        self.blocks.append(block)
        return block

    def block(self, name):
        try:
            return self._block_names[name]
        except KeyError:
            raise IRError(f"no block named {name!r} in @{self.name}") from None

    @property
    def entry(self):
        if not self.blocks:
            raise IRError(f"function @{self.name} has no blocks")
        return self.blocks[0]

    # -- iteration ------------------------------------------------------------

    def instructions(self):
        """Iterate all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self):
        return sum(len(b.instructions) for b in self.blocks)

    def __repr__(self):
        return f"<function @{self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A translation unit: named globals plus named functions."""

    def __init__(self, name="module"):
        self.name = name
        self.functions = {}
        self.globals = {}
        # Free-form metadata side table (e.g. the frontend records the set
        # of threadprivate global names under "threadprivate").
        self.metadata = {}

    def add_function(self, function):
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        self.functions[function.name] = function
        return function

    def create_function(self, name, arg_types=(), arg_names=(), return_type=VOID):
        return self.add_function(
            Function(name, arg_types, arg_names, return_type)
        )

    def add_global(self, name, value_type, initializer=None):
        if name in self.globals:
            raise IRError(f"duplicate global @{name}")
        gvar = GlobalVariable(name, value_type, initializer)
        self.globals[name] = gvar
        return gvar

    def function(self, name):
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function @{name} in module") from None

    def __repr__(self):
        return (
            f"<module {self.name}: {len(self.globals)} globals, "
            f"{len(self.functions)} functions>"
        )
