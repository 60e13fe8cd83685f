"""Alias analysis: memory objects, pointer provenance, call mod/ref summaries.

The memory model is object-based.  Every ``alloca`` and every global is a
distinct *memory object*; ``getelementptr`` never escapes its base object.
Distinct pointer arguments of a function are treated as distinct objects
("restrict" semantics) — the paper's motivating example (§2.2) explicitly
relies on developer knowledge that arrays do not alias, and our frontend
only ever passes whole distinct arrays.

Calls are summarized bottom-up over the call graph with a fixpoint (so
recursion converges): for each function we compute which argument positions
and globals it may read/write, then translate the summary through each call
site's actual arguments.  ``print`` serializes through a distinguished
console object.
"""

from repro.ir.instructions import Alloca, Call, GetElementPtr, Load, Print, Store
from repro.ir.values import Argument, GlobalVariable
from repro.util.errors import AnalysisError


class MemoryObject:
    """Base class for abstract memory objects."""

    def is_scalar(self):
        return False


class AllocaObject(MemoryObject):
    """The stack object created by one alloca.

    Objects compare by the underlying IR entity, so two AliasAnalysis
    instances over the same module agree on object identity.
    """

    def __init__(self, alloca):
        self.alloca = alloca

    def is_scalar(self):
        return self.alloca.allocated_type.is_scalar()

    @property
    def display_name(self):
        return self.alloca.var_name or f"%{self.alloca.uid}"

    def __eq__(self, other):
        return isinstance(other, AllocaObject) and other.alloca is self.alloca

    def __hash__(self):
        return hash(id(self.alloca))

    def __repr__(self):
        return f"<obj alloca {self.display_name}>"


class GlobalObject(MemoryObject):
    """The module-level object behind one global variable."""

    def __init__(self, gvar):
        self.gvar = gvar

    def is_scalar(self):
        return self.gvar.value_type.is_scalar()

    @property
    def display_name(self):
        return f"@{self.gvar.name}"

    def __eq__(self, other):
        return isinstance(other, GlobalObject) and other.gvar is self.gvar

    def __hash__(self):
        return hash(id(self.gvar))

    def __repr__(self):
        return f"<obj global @{self.gvar.name}>"


class ArgumentObject(MemoryObject):
    """The object a pointer argument refers to, seen from inside the callee."""

    def __init__(self, argument):
        self.argument = argument

    def is_scalar(self):
        return self.argument.type.pointee.is_scalar()

    @property
    def display_name(self):
        return f"%{self.argument.name}"

    def __eq__(self, other):
        return (
            isinstance(other, ArgumentObject)
            and other.argument is self.argument
        )

    def __hash__(self):
        return hash(id(self.argument))

    def __repr__(self):
        return f"<obj arg %{self.argument.name}>"


class ConsoleObject(MemoryObject):
    """Distinguished object serializing observable output (print)."""

    display_name = "<console>"

    def __eq__(self, other):
        return isinstance(other, ConsoleObject)

    def __hash__(self):
        return hash("console")

    def __repr__(self):
        return "<obj console>"


CONSOLE = ConsoleObject()


class AliasAnalysis:
    """Per-module alias information with call summaries.

    Usage::

        aa = AliasAnalysis(module)
        obj = aa.base_object(pointer_value, function)
        reads, writes = aa.call_effects(call_inst, function)
    """

    def __init__(self, module):
        self.module = module
        self._alloca_objects = {}
        self._global_objects = {}
        self._argument_objects = {}
        self._summaries = self._compute_summaries()

    # -- object interning ----------------------------------------------------

    def object_for_alloca(self, alloca):
        if alloca not in self._alloca_objects:
            self._alloca_objects[alloca] = AllocaObject(alloca)
        return self._alloca_objects[alloca]

    def object_for_global(self, gvar):
        if gvar not in self._global_objects:
            self._global_objects[gvar] = GlobalObject(gvar)
        return self._global_objects[gvar]

    def object_for_argument(self, argument):
        if argument not in self._argument_objects:
            self._argument_objects[argument] = ArgumentObject(argument)
        return self._argument_objects[argument]

    # -- provenance --------------------------------------------------------

    def base_object(self, pointer, function):
        """The unique memory object a pointer value refers to.

        Our IR cannot store pointers to memory and GEP preserves its base,
        so provenance always resolves to exactly one object.
        """
        value = pointer
        while isinstance(value, GetElementPtr):
            value = value.pointer
        if isinstance(value, Alloca):
            return self.object_for_alloca(value)
        if isinstance(value, GlobalVariable):
            return self.object_for_global(value)
        if isinstance(value, Argument):
            return self.object_for_argument(value)
        raise AnalysisError(f"cannot resolve pointer provenance of {value!r}")

    # -- call summaries --------------------------------------------------------

    def _compute_summaries(self):
        """Fixpoint mod/ref per function over {arg index, global, console}.

        Summary keys: ``("arg", index)``, ``("global", name)``,
        ``("console",)``.
        """
        summaries = {
            name: {"reads": set(), "writes": set()}
            for name in self.module.functions
        }
        changed = True
        while changed:
            changed = False
            for name, function in self.module.functions.items():
                reads, writes = self._direct_effects(function, summaries)
                summary = summaries[name]
                if reads != summary["reads"] or writes != summary["writes"]:
                    summary["reads"] = reads
                    summary["writes"] = writes
                    changed = True
        return summaries

    def _abstract_key(self, obj, function):
        if isinstance(obj, ArgumentObject):
            return ("arg", obj.argument.index)
        if isinstance(obj, GlobalObject):
            return ("global", obj.gvar.name)
        if isinstance(obj, ConsoleObject):
            return ("console",)
        return None  # local alloca: invisible to callers

    def _direct_effects(self, function, summaries):
        reads = set()
        writes = set()
        for inst in function.instructions():
            if isinstance(inst, Load):
                key = self._abstract_key(
                    self.base_object(inst.pointer, function), function
                )
                if key:
                    reads.add(key)
            elif isinstance(inst, Store):
                key = self._abstract_key(
                    self.base_object(inst.pointer, function), function
                )
                if key:
                    writes.add(key)
            elif isinstance(inst, Print):
                writes.add(("console",))
            elif isinstance(inst, Call):
                callee_summary = summaries[inst.callee.name]
                for kind, bucket in (("reads", reads), ("writes", writes)):
                    for key in callee_summary[kind]:
                        translated = self._translate_key(key, inst, function)
                        if translated:
                            bucket.add(translated)
        return reads, writes

    def _translate_key(self, key, call, function):
        """Map a callee summary key into the caller's abstract space."""
        if key[0] in ("global", "console"):
            return key
        index = key[1]
        actual = call.operands[index]
        obj = self.base_object(actual, function)
        return self._abstract_key(obj, function)

    def call_effects(self, call, function):
        """Concrete (reads, writes) object sets for one call site."""
        summary = self._summaries[call.callee.name]
        reads = set()
        writes = set()
        for kind, bucket in (("reads", reads), ("writes", writes)):
            for key in summary[kind]:
                obj = self._concretize_key(key, call, function)
                if obj is not None:
                    bucket.add(obj)
        return reads, writes

    def _concretize_key(self, key, call, function):
        if key == ("console",):
            return CONSOLE
        if key[0] == "global":
            return self.object_for_global(self.module.globals[key[1]])
        index = key[1]
        actual = call.operands[index]
        return self.base_object(actual, function)
