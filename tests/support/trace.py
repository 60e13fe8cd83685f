"""A traced sequential run: every cross-iteration memory dependence.

:class:`TracingInterpreter` runs a function on the plain interpreter and
watches it.  It wraps the decoded ops of ``Load``, ``Store`` and
``Alloca`` (the :data:`~repro.emulator.interp._DECODERS` entries) to see
which slot each access touches, and ``Call`` to charge a callee's
accesses to the call instruction that made them.  Its
``_maybe_run_parallel_loop`` hook, called on every block transition,
never takes over: it keeps the stack of running loops, each as
``(instance, iteration, loop)``, so every access carries its loop
context.

Two accesses to one slot, the earlier one a write or the later one a
write, in two iterations of one instance of a loop (and in the same
instance and iteration of every loop around it), are a dependence
carried at that loop: flow from the slot's last write to a read,
output from it to the next write, anti from the reads since it to that
write.  Of the reads of one instruction since the last write, the first
and the last are kept.  :attr:`TracingInterpreter.dependences` holds
``(loop, source, destination, kind)``, kinds spelled as the PDG's
memory edges spell them.
"""

import itertools

from repro.emulator.interp import Interpreter, decode_block, operand_getter
from repro.ir import instructions as insts


def _carrier(earlier, later):
    """The loop whose iterations the two contexts differ in first."""
    for (instance, iteration, loop), (other, other_iteration, _) in zip(
        earlier, later
    ):
        if instance != other:
            return None
        if iteration != other_iteration:
            return loop
    return None


class TracingInterpreter(Interpreter):
    """The interpreter, recording the carried dependences of one
    function's run over its analysis record's ``loops``."""

    def __init__(self, module, function, loops):
        super().__init__(module)
        self._traced = function
        self._headers = {loop.header: loop for loop in loops}
        self._instances = itertools.count()
        self._stack = []
        self._context = ()
        self._calling = None  # the traced frame's call now running
        self._slots = {}  # (id(storage), offset) -> [write, reads]
        self._storages = {}  # id(storage) -> storage, kept alive
        self.dependences = set()

    def _decode(self, block):
        ops = decode_block(block)
        code = self._decoded[block] = tuple(
            self._wrap(inst, op) for inst, op in zip(block.instructions, ops)
        )
        return code

    def _wrap(self, inst, op):
        if isinstance(inst, (insts.Load, insts.Store)):
            address = operand_getter(inst.pointer)
            write = isinstance(inst, insts.Store)

            def traced(interp, frame):
                op(interp, frame)
                storage, offset = address(interp, frame)
                interp._touch(inst, storage, offset, write)

            return traced
        if isinstance(inst, insts.Alloca):

            def allocated(interp, frame):
                op(interp, frame)
                storage = frame.objects[inst]
                interp._storages[id(storage)] = storage

            return allocated
        if isinstance(inst, insts.Call):

            def called(interp, frame):
                outer = interp._calling
                if outer is None and frame.function is interp._traced:
                    interp._calling = inst
                try:
                    op(interp, frame)
                finally:
                    interp._calling = outer

            return called
        return op

    def _touch(self, inst, storage, offset, write):
        site = self._calling or inst
        context = self._context
        self._storages.setdefault(id(storage), storage)
        slot = self._slots.setdefault((id(storage), offset), [None, {}])
        last, reads = slot
        if last is not None:
            loop = _carrier(last[1], context)
            if loop is not None:
                self.dependences.add(
                    (loop, last[0], site, "WAW" if write else "RAW")
                )
        if not write:
            seen = reads.get(site)
            if seen is None:
                reads[site] = [context, context]
            else:
                seen[1] = context
            return
        for read, contexts in reads.items():
            for seen in contexts:
                loop = _carrier(seen, context)
                if loop is not None:
                    self.dependences.add((loop, read, site, "WAR"))
        slot[0] = (site, context)
        slot[1] = {}

    def _maybe_run_parallel_loop(self, next_block, from_block, frame):
        if frame.function is not self._traced:
            return None
        stack = self._stack
        while stack and next_block not in stack[-1][2].blocks:
            stack.pop()
        loop = self._headers.get(next_block)
        if loop is not None:
            if stack and stack[-1][2] is loop:
                instance, iteration, _ = stack.pop()
                stack.append((instance, iteration + 1, loop))
            else:
                stack.append((next(self._instances), 0, loop))
        self._context = tuple(stack)
        return None


def missing_edges(pdg, function_name="main"):
    """The dependences a traced run of ``pdg``'s function shows that no
    memory edge carried at the same loop, between the same two
    instructions and of the same kind, covers."""
    analyses = pdg.analyses
    interpreter = TracingInterpreter(
        analyses.module, analyses.function, analyses.loops
    )
    interpreter.run(function_name)
    static = {
        (loop, edge.source, edge.destination, edge.mem_kind)
        for edge in pdg.edges
        for loop in edge.carried_loops
    }
    return sorted(
        (
            (loop.header.name, source.uid, destination.uid, kind)
            for loop, source, destination, kind in interpreter.dependences
            if (loop, source, destination, kind) not in static
        ),
    )
