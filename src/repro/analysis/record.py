"""The one analysis record of a function.

Everything the sequential analyses know about one function lives here,
computed once: the CFG maps, operand users, dominator tree and
single-store locals, the module's alias analysis, the natural loops,
the memory accesses with their affine offsets, the memory dependences,
and the per-loop questions the planner and the optimizer both ask
(which objects does this loop touch, which are live-out, reducible,
privatizable, removable, carried).  The PDG keeps this record
(``pdg.analyses``), the PS-PDG its PDG, and every codegen lowering and
run is handed it, so all read the same analyses — one ``Loop`` per
header, one ``MemoryObject`` per storage.  A caller with no session
builds a record; :meth:`FunctionAnalyses.of` gives its siblings.

Each part is computed on first use, so asking for ``alias`` alone costs
the alias analysis alone.
"""

import functools

from repro.analysis.affine import forwarded_store, single_stores
from repro.analysis.alias import AliasAnalysis
from repro.analysis.cfg import operand_users, predecessors_map, successors_map
from repro.analysis.dominators import compute_dominator_tree
from repro.analysis.liveness import live_out_objects
from repro.analysis.loops import find_natural_loops
from repro.analysis.memdep import MemoryDependenceAnalysis, collect_accesses
from repro.analysis.privatization import sequentially_privatizable_objects
from repro.analysis.reductions import find_scalar_reductions
from repro.ir.values import Argument, GlobalVariable


def _once_per_loop(query):
    """Memoize a ``query(record, loop)`` function as a record method."""

    @functools.wraps(query)
    def memoized(self, loop):
        key = (query.__name__, loop)
        if key not in self._per_loop:
            self._per_loop[key] = query(self, loop)
        return self._per_loop[key]

    return memoized


class FunctionAnalyses:
    """Sequential analyses of ``function`` within ``module``, each once.

    No part refers back to the record, so a dropped one is freed at once.
    """

    def __init__(self, function, module):
        self.function = function
        self.module = module
        self._siblings = {}  # function name -> its record
        self._per_loop = {}

    def of(self, function):
        """The record of ``function``, a function of the same module:
        this one, or a sibling built on first request."""
        if function is self.function:
            return self
        record = self._siblings.get(function.name)
        if record is None:
            record = self._siblings[function.name] = FunctionAnalyses(
                function, self.module
            )
        return record

    # -- whole-function facts ---------------------------------------------------

    @functools.cached_property
    def successors(self):
        """Block -> its successor list: the CFG every other fact walks."""
        return successors_map(self.function)

    @functools.cached_property
    def predecessors(self):
        return predecessors_map(self.successors)

    @functools.cached_property
    def users(self):
        """``id(value)`` -> the instructions using it, once per operand."""
        return operand_users(self.function)

    @functools.cached_property
    def dominators(self):
        return compute_dominator_tree(self)

    @functools.cached_property
    def single_stores(self):
        """Scalar local -> its one store, when its address never escapes."""
        return single_stores(self.function, self.users)

    #: ``forward(load)``: the single store a load of a local reads, else
    #: ``None`` (:func:`~repro.analysis.affine.forwarded_store`).
    forward = forwarded_store

    # -- whole-function analyses ----------------------------------------------

    @functools.cached_property
    def alias(self):
        """Module-wide alias analysis (interns the memory objects)."""
        return AliasAnalysis(self.module)

    @functools.cached_property
    def loops(self):
        """Natural loops, outermost first by header position."""
        return find_natural_loops(self)

    @functools.cached_property
    def loops_by_header(self):
        return {loop.header.name: loop for loop in self.loops}

    @functools.cached_property
    def loops_of_block(self):
        """Block -> the loops containing it, innermost first."""
        chains = dict.fromkeys(self.function.blocks, ())
        # Parents first, so a loop's header already holds its parent's.
        for loop in sorted(self.loops, key=lambda loop: loop.depth):
            chain = (loop, *chains[loop.header])
            chains.update(dict.fromkeys(loop.blocks, chain))
        return chains

    @functools.cached_property
    def iv_map(self):
        """Induction alloca -> its canonical loop."""
        return {
            loop.canonical.induction: loop
            for loop in self.loops if loop.canonical is not None
        }

    @functools.cached_property
    def accesses(self):
        """Every :class:`MemoryAccess` of the function, in program order."""
        return collect_accesses(self)

    @functools.cached_property
    def accesses_by_object(self):
        by_object = {}
        for access in self.accesses:
            by_object.setdefault(access.obj, []).append(access)
        return by_object

    @functools.cached_property
    def dependences(self):
        """The function's :class:`MemoryDependence` edges."""
        return MemoryDependenceAnalysis(self).run()

    @functools.cached_property
    def positions(self):
        """Instruction -> index within its basic block."""
        return {
            inst: index
            for block in self.function.blocks
            for index, inst in enumerate(block.instructions)
        }

    def storage_object(self, storage):
        """The memory object behind an alloca, global or argument."""
        if isinstance(storage, GlobalVariable):
            return self.alias.object_for_global(storage)
        if isinstance(storage, Argument):
            return self.alias.object_for_argument(storage)
        return self.alias.object_for_alloca(storage)

    # -- per-loop queries -----------------------------------------------------

    def once(self, query, loop):
        """``query(loop)`` for a query another layer owns, answered once
        per loop like the ones below."""
        key = (query, loop)
        if key not in self._per_loop:
            self._per_loop[key] = query(loop)
        return self._per_loop[key]

    @_once_per_loop
    def loop_accesses(self, loop):
        """object -> its accesses inside ``loop``, in program order."""
        by_object = {}
        for access in self.accesses:
            if access.instruction.parent in loop.blocks:
                by_object.setdefault(access.obj, []).append(access)
        return by_object

    # The analyses of the sibling modules take ``(record, loop)``: bound
    # here as methods, each answered once per loop.
    live_out = _once_per_loop(live_out_objects)
    scalar_reductions = _once_per_loop(find_scalar_reductions)
    privatizable = _once_per_loop(sequentially_privatizable_objects)

    @_once_per_loop
    def removable(self, loop):
        """Objects whose carried dependences any planner may break: the
        induction variable (its update chain is regenerable), recognized
        reductions and privatizable scalars — sequential techniques every
        abstraction has available."""
        removable = set(self.privatizable(loop))
        removable.update(
            reduction.obj for reduction in self.scalar_reductions(loop)
        )
        if loop.canonical is not None:
            removable.add(self.storage_object(loop.canonical.induction))
        return removable

    @_once_per_loop
    def carried_at(self, loop):
        """object -> the first memory dependence ``loop`` carries on it."""
        carried = {}
        for dependence in self.dependences:
            if loop in dependence.carried_loops:
                carried.setdefault(dependence.obj, dependence)
        return carried
