"""Dynamic loop-nest profiles.

The ideal-machine critical-path methodology (paper §6.3) needs to know, for
every dynamic loop instance, how much work each iteration did and which
static instructions it executed.  A profile covers the execution of one
*profiled function*: the whole body is a pseudo-iteration, each loop
instance entered is a child of the iteration it ran in, and instruction
executions are counted on the innermost active iteration, keyed by static
instruction uid.  Work done inside *callees* is attributed to the call
instruction in the profiled function, so plans over the profiled function
see call cost without needing callee structure.

The thousands of dynamic iterations of a kernel repeat a few dozen
structurally distinct *shapes*, so a profile is kept hash-consed into a
DAG (:meth:`FunctionProfile.shapes`): an :class:`IterationShape` is
``(counts, child instance shapes)``, an :class:`InstanceShape` is
``(header, multiset of iteration shapes)``.  Equal subtrees are one node,
so node identity is structural equality and each node's totals are
computed once.

Both engines intern each iteration into a :class:`ShapeTable` the moment
it ends and close each instance with :func:`close_instance` on loop exit:
the pipeline's profiled lowering (:mod:`repro.codegen.profile`) and the
interpreter's :class:`Profiler` — the reference, and the engine for
functions the compiler refuses.  Neither keeps a dynamic iteration past
its end.
"""


class IterationShape:
    """All dynamic iterations with equal counts and equal child shapes."""

    __slots__ = ("counts", "children", "direct", "total", "headers")

    def __init__(self, counts, children):
        self.counts = counts
        self.children = children
        self.direct = sum(counts.values())
        self.total = self.direct + sum(child.total for child in children)
        #: Headers of every loop instance nested below this iteration.
        self.headers = frozenset().union(
            *(child.headers for child in children)
        )


class InstanceShape:
    """All activations of one static loop with equal iteration multisets."""

    __slots__ = ("header_name", "iterations", "trip_count", "total",
                 "headers")

    def __init__(self, header_name, iterations):
        self.header_name = header_name
        #: ``(IterationShape, multiplicity)`` pairs, one per distinct shape.
        self.iterations = iterations
        self.trip_count = sum(mult for _shape, mult in iterations)
        self.total = sum(shape.total * mult for shape, mult in iterations)
        self.headers = frozenset((header_name,)).union(
            *(shape.headers for shape, _mult in iterations)
        )


class ShapeTable:
    """Hash-consing table: structurally equal subtrees are one node."""

    def __init__(self):
        self._nodes = {}

    def iteration(self, counts, children):
        key = (frozenset(counts.items()), children)
        shape = self._nodes.get(key)
        if shape is None:
            shape = self._nodes[key] = IterationShape(counts, children)
        return shape

    def instance(self, header_name, multiplicity):
        """``multiplicity`` maps iteration shape -> how many iterations."""
        key = (header_name, frozenset(multiplicity.items()))
        shape = self._nodes.get(key)
        if shape is None:
            shape = self._nodes[key] = InstanceShape(
                header_name, tuple(multiplicity.items())
            )
        return shape


def close_instance(table, header_totals, header_name, multiplicity):
    """Intern one finished loop activation and add its work to the totals.

    Called once per *dynamic* activation, as the program runs — by the
    interpreter's :class:`Profiler` and by the profiled lowering's
    loop-exit edges (:mod:`repro.codegen.seq`).
    """
    shape = table.instance(header_name, multiplicity)
    header_totals[header_name] = (
        header_totals.get(header_name, 0) + shape.total
    )
    return shape


class FunctionProfile:
    """Profile of one profiled function execution: the root
    :class:`IterationShape`, the per-header totals, which ``engine``
    (``"compiled"`` or ``"interpreted"``) ran it, and ``refused``, why
    the lowering left the function to the interpreter."""

    def __init__(self, function_name, root, header_totals, engine,
                 refused=None):
        self.function_name = function_name
        self._root = root
        self._header_totals = header_totals
        self.engine = engine
        self.refused = refused

    def total(self):
        return self._root.total

    def shapes(self):
        """Root :class:`IterationShape` of the hash-consed profile DAG."""
        return self._root

    def header_totals(self):
        """header name -> dynamic instructions inside all its instances."""
        return self._header_totals

    def __repr__(self):
        return f"<profile @{self.function_name}: {self.total()} insts>"


class Profiler:
    """Interpreter hook interning a :class:`FunctionProfile` as it runs.

    The interpreter drives it with :meth:`enter_loop`,
    :meth:`next_iteration`, :meth:`exit_loop` and :meth:`count`.  Only
    the open iterations (counts, child instance shapes) and the open
    loops (header, iteration shape -> multiplicity) are kept; shapes go
    into ``table`` (a fresh one by default).
    """

    def __init__(self, function_name, table=None):
        self.function_name = function_name
        self.table = ShapeTable() if table is None else table
        self.header_totals = {}
        self._counts = {}
        self._children = []
        self._iterations = []
        self._loops = []

    def enter_loop(self, header_name):
        self._loops.append((header_name, {}))
        self._iterations.append((self._counts, self._children))
        self._counts, self._children = {}, []

    def next_iteration(self):
        self._end_iteration()
        self._counts, self._children = {}, []

    def exit_loop(self):
        self._end_iteration()
        header_name, multiplicity = self._loops.pop()
        self._counts, self._children = self._iterations.pop()
        self._children.append(close_instance(
            self.table, self.header_totals, header_name, multiplicity
        ))

    def _end_iteration(self):
        shape = self.table.iteration(self._counts, tuple(self._children))
        multiplicity = self._loops[-1][1]
        multiplicity[shape] = multiplicity.get(shape, 0) + 1

    def count(self, uid):
        counts = self._counts
        counts[uid] = counts.get(uid, 0) + 1

    def finish(self):
        root = self.table.iteration(self._counts, tuple(self._children))
        return FunctionProfile(
            self.function_name, root, self.header_totals, "interpreted"
        )
