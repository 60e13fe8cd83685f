"""Dynamic loop-nest profiles.

The ideal-machine critical-path methodology (paper §6.3) needs to know, for
every dynamic loop instance, how much work each iteration did and which
static instructions it executed.  The profiler organizes the execution of
one *profiled function* into a tree:

* the root is a pseudo-iteration covering the whole function body;
* each loop instance entered contributes a :class:`LoopInstanceProfile`
  child holding one :class:`IterationProfile` per dynamic iteration;
* instruction executions are counted on the innermost active iteration,
  keyed by static instruction uid.  Work done inside *callees* is
  attributed to the call instruction in the profiled function, so plans
  over the profiled function see call cost without needing callee
  structure.

The thousands of dynamic iterations of a kernel repeat a few dozen
structurally distinct *shapes*, so the planner reads the tree hash-consed
into a DAG (:meth:`FunctionProfile.shapes`): an :class:`IterationShape` is
``(counts, child instance shapes)``, an :class:`InstanceShape` is
``(header, multiset of iteration shapes)``.  Equal subtrees are one node,
so node identity is structural equality and each node's totals are
computed once.

The tree is what the interpreter's :class:`Profiler` records — the
reference, and the engine for functions the compiler refuses.  The
pipeline's profile comes out of the profiled lowering
(:mod:`repro.codegen.profile`), which interns each iteration into the
same :class:`ShapeTable` the moment it ends and never builds the tree.
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

    def intern(self, iteration, header_totals):
        """The shape of a recorded :class:`IterationProfile` subtree."""
        children = []
        for instance in iteration.children:
            multiplicity = {}
            for nested in instance.iterations:
                shape = self.intern(nested, header_totals)
                multiplicity[shape] = multiplicity.get(shape, 0) + 1
            children.append(close_instance(
                self, header_totals, instance.header_name, multiplicity
            ))
        return self.iteration(iteration.counts, tuple(children))


def close_instance(table, header_totals, header_name, multiplicity):
    """Intern one finished loop activation and add its work to the totals.

    Called once per *dynamic* activation — by :meth:`ShapeTable.intern`
    for a recorded tree and by the profiled lowering's loop-exit edges
    (:mod:`repro.codegen.seq`) as the program runs.
    """
    shape = table.instance(header_name, multiplicity)
    header_totals[header_name] = (
        header_totals.get(header_name, 0) + shape.total
    )
    return shape


class IterationProfile:
    """One dynamic iteration (or the whole-function pseudo-iteration)."""

    __slots__ = ("counts", "children")

    def __init__(self):
        self.counts = {}
        self.children = []

    def add(self, uid, amount=1):
        self.counts[uid] = self.counts.get(uid, 0) + amount

    def direct_total(self):
        """Instructions executed at this level, excluding nested loops."""
        return sum(self.counts.values())

    def total(self):
        """Instructions executed at this level including nested loops."""
        return self.direct_total() + sum(
            child.total() for child in self.children
        )

    def count_of(self, uids):
        """Direct executions of any of the given static uids."""
        # Iterate the (small) per-iteration counter, not the uid set.
        return sum(
            count for uid, count in self.counts.items() if uid in uids
        )


class LoopInstanceProfile:
    """One dynamic activation of a static loop (all its iterations)."""

    __slots__ = ("header_name", "iterations")

    def __init__(self, header_name):
        self.header_name = header_name
        self.iterations = []

    def begin_iteration(self):
        iteration = IterationProfile()
        self.iterations.append(iteration)
        return iteration

    @property
    def trip_count(self):
        return len(self.iterations)

    def total(self):
        return sum(iteration.total() for iteration in self.iterations)

    def __repr__(self):
        return (
            f"<loop-instance {self.header_name}: {self.trip_count} "
            f"iterations, {self.total()} insts>"
        )


class FunctionProfile:
    """Profile of one profiled function execution.

    Recorded as a tree under :attr:`root` by the interpreter's
    :class:`Profiler`, or handed over already interned (``shapes=(root
    shape, header totals)``) by the profiled lowering, which never
    materializes the tree: then :attr:`root` is ``None`` and only
    :meth:`shapes`, :meth:`header_totals` and :meth:`total` answer.
    ``refused`` is why the lowering left the function to the interpreter.
    """

    def __init__(self, function_name, shapes=None, refused=None):
        self.function_name = function_name
        self.root = IterationProfile() if shapes is None else None
        self.refused = refused
        self._interned = shapes

    @property
    def engine(self):
        """Which engine produced the profile."""
        return "compiled" if self.root is None else "interpreted"

    def total(self):
        if self.root is None:
            return self._interned[0].total
        return self.root.total()

    def _intern(self):
        if self._interned is None:
            header_totals = {}
            root = ShapeTable().intern(self.root, header_totals)
            self._interned = (root, header_totals)
        return self._interned

    def shapes(self):
        """Root :class:`IterationShape` of the hash-consed profile DAG.

        A recorded tree is interned on first use and cached, so ask
        only once profiling has finished.
        """
        return self._intern()[0]

    def header_totals(self):
        """header name -> dynamic instructions inside all its instances."""
        return self._intern()[1]

    def loop_instances(self, header_name=None):
        """All loop instances in the tree (optionally for one static loop)."""
        found = []
        stack = [self.root]
        while stack:
            iteration = stack.pop()
            for child in iteration.children:
                if header_name is None or child.header_name == header_name:
                    found.append(child)
                stack.extend(child.iterations)
        return found

    def __repr__(self):
        return f"<profile @{self.function_name}: {self.total()} insts>"


class Profiler:
    """Interpreter hook building a :class:`FunctionProfile`.

    The interpreter drives it with :meth:`enter_loop`, :meth:`next_iteration`,
    :meth:`exit_loop`, and :meth:`count`.
    """

    def __init__(self, function_name):
        self.profile = FunctionProfile(function_name)
        self._iteration_stack = [self.profile.root]
        self._loop_stack = []

    @property
    def current_iteration(self):
        return self._iteration_stack[-1]

    def enter_loop(self, header_name):
        instance = LoopInstanceProfile(header_name)
        self.current_iteration.children.append(instance)
        self._loop_stack.append(instance)
        self._iteration_stack.append(instance.begin_iteration())

    def next_iteration(self):
        self._iteration_stack.pop()
        self._iteration_stack.append(self._loop_stack[-1].begin_iteration())

    def exit_loop(self):
        self._iteration_stack.pop()
        self._loop_stack.pop()

    def count(self, uid, amount=1):
        self.current_iteration.add(uid, amount)

    def finish(self):
        return self.profile
