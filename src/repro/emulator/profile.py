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


def _intern_iteration(iteration, table, header_totals):
    children = tuple(
        _intern_instance(child, table, header_totals)
        for child in iteration.children
    )
    key = (frozenset(iteration.counts.items()), children)
    shape = table.get(key)
    if shape is None:
        shape = table[key] = IterationShape(iteration.counts, children)
    return shape


def _intern_instance(instance, table, header_totals):
    multiplicity = {}
    for iteration in instance.iterations:
        shape = _intern_iteration(iteration, table, header_totals)
        multiplicity[shape] = multiplicity.get(shape, 0) + 1
    header = instance.header_name
    key = (header, frozenset(multiplicity.items()))
    shape = table.get(key)
    if shape is None:
        shape = InstanceShape(header, tuple(multiplicity.items()))
        table[key] = shape
    header_totals[header] = header_totals.get(header, 0) + shape.total
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
    """Profile of one profiled function execution (root of the tree)."""

    def __init__(self, function_name):
        self.function_name = function_name
        self.root = IterationProfile()
        self._interned = None

    def total(self):
        return self.root.total()

    def _intern(self):
        if self._interned is None:
            header_totals = {}
            root = _intern_iteration(self.root, {}, header_totals)
            self._interned = (root, header_totals)
        return self._interned

    def shapes(self):
        """Root :class:`IterationShape` of the hash-consed profile DAG.

        Built from the recorded tree on first use and cached, so ask
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
