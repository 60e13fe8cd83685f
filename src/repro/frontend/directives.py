"""Parallel directive model: the OpenMP/Cilk subset the paper targets.

A :class:`Directive` is the parsed form of one pragma (kind + clauses).
During lowering each directive becomes a :class:`RegionAnnotation` bound to
the IR blocks it governs — this is the "IR with custom metadata" stage of
the paper's pipeline (Fig. 12), from which the PS-PDG builder works.

Supported directive kinds (Section 5's three semantic groups):

* declaration of independence — ``parallel``, ``for``, ``parallel for``,
  ``task``, ``taskloop``, ``sections``/``section``, ``simd``, plus the
  constraining ``barrier`` and ``taskwait``;
* data properties — ``threadprivate`` and the ``private`` /
  ``firstprivate`` / ``lastprivate`` / ``reduction`` / ``anyvalue`` clauses;
* ordering — ``critical``, ``atomic``, ``ordered``, ``single``, ``master``.

``anyvalue(x)`` is our explicit spelling of the Fig. 11-D "left program"
semantics: any iteration's write to ``x`` may provide the value observed
after the loop (Any-Producer data selector).
"""

import dataclasses

from repro.util.errors import FrontendError

DIRECTIVE_KINDS = frozenset(
    {
        "parallel",
        "for",
        "parallel_for",
        "critical",
        "atomic",
        "single",
        "master",
        "barrier",
        "task",
        "taskwait",
        "taskloop",
        "sections",
        "section",
        "simd",
        "ordered",
        "threadprivate",
        # Cilk constructs are normalized onto the same model:
        "cilk_spawn",
        "cilk_sync",
        "cilk_scope",
        "cilk_for",
        # Cilk hyperobject declaration (var x: T reducer(+)):
        "cilk_reducer",
    }
)

# Directives that declare independence of the iterations of the loop they
# annotate (the "worksharing-like" group).
LOOP_INDEPENDENCE_KINDS = frozenset(
    {"for", "parallel_for", "taskloop", "simd", "cilk_for"}
)

# Directives that stand alone as synchronization statements.
STANDALONE_KINDS = frozenset({"barrier", "taskwait", "cilk_sync"})

REDUCTION_OPS = {
    "+": "add",
    "*": "mul",
    "min": "min",
    "max": "max",
    "&": "and",
    "|": "or",
    "^": "xor",
}


@dataclasses.dataclass
class Clauses:
    """Clause payload of a directive.  Variable names, resolved later."""

    private: list = dataclasses.field(default_factory=list)
    firstprivate: list = dataclasses.field(default_factory=list)
    lastprivate: list = dataclasses.field(default_factory=list)
    shared: list = dataclasses.field(default_factory=list)
    reductions: list = dataclasses.field(default_factory=list)  # (op, name)
    anyvalue: list = dataclasses.field(default_factory=list)
    schedule: tuple = None  # (kind, chunk or None)
    nowait: bool = False
    critical_name: str = None
    depends: list = dataclasses.field(default_factory=list)  # (mode, name)
    ordered_clause: bool = False

    def all_variable_names(self):
        names = []
        names.extend(self.private)
        names.extend(self.firstprivate)
        names.extend(self.lastprivate)
        names.extend(self.shared)
        names.extend(self.anyvalue)
        names.extend(name for _op, name in self.reductions)
        names.extend(name for _mode, name in self.depends)
        return names


@dataclasses.dataclass
class Directive:
    """One parsed pragma."""

    kind: str
    clauses: Clauses = dataclasses.field(default_factory=Clauses)
    line: int = None

    def __post_init__(self):
        if self.kind not in DIRECTIVE_KINDS:
            raise FrontendError(f"unknown directive kind {self.kind!r}", self.line)

    def declares_loop_independence(self):
        return self.kind in LOOP_INDEPENDENCE_KINDS

    def is_standalone(self):
        return self.kind in STANDALONE_KINDS

    def describe(self):
        parts = [f"omp {self.kind}"]
        c = self.clauses
        if c.critical_name:
            parts.append(f"({c.critical_name})")
        for op, name in c.reductions:
            parts.append(f"reduction({op}: {name})")
        for group, label in (
            (c.private, "private"),
            (c.firstprivate, "firstprivate"),
            (c.lastprivate, "lastprivate"),
            (c.shared, "shared"),
            (c.anyvalue, "anyvalue"),
        ):
            if group:
                parts.append(f"{label}({', '.join(group)})")
        if c.schedule:
            kind, chunk = c.schedule
            parts.append(
                f"schedule({kind}{', ' + str(chunk) if chunk else ''})"
            )
        if c.nowait:
            parts.append("nowait")
        if c.ordered_clause:
            parts.append("ordered")
        for mode, name in c.depends:
            parts.append(f"depend({mode}: {name})")
        return " ".join(parts)


@dataclasses.dataclass
class RegionAnnotation:
    """A directive bound to the IR region it governs.

    Attributes:
        uid: unique id (also used as the PS-PDG context label).
        directive: the source directive.
        block_names: names of the blocks forming the region (SESE by
            construction; for loop directives, the loop body blocks).
        loop_header: header block name when the directive annotates a loop.
        var_bindings: clause variable name -> IR value (Alloca, Global or
            Argument) resolved at lowering time.
        parent_uid: uid of the innermost enclosing annotated region, if any.
    """

    uid: str
    directive: Directive
    block_names: list
    loop_header: str = None
    var_bindings: dict = dataclasses.field(default_factory=dict)
    parent_uid: str = None

    @property
    def lock_key(self):
        """The lock this region holds, or ``None`` if it holds none.

        ``atomic:<uid>`` for an atomic (each guards its own update),
        ``critical:<name>`` or ``critical:<anonymous>`` for a critical
        (one lock per name, as in OpenMP).  Regions with equal keys
        exclude each other.
        """
        kind = self.directive.kind
        if kind == "atomic":
            return f"atomic:{self.uid}"
        if kind == "critical":
            name = self.directive.clauses.critical_name or "<anonymous>"
            return f"critical:{name}"
        return None

    def describe(self):
        loop = f" loop={self.loop_header}" if self.loop_header else ""
        return (
            f"region {self.uid}: {self.directive.describe()}{loop} "
            f"blocks={self.block_names}"
        )

    def binding(self, name):
        try:
            return self.var_bindings[name]
        except KeyError:
            raise FrontendError(
                f"clause variable {name!r} not bound in region {self.uid}"
            ) from None
