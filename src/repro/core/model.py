"""The PS-PDG data model — a transcription of the paper's Table 1::

    PS-PDG        ::= (Node+, Edge*, Variable*, VariableAccess*)
    Node          ::= (Instruction, Trait*) | (HierarchicalNode, Trait*)
    HierarchicalNode ::= (Node+, Context?)
    Trait         ::= (Singular | Unordered | Atomic, Context)
    Edge          ::= DirectedEdge | UndirectedEdge
    DirectedEdge  ::= (Node_producer, Node_consumer, Data-selector?)
    UndirectedEdge::= (Node, Node, Context)
    Data-selector ::= (Any-Producer | Last-Producer | All-Consumers, Context)
    Variable      ::= (Privatizable | Reducible, Context)
    VariableAccess::= (Variable, Node*_use, Node*_def)
    Context       ::= Unique Identifier

The graph is an overlay on the sequential PDG it relaxes.  A directed
edge is a PDG edge plus its overlay state: the loop-independent instance
and the carried contexts the parallel semantics left it (an edge absent
from :attr:`PSPDG.overlay` keeps all of its own), and the data selector
in :attr:`PSPDG.selectors`.  An edge the semantics relaxed entirely is
not an edge of the PS-PDG.  Sync edges, which order whole regions and
have no PDG twin, are the short list :attr:`PSPDG.sync_edges`.

Beyond Table 1 the implementation keeps a **relaxation log**: every PDG
dependence the parallel semantics *removed* is recorded as a
:class:`Relaxation` naming its PDG edge, the context and the feature
responsible.  Each abstraction the planner compares is the sequential
PDG minus the relaxations of the features it keeps (the PDG none, J&K
``independence``, the PS-PDG all), and the ablation projections
(Section 4 of the paper) leave out the relaxations whose feature is
removed, turning "PS-PDG without X" into an executable function instead
of a thought experiment.
"""

import dataclasses

# Trait kinds (paper: Singular | Unordered | Atomic; the prose calls
# Unordered "orderless", we keep the prose name as an alias).
TRAIT_SINGULAR = "singular"
TRAIT_UNORDERED = "unordered"
TRAIT_ATOMIC = "atomic"
TRAIT_KINDS = frozenset({TRAIT_SINGULAR, TRAIT_UNORDERED, TRAIT_ATOMIC})

# Data-selector kinds.
SELECTOR_ANY_PRODUCER = "any_producer"
SELECTOR_LAST_PRODUCER = "last_producer"
SELECTOR_ALL_CONSUMERS = "all_consumers"
SELECTOR_KINDS = frozenset(
    {SELECTOR_ANY_PRODUCER, SELECTOR_LAST_PRODUCER, SELECTOR_ALL_CONSUMERS}
)

# Variable semantics.
VAR_PRIVATIZABLE = "privatizable"
VAR_REDUCIBLE = "reducible"


@dataclasses.dataclass(frozen=True)
class Trait:
    """A (kind, context) pair attached to a node."""

    kind: str
    context: str

    def __post_init__(self):
        if self.kind not in TRAIT_KINDS:
            raise ValueError(f"unknown trait kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class DataSelector:
    """Which dynamic producer instances may feed a consumer (per context)."""

    kind: str
    context: str

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise ValueError(f"unknown selector kind {self.kind!r}")


class Node:
    """Base class of PS-PDG nodes (instruction leaves and hierarchies)."""

    def __init__(self):
        self.traits = []
        self.parent = None  # enclosing HierarchicalNode or None

    def add_trait(self, trait):
        if trait not in self.traits:
            self.traits.append(trait)


class InstructionNode(Node):
    """Leaf node wrapping one IR instruction."""

    def __init__(self, instruction):
        self.traits = []
        self.parent = None
        self.instruction = instruction

    def leaf_instructions(self):
        return [self.instruction]

    def __repr__(self):
        return f"<ps-node #{self.instruction.uid} {self.instruction.opcode}>"


class HierarchicalNode(Node):
    """A node grouping other nodes; labeled ones are contexts (§3.3)."""

    def __init__(self, kind, context_label=None, source_uid=None):
        super().__init__()
        self.kind = kind  # "loop" | "critical" | "task" | "region"...
        self.context_label = context_label
        self.source_uid = source_uid  # annotation uid or loop header name
        self.children = []

    def add_child(self, node):
        node.parent = self
        self.children.append(node)

    def leaf_instructions(self):
        result = []
        stack = list(self.children)
        while stack:
            node = stack.pop()
            if isinstance(node, InstructionNode):
                result.append(node.instruction)
            else:
                stack.extend(node.children)
        return result

    def __repr__(self):
        label = f" ctx={self.context_label}" if self.context_label else ""
        return f"<ps-hnode {self.kind}{label} ({len(self.children)} children)>"


@dataclasses.dataclass
class UndirectedEdge:
    """Two computations that must not overlap but may run in any order."""

    a: Node
    b: Node
    context: str
    obj: object = None


@dataclasses.dataclass
class Variable:
    """A parallel semantic variable (§3.6)."""

    name: str
    storage: object  # IR Alloca / GlobalVariable / Argument
    semantics: str  # privatizable | reducible
    context: str
    reducer_op: str = None  # reduction operator name for reducible vars
    reducer_node: object = None  # optional Node computing the merge
    obj: object = None  # alias-analysis MemoryObject

    def is_reducible(self):
        return self.semantics == VAR_REDUCIBLE


@dataclasses.dataclass
class VariableAccess:
    """Use/Def relation between a variable and nodes (§3.6)."""

    variable: Variable
    use_nodes: list
    def_nodes: list


# The PS-PDG extensions a relaxation can name.
RELAXATION_FEATURES = (
    "independence", "variable", "selector", "undirected", "task"
)


@dataclasses.dataclass
class Relaxation:
    """One PDG dependence removed by parallel semantics.

    ``edge`` is the PDG edge relaxed; ``feature`` names the PS-PDG
    extension responsible, one of :data:`RELAXATION_FEATURES`:
    ``"independence"`` (hierarchical nodes + contexts: worksharing),
    ``"variable"`` (privatizable/reducible variable),
    ``"selector"`` (data-selector freedom),
    ``"undirected"`` (orderless critical/atomic),
    ``"task"`` (explicit task independence).
    """

    edge: object  # PDGEdge
    context: str  # where the relaxation is valid
    feature: str
    loop_independent_removed: bool = False
    carried_removed: tuple = ()  # context labels

    def __post_init__(self):
        if self.feature not in RELAXATION_FEATURES:
            raise ValueError(f"unknown relaxation feature {self.feature!r}")
class PSPDG:
    """The Parallel Semantics Program Dependence Graph of one function."""

    def __init__(self, pdg):
        #: The sequential PDG this graph relaxes; through it
        #: (``pdg.analyses``) the function's analysis record.
        self.pdg = pdg
        self.function = pdg.function
        self.roots = []  # top-level nodes (forest)
        self.instruction_nodes = {}  # IR instruction -> InstructionNode
        self.contexts = {}  # label -> HierarchicalNode
        #: PDG edge -> (loop-independent kept, carried contexts kept),
        #: for the edges the parallel semantics changed.
        self.overlay = {}
        self.selectors = {}  # PDG edge -> DataSelector
        self.sync_edges = []  # (producer node, consumer node)
        self.pruned = 0  # PDG edges relaxed entirely
        self.undirected_edges = []
        self.variables = []
        self.accesses = []
        self.relaxations = []
        self.context_of_loop = {}  # header name -> context label

    # -- construction ---------------------------------------------------------

    def register_context(self, node):
        if node.context_label is None:
            raise ValueError("context nodes need a label")
        self.contexts[node.context_label] = node

    def add_undirected_edge(self, edge):
        self.undirected_edges.append(edge)
        return edge

    def add_variable(self, variable, use_nodes=(), def_nodes=()):
        self.variables.append(variable)
        self.accesses.append(
            VariableAccess(variable, list(use_nodes), list(def_nodes))
        )
        return variable

    # -- queries -----------------------------------------------------------------

    def node_of(self, instruction):
        return self.instruction_nodes[instruction]

    def edge_state(self, edge):
        """(loop-independent, carried context labels) ``edge`` keeps."""
        state = self.overlay.get(edge)
        if state is not None:
            return state
        return edge.loop_independent, tuple([
            self.context_of_loop[loop.header.name]
            for loop in edge.carried_loops
        ])

    def all_nodes(self):
        result = []
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            result.append(node)
            if isinstance(node, HierarchicalNode):
                stack.extend(node.children)
        return result

    def context_chain(self, context_label):
        """The label plus all enclosing context labels (inner to outer)."""
        labels = []
        node = self.contexts.get(context_label)
        while node is not None:
            if node.context_label is not None:
                labels.append(node.context_label)
            node = node.parent
        # Program-wide semantics (e.g. threadprivate) use the "" context.
        labels.append("")
        return labels

    def statistics(self):
        """Feature counts (Section 6.1-style construction statistics).

        The builder labels every hierarchical node, and only those carry
        traits, so both counts read the contexts; the directed edges are
        the PDG's less those relaxed entirely, plus the sync edges.
        """
        return {
            "instruction_nodes": len(self.instruction_nodes),
            "hierarchical_nodes": len(self.contexts),
            "contexts": len(self.contexts),
            "traits": sum(len(n.traits) for n in self.contexts.values()),
            "directed_edges": (
                len(self.pdg.edges) - self.pruned + len(self.sync_edges)
            ),
            "undirected_edges": len(self.undirected_edges),
            "selector_edges": sum(
                1 for edge in self.selectors if any(self.edge_state(edge))
            ),
            "variables": len(self.variables),
            "privatizable": sum(
                1
                for v in self.variables
                if v.semantics == VAR_PRIVATIZABLE
            ),
            "reducible": sum(1 for v in self.variables if v.is_reducible()),
            "relaxations": len(self.relaxations),
        }
