"""Canonical signatures of (reduced) PS-PDGs.

Used to demonstrate the necessity results: two programs are
*indistinguishable* under a representation exactly when their canonical
signatures match.  The signature is a Weisfeiler-Lehman-style color
refinement over the typed graph (node colors seeded from opcode/trait
descriptors, edge labels folded in per round), which is sound for
inequality (different signature => non-isomorphic) and reliable in practice
for the equality direction on the near-identical program pairs of Fig. 11.
"""

import hashlib

_ROUNDS = 4


def _h(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def signature(reduced):
    """Canonical signature (hex string) of a :class:`ReducedGraph`."""
    colors = {}
    for node in reduced.nodes:
        seed = f"{node.color}|traits={node.traits}"
        colors[node.key] = _h(seed)

    # Adjacency with edge labels; undirected edges contribute in both
    # directions with a symmetric tag.
    out_adj = {node.key: [] for node in reduced.nodes}
    in_adj = {node.key: [] for node in reduced.nodes}
    parent_of = {
        node.key: node.parent for node in reduced.nodes if node.parent
    }
    children_of = {}
    for key, parent in parent_of.items():
        children_of.setdefault(parent, []).append(key)

    for edge in reduced.edges:
        if edge.key_a not in out_adj or edge.key_b not in out_adj:
            continue
        if edge.directed:
            out_adj[edge.key_a].append((edge.label, edge.key_b))
            in_adj[edge.key_b].append((edge.label, edge.key_a))
        else:
            out_adj[edge.key_a].append((f"ue:{edge.label}", edge.key_b))
            out_adj[edge.key_b].append((f"ue:{edge.label}", edge.key_a))

    for _round in range(_ROUNDS):
        new_colors = {}
        for node in reduced.nodes:
            key = node.key
            outs = sorted(
                f"{label}->{colors[dst]}" for label, dst in out_adj[key]
            )
            ins = sorted(
                f"{label}<-{colors[src]}" for label, src in in_adj[key]
            )
            parent_color = (
                colors.get(parent_of.get(key), "-")
                if key in parent_of
                else "-"
            )
            child_colors = sorted(
                colors[c] for c in children_of.get(key, [])
            )
            new_colors[key] = _h(
                "|".join(
                    [
                        colors[key],
                        *outs,
                        *ins,
                        f"p={parent_color}",
                        f"c={child_colors}",
                    ]
                )
            )
        colors = new_colors

    node_part = sorted(colors.values())
    variable_part = sorted(
        f"{v.semantics}|{v.context}|{v.reducer_op}"
        f"|{v.use_colors}|{v.def_colors}"
        for v in reduced.variables
    )
    return _h("||".join(node_part + ["##"] + variable_part))
