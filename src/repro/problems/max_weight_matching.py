"""Maximum-weight matching in trees (Table 1).

Choose a maximum-weight set of edges no two of which share an endpoint.  Edge
weights are read from ``tree.edge_data[(child, parent)]`` (default 1.0, so
the unweighted problem is maximum-cardinality matching).

States: ``matched-up`` (the node's edge to its parent is in the matching) or
``free``.  A ``matched-up`` child contributes its edge weight and occupies
its parent; the parent then may not be matched to any other child nor to its
own parent.

Degree reduction: auxiliary edges cannot be matched themselves; an auxiliary
node in state ``matched-up`` means "one original child below me is matched to
the original parent", so the credit and the exclusivity propagate through the
auxiliary tree to the original node.

The matched-child gain is the edge weight itself, declared as an affine
decomposition (``transition_affine_key``), so the dense backend builds every
original edge's transition tensor as ``base + w * mask`` from one set of probe
tensors and distinctly weighted edges stay in the grouped array program.  Edge
weights must be finite: on the dense backend a NaN or infinite weight raises
``FloatingPointError`` instead of yielding a ``nan`` value.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Tuple

from repro.dp.problem import EdgeInfo, FiniteStateDP, NodeInput
from repro.dp.semiring import MAX_PLUS
from repro.trees.tree import RootedTree

__all__ = ["MaxWeightMatching", "is_matching", "matching_weight", "sequential_max_weight_matching"]

MATCHED_UP = "matched-up"
FREE = "free"

_UNMATCHED = "unmatched"
_MATCHED = "matched"


class MaxWeightMatching(FiniteStateDP):
    """Maximum-weight matching as a finite-state DP."""

    states = (MATCHED_UP, FREE)
    acc_states = (_UNMATCHED, _MATCHED)
    semiring = MAX_PLUS
    name = "maximum-weight matching"

    def init_key(self, v: NodeInput):
        return ()

    def transition_key(self, v: NodeInput, edge: EdgeInfo):
        # The matched-child gain reads the edge weight, so it is part of the key.
        return True if edge.is_auxiliary else (False, edge.weight(1.0))

    # -- affine edge-weight decomposition --------------------------------- #
    # Which (acc, child_state) cells are feasible does not depend on the
    # weight, so every non-auxiliary edge shares one structural key and the
    # per-edge data collapses to the single weight.

    def transition_affine_key(self, v: NodeInput, edge: EdgeInfo):
        if edge.is_auxiliary:
            return None  # zero gain; the plain transition_key cache handles it
        return ("mwm-edge",), (edge.weight(1.0),)

    def transition_affine_probe(self, v: NodeInput, edge: EdgeInfo, weights):
        return v, EdgeInfo(edge=edge.edge, kind=edge.kind, data=weights[0])

    def finalize_key(self, v: NodeInput):
        return (v.is_auxiliary,)

    def node_init(self, v: NodeInput) -> Iterable[Tuple[Hashable, float]]:
        yield (_UNMATCHED, 0.0)

    def transition(
        self, v: NodeInput, acc: Hashable, child_state: Hashable, edge: EdgeInfo
    ) -> Iterable[Tuple[Hashable, float]]:
        if child_state == FREE:
            yield (acc, 0.0)
            return
        # child_state == MATCHED_UP: the child occupies this node.
        if acc == _MATCHED:
            return  # two children matched upwards: infeasible
        gain = 0.0 if edge.is_auxiliary else edge.weight(1.0)
        yield (_MATCHED, gain)

    def finalize(self, v: NodeInput, acc: Hashable) -> Iterable[Tuple[Hashable, float]]:
        if v.is_auxiliary:
            # Auxiliary nodes only forward the "occupied" bit to the original node.
            yield ((MATCHED_UP if acc == _MATCHED else FREE), 0.0)
            return
        yield (FREE, 0.0)
        if acc == _UNMATCHED:
            yield (MATCHED_UP, 0.0)

    def virtual_root_value(self, state: Hashable) -> float:
        # The root has no parent edge to be matched through.
        return self.semiring.zero if state == MATCHED_UP else self.semiring.one

    def extract_solution(self, tree, node_states, value):
        matched_edges = []
        for v, s in node_states.items():
            if s != MATCHED_UP or _is_aux(v) or v == tree.root:
                continue
            # Walk over auxiliary parents to the original endpoint.
            p = tree.parent[v]
            while _is_aux(p):
                p = tree.parent[p]
            matched_edges.append((v, p))
        return {"matching": sorted(matched_edges, key=repr), "weight": value}


def _is_aux(v) -> bool:
    return isinstance(v, tuple) and len(v) == 3 and v[0] == "aux"


def is_matching(edges) -> bool:
    """True iff no two of the chosen edges share an endpoint."""
    seen = set()
    for a, b in edges:
        if a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
    return True


def matching_weight(tree: RootedTree, edges) -> float:
    total = 0.0
    for c, p in edges:
        data = tree.edge_data.get((c, p))
        if isinstance(data, (int, float)):
            total += float(data)
        elif isinstance(data, dict) and "weight" in data:
            total += float(data["weight"])
        else:
            total += 1.0
    return total


def sequential_max_weight_matching(tree: RootedTree) -> float:
    """Textbook two-state bottom-up DP (independent of the framework code)."""
    free: Dict[Hashable, float] = {}
    up: Dict[Hashable, float] = {}

    def w(c, p):
        data = tree.edge_data.get((c, p))
        if isinstance(data, (int, float)):
            return float(data)
        if isinstance(data, dict) and "weight" in data:
            return float(data["weight"])
        return 1.0

    for v in tree.postorder():
        kids = tree.children(v)
        base = sum(free[c] for c in kids)
        best_take = 0.0
        for c in kids:
            # Matching v to c requires c to stay available below (state "up").
            gain = w(c, v) + up[c] - free[c]
            best_take = max(best_take, gain)
        free[v] = base + best_take          # v may be matched to one child (or none)
        up[v] = base                        # v stays available for its parent
    return free[tree.root]
