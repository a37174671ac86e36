"""Construction of the hierarchical clustering (paper Section 4.2).

The builder alternates two steps on the *contracted tree* (whose vertices are
the still-unabsorbed elements):

1. **Indegree-zero step** — run the capped subtree-size computation on the
   uncolored part of the contracted tree (``CountSubtreeSizes`` /
   ``GatherSubtrees``); every maximal light subtree (a light element whose
   parent is heavy) becomes an indegree-zero cluster, together with the
   colored elements hanging off it.  The new cluster element is *colored*
   (it is a leaf of the contracted tree).

2. **Indegree-one step** — in the uncolored part of the contracted tree,
   elements with exactly one uncolored child and an uncolored parent form
   maximal paths (``CountDistances``); every path is cut into fragments of at
   most the light threshold, and every fragment — together with the colored
   elements hanging off it — becomes an indegree-one cluster (a caterpillar).

When the whole remaining uncolored tree fits under the cluster capacity, the
remaining elements form the single **final** cluster and the construction
stops.  The number of iterations is O(1) by the shrinkage argument of
Lemmas 5–7 (each pair of steps shrinks the uncolored tree by a factor of
``Omega(n^(delta/2))``); the per-step round cost is O(log D) because the
distributed subroutines converge by doubling.

The distributed subroutines (:mod:`repro.mpc.treeops`) charge their rounds
through the simulator whichever backend implements them — the record-level
reference path on the simulated machines, or the default array backend
(whose op compute may further be placed on the process execution pool, see
:mod:`repro.mpc.exec`); the driver-side bookkeeping that
assembles the :class:`~repro.clustering.model.Cluster` objects corresponds to
per-machine local work plus a constant number of sort/route rounds per step,
which are charged under the label ``"clustering-bookkeeping"``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.clustering.model import (
    Cluster,
    ClusterKind,
    Element,
    HierarchicalClustering,
    VIRTUAL_PARENT,
    cluster_element,
    node_element,
)
from repro.mpc.simulator import MPCSimulator
from repro.mpc.treeops import capped_subtree_gather, degree2_path_positions
from repro.trees.tree import RootedTree

__all__ = ["ClusteringBuilder", "build_hierarchical_clustering"]

#: Constant number of bookkeeping rounds charged per construction step
#: (one sort to co-locate every new cluster's elements plus one routing step,
#: as described in Section 5.1 of the paper).
BOOKKEEPING_ROUNDS_PER_STEP = 2

#: Hard safety bound on construction iterations; the analysis guarantees O(1)
#: pairs of steps, this merely converts a hypothetical bug into an exception.
MAX_ITERATIONS = 200


class ClusteringBuilder:
    """Builds a :class:`HierarchicalClustering` for a rooted tree."""

    def __init__(
        self,
        sim: MPCSimulator,
        tree: RootedTree,
        cluster_capacity: Optional[int] = None,
        light_threshold: Optional[int] = None,
    ):
        """
        Parameters
        ----------
        sim:
            The MPC simulator to run (and account) the construction on.
        tree:
            The rooted input tree.  High degrees should already have been
            reduced (Section 4.4) — see
            :func:`repro.clustering.degree_reduction.reduce_degrees`; the
            builder itself only assumes degrees are at most the light
            threshold.
        cluster_capacity:
            Maximum number of elements per cluster (defaults to the
            configuration's ``n^delta`` capacity).
        light_threshold:
            The ``n^(delta/2)`` threshold separating light from heavy
            elements (defaults to the configuration's value).
        """
        self.sim = sim
        self.tree = tree
        cfg = sim.config
        self.cluster_capacity = cluster_capacity or cfg.cluster_capacity()
        self.light_threshold = light_threshold or cfg.light_threshold()
        if self.light_threshold < 2:
            self.light_threshold = 2
        # A cluster holds up to `light_threshold` uncolored elements, each with
        # up to `light_threshold` colored children (after degree reduction), so
        # the element capacity is the square of the light threshold -- the
        # paper's n^delta = (n^(delta/2))^2 relation, kept explicit here
        # because the configured floors/constants can break the exact square.
        self.cluster_capacity = max(
            self.cluster_capacity, self.light_threshold * (self.light_threshold + 1)
        )

        # --- contracted-tree state -------------------------------------- #
        root_elem = node_element(tree.root)
        self.elements: Set[Element] = {node_element(v) for v in tree.nodes()}
        self.parent_elem: Dict[Element, Element] = {}
        self.out_edge_of: Dict[Element, Tuple[Hashable, Hashable]] = {}
        for v in tree.nodes():
            e = node_element(v)
            if v == tree.root:
                self.parent_elem[e] = e
                self.out_edge_of[e] = (v, VIRTUAL_PARENT)
            else:
                self.parent_elem[e] = node_element(tree.parent[v])
                self.out_edge_of[e] = (v, tree.parent[v])
        self.root_elem: Element = root_elem
        self.top_node_of: Dict[Element, Hashable] = {
            node_element(v): v for v in tree.nodes()
        }
        self.colored: Set[Element] = set()
        # Incrementally maintained views of the contracted tree (kept in sync
        # by _make_cluster): the uncolored element set, and the colored
        # elements grouped by their uncolored parent, each group kept in
        # repr-sorted order.  They replace the full rescans and the
        # rebuild-and-sort of _colored_children_map() that earlier versions
        # performed on every construction step.  The uncolored set is a dict
        # used as an insertion-ordered set: every step iterates it, and a
        # plain set of ("node", v) tuples would order that iteration by
        # string hashes, so cluster contents and ids would change with
        # PYTHONHASHSEED from one interpreter run to the next.
        self.uncolored: Dict[Element, None] = dict.fromkeys(
            node_element(v) for v in tree.nodes()
        )
        self.colored_children: Dict[Element, List[Element]] = {}

        # --- outputs ------------------------------------------------------ #
        self.clusters: Dict[int, Cluster] = {}
        self.layers: List[List[int]] = [[]]  # layer 0 = input tree
        self._next_cid = 0
        self.iteration_log: List[Dict[str, int]] = []

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #

    def build(self) -> HierarchicalClustering:
        """Run the construction and return the hierarchical clustering."""
        start = self.sim.snapshot()
        iterations = 0
        while True:
            if len(self.uncolored) <= self.light_threshold:
                self._finalize()
                break
            if iterations >= MAX_ITERATIONS:
                raise RuntimeError(
                    "hierarchical clustering did not converge "
                    f"within {MAX_ITERATIONS} iterations"
                )
            iterations += 1
            before = len(self.uncolored)
            self._indegree_zero_step()
            mid = len(self.uncolored)
            # Re-check the termination condition between the two half-steps.
            if mid <= self.light_threshold:
                self._finalize()
                self.iteration_log.append(
                    {"iteration": iterations, "uncolored_before": before, "uncolored_after": mid}
                )
                break
            self._indegree_one_step()
            after = len(self.uncolored)
            self.iteration_log.append(
                {"iteration": iterations, "uncolored_before": before, "uncolored_after": after}
            )

        rounds = self.sim.stats.diff(start)
        hc = HierarchicalClustering(
            tree=self.tree,
            clusters=self.clusters,
            layers=self.layers,
            num_layers=len(self.layers) - 1,
            final_cluster_id=self._final_cid,
            stats={
                "iterations": iterations,
                "iteration_log": self.iteration_log,
                "rounds": rounds.rounds,
                "charged_rounds": rounds.charged_rounds,
                "total_rounds": rounds.rounds + rounds.charged_rounds,
                "light_threshold": self.light_threshold,
                "cluster_capacity": self.cluster_capacity,
            },
        )
        return hc

    # ------------------------------------------------------------------ #
    # Step 1: indegree-zero clusters
    # ------------------------------------------------------------------ #

    def _indegree_zero_step(self) -> None:
        layer = len(self.layers)
        new_layer: List[int] = []

        uncolored = list(self.uncolored)
        eid = {e: i for i, e in enumerate(uncolored)}
        # Contracted uncolored tree in integer ids for the distributed routine.
        parent_int: Dict[int, int] = {}
        children_int: Dict[int, List[int]] = {i: [] for i in range(len(uncolored))}
        root_int = eid[self.root_elem]
        for e in uncolored:
            p = self.parent_elem[e]
            if e == self.root_elem:
                parent_int[eid[e]] = eid[e]
            else:
                parent_int[eid[e]] = eid[p]
                children_int[eid[p]].append(eid[e])

        info = capped_subtree_gather(
            self.sim, parent_int, children_int, root_int, cap=self.light_threshold
        )

        # Colored children (in the full contracted tree) of each uncolored
        # element.  The incrementally maintained map is safe to read while
        # clusters of this step are created: a new cluster element is colored
        # under a *heavy* parent, and only light elements are absorbed here.
        colored_children = self.colored_children

        # Maximal light subtrees: light element whose parent is heavy.  Select
        # them first (against the pre-step parent map), then create the
        # clusters, so absorbing one subtree cannot confuse the selection of
        # another.
        selected: List[Element] = []
        for e in uncolored:
            i = eid[e]
            if info[i].heavy:
                continue
            if e == self.root_elem:
                # A light root means the whole remaining tree is small; that is
                # handled by the caller's termination check, not here.
                continue
            pi = parent_int[i]
            if not info[pi].heavy:
                continue
            selected.append(e)

        for e in selected:
            i = eid[e]
            members_uncolored = [uncolored[j] for j in sorted(info[i].members)]
            cid = self._make_cluster(
                layer=layer,
                kind=ClusterKind.INDEGREE_ZERO,
                uncolored_members=members_uncolored,
                colored_children=colored_children,
                top_element=e,
                in_edge=None,
                hole_element=None,
            )
            new_layer.append(cid)

        self.sim.charge_rounds(BOOKKEEPING_ROUNDS_PER_STEP, label="clustering-bookkeeping")
        self.layers.append(new_layer)

    # ------------------------------------------------------------------ #
    # Step 2: indegree-one clusters
    # ------------------------------------------------------------------ #

    def _indegree_one_step(self) -> None:
        layer = len(self.layers)
        new_layer: List[int] = []

        uncolored = self.uncolored
        uncolored_children: Dict[Element, List[Element]] = {e: [] for e in uncolored}
        for e in uncolored:
            if e == self.root_elem:
                continue
            p = self.parent_elem[e]
            if p in uncolored:
                uncolored_children[p].append(e)

        # Path elements: exactly one uncolored child and an uncolored parent.
        path_elems = [
            e
            for e in uncolored
            if e != self.root_elem
            and len(uncolored_children[e]) == 1
            and self.parent_elem[e] in uncolored
        ]
        if not path_elems:
            self.layers.append(new_layer)
            self.sim.charge_rounds(BOOKKEEPING_ROUNDS_PER_STEP, label="clustering-bookkeeping")
            return

        path_set = set(path_elems)
        eid = {e: i for i, e in enumerate(path_elems)}
        path_parent: Dict[int, Optional[int]] = {}
        path_child: Dict[int, Optional[int]] = {}
        for e in path_elems:
            i = eid[e]
            p = self.parent_elem[e]
            path_parent[i] = eid[p] if p in path_set else None
            c = uncolored_children[e][0]
            path_child[i] = eid[c] if c in path_set else None

        positions = degree2_path_positions(self.sim, path_parent, path_child)

        # Group path elements into maximal paths by their bottom anchor, then
        # cut each path into fragments of at most `light_threshold` elements.
        by_anchor: Dict[int, List[Tuple[int, int]]] = {}
        for i in eid.values():
            up_t, up_d, dn_t, dn_d = positions[i]
            by_anchor.setdefault(dn_t, []).append((dn_d, i))

        # Safe to read live during fragment creation: indegree-one cluster
        # elements stay uncolored, so the map only loses the absorbed entries.
        colored_children = self.colored_children
        frag = self.light_threshold

        # When a fragment lower on the same path has already been contracted,
        # the element below the next fragment is the new cluster element, not
        # the absorbed path element; `replaced_by` tracks that substitution.
        replaced_by: Dict[Element, Element] = {}

        for _anchor, members in by_anchor.items():
            members.sort()
            # fragment index = dist_to_bottom // frag
            fragments: Dict[int, List[Tuple[int, int]]] = {}
            for dn_d, i in members:
                fragments.setdefault(dn_d // frag, []).append((dn_d, i))
            for _, frag_members in sorted(fragments.items()):
                frag_members.sort()
                elems = [path_elems[i] for _, i in frag_members]
                bottom = elems[0]
                top = elems[-1]
                below_child = uncolored_children[bottom][0]
                below_child = replaced_by.get(below_child, below_child)
                in_edge = self.out_edge_of[below_child]
                cid = self._make_cluster(
                    layer=layer,
                    kind=ClusterKind.INDEGREE_ONE,
                    uncolored_members=elems,
                    colored_children=colored_children,
                    top_element=top,
                    in_edge=in_edge,
                    hole_element=bottom,
                    below_child=below_child,
                )
                replaced_by[top] = cluster_element(cid)
                new_layer.append(cid)

        self.sim.charge_rounds(BOOKKEEPING_ROUNDS_PER_STEP, label="clustering-bookkeeping")
        self.layers.append(new_layer)

    # ------------------------------------------------------------------ #
    # Final cluster
    # ------------------------------------------------------------------ #

    def _finalize(self) -> None:
        layer = len(self.layers)
        colored_children = self.colored_children
        uncolored_members = list(self.uncolored)
        # Order does not matter; make it deterministic.
        uncolored_members.sort(key=lambda e: repr(e))
        cid = self._make_cluster(
            layer=layer,
            kind=ClusterKind.FINAL,
            uncolored_members=uncolored_members,
            colored_children=colored_children,
            top_element=self.root_elem,
            in_edge=None,
            hole_element=None,
        )
        self.layers.append([cid])
        self._final_cid = cid
        self.sim.charge_rounds(BOOKKEEPING_ROUNDS_PER_STEP, label="clustering-bookkeeping")

    # ------------------------------------------------------------------ #
    # Cluster assembly and contraction
    # ------------------------------------------------------------------ #

    def _colored_children_map(self) -> Dict[Element, List[Element]]:
        """Colored elements grouped by their (uncolored) parent element.

        Recomputed from scratch — the incremental ``self.colored_children``
        is the view the construction uses; this method is kept as the
        reference for the equivalence tests.
        """
        out: Dict[Element, List[Element]] = {}
        for e in self.colored:
            p = self.parent_elem[e]
            out.setdefault(p, []).append(e)
        for p in out:
            out[p].sort(key=lambda x: repr(x))
        return out

    def _make_cluster(
        self,
        layer: int,
        kind: ClusterKind,
        uncolored_members: List[Element],
        colored_children: Dict[Element, List[Element]],
        top_element: Element,
        in_edge: Optional[Tuple[Hashable, Hashable]],
        hole_element: Optional[Element],
        below_child: Optional[Element] = None,
    ) -> int:
        member_set: Set[Element] = set(uncolored_members)
        all_members: List[Element] = list(uncolored_members)
        for u in uncolored_members:
            for c in colored_children.get(u, []):
                all_members.append(c)
                member_set.add(c)

        internal_edges = []
        for e in all_members:
            if e == top_element:
                continue
            p = self.parent_elem[e]
            if p in member_set:
                internal_edges.append((e, p, self.out_edge_of[e]))

        cid = self._next_cid
        self._next_cid += 1
        cluster = Cluster(
            cid=cid,
            layer=layer,
            kind=kind,
            elements=all_members,
            internal_edges=internal_edges,
            top_element=top_element,
            top_node=self.top_node_of[top_element],
            out_edge=self.out_edge_of[top_element],
            in_edge=in_edge,
            hole_element=hole_element,
        )
        self.clusters[cid] = cluster

        # --- contract the cluster into a single element ------------------- #
        ce = cluster_element(cid)
        parent_of_top = self.parent_elem[top_element]
        for e in all_members:
            del self.parent_elem[e]
            self.elements.discard(e)
            self.colored.discard(e)
            self.uncolored.pop(e, None)
        for u in uncolored_members:
            # Every colored child of an absorbed element is absorbed with it.
            self.colored_children.pop(u, None)
        self.elements.add(ce)
        self.top_node_of[ce] = cluster.top_node
        self.out_edge_of[ce] = cluster.out_edge
        if top_element == self.root_elem:
            self.parent_elem[ce] = ce
            self.root_elem = ce
        else:
            self.parent_elem[ce] = parent_of_top

        # Re-hang elements whose parent was absorbed.  For an indegree-zero
        # cluster nothing outside pointed into it; for an indegree-one cluster
        # only the below child did; the final cluster has no outside.
        if below_child is not None:
            self.parent_elem[below_child] = ce

        if kind in (ClusterKind.INDEGREE_ZERO, ClusterKind.FINAL):
            self.colored.add(ce)
            parent = self.parent_elem[ce]
            if parent != ce:
                siblings = self.colored_children.setdefault(parent, [])
                bisect.insort(siblings, ce, key=repr)
        else:
            self.uncolored[ce] = None
        return cid


def build_hierarchical_clustering(
    sim: MPCSimulator,
    tree: RootedTree,
    cluster_capacity: Optional[int] = None,
    light_threshold: Optional[int] = None,
) -> HierarchicalClustering:
    """Convenience wrapper around :class:`ClusteringBuilder`."""
    return ClusteringBuilder(
        sim, tree, cluster_capacity=cluster_capacity, light_threshold=light_threshold
    ).build()
