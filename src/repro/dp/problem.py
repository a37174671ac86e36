"""Problem interfaces of the DP framework.

Two layers of abstraction:

* :class:`ClusterDP` is what the engine (Section 5) consumes: summarise a
  cluster given its elements' summaries (Figure 2), label the virtual root
  edge of the topmost cluster, and fill in a cluster's internal edge labels
  given its boundary labels (Figure 3).  Raw problems (tree median, Gaussian
  belief propagation, longest path) implement it directly.

* :class:`FiniteStateDP` describes the large family of per-node finite-state
  problems (independent set, vertex cover, dominating set, matching,
  colorings, counting, max-SAT, ...).  The node chooses a state; children are
  folded into an *accumulator* one at a time through ``transition`` (which
  sees the connecting edge, so original and auxiliary edges of the
  degree-reduction can behave differently, Section 5.3); ``finalize`` maps
  the accumulator to the node's state.  The generic
  :class:`~repro.dp.local_solver.FiniteStateClusterSolver` turns any such
  description into a :class:`ClusterDP`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.clustering.model import Cluster, Element
from repro.dp.semiring import Semiring
from repro.trees.tree import RootedTree

__all__ = ["NodeInput", "EdgeInfo", "ClusterContext", "ClusterDP", "FiniteStateDP"]


@dataclass(frozen=True)
class NodeInput:
    """What a DP problem may know about one tree node.

    Attributes
    ----------
    node:
        The node identifier.
    data:
        The node's input payload (weight, leaf value, colour list, ...).
    is_auxiliary:
        True when the node was introduced by the degree reduction
        (Section 4.4); problems typically give such nodes zero weight and
        mirror constraints across them (Section 5.3).
    """

    node: Hashable
    data: Any = None
    is_auxiliary: bool = False

    def weight(self, default: float = 0.0) -> float:
        data = self.data
        if type(data) is dict:  # fast path: ABC checks are hot in cache keys
            w = data.get("weight")
            return default if w is None else float(w)
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return float(data)
        if isinstance(data, Mapping) and "weight" in data:
            return float(data["weight"])
        return default


@dataclass(frozen=True)
class EdgeInfo:
    """What a DP problem may know about one tree edge.

    Attributes
    ----------
    edge:
        ``(child, parent)`` node pair.
    kind:
        ``"original"`` or ``"auxiliary"`` (Section 5.3).
    data:
        Optional per-edge payload (weight, clause list, ...).
    """

    edge: Tuple[Hashable, Hashable]
    kind: str = "original"
    data: Any = None

    @property
    def is_auxiliary(self) -> bool:
        return self.kind == "auxiliary"

    def weight(self, default: float = 0.0) -> float:
        data = self.data
        if type(data) is dict:  # fast path: ABC checks are hot in cache keys
            w = data.get("weight")
            return default if w is None else float(w)
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return float(data)
        if isinstance(data, Mapping) and "weight" in data:
            return float(data["weight"])
        return default


class ClusterContext:
    """Everything a :class:`ClusterDP` may inspect about one cluster.

    Provides the element tree inside the cluster, the node inputs and edge
    info of the (degree-reduced) tree, and the summaries of the sub-clusters
    absorbed by this cluster.
    """

    def __init__(
        self,
        cluster: Cluster,
        tree: RootedTree,
        summaries: Mapping[int, Any],
        clusters: Mapping[int, Cluster],
        edge_kinds: Optional[Mapping[Tuple[Hashable, Hashable], str]] = None,
        aux_nodes: Optional[set] = None,
        original_parent: Optional[Mapping[Hashable, Hashable]] = None,
    ):
        self.cluster = cluster
        self.tree = tree
        self._summaries = summaries
        self._clusters = clusters
        self._edge_kinds = edge_kinds or {}
        self._aux_nodes = aux_nodes or set()
        self._original_parent = original_parent or {}
        self._children = cluster.element_children()
        self._edge_of = cluster.edge_of_element()

    # -- structure ------------------------------------------------------- #

    @property
    def elements(self) -> List[Element]:
        return self.cluster.elements

    @property
    def top_element(self) -> Element:
        return self.cluster.top_element

    def children_of(self, e: Element) -> List[Element]:
        return self._children.get(e, [])

    def sorted_children_of(self, e: Element) -> List[Element]:
        """Children of ``e`` in the deterministic absorption order (cached)."""
        return self.cluster.element_children_sorted().get(e, [])

    def element_postorder(self) -> List[Element]:
        """Cached postorder of the cluster's element tree."""
        return self.cluster.element_postorder()

    def local_plan(self) -> List[Tuple[str, Element, Any, int]]:
        """Problem-independent local-solve plan of this cluster (cached).

        One postorder entry per element with everything prefetched that the
        per-cluster solvers would otherwise rebuild on every solve:

        * ``("node", e, (node_input, children), height)`` — ``children`` is
          the tuple of ``(child_element, edge_info)`` pairs in absorption
          order (the hole pseudo-child is *not* included; solvers append it
          when the element is the hole element and a hole is active);
        * ``("mat", e, child_element_or_None, height)`` — an indegree-one
          sub-cluster element and its single child (``None``: the hole
          attaches here);
        * ``("leaf", e, None, 0)`` — an indegree-zero sub-cluster element.

        ``height`` is the element's height in the element tree (0 for
        childless elements); all elements of one height are mutually
        independent given the levels below, which is what lets vectorized
        solvers batch them across clusters.

        The plan depends only on the cluster and the tree (both fixed for
        the clustering's lifetime), so it is cached on the cluster and
        shared by every problem, pass and backend — this is what makes
        repeated solves on one clustering cheap.
        """
        plan = self.cluster._local_plan
        if plan is not None:
            return plan
        plan = []
        heights: Dict[Element, int] = {}
        for e in self.element_postorder():
            kids = self.sorted_children_of(e)
            h = 1 + max(heights[c] for c in kids) if kids else 0
            heights[e] = h
            if e[0] == "node":
                children = tuple((c, self.edge_to_parent(c)) for c in kids)
                plan.append(("node", e, (self.node_input(e[1]), children), h))
            elif self.element_kind(e) == "indegree-1":
                if len(kids) > 1:
                    raise RuntimeError(
                        f"indegree-one sub-cluster {e!r} must have exactly one child, "
                        f"got {kids}"
                    )
                if not kids and self.hole_element != e:
                    raise RuntimeError(
                        f"indegree-one sub-cluster {e!r} has no child and is not "
                        "the hole element"
                    )
                plan.append(("mat", e, kids[0] if kids else None, h))
            else:  # indegree-0 (or, impossibly, final)
                if kids:
                    raise RuntimeError(
                        f"indegree-zero sub-cluster {e!r} unexpectedly has children"
                    )
                plan.append(("leaf", e, None, 0))
        # mpclint: disable-next-line=stale-cache-invalidation -- designated builder: the memo is derived from cluster+tree structure, immutable for the clustering's lifetime
        self.cluster._local_plan = plan
        return plan

    def hole_plan(self) -> List[Tuple[str, Element, Any, Optional[Element]]]:
        """Ordered local-plan entries along the hole path, hole element first.

        Each entry is ``(kind, e, payload, path_child)`` — the
        :meth:`local_plan` entry of one hole-path element plus the previous
        path element it absorbs (``None`` for the hole element itself, where
        the hole pseudo-child attaches instead).  The position of an entry in
        the list is its *depth along the path*, which is what the dense
        solver's layer-wide hole-path scheduler groups by: entries of equal
        depth across all clusters of a layer are mutually independent once
        depth - 1 is done.  Empty for indegree-zero clusters.  Like the plan,
        it depends only on the cluster and the tree, so it is cached on the
        cluster and shared by every problem and backend.
        """
        plan = self.cluster._hole_plan
        if plan is not None:
            return plan
        plan = []
        if self.cluster.hole_element is not None:
            by_element = {e: (kind, e, payload) for kind, e, payload, _h in self.local_plan()}
            parent = self.cluster.element_parent()
            e = self.cluster.hole_element
            path_child: Optional[Element] = None
            while True:
                kind, _e, payload = by_element[e]
                plan.append((kind, e, payload, path_child))
                if e == self.cluster.top_element:
                    break
                path_child = e
                e = parent[e]
        # mpclint: disable-next-line=stale-cache-invalidation -- designated builder: the memo is derived from cluster+tree structure, immutable for the clustering's lifetime
        self.cluster._hole_plan = plan
        return plan

    def hole_path(self) -> frozenset:
        """Elements on the path from the hole element to the top (inclusive).

        Empty for indegree-zero clusters.  Cached on the cluster alongside
        the plan structures.
        """
        path = getattr(self.cluster, "_hole_path", None)
        if path is None:
            elems = []
            e = self.cluster.hole_element
            if e is not None:
                parent = self.cluster.element_parent()
                while True:
                    elems.append(e)
                    if e == self.cluster.top_element:
                        break
                    e = parent[e]
            path = frozenset(elems)
            self.cluster._hole_path = path
        return path

    def edge_to_parent(self, e: Element) -> Optional[EdgeInfo]:
        """The original edge from element ``e`` to its parent element (if internal)."""
        edge = self._edge_of.get(e)
        if edge is None:
            return None
        return self.edge_info(edge)

    # -- payloads ---------------------------------------------------------- #

    def node_input(self, v: Hashable) -> NodeInput:
        return NodeInput(
            node=v,
            data=self.tree.node_data.get(v),
            is_auxiliary=v in self._aux_nodes,
        )

    def original_parent_of(self, v: Hashable) -> Hashable:
        """The original node that is the logical parent of ``v`` (Section 6.1.1)."""
        return self._original_parent.get(v, self.tree.parent.get(v, v))

    def edge_info(self, edge: Tuple[Hashable, Hashable]) -> EdgeInfo:
        return EdgeInfo(
            edge=edge,
            kind=self._edge_kinds.get(edge, "original"),
            data=self.tree.edge_data.get(edge),
        )

    def element_kind(self, e: Element) -> str:
        """``"node"``, ``"indegree-0"``, ``"indegree-1"`` or ``"final"``."""
        if e[0] == "node":
            return "node"
        return self._clusters[e[1]].kind.value

    def summary_of(self, e: Element) -> Any:
        """Summary of a sub-cluster element (bottom-up invariant, Def. 8)."""
        if e[0] != "cluster":
            raise KeyError(f"element {e!r} is not a cluster element")
        return self._summaries[e[1]]

    def sub_cluster(self, e: Element) -> Cluster:
        """The :class:`Cluster` object of a cluster element."""
        if e[0] != "cluster":
            raise KeyError(f"element {e!r} is not a cluster element")
        return self._clusters[e[1]]

    def element_top_node(self, e: Element) -> Hashable:
        """The original node that carries element ``e``'s outgoing edge."""
        if e[0] == "node":
            return e[1]
        return self._clusters[e[1]].top_node

    # -- hole -------------------------------------------------------------- #

    @property
    def in_edge(self) -> Optional[EdgeInfo]:
        if self.cluster.in_edge is None:
            return None
        return self.edge_info(self.cluster.in_edge)

    @property
    def hole_element(self) -> Optional[Element]:
        return self.cluster.hole_element

    @property
    def is_indegree_one(self) -> bool:
        return self.cluster.in_edge is not None

    @property
    def out_edge(self) -> Tuple[Hashable, Hashable]:
        return self.cluster.out_edge

    @property
    def top_node(self) -> Hashable:
        return self.cluster.top_node


class ClusterDP(abc.ABC):
    """Engine-facing interface: the paper's Definition 1, per cluster.

    Summaries must be representable with O(1) machine words (checked in the
    test-suite with :func:`repro.mpc.words.word_size` for every shipped
    problem).
    """

    #: Problems whose semiring is not selective cannot produce per-edge labels;
    #: the engine then skips the top-down pass and only reports the root value.
    produces_labels: bool = True

    @abc.abstractmethod
    def summarize(self, ctx: ClusterContext) -> Any:
        """Compute f(C) from the summaries of the cluster's elements (Fig. 2)."""

    def summarize_layer(self, ctxs: List["ClusterContext"]) -> List[Any]:
        """Summaries of one whole layer of clusters, aligned with ``ctxs``.

        A layer is the engine's parallel unit (all its clusters are solved
        independently within one charged round, Section 5.1).  The default
        simply maps :meth:`summarize`; vectorized solvers override this to
        batch work across the layer's clusters.
        """
        return [self.summarize(ctx) for ctx in ctxs]

    @abc.abstractmethod
    def label_virtual_root(self, ctx: ClusterContext, summary: Any) -> Tuple[Any, Any]:
        """Label of the topmost cluster's (virtual) outgoing edge.

        Returns ``(label, value)`` where ``value`` is the problem's objective
        (optimal weight, count, aggregate at the root, ...).
        """

    def assign_internal_labels(
        self, ctx: ClusterContext, out_label: Any, in_label: Any
    ) -> Dict[Element, Any]:
        """Labels of the cluster's internal edges given its boundary labels (Fig. 3).

        Returns a mapping from every non-top element to the label of the edge
        connecting it to its parent element.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support the top-down pass"
        )

    def extract(
        self,
        tree: RootedTree,
        edge_labels: Dict[Tuple[Hashable, Hashable], Any],
        root_label: Any,
        value: Any,
    ) -> Any:
        """Optional problem-specific post-processing of the labelling."""
        return {"edge_labels": edge_labels, "root_label": root_label, "value": value}


class FiniteStateDP(abc.ABC):
    """Per-node finite-state DP description (see module docstring).

    Concrete problems define:

    * :attr:`states` — the finite per-node state set; the label of an edge
      ``(u, v)`` is the state chosen for ``u``.
    * :attr:`semiring` — how values are combined.
    * :meth:`node_init` — initial accumulator(s) for a node.
    * :meth:`transition` — absorb one child given its state and the
      connecting edge; yields ``(new_accumulator_state, value)`` pairs.
    * :meth:`finalize` — map an accumulator state to the node's own states;
      yields ``(node_state, value)`` pairs (typically adding the node weight).
    * :meth:`virtual_root_value` — extra value/feasibility of a state at the
      tree root (the virtual outgoing edge).

    Problems whose accumulator space is finite declare it in
    :attr:`acc_states`; together with a semiring that has a dense kernel
    (:mod:`repro.dp.kernels`) this enables the vectorized NumPy backend,
    which represents all tables as dense arrays indexed by state id.  The
    optional ``*_key`` hooks let the backend cache the enumerated transition
    tensors across nodes: a problem whose rules depend only on, say, the
    edge kind returns that as the key and pays the enumeration cost once per
    kind instead of once per tree node.  Every payload the rule reads must
    be part of the key.
    """

    #: Finite, ordered state set.
    states: Sequence[Hashable] = ()
    #: Finite, ordered accumulator state set, or ``None`` when the
    #: accumulator space is unbounded/exotic (forces the scalar backend).
    acc_states: Optional[Sequence[Hashable]] = None
    #: Evaluation semiring.
    semiring: Semiring = None  # type: ignore[assignment]
    #: Human-readable problem name (used by the Table-1 benchmark).
    name: str = "finite-state-dp"

    def init_key(self, v: NodeInput) -> Optional[Hashable]:
        """Cache key of ``node_init(v)``'s dense vector (``None``: no caching)."""
        return None

    def transition_key(self, v: NodeInput, edge: EdgeInfo) -> Optional[Hashable]:
        """Cache key of ``transition``'s dense tensor for ``(v, edge)``.

        The key also groups nodes in the dense backend's level schedule:
        nodes whose children's edges carry different keys land in different
        stacked groups.  A payload float inside the key (an edge weight, a
        clause weight) with no :meth:`transition_affine_key` declared
        therefore splits each level into one group — and one enumeration —
        per distinct value, which on distinctly weighted trees degrades to
        per-node solves; declare the affine decomposition instead.
        """
        return None

    def finalize_key(self, v: NodeInput) -> Optional[Hashable]:
        """Cache key of ``finalize(v, ·)``'s dense matrix (``None``: no caching)."""
        return None

    def finalize_affine_key(self, v: NodeInput) -> Optional[Tuple[Hashable, Any]]:
        """Optional affine decomposition of ``finalize``'s node parameter.

        Returns ``(structural_key, w)`` when the finalize values depend on
        the node only through ``w`` — a scalar (typically the node weight)
        or a tuple of scalars (e.g. per-node clause weights) — *linearly*:
        ``F(v) = F(v|w=0) + Σ_k w_k * M_k`` cell by cell, where ``M_k`` is
        the unit-probe difference for the k-th weight.  The dense backend
        then enumerates the probe matrices once per structural key (see
        :meth:`finalize_affine_probe`) and builds every node's matrix — or a
        whole batch of them — with one fused array expression.  All nodes
        sharing one structural key must declare the same number of weights.
        Return ``None`` when finalize is not affine (the backend falls back
        to :meth:`finalize_key` caching / enumeration).  Only meaningful for
        the tropical (min-plus / max-plus) semirings.
        """
        return None

    def finalize_affine_probe(self, v: NodeInput, w: Any) -> NodeInput:
        """A copy of ``v`` whose finalize parameter is ``w``.

        Required when :meth:`finalize_affine_key` is implemented; called
        once per structural key with ``w = 0.0`` and ``w = 1.0`` when the
        declared parameter is a scalar, or with the all-zero and unit weight
        tuples when it is a tuple.
        """
        raise NotImplementedError(
            f"{self.name}: finalize_affine_key is declared but "
            "finalize_affine_probe is not implemented"
        )

    def transition_affine_key(
        self, v: NodeInput, edge: EdgeInfo
    ) -> Optional[Tuple[Hashable, Tuple[float, ...]]]:
        """Optional affine decomposition of ``transition``'s edge parameter.

        The transition analogue of :meth:`finalize_affine_key`: returns
        ``(structural_key, weights)`` when the transition values depend on
        ``(v, edge)`` only through the weight tuple, linearly —
        ``T(v, edge) = T|w=0 + Σ_k w_k * M_k`` cell by cell — while the
        *feasibility* pattern (which cells are the semiring zero) is fixed
        by the structural key alone.  The dense backend enumerates the probe
        tensors once per structural key (see
        :meth:`transition_affine_probe`) and composes every edge's tensor —
        or a whole batch of them — with one fused array expression, which is
        what lets per-edge weighted rules (e.g. max-SAT clause weights) join
        the grouped cross-cluster evaluation instead of defeating the tensor
        caches.  Return ``None`` when the transition is not affine (the
        backend falls back to :meth:`transition_key` caching / enumeration).
        Only meaningful for the tropical (min-plus / max-plus) semirings.
        """
        return None

    def transition_affine_probe(
        self, v: NodeInput, edge: EdgeInfo, weights: Tuple[float, ...]
    ) -> Tuple[NodeInput, "EdgeInfo"]:
        """A ``(v, edge)`` copy whose transition weight vector is ``weights``.

        Required when :meth:`transition_affine_key` is implemented; called
        once per structural key with the all-zero tuple and each unit tuple.
        """
        raise NotImplementedError(
            f"{self.name}: transition_affine_key is declared but "
            "transition_affine_probe is not implemented"
        )

    @abc.abstractmethod
    def node_init(self, v: NodeInput) -> Iterable[Tuple[Hashable, Any]]:
        """Initial ``(accumulator_state, value)`` pairs for node ``v``."""

    @abc.abstractmethod
    def transition(
        self, v: NodeInput, acc: Hashable, child_state: Hashable, edge: EdgeInfo
    ) -> Iterable[Tuple[Hashable, Any]]:
        """Absorb one child with ``child_state`` through ``edge``."""

    @abc.abstractmethod
    def finalize(self, v: NodeInput, acc: Hashable) -> Iterable[Tuple[Hashable, Any]]:
        """Map a final accumulator state to ``(node_state, value)`` pairs."""

    def virtual_root_value(self, state: Hashable) -> Any:
        """Value multiplied in for the root's state (default: neutral)."""
        return self.semiring.one

    def label_of_state(self, state: Hashable) -> Any:
        """Convert an internal state into the user-visible edge label."""
        return state

    def extract_solution(
        self,
        tree: RootedTree,
        node_states: Dict[Hashable, Hashable],
        value: Any,
    ) -> Any:
        """Problem-specific interpretation of the per-node states."""
        return {"node_states": node_states, "value": value}
