"""Seeded input generators: the same seed gives the same inputs.

The program under test only ever sees what these functions return: a tree
(or its parenthesis string) and a stream of point-update batches.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterator, List, Sequence, Tuple

from repro.dynamic import PointUpdate, edge_update, node_update
from repro.representations.base import StringOfParentheses
from repro.representations.parentheses import tree_to_parentheses
from repro.trees import generators as gen
from repro.trees.tree import RootedTree

#: Point updates per submitted batch, on every workload.
BATCH_UPDATES = 8


def attach_tree(n: int, seed: int) -> RootedTree:
    """A random attachment tree with uniform node and edge weights.

    Node weights feed maximum-weight independent set, edge weights
    maximum-weight matching.  Diameter grows as Θ(log n) and the maximum
    degree stays below the light threshold, so prepare() does no degree
    splitting.
    """
    tree = gen.with_random_weights(gen.random_attachment_tree(n, seed=seed), seed=seed)
    rng = random.Random(seed ^ 0x5EED)
    edge_data = {e: round(rng.uniform(0.5, 5.0), 3) for e in tree.edges()}
    return RootedTree(
        root=tree.root,
        parent=dict(tree.parent),
        node_data=dict(tree.node_data),
        edge_data=edge_data,
    )


def deep_tree(n: int, seed: int, hubs: int = 4) -> RootedTree:
    """A path-heavy tree: a near-path random recursive tree plus leafy hubs.

    ``random_recursive_tree`` with bias 0.999 gives diameter in the
    thousands at n=20,000; each of the ``hubs`` nodes gets ``n // 40``
    extra leaves (500 at n=20,000), far above the light threshold, so
    prepare() splits their degree.
    """
    leaves_per_hub = n // 40
    spine = n - hubs * leaves_per_hub
    if spine < max(2, hubs):
        raise ValueError("n too small for the requested hubs")
    base = gen.random_recursive_tree(spine, seed=seed, bias=0.999)
    parent: Dict[Hashable, Hashable] = dict(base.parent)
    rng = random.Random(seed ^ 0xD33B)
    nid = spine
    for hub in rng.sample(range(spine), hubs):
        for _ in range(leaves_per_hub):
            parent[nid] = hub
            nid += 1
    return RootedTree.from_parent_map(parent, root=0)


def deep_parens(n: int, seed: int) -> StringOfParentheses:
    """:func:`deep_tree` serialized as a parenthesis string."""
    return StringOfParentheses(tree_to_parentheses(deep_tree(n, seed)))


def update_batches(
    nodes: Sequence[Hashable],
    edges: Sequence[Tuple[Hashable, Hashable]],
    seed: int,
    size: int = BATCH_UPDATES,
) -> Iterator[List[PointUpdate]]:
    """An endless stream of ``size``-update batches, alternating node and
    edge weight edits on uniformly chosen targets."""
    rng = random.Random(seed ^ 0xBA7C)
    while True:
        batch: List[PointUpdate] = []
        for i in range(size):
            w = round(rng.uniform(0.1, 9.9), 3)
            if i % 2 == 0:
                batch.append(node_update(nodes[rng.randrange(len(nodes))], w))
            else:
                batch.append(edge_update(edges[rng.randrange(len(edges))], w))
        yield batch


def apply_to_tree(tree: RootedTree, updates: Sequence[PointUpdate]) -> RootedTree:
    """``tree`` with ``updates`` written into its payloads, in order."""
    node_data = dict(tree.node_data)
    edge_data = dict(tree.edge_data)
    for up in updates:
        (node_data if up.kind == "node" else edge_data)[up.target] = up.data
    return RootedTree(
        root=tree.root, parent=dict(tree.parent), node_data=node_data, edge_data=edge_data
    )
