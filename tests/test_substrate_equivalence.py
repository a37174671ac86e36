"""Substrate-equivalence tests: array vs record treeops, fast vs exact words.

Two independent equivalence axes of the rebuilt MPC substrate are pinned
here:

* ``treeops_backend`` — the vectorized integer-array tree subroutines
  (:mod:`repro.mpc.treeops_array`) must produce bit-identical outputs *and*
  bit-identical round/label accounting to the record-level reference path,
  for the raw subroutines and for the full clustering construction built on
  top of them (clusters, layers, hole paths, per-phase round stats,
  charged rounds).
* ``accounting`` — the structural fast sizer must observe the same peak
  word counts and total communication volume as the exact reference walker
  on real pipeline runs, and agree with it on representative record shapes.
"""

import pytest

from repro.clustering.builder import ClusteringBuilder
from repro.core.pipeline import prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.mpc.treeops import (
    _capped_subtree_gather_records,
    _compute_depths_records,
    _degree2_path_positions_records,
    capped_subtree_gather,
    compute_depths,
    degree2_path_positions,
)
from repro.mpc.words import fast_word_size, word_size
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen

from tests.conftest import FAMILIES, FAMILY_IDS


def sim_pair(n, **kw):
    """Two identically configured sims, one per treeops backend."""
    arr = MPCSimulator(MPCConfig(n=max(4, n), treeops_backend="array", **kw))
    rec = MPCSimulator(MPCConfig(n=max(4, n), treeops_backend="records", **kw))
    return arr, rec


def assert_round_stats_identical(a, b):
    assert a.rounds == b.rounds
    assert a.charged_rounds == b.charged_rounds
    assert a.rounds_by_label == b.rounds_by_label
    assert a.charged_by_label == b.charged_by_label


# --------------------------------------------------------------------------- #
# Raw treeops subroutines
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_compute_depths_backends_bit_identical(family, builder):
    tree = builder(150)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    depths_a = compute_depths(sim_a, dict(tree.parent), tree.root)
    depths_r = _compute_depths_records(sim_r, dict(tree.parent), tree.root)
    assert depths_a == depths_r
    assert all(type(d) is int for d in depths_a.values())
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("cap", [3, 8, 25])
def test_capped_subtree_gather_backends_bit_identical(family, builder, cap):
    tree = builder(130)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    info_a = capped_subtree_gather(
        sim_a, dict(tree.parent), tree.children_map(), tree.root, cap=cap
    )
    info_r = _capped_subtree_gather_records(
        sim_r, dict(tree.parent), tree.children_map(), tree.root, cap=cap
    )
    assert set(info_a) == set(info_r)
    for v in info_r:
        a, r = info_a[v], info_r[v]
        assert (a.node, a.heavy, a.size, a.members) == (r.node, r.heavy, r.size, r.members)
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_degree2_path_positions_backends_bit_identical(seed):
    tree = gen.random_attachment_tree(160, seed=seed)
    children = tree.children_map()
    # Degree-2 path fragments of the tree, as the builder would extract them.
    path_parent, path_child = {}, {}
    for v in tree.nodes():
        if v == tree.root or len(children[v]) != 1:
            continue
        p = tree.parent[v]
        path_parent[v] = p if (p != tree.root and len(children[p]) == 1) else None
        c = children[v][0]
        path_child[v] = c if len(children.get(c, [])) == 1 and c != tree.root else None
    sim_a, sim_r = sim_pair(tree.num_nodes)
    pos_a = degree2_path_positions(sim_a, path_parent, path_child)
    pos_r = _degree2_path_positions_records(sim_r, path_parent, path_child)
    assert pos_a == pos_r
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


def test_degree2_empty_is_equivalent():
    sim_a, sim_r = sim_pair(8)
    assert degree2_path_positions(sim_a, {}, {}) == {}
    assert _degree2_path_positions_records(sim_r, {}, {}) == {}
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


# --------------------------------------------------------------------------- #
# Full clustering construction
# --------------------------------------------------------------------------- #


def hole_path_of(cluster):
    """Ordered hole path (hole element first) — the spine of hole_plan()."""
    if cluster.hole_element is None:
        return []
    parent = cluster.element_parent()
    path = [cluster.hole_element]
    while path[-1] != cluster.top_element:
        path.append(parent[path[-1]])
    return path


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [60, 300])
def test_clustering_backends_bit_identical(family, builder, n):
    tree = builder(n)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    prep_a = prepare(tree, sim=sim_a)
    prep_r = prepare(tree, sim=sim_r)
    hc_a, hc_r = prep_a.clustering, prep_r.clustering

    assert hc_a.layers == hc_r.layers
    assert hc_a.num_layers == hc_r.num_layers
    assert hc_a.final_cluster_id == hc_r.final_cluster_id
    assert set(hc_a.clusters) == set(hc_r.clusters)
    for cid in hc_r.clusters:
        a, r = hc_a.clusters[cid], hc_r.clusters[cid]
        assert a.kind == r.kind and a.layer == r.layer
        assert a.elements == r.elements
        assert a.internal_edges == r.internal_edges
        assert (a.top_element, a.top_node, a.out_edge) == (r.top_element, r.top_node, r.out_edge)
        assert (a.in_edge, a.hole_element) == (r.in_edge, r.hole_element)
        assert hole_path_of(a) == hole_path_of(r)

    # Per-phase round statistics, measured and charged.
    assert_round_stats_identical(prep_a.normalization_stats, prep_r.normalization_stats)
    assert_round_stats_identical(prep_a.clustering_stats, prep_r.clustering_stats)
    assert hc_a.stats["rounds"] == hc_r.stats["rounds"]
    assert hc_a.stats["charged_rounds"] == hc_r.stats["charged_rounds"]
    assert hc_a.stats["iteration_log"] == hc_r.stats["iteration_log"]

    # And a DP solve on top sees no difference either.
    res_a = solve_on(prep_a, MaxWeightIndependentSet())
    res_r = solve_on(prep_r, MaxWeightIndependentSet())
    assert res_a.value == res_r.value
    assert res_a.edge_labels == res_r.edge_labels
    assert res_a.rounds == res_r.rounds


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_clustering_backends_bit_identical_random_seeds(seed):
    tree = gen.random_attachment_tree(400, seed=seed)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    hc_a = prepare(tree, sim=sim_a).clustering
    hc_r = prepare(tree, sim=sim_r).clustering
    assert hc_a.layers == hc_r.layers
    assert {c: hc_a.clusters[c].elements for c in hc_a.clusters} == {
        c: hc_r.clusters[c].elements for c in hc_r.clusters
    }
    assert hc_a.stats["rounds"] == hc_r.stats["rounds"]
    assert hc_a.stats["charged_rounds"] == hc_r.stats["charged_rounds"]


def test_builder_incremental_maps_match_reference_scan():
    """The incrementally maintained builder views equal the full rescans."""
    tree = gen.random_attachment_tree(250, seed=3)
    sim = MPCSimulator(MPCConfig(n=tree.num_nodes))
    builder = ClusteringBuilder(sim, tree)

    orig_make = builder._make_cluster

    def checked_make(*args, **kwargs):
        cid = orig_make(*args, **kwargs)
        assert set(builder.uncolored) == {
            e for e in builder.elements if e not in builder.colored
        }
        # The rescan lists the final cluster element as its own colored child
        # (its parent pointer is a self-loop); no construction step ever reads
        # that state, and the incremental map deliberately drops the self-loop.
        reference = {
            p: kids
            for p, kids in builder._colored_children_map().items()
            if [p] != kids or builder.parent_elem.get(p) != p
        }
        assert builder.colored_children == reference
        return cid

    builder._make_cluster = checked_make
    builder.build()
    assert not builder.uncolored


# --------------------------------------------------------------------------- #
# Accounting modes
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "record",
    [
        7,
        -3,
        2**200,
        3.5,
        True,
        None,
        "clause-literal",
        b"\x00\x01",
        (4, 5, 6),
        (1, frozenset({2, 3, 4}), frozenset(), False),
        ("samples", [1, 2, 3, 9_999_999]),
        ("resp", 4, (4, frozenset({4, 5}), frozenset({5}), False)),
        {"clauses": [(True, 2.5)], "w": 1},
        [("L", (3, 1)), ("R", (3, 2))],
        frozenset({1.5, 2.5}),
        set(),
        (2**80, 1),
    ],
    ids=repr,
)
def test_fast_word_size_matches_exact(record):
    assert fast_word_size(record) == word_size(record)


def test_cached_word_count_is_authoritative():
    class Table:
        __mpc_words__ = 17

    assert word_size(Table()) == 17
    assert fast_word_size(Table()) == 17


def test_cached_word_count_wins_on_container_subclasses():
    # Both sizers must agree on cached records even when the record is a
    # container subclass (a NamedTuple, say) that the structural rules would
    # otherwise walk.
    class SizedTuple(tuple):
        __mpc_words__ = 5

    rec = SizedTuple((1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert word_size(rec) == 5
    assert fast_word_size(rec) == 5


@pytest.mark.parametrize("treeops", ["records", "array"])
@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_fast_and_exact_accounting_observe_identical_peaks(family, builder, treeops):
    tree = builder(120)
    sims = {
        mode: MPCSimulator(MPCConfig(n=tree.num_nodes, accounting=mode, treeops_backend=treeops))
        for mode in ("exact", "fast")
    }
    stats = {}
    for mode, sim in sims.items():
        prep = prepare(tree, sim=sim)
        solve_on(prep, MaxWeightIndependentSet())
        stats[mode] = sim.stats
    e, f = stats["exact"], stats["fast"]
    assert e.peak_machine_words == f.peak_machine_words
    assert e.peak_round_send_words == f.peak_round_send_words
    assert e.peak_round_recv_words == f.peak_round_recv_words
    assert e.total_words_sent == f.total_words_sent
    assert e.total_messages == f.total_messages
    assert e.rounds == f.rounds and e.charged_rounds == f.charged_rounds


def test_accounting_off_disables_word_pricing_but_not_rounds():
    # The records backend actually routes messages, so word pricing is live.
    tree = gen.random_attachment_tree(150, seed=1)
    off = MPCSimulator(MPCConfig(n=tree.num_nodes, accounting="off", treeops_backend="records"))
    fast = MPCSimulator(MPCConfig(n=tree.num_nodes, accounting="fast", treeops_backend="records"))
    prep_off = prepare(tree, sim=off)
    prep_fast = prepare(tree, sim=fast)
    assert off.stats.total_words_sent == 0
    assert off.stats.peak_machine_words == 0
    assert fast.stats.total_words_sent > 0
    assert off.stats.rounds == fast.stats.rounds
    assert off.stats.total_messages == fast.stats.total_messages
    assert prep_off.clustering.layers == prep_fast.clustering.layers


def test_invalid_modes_rejected():
    with pytest.raises(ValueError):
        MPCConfig(n=64, accounting="lazy")
    with pytest.raises(ValueError):
        MPCConfig(n=64, treeops_backend="gpu")


# --------------------------------------------------------------------------- #
# Array-backend load model (ROADMAP: peak observability of the array path)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [60, 150], ids=["n60", "n150"])
def test_load_model_matches_records_backend_peaks(family, builder, n):
    """With the opt-in load model, the array backend's peak-word statistics
    for ``prepare()`` match the records backend's exactly.

    The array backend's subroutine state is driver-side, so by default it
    observes no per-machine loads at all; ``treeops_load_model="records"``
    replays the record-level reference path on a shadow deployment for
    sizing only.  The peak statistic is a running max over observations, so
    parity here means the shadow replay is faithful to the records path's
    full observation set.
    """
    tree = gen.with_random_weights(builder(n), seed=3)
    sim_lm = MPCSimulator(
        MPCConfig(n=tree.num_nodes, treeops_backend="array", treeops_load_model="records")
    )
    sim_rec = MPCSimulator(MPCConfig(n=tree.num_nodes, treeops_backend="records"))
    prepare(tree, sim=sim_lm)
    prepare(tree, sim=sim_rec)
    assert sim_rec.stats.peak_machine_words > 0
    assert sim_lm.stats.peak_machine_words == sim_rec.stats.peak_machine_words


def test_load_model_off_by_default_and_validated():
    tree = gen.random_attachment_tree(80, seed=5)
    sim = MPCSimulator(MPCConfig(n=tree.num_nodes, treeops_backend="array"))
    prepare(tree, sim=sim)
    # Default: the array path's driver-side state is unobserved.
    assert sim.config.treeops_load_model == "none"
    assert sim.stats.peak_machine_words == 0
    with pytest.raises(ValueError):
        MPCConfig(n=64, treeops_load_model="exact")


def test_load_model_does_not_change_rounds_or_outputs():
    """The shadow replay is sizing-only: round/label accounting and the
    clustering itself stay bit-identical to a plain array-backend run."""
    tree = gen.with_random_weights(gen.random_attachment_tree(150, seed=7), seed=7)
    plain = MPCSimulator(MPCConfig(n=tree.num_nodes, treeops_backend="array"))
    modeled = MPCSimulator(
        MPCConfig(n=tree.num_nodes, treeops_backend="array", treeops_load_model="records")
    )
    prep_plain = prepare(tree, sim=plain)
    prep_modeled = prepare(tree, sim=modeled)
    assert plain.stats.rounds == modeled.stats.rounds
    assert plain.stats.rounds_by_label == modeled.stats.rounds_by_label
    assert plain.stats.charged_by_label == modeled.stats.charged_by_label
    assert plain.stats.total_messages == modeled.stats.total_messages
    assert prep_plain.clustering.layers == prep_modeled.clustering.layers
    assert {
        cid: c.elements for cid, c in prep_plain.clustering.clusters.items()
    } == {cid: c.elements for cid, c in prep_modeled.clustering.clusters.items()}
