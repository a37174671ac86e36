"""Unit tests for the vectorized kernel subsystem (repro.dp.kernels)."""

import random

import numpy as np
import pytest

from repro.core.pipeline import prepare, solve_on
from repro.dp.kernels import (
    CountingModKernel,
    MaxPlusKernel,
    MinPlusKernel,
    StateSpace,
    SumProductKernel,
    UndeclaredStateError,
    kernel_for,
    summary_as_dict,
)
from repro.dp.local_solver import FiniteStateClusterSolver, backend_ineligibility
from repro.dp.problem import FiniteStateDP
from repro.dp.semiring import MAX_PLUS, MIN_PLUS, SUM_PRODUCT, Semiring, counting_mod
from repro.mpc.config import MPCConfig
from repro.problems.counting_matchings import CountMatchingsModK
from repro.problems.edge_coloring import EdgeColoring
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.max_weight_matching import MaxWeightMatching
from repro.problems.min_weight_dominating_set import MinWeightDominatingSet
from repro.problems.registry import table1_entries
from repro.problems.sum_coloring import SumColoring
from repro.trees import generators as gen
from repro.trees.tree import RootedTree

from tests.conftest import FAMILIES, FAMILY_IDS


class TestStateSpace:
    def test_roundtrip(self):
        space = StateSpace(("in", "out", "maybe"))
        assert len(space) == 3
        for i, s in enumerate(space.states):
            assert space.encode(s) == i
            assert space.decode(i) == s
        assert "in" in space and "gone" not in space

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(())


class TestKernelRegistry:
    def test_shipped_semirings_have_kernels(self):
        assert isinstance(kernel_for(MIN_PLUS), MinPlusKernel)
        assert isinstance(kernel_for(MAX_PLUS), MaxPlusKernel)
        assert isinstance(kernel_for(SUM_PRODUCT), SumProductKernel)
        assert isinstance(kernel_for(counting_mod(97)), CountingModKernel)

    def test_exotic_semiring_has_no_kernel(self):
        exotic = Semiring(
            name="boolean-or-and",
            plus=lambda a, b: a or b,
            times=lambda a, b: a and b,
            zero=False,
            one=True,
            selective=False,
        )
        assert kernel_for(exotic) is None

    def test_oversized_counting_modulus_rejected(self):
        assert kernel_for(counting_mod(2**62)) is None

    def test_tropical_reductions_break_ties_to_first(self):
        k = kernel_for(MIN_PLUS)
        arr = np.array([[3.0, 1.0, 1.0, 2.0]])
        assert k.argreduce(arr, axis=1).tolist() == [1]
        k2 = kernel_for(MAX_PLUS)
        arr2 = np.array([2.0, 5.0, 5.0])
        assert int(k2.argreduce_flat(arr2)) == 1

    def test_counting_reduce_is_exact(self):
        k = kernel_for(counting_mod(997))
        a = np.array([990, 995], dtype=np.int64)
        b = np.array([993, 991], dtype=np.int64)
        combined = k.combine(a, b)
        assert combined.tolist() == [(990 * 993) % 997, (995 * 991) % 997]
        assert int(k.reduce(combined, axis=0)) == sum(combined.tolist()) % 997


class TestBackendSelection:
    def test_auto_prefers_numpy_when_eligible(self):
        solver = FiniteStateClusterSolver(MaxWeightIndependentSet())
        assert solver.backend == "numpy"

    def test_auto_falls_back_for_undeclared_acc_states(self):
        solver = FiniteStateClusterSolver(EdgeColoring(k=4))
        assert solver.backend == "python"
        assert backend_ineligibility(EdgeColoring(k=4)) is not None

    def test_forced_numpy_rejects_ineligible_problem(self):
        with pytest.raises(ValueError, match="numpy backend unavailable"):
            FiniteStateClusterSolver(EdgeColoring(k=4), backend="numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            FiniteStateClusterSolver(MaxWeightIndependentSet(), backend="gpu")

    def test_config_validates_and_propagates_backend(self):
        with pytest.raises(ValueError):
            MPCConfig(n=64, dp_backend="fortran")
        cfg = MPCConfig(n=64, dp_backend="python")
        assert cfg.scaled(256).dp_backend == "python"

    def test_pipeline_backend_threading(self):
        tree = gen.with_random_weights(gen.random_attachment_tree(60, seed=1), seed=1)
        prepared = prepare(tree, backend="python")
        assert prepared.sim.config.dp_backend == "python"
        res = solve_on(prepared, MaxWeightIndependentSet())
        assert res.value == pytest.approx(
            solve_on(prepared, MaxWeightIndependentSet(), backend="numpy").value
        )


class _BadAccProblem(FiniteStateDP):
    """Declares an accumulator space that its transitions escape."""

    states = ("a", "b")
    acc_states = ("start",)
    semiring = MIN_PLUS
    name = "bad-acc-problem"

    def node_init(self, v):
        yield ("start", 0.0)

    def transition(self, v, acc, child_state, edge):
        yield ("undeclared", 0.0)

    def finalize(self, v, acc):
        yield ("a", 0.0)


def test_undeclared_acc_state_raises_clearly():
    tree = gen.path_tree(20)
    prepared = prepare(tree)
    with pytest.raises(UndeclaredStateError, match="undeclared"):
        solve_on(prepared, _BadAccProblem(), backend="numpy")


class TestSummaries:
    def test_dense_and_dict_summaries_normalise_equal(self):
        tree = gen.with_random_weights(gen.random_attachment_tree(80, seed=4), seed=4)
        prepared = prepare(tree)
        res_py = solve_on(prepared, MaxWeightIndependentSet(), backend="python")
        res_np = solve_on(prepared, MaxWeightIndependentSet(), backend="numpy")
        space = StateSpace(MaxWeightIndependentSet.states)
        zero = MAX_PLUS.zero
        for cid, dense_summary in res_np.solve_result.summaries.items():
            dict_summary = res_py.solve_result.summaries[cid]
            assert dense_summary["kind"] == dict_summary["kind"]
            assert summary_as_dict(dense_summary, space, zero) == pytest.approx(
                summary_as_dict(dict_summary, space, zero)
            )


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize(
    "make_problem",
    [
        MaxWeightIndependentSet,
        MinWeightDominatingSet,
        lambda: SumColoring(k=3),
        lambda: CountMatchingsModK(k=997),
    ],
    ids=["mwis", "domset", "sumcol", "countmatch"],
)
def test_backends_identical_across_families(family, builder, make_problem):
    """Values and labels are bit-identical on every tree family."""
    tree = gen.with_random_weights(builder(150), seed=7)
    prepared = prepare(tree)
    res_py = solve_on(prepared, make_problem(), backend="python")
    res_np = solve_on(prepared, make_problem(), backend="numpy")
    assert res_py.value == res_np.value
    assert res_py.edge_labels == res_np.edge_labels
    assert res_py.node_labels == res_np.node_labels


#: Every tropical finite-state Table-1 problem on the dense backend.
TROPICAL_ENTRIES = [
    e
    for e in table1_entries()
    if isinstance(e.make_problem(), FiniteStateDP)
    and backend_ineligibility(e.make_problem()) is None
    and e.make_problem().semiring in (MIN_PLUS, MAX_PLUS)
]


def _distinctly_weighted_tree(n: int, seed: int) -> RootedTree:
    """An attachment tree whose every node and edge payload is distinct.

    Each payload carries a distinct ``weight`` (node weights, matching edge
    weights) and a distinctly weighted clause (max-SAT), so a problem that
    keys a rule cache on a payload value sees a new key at every node.
    """
    shape = gen.random_attachment_tree(n, seed=seed)
    rng = random.Random(seed)
    node_data = {
        v: {
            "weight": round(rng.uniform(0.5, 9.5), 6),
            "clauses": [(rng.random() < 0.5, round(rng.uniform(0.5, 5.0), 6))],
        }
        for v in shape.nodes()
    }
    edge_data = {
        e: {
            "weight": round(rng.uniform(0.5, 5.0), 6),
            "clauses": [
                (rng.random() < 0.5, rng.random() < 0.5, round(rng.uniform(0.5, 5.0), 6))
            ],
        }
        for e in shape.edges()
    }
    return RootedTree(
        root=shape.root, parent=dict(shape.parent), node_data=node_data, edge_data=edge_data
    )


@pytest.mark.parametrize("entry", TROPICAL_ENTRIES, ids=[e.name for e in TROPICAL_ENTRIES])
def test_rule_enumerations_do_not_grow_with_n(entry):
    """Scalar rule enumerations are paid per rule structure, not per node.

    A tropical problem whose transition or finalize reads a payload float
    must declare that dependence as an affine decomposition; putting the
    float into a plain cache key instead makes one enumeration per distinct
    value, so the count would grow with the tree.
    """
    counts = []
    for n in (500, 2000):
        solver = FiniteStateClusterSolver(entry.make_problem(), backend="numpy")
        solve_on(prepare(_distinctly_weighted_tree(n, 3)), solver)
        stats = solver._dense.cache_stats()
        counts.append((stats["transition_enumerations"], stats["finalize_enumerations"]))
    assert counts[0] == counts[1], f"{entry.name}: enumerations {counts[0]} -> {counts[1]}"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_matching_edge_weight_raises(bad):
    """A NaN or infinite edge weight is refused, not turned into value=nan."""
    tree = gen.random_attachment_tree(200, seed=5)
    weights = {e: 1.0 + (i % 7) / 4 for i, e in enumerate(tree.edges())}
    weights[tree.edges()[40]] = bad
    tree = RootedTree(root=tree.root, parent=dict(tree.parent), edge_data=weights)
    with pytest.raises(FloatingPointError, match="non-finite affine weight"):
        solve_on(prepare(tree), MaxWeightMatching())
