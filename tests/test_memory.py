import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.memory import RehearsalMemory, quotas_for, rebalance_memory
from pbes.sampling import ExemplarSelection, pbes_sample


def selection_for(points, m, method="pbes"):
    if m == 0:
        return (ExemplarSelection(method, (), None), points)
    return (pbes_sample(points, m), points)


def class_points(seed, n, d=2):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestQuotas:
    def test_even_split(self):
        assert quotas_for(6, 2) == [3, 3]

    def test_remainder_to_earliest(self):
        assert quotas_for(7, 3) == [3, 2, 2]

    def test_zero_budget(self):
        assert quotas_for(0, 4) == [0, 0, 0, 0]

    def test_budget_below_class_count(self):
        assert quotas_for(3, 5) == [1, 1, 1, 0, 0]


class TestRebalance:
    def test_two_classes_even(self):
        memory = RehearsalMemory(budget=6)
        pts = class_points(0, 10)
        memory = rebalance_memory(
            memory,
            {0: selection_for(pts, 3), 1: selection_for(class_points(1, 8), 3)},
            6,
        )
        assert [len(sc.ordered_indices) for sc in memory.classes] == [3, 3]
        assert memory.total_stored() == 6

    def test_three_classes_remainder(self):
        memory = RehearsalMemory(budget=7)
        memory = rebalance_memory(
            memory, {0: selection_for(class_points(2, 9), 4)}, 7
        )
        memory = rebalance_memory(
            memory,
            {
                1: selection_for(class_points(3, 9), 3),
                2: selection_for(class_points(4, 9), 3),
            },
            7,
        )
        assert [len(sc.ordered_indices) for sc in memory.classes] == [3, 2, 2]
        assert memory.class_ids() == [0, 1, 2]

    def test_shrink_truncates_to_prefix(self):
        memory = RehearsalMemory(budget=6)
        pts_a = class_points(5, 12)
        pts_b = class_points(6, 12)
        memory = rebalance_memory(
            memory, {0: selection_for(pts_a, 3), 1: selection_for(pts_b, 3)}, 6
        )
        before = {sc.class_id: sc.ordered_indices for sc in memory.classes}
        memory = rebalance_memory(memory, {2: selection_for(class_points(7, 12), 2)}, 6)
        after = {sc.class_id: sc.ordered_indices for sc in memory.classes}
        assert after[0] == before[0][:2]
        assert after[1] == before[1][:2]
        assert len(after[2]) == 2

    def test_duplicate_class_rejected(self):
        memory = rebalance_memory(
            RehearsalMemory(budget=4), {0: selection_for(class_points(8, 5), 2)}, 4
        )
        with pytest.raises(ValidationError):
            rebalance_memory(memory, {0: selection_for(class_points(9, 5), 2)}, 4)

    def test_budget_never_exceeded_random_walk(self):
        gen = np.random.default_rng(10)
        for budget in range(0, 51, 7):
            memory = RehearsalMemory(budget=budget)
            next_class = 0
            for _ in range(6):
                new = {}
                for _ in range(int(gen.integers(1, 3))):
                    n = int(gen.integers(2, 12))
                    pts = class_points(next_class + 100, n)
                    arrival = len(memory.classes) + len(new) + 1
                    quota = quotas_for(budget, arrival)[-1] if budget else 0
                    new[next_class] = selection_for(pts, min(quota, n))
                    next_class += 1
                memory = rebalance_memory(memory, new, budget)
                assert memory.total_stored() <= budget

    def test_prefix_stability_across_shrinks(self):
        memory = RehearsalMemory(budget=10)
        original = {}
        for cid in range(5):
            pts = class_points(cid + 20, 10)
            sel = pbes_sample(pts, 10)
            original[cid] = sel.ordered_indices
            memory = rebalance_memory(memory, {cid: (sel, pts)}, 10)
            for sc in memory.classes:
                stored = sc.ordered_indices
                assert stored == original[sc.class_id][: len(stored)]

    def test_points_follow_selection_order(self):
        pts = class_points(30, 6)
        sel = pbes_sample(pts, 4)
        memory = rebalance_memory(RehearsalMemory(budget=4), {0: (sel, pts)}, 4)
        sc = memory.classes[0]
        assert np.array_equal(sc.points, pts[list(sel.ordered_indices)])
        assert sc.method == "pbes"

    def test_input_memory_not_mutated(self):
        pts = class_points(31, 6)
        memory = rebalance_memory(
            RehearsalMemory(budget=4), {0: selection_for(pts, 4)}, 4
        )
        snapshot = [sc.ordered_indices for sc in memory.classes]
        rebalance_memory(memory, {1: selection_for(class_points(32, 6), 2)}, 4)
        assert [sc.ordered_indices for sc in memory.classes] == snapshot


class TestMemoryViews:
    def test_stored_points_and_labels(self):
        pts = class_points(33, 5)
        memory = rebalance_memory(
            RehearsalMemory(budget=4),
            {3: selection_for(pts, 2), 7: selection_for(class_points(34, 5), 2)},
            4,
        )
        stored, labels = memory.stored_points()
        assert stored.shape == (4, 2)
        assert list(labels) == [3, 3, 7, 7]

    def test_empty_memory_views(self):
        memory = RehearsalMemory(budget=0)
        assert memory.stored_points() is None
        ids, means = memory.class_means()
        assert len(ids) == 0 and means.size == 0

    def test_class_means(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        sel = ExemplarSelection("random", (0, 2), None)
        memory = rebalance_memory(RehearsalMemory(budget=2), {1: (sel, pts)}, 2)
        ids, means = memory.class_means()
        assert list(ids) == [1]
        assert np.array_equal(means[0], [2.0, 2.0])
