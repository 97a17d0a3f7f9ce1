import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.memory import RehearsalMemory, quotas_for, rebalance_memory
from pbes.sampling import ExemplarSelection, pbes_sample


def pbes_select(cid, rows, m):
    return pbes_sample(rows, m)


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
        memory = rebalance_memory(
            RehearsalMemory(),
            {0: class_points(0, 10), 1: class_points(1, 8)},
            6,
            pbes_select,
        )
        assert [len(sc.ordered_indices) for sc in memory.classes] == [3, 3]
        assert memory.total_stored() == 6

    def test_three_classes_remainder(self):
        memory = rebalance_memory(
            RehearsalMemory(), {0: class_points(2, 9)}, 7, pbes_select
        )
        memory = rebalance_memory(
            memory, {2: class_points(4, 9), 1: class_points(3, 9)}, 7, pbes_select
        )
        assert [len(sc.ordered_indices) for sc in memory.classes] == [3, 2, 2]
        assert memory.class_ids() == [0, 1, 2]

    def test_shrink_truncates_to_prefix(self):
        memory = rebalance_memory(
            RehearsalMemory(),
            {0: class_points(5, 12), 1: class_points(6, 12)},
            6,
            pbes_select,
        )
        before = {sc.class_id: sc.ordered_indices for sc in memory.classes}
        memory = rebalance_memory(memory, {2: class_points(7, 12)}, 6, pbes_select)
        after = {sc.class_id: sc.ordered_indices for sc in memory.classes}
        assert after[0] == before[0][:2]
        assert after[1] == before[1][:2]
        assert len(after[2]) == 2

    def test_duplicate_class_rejected(self):
        memory = rebalance_memory(
            RehearsalMemory(), {0: class_points(8, 5)}, 4, pbes_select
        )
        with pytest.raises(ValidationError):
            rebalance_memory(memory, {0: class_points(9, 5)}, 4, pbes_select)

    def test_budget_never_exceeded_random_walk(self):
        gen = np.random.default_rng(10)
        for budget in range(0, 51, 7):
            memory = RehearsalMemory()
            next_class = 0
            for _ in range(6):
                new = {}
                for _ in range(int(gen.integers(1, 3))):
                    n = int(gen.integers(2, 12))
                    new[next_class] = class_points(next_class + 100, n)
                    next_class += 1
                memory = rebalance_memory(memory, new, budget, pbes_select)
                assert memory.total_stored() <= budget

    def test_selector_asked_for_quota_capped_by_rows(self):
        """Quotas 3, 3, 2, 2 of a budget of 10; the 1-row class is asked for 1."""
        asked = []

        def select(cid, rows, m):
            asked.append((cid, rows.shape[0], m))
            return pbes_sample(rows, m)

        first = {0: class_points(40, 6), 1: class_points(41, 6)}
        memory = rebalance_memory(RehearsalMemory(), first, 10, select)
        second = {2: class_points(42, 1), 3: class_points(43, 6)}
        memory = rebalance_memory(memory, second, 10, select)
        assert asked == [(0, 6, 5), (1, 6, 5), (2, 1, 1), (3, 6, 2)]
        assert [len(sc.ordered_indices) for sc in memory.classes] == [3, 3, 1, 2]

    def test_zero_quota_stores_nothing_without_selecting(self):
        asked = []

        def select(cid, rows, m):
            asked.append(cid)
            return pbes_sample(rows, m)

        new = {cid: class_points(50 + cid, 4) for cid in range(3)}
        memory = rebalance_memory(RehearsalMemory(), new, 2, select)
        assert asked == [0, 1]
        assert [sc.ordered_indices for sc in memory.classes][2] == ()
        assert memory.classes[2].points.shape == (0, 2)

    def test_prefix_stability_across_shrinks(self):
        original = {}

        def select(cid, rows, m):
            selection = pbes_sample(rows, m)
            original[cid] = selection.ordered_indices
            return selection

        memory = RehearsalMemory()
        for cid in range(5):
            new = {cid: class_points(cid + 20, 10)}
            memory = rebalance_memory(memory, new, 10, select)
            for sc in memory.classes:
                stored = sc.ordered_indices
                assert stored == original[sc.class_id][: len(stored)]

    def test_points_follow_selection_order(self):
        pts = class_points(30, 6)
        sel = pbes_sample(pts, 4)
        memory = rebalance_memory(RehearsalMemory(), {0: pts}, 4, pbes_select)
        sc = memory.classes[0]
        assert sc.ordered_indices == sel.ordered_indices
        assert np.array_equal(sc.points, pts[list(sel.ordered_indices)])

    def test_input_memory_not_mutated(self):
        memory = rebalance_memory(
            RehearsalMemory(), {0: class_points(31, 6)}, 4, pbes_select
        )
        snapshot = [sc.ordered_indices for sc in memory.classes]
        rebalance_memory(memory, {1: class_points(32, 6)}, 4, pbes_select)
        assert [sc.ordered_indices for sc in memory.classes] == snapshot


class TestMemoryViews:
    def test_stored_points_and_labels(self):
        memory = rebalance_memory(
            RehearsalMemory(),
            {3: class_points(33, 5), 7: class_points(34, 5)},
            4,
            pbes_select,
        )
        stored, labels = memory.stored_points()
        assert stored.shape == (4, 2)
        assert list(labels) == [3, 3, 7, 7]

    def test_empty_memory_views(self):
        memory = RehearsalMemory()
        assert memory.stored_points() is None
        ids, means = memory.class_means()
        assert len(ids) == 0 and means.size == 0

    def test_class_means(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
        memory = rebalance_memory(
            RehearsalMemory(),
            {1: pts},
            2,
            lambda cid, rows, m: ExemplarSelection("random", (0, 2), None),
        )
        ids, means = memory.class_means()
        assert list(ids) == [1]
        assert np.array_equal(means[0], [2.0, 2.0])


def test_selector_over_its_quota_is_validation_error():
    # A selector that returns one pick more than asked would overfill the memory.
    def greedy(cid, rows, m):
        return ExemplarSelection("greedy", tuple(range(m + 1)))

    with pytest.raises(ValidationError, match="memory holds 3 exemplars over its budget of 2"):
        rebalance_memory(RehearsalMemory(), {0: class_points(1, 4)}, 2, greedy)
