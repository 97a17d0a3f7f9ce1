"""Fixed-budget rehearsal memory with per-class quota rebalancing.

Every sampler emits a ranked selection, so shrinking a class's allowance is
always prefix-truncation of its ordered list. Quotas split the total budget
evenly; the remainder goes, one each, to the earliest-arrived classes. The
quota policy lives here alone: callers hand over each new class's rows and a
selector, and :func:`rebalance_memory` decides how many rows to ask for.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .sampling import ExemplarSelection


@dataclass
class StoredClass:
    """One class's exemplars: an ordered prefix of its original selection."""

    class_id: int
    ordered_indices: tuple[int, ...]
    points: np.ndarray  # (stored, d), rows follow ordered_indices


@dataclass
class RehearsalMemory:
    """Exemplar store; ``classes`` is kept in class arrival order."""

    classes: list[StoredClass] = field(default_factory=list)

    def total_stored(self) -> int:
        return sum(len(sc.ordered_indices) for sc in self.classes)

    def class_ids(self) -> list[int]:
        return [sc.class_id for sc in self.classes]

    def stored_points(self) -> tuple[np.ndarray, np.ndarray] | None:
        """All stored rows and their labels, or None when nothing is stored."""
        blocks = [sc for sc in self.classes if len(sc.ordered_indices)]
        if not blocks:
            return None
        points = np.vstack([sc.points for sc in blocks])
        labels = np.concatenate(
            [np.full(len(sc.ordered_indices), sc.class_id, dtype=np.int64) for sc in blocks]
        )
        return points, labels

    def class_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean stored point per class, skipping classes with empty lists."""
        ids = [sc.class_id for sc in self.classes if len(sc.ordered_indices)]
        if not ids:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
        means = np.vstack(
            [sc.points.mean(axis=0) for sc in self.classes if len(sc.ordered_indices)]
        )
        return np.asarray(ids, dtype=np.int64), means


def quotas_for(budget: int, arrival_count: int) -> list[int]:
    """Per-class quotas: floor split plus one extra for the earliest arrivals."""
    if arrival_count == 0:
        return []
    base, remainder = divmod(budget, arrival_count)
    return [base + (1 if i < remainder else 0) for i in range(arrival_count)]


def rebalance_memory(
    memory: RehearsalMemory,
    new_classes: dict[int, np.ndarray],
    budget: int,
    select: Callable[[int, np.ndarray, int], ExemplarSelection],
) -> RehearsalMemory:
    """Insert new classes and re-truncate every class list to its quota.

    ``new_classes`` maps each new class id to its full (original) data
    matrix. New classes arrive after the stored ones, in ascending id order.
    Each new class stores ``select(class_id, rows, m)``'s ordered picks,
    with ``m`` the smaller of its quota and its row count; a class whose
    ``m`` is 0 stores nothing and ``select`` is not called for it. Existing
    classes keep the head of their current list. Returns a new memory; the
    input is not mutated.
    """
    existing = set(memory.class_ids())
    for cid in new_classes:
        if cid in existing:
            raise ValidationError(f"class {cid} is already stored in memory")
    new_ids = sorted(new_classes)
    quotas = quotas_for(budget, len(memory.classes) + len(new_ids))
    classes = [
        StoredClass(
            class_id=sc.class_id,
            ordered_indices=sc.ordered_indices[:quota],
            points=sc.points[:quota].copy(),
        )
        for sc, quota in zip(memory.classes, quotas)
    ]
    for cid, quota in zip(new_ids, quotas[len(memory.classes) :]):
        rows = np.asarray(new_classes[cid], dtype=np.float64)
        m = min(quota, rows.shape[0])
        picks = tuple(select(cid, rows, m).ordered_indices) if m else ()
        classes.append(StoredClass(int(cid), picks, rows[list(picks)]))
    out = RehearsalMemory(classes)
    if out.total_stored() > budget:
        raise ValidationError(
            f"memory holds {out.total_stored()} exemplars over its budget of {budget}"
        )
    return out
