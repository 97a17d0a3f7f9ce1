"""Fixed-budget rehearsal memory with per-class quota rebalancing.

Every sampler emits a ranked selection, so shrinking a class's allowance is
always prefix-truncation of its ordered list. Quotas split the total budget
evenly; the remainder goes, one each, to the earliest-arrived classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .sampling import ExemplarSelection


@dataclass
class StoredClass:
    """One class's exemplars: an ordered prefix of its original selection."""

    class_id: int
    method: str
    ordered_indices: tuple[int, ...]
    points: np.ndarray  # (stored, d), rows follow ordered_indices
    provenance: str = "original"


@dataclass
class RehearsalMemory:
    """Exemplar store; ``classes`` is kept in class arrival order."""

    budget: int
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
    new_selections: dict[int, tuple[ExemplarSelection, np.ndarray]],
    budget: int,
) -> RehearsalMemory:
    """Insert new classes and re-truncate every class list to its quota.

    ``new_selections`` maps each new class id to its ordered selection and
    the class's full (original) data matrix; the stored rows are the
    first-quota prefix of the selection. Existing classes keep the head of
    their current list. Returns a new memory; the input is not mutated.
    """
    existing = {sc.class_id for sc in memory.classes}
    for cid in new_selections:
        if cid in existing:
            raise ValidationError(f"class {cid} is already stored in memory")
    arrival: list[StoredClass] = list(memory.classes)
    for cid in sorted(new_selections):
        selection, points = new_selections[cid]
        points = np.asarray(points, dtype=np.float64)
        arrival.append(
            StoredClass(
                class_id=int(cid),
                method=selection.method,
                ordered_indices=tuple(selection.ordered_indices),
                points=points[list(selection.ordered_indices)]
                if len(selection.ordered_indices)
                else points[:0],
            )
        )
    quotas = quotas_for(budget, len(arrival))
    rebalanced = [
        StoredClass(
            class_id=sc.class_id,
            method=sc.method,
            ordered_indices=sc.ordered_indices[:quota],
            points=sc.points[:quota].copy(),
            provenance=sc.provenance,
        )
        for sc, quota in zip(arrival, quotas)
    ]
    out = RehearsalMemory(budget=budget, classes=rebalanced)
    if out.total_stored() > budget:
        raise ValidationError(
            f"memory holds {out.total_stored()} exemplars over its budget of {budget}"
        )
    return out
