"""Seeded relabelling of node and spring ids.

A relabelling permutes the incidence rows and columns, the per-spring
arrays and edge shifts, the node coordinate blocks, and the columns of the
constraint matrix.  Displacement and strain loads are indexed by
constraint row and stay as they are.  The physics is unchanged, so every
output maps back onto the output of the original numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latsweep import LatticeDefinition, LoadSchedule


@dataclass(frozen=True)
class Relabelling:
    """New node ``i`` is old node ``nodes[i]``; new spring ``j`` is old
    spring ``springs[j]``."""

    nodes: np.ndarray
    springs: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, n_nodes: int, n_springs: int) -> "Relabelling":
        return cls(nodes=rng.permutation(n_nodes), springs=rng.permutation(n_springs))

    def apply(
        self, definition: LatticeDefinition, loads: LoadSchedule
    ) -> tuple[LatticeDefinition, LoadSchedule]:
        if loads.force_values is not None:
            raise ValueError("force loads are indexed by degree of freedom; relabel them too")
        d = definition.dimension
        s = self.springs
        dofs = (self.nodes[:, None] * d + np.arange(d)).reshape(-1)
        relabelled = LatticeDefinition(
            incidence=definition.incidence[self.nodes][:, s],
            reference_coords=definition.reference_coords[dofs],
            dimension=d,
            stiffness=definition.stiffness[s],
            lower_limits=definition.lower_limits[s],
            upper_limits=definition.upper_limits[s],
            constraint_matrix=definition.constraint_matrix[:, dofs],
            edge_shifts=None if definition.edge_shifts is None else definition.edge_shifts[s],
            box_lengths=definition.box_lengths,
            volume=definition.volume,
            label=definition.label,
        )
        return relabelled, loads

