"""The relay-policy contract shared by both simulation engines.

Per the paper's protocol skeleton (Sec. 4.2), every node takes exactly
one relay decision, upon its *first* successful reception: whether to
re-broadcast, and in which slot of the next time phase.  A policy
expresses that decision vectorized over a batch of newly informed nodes
(:meth:`RelayPolicy.schedule`), plus an optional last-moment veto
evaluated when the chosen slot arrives (:meth:`RelayPolicy.confirm`) —
the hook the counter-based scheme uses to suppress redundant relays.

Policies must draw randomness only from the generator handed to them,
so simulations stay reproducible under a seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from repro.network.topology import Topology

__all__ = ["EngineContext", "RelayPolicy"]


@dataclass(frozen=True, eq=False)
class EngineContext:
    """Read-only simulation state policies may consult.

    Attributes
    ----------
    positions:
        Node coordinates, ``(n, 2)``.
    slots_per_phase:
        The paper's ``s``.
    radius:
        Transmission radius ``r``.
    build_topology:
        Returns the deployment graph; called once, on the first read of
        :attr:`topology`.
    """

    positions: np.ndarray
    slots_per_phase: int
    radius: float
    build_topology: Callable[[], Topology] = field(repr=False)

    @cached_property
    def topology(self) -> Topology:
        """The deployment graph (CSR adjacency), built on first access.

        The vectorized engine resolves slots without a CSR, so only the
        policies that read this attribute (neighbor knowledge) pay for
        one.
        """
        return self.build_topology()


class RelayPolicy(ABC):
    """Strategy deciding whether/when newly informed nodes relay."""

    #: short human-readable protocol name used in reports
    name: str = "base"

    #: set True to receive per-node overheard-sender lists in
    #: :meth:`confirm` (the engines only pay the bookkeeping when asked)
    needs_overheard: bool = False

    @abstractmethod
    def schedule(
        self,
        new_nodes: np.ndarray,
        first_senders: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Relay decision for a batch of newly informed nodes.

        Parameters
        ----------
        new_nodes:
            Node ids informed for the first time this phase.
        first_senders:
            ``first_senders[i]`` is the node whose packet informed
            ``new_nodes[i]`` (-1 when unknown, e.g. under CFM ties).
        rng:
            The engine's random stream.
        ctx:
            Engine context.

        Returns
        -------
        (will_relay, slot):
            Boolean mask over ``new_nodes``, and for each a slot index
            in ``[0, slots_per_phase)`` within the next phase (slot
            values for non-relaying nodes are ignored).
        """

    def confirm(
        self,
        node_ids: np.ndarray,
        duplicate_receptions: np.ndarray,
        rng: np.random.Generator,
        ctx: EngineContext,
        overheard: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Last-moment veto, evaluated when each node's slot arrives.

        ``duplicate_receptions[i]`` counts collision-free receptions of
        the packet by ``node_ids[i]`` *after* it was first informed.
        When the policy sets :attr:`needs_overheard`, ``overheard[i]``
        is the array of sender ids whose packets ``node_ids[i]`` has
        received collision-free so far (first reception included).
        The default keeps every scheduled relay.
        """
        return np.ones(len(node_ids), dtype=bool)

    def random_slots(self, n: int, rng: np.random.Generator, ctx: EngineContext) -> np.ndarray:
        """Uniform slot choices for ``n`` nodes (the paper's jitter)."""
        return rng.integers(0, ctx.slots_per_phase, size=n)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
