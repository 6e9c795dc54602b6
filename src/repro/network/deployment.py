"""Uniform disk deployments with the source at the center (Sec. 4).

A :class:`DiskDeployment` holds node positions for one realization of
the paper's deployment model: ``N`` field nodes uniformly distributed in
a circle of radius ``P * r``, plus the broadcast source pinned at the
origin as node 0.  ``N`` defaults to the expectation
``rho * P^2`` and can be drawn ``"fixed"`` (rounded expectation — the
paper's setting) or ``"poisson"`` (a spatial Poisson process, matching
the independence assumptions of the analysis more closely).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rings import RingPartition
from repro.geometry.sampling import sample_disk
from repro.network.topology import Topology
from repro.utils.validation import check_in, check_positive, check_positive_int

__all__ = ["DiskDeployment", "DeploymentBatch"]

SOURCE = 0  #: node id of the broadcast source in every deployment


@dataclass(frozen=True)
class DiskDeployment:
    """One realization of the paper's network deployment.

    Attributes
    ----------
    positions:
        ``(n_nodes, 2)`` coordinates; row 0 is the source at the origin.
    radius:
        Transmission radius ``r``.
    n_rings:
        The paper's ``P`` (field radius is ``P * r``).
    """

    positions: np.ndarray = field(repr=False)
    radius: float
    n_rings: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must be (n >= 1, 2), got {pos.shape}")
        # NaN compares False against the field radius below, so it
        # would slip through that check.
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite (no NaN or inf)")
        if not np.allclose(pos[SOURCE], 0.0):
            raise ValueError("node 0 must be the source at the origin")
        check_positive("radius", self.radius)
        check_positive_int("n_rings", self.n_rings)
        limit = self.radius * self.n_rings * (1 + 1e-9)
        if np.any(np.hypot(pos[:, 0], pos[:, 1]) > limit):
            raise ValueError("some nodes lie outside the field radius P*r")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        *,
        rho: float,
        n_rings: int,
        radius: float = 1.0,
        rng: np.random.Generator,
        population: str = "fixed",
    ) -> "DiskDeployment":
        """Draw a deployment at neighbor-density ``rho``.

        Parameters
        ----------
        rho:
            Expected neighbors per node, ``delta * pi * r^2``; expected
            field population is ``rho * n_rings^2``.
        n_rings, radius:
            Field geometry (``P`` rings of width ``r``).
        rng:
            Random source (never taken from global state).
        population:
            ``"fixed"`` places exactly ``round(rho * P^2)`` field nodes;
            ``"poisson"`` draws the count from Poisson with that mean.
        """
        check_positive("rho", rho)
        check_positive_int("n_rings", n_rings)
        check_positive("radius", radius)
        check_in("population", population, ("fixed", "poisson"))
        mean_n = rho * n_rings**2
        if population == "fixed":
            n_field = int(round(mean_n))
        else:
            n_field = int(rng.poisson(mean_n))
        field_pts = sample_disk(n_field, n_rings * radius, rng)
        positions = np.vstack((np.zeros((1, 2)), field_pts))
        return cls(positions=positions, radius=radius, n_rings=n_rings)

    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        """Node id of the broadcast source (always 0)."""
        return SOURCE

    @property
    def n_nodes(self) -> int:
        """Total node count including the source."""
        return self.positions.shape[0]

    @property
    def n_field_nodes(self) -> int:
        """Nodes excluding the source — the reachability denominator."""
        return self.n_nodes - 1

    @property
    def field_radius(self) -> float:
        """Field radius ``P * r``."""
        return self.n_rings * self.radius

    @property
    def radial_distances(self) -> np.ndarray:
        """Distance of every node from the source/origin."""
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    def ring_indices(self) -> np.ndarray:
        """Ring number (1-based) of every node; the source is in ring 1."""
        partition = RingPartition(self.n_rings, self.radius)
        return np.asarray(partition.ring_of(self.radial_distances))

    def empirical_rho(self, topology: Topology | None = None) -> float:
        """Measured mean degree (sanity check against the target ``rho``)."""
        topo = topology or self.topology()
        return topo.mean_degree

    def topology(self, *, carrier_radius: float | None = None) -> Topology:
        """Build the unit-disk communication graph for this deployment."""
        return Topology(self.positions, self.radius, carrier_radius=carrier_radius)


class DeploymentBatch:
    """``R`` deployments of one scenario, stacked for batched execution.

    The batch is the deployment-side half of the replication-batched
    engine (:func:`repro.sim.engine.run_broadcast_batch`): ``R``
    independent :class:`DiskDeployment` draws concatenated into one flat
    ``(N, 2)`` position array with ``node_offsets`` marking each
    replication's contiguous global-id block.

    Bit-identity contract: :meth:`sample` draws each replication with
    *its own* generator via :meth:`DiskDeployment.sample`, consuming
    exactly the random values a lone draw would — the stacking is
    a storage layout, never a change to the random stream.  Populations
    may differ across replications (``"poisson"``), which is why the
    layout is flat + offsets rather than rectangular.
    """

    def __init__(self, deployments: tuple[DiskDeployment, ...] | list[DiskDeployment]):
        deployments = tuple(deployments)
        if not deployments:
            raise ValueError("DeploymentBatch needs at least one deployment")
        first = deployments[0]
        for dep in deployments[1:]:
            if dep.radius != first.radius or dep.n_rings != first.n_rings:
                raise ValueError(
                    "all deployments in a batch must share radius and n_rings"
                )
        self.deployments = deployments
        self.radius = first.radius
        self.n_rings = first.n_rings
        counts = np.array([dep.n_nodes for dep in deployments], dtype=np.int64)
        self.node_offsets = np.zeros(len(deployments) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.node_offsets[1:])
        self.positions = np.vstack([dep.positions for dep in deployments])
        self.positions.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        *,
        rho: float,
        n_rings: int,
        radius: float = 1.0,
        rngs: list[np.random.Generator],
        population: str = "fixed",
    ) -> "DeploymentBatch":
        """Draw ``len(rngs)`` deployments, one per generator.

        Each replication consumes random values from its own generator
        in exactly the order :meth:`DiskDeployment.sample` would, so a
        batch draw is bit-identical to ``R`` independent per-run draws.
        """
        return cls(
            [
                DiskDeployment.sample(
                    rho=rho,
                    n_rings=n_rings,
                    radius=radius,
                    rng=rng,
                    population=population,
                )
                for rng in rngs
            ]
        )

    # ------------------------------------------------------------------
    @property
    def n_reps(self) -> int:
        """Number of stacked replications ``R``."""
        return len(self.deployments)

    @property
    def n_nodes_total(self) -> int:
        """Total node count across all replications."""
        return int(self.node_offsets[-1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeploymentBatch(reps={self.n_reps}, n={self.n_nodes_total}, "
            f"r={self.radius}, P={self.n_rings})"
        )
