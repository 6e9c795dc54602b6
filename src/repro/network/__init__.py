"""Network deployment and topology substrate.

Implements the deployment half of the abstract network model: uniform
random placement on a disk (Sec. 4, "uniform deployment of N nodes in a
circle of radius P*r" with the source at the center) and the symmetric
unit-disk communication graph of assumptions 1–2, built by a band sweep
over the points sorted once by (``r/2``-high band, ``x``), so the work
beyond that sort is linear in the edge count.
"""

from repro.network.deployment import DiskDeployment
from repro.network.grid import GridDeployment
from repro.network.topology import Topology
from repro.network.node import SensorNode
from repro.network.stats import (
    DeploymentStats,
    connectivity_probability,
    deployment_stats,
    expected_isolation_probability,
)

__all__ = [
    "DiskDeployment",
    "GridDeployment",
    "Topology",
    "SensorNode",
    "DeploymentStats",
    "deployment_stats",
    "connectivity_probability",
    "expected_isolation_probability",
]
