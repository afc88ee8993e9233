"""The simulated MPI layer: facade, matching, communicators, machines."""

from .api import MpiRank
from .communicator import Communicator
from .context import MpiImpl, RankContext
from .machine import Machine, NETWORK_LABELS, NETWORKS, RunResult
from .matching import ANY_SOURCE, ANY_TAG, Envelope, MatchQueue
from .request import Request, Status

__all__ = [
    "MpiRank",
    "Communicator",
    "MpiImpl",
    "RankContext",
    "Machine",
    "RunResult",
    "NETWORKS",
    "NETWORK_LABELS",
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "MatchQueue",
    "Request",
    "Status",
]
