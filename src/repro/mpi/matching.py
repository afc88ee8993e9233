"""MPI tag matching: posted-receive and unexpected-message queues.

The matching rules are the MPI standard's: a receive posted with
``(source, tag)`` — either of which may be a wildcard — matches the
*earliest* incoming message with compatible envelope, and messages between
one (sender, receiver) pair are non-overtaking.  Both implementations use
this module: MVAPICH runs it on the host CPU, the Elan-4 model runs it on
the NIC thread processor.  Where it runs is precisely the paper's
offload/overlap distinction; *what* it does is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, List, Optional, TypeVar

from ..errors import MpiError

#: Wildcards (values mirror MPI_ANY_SOURCE / MPI_ANY_TAG conventions).
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Envelope:
    """The matchable part of a message or receive posting."""

    source: int
    tag: int

    def __post_init__(self) -> None:
        if self.source < ANY_SOURCE:
            raise MpiError(f"bad source: {self.source}")
        if self.tag < ANY_TAG:
            raise MpiError(f"bad tag: {self.tag}")


def envelopes_match(posting: Envelope, incoming: Envelope) -> bool:
    """True when a posted receive's envelope accepts an incoming message.

    The *incoming* side is always concrete; wildcards are legal only on
    the posting side.
    """
    if incoming.source == ANY_SOURCE or incoming.tag == ANY_TAG:
        raise MpiError("incoming message cannot carry wildcards")
    if posting.source != ANY_SOURCE and posting.source != incoming.source:
        return False
    if posting.tag != ANY_TAG and posting.tag != incoming.tag:
        return False
    return True


T = TypeVar("T")


@dataclass
class MatchEntry(Generic[T]):
    """One queue element: an envelope plus caller payload."""

    envelope: Envelope
    item: T
    seq: int = field(default=0)


class MatchQueue(Generic[T]):
    """An ordered matching queue (posted receives *or* unexpected sends).

    Search cost is the caller's concern: :meth:`find_for_incoming` and
    :meth:`find_for_posting` report how many elements were inspected so
    the host/NIC models can charge per-element time — queue-traversal cost
    on a slow NIC processor is a known offload hazard the paper cites.
    """

    def __init__(self) -> None:
        self._entries: List[MatchEntry[T]] = []
        self._seq = 0
        #: Running statistics for queue-depth analysis.
        self.max_depth = 0
        self.total_searched = 0

    def append(self, envelope: Envelope, item: T) -> None:
        """Add to the tail (arrival/post order)."""
        self._seq += 1
        self._entries.append(MatchEntry(envelope, item, self._seq))
        if len(self._entries) > self.max_depth:
            self.max_depth = len(self._entries)

    def find_for_incoming(self, incoming: Envelope) -> "tuple[Optional[T], int]":
        """Match an incoming message against posted receives.

        Returns ``(item, searched)`` removing the matched entry, or
        ``(None, searched)`` if nothing matches.
        """
        for i, entry in enumerate(self._entries):
            if envelopes_match(entry.envelope, incoming):
                del self._entries[i]
                self.total_searched += i + 1
                return entry.item, i + 1
        self.total_searched += len(self._entries)
        return None, len(self._entries)

    def find_for_posting(self, posting: Envelope) -> "tuple[Optional[T], int]":
        """Match a newly-posted receive against unexpected messages.

        The *earliest* compatible unexpected message wins (non-overtaking).
        """
        for i, entry in enumerate(self._entries):
            if envelopes_match(posting, entry.envelope):
                del self._entries[i]
                self.total_searched += i + 1
                return entry.item, i + 1
        self.total_searched += len(self._entries)
        return None, len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> List[T]:
        """The queued payloads in queue order (invariant checks)."""
        return [entry.item for entry in self._entries]


def validate_rank(rank: int, size: int, what: str = "rank") -> None:
    """Common rank-range check used across the MPI layer."""
    if not 0 <= rank < size:
        raise MpiError(f"{what} {rank} out of range for {size} processes")


def validate_tag(tag: int) -> None:
    """Tags must be non-negative on the sending side."""
    if tag < 0:
        raise MpiError(f"send tag must be non-negative, got {tag}")
