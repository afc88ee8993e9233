"""Start-up closed form: MPI_Init plus the dissemination barrier.

On a crossbar, every rank of an idle program opens its measurement
window at

* Elan-4: ``capability_setup + r_elan * ceil(log2 N)``;
* InfiniBand: ``qp_setup * (N - 1) + r_ib * ceil(log2 N)``.

The first term is MPI_Init: Tports sets up one capability per job
(connectionless), MVAPICH 0.9.2 one queue pair per peer.  The second is
the start-up barrier's ceil(log2 N) rounds (the dissemination barrier
as analysed by Yu, Buntinas, Graham and Panda, arXiv cs/0402027).  Every
rank starts each round at the same time and sends and receives one
zero-byte message in it, so each round costs the same ``r``, derived
below from the calibrated parameters rather than measured.  The form
does not read the event stream, so it holds across any kernel rewrite
that keeps the timing model.
"""

import math
import os

import pytest

from repro.hardware import POWEREDGE_1750
from repro.microbench.pingpong import pingpong_program
from repro.mpi import Machine
from repro.networks.elan.nic import WIRE_HEADER_BYTES as ELAN_HEADER_BYTES
from repro.networks.ib.hca import WIRE_HEADER_BYTES as IB_HEADER_BYTES
from repro.networks.params import ELAN_4, IB_4X

TOLERANCE_US = 1e-9

RANK_COUNTS = (2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65, 100)


def wire_us(fabric, tx_processing, rx_processing, header_bytes):
    """One zero-byte message from host memory to host memory.

    Only the wire header moves, and it fits one chunk, so the pipeline
    is store-and-forward: PCI-X out, the NIC's transmit engine, the
    uplink and the switch, the downlink, the receiving NIC's engine,
    PCI-X in.
    """
    node = POWEREDGE_1750
    pcix = node.pcix_dma_overhead + header_bytes / node.pcix_bandwidth
    link = header_bytes / fabric.link_bandwidth
    return (
        2 * pcix
        + tx_processing
        + rx_processing
        + 2 * link
        + 2 * fabric.cable_latency
        + fabric.switch_latency
    )


def elan_round_us(p=ELAN_4):
    """One barrier round on Elan-4 (2.5066 us with the defaults).

    The receive post and the send's command post queue on the rank's
    CPU.  On arrival the NIC thread matches the one posted receive
    (one element searched), sets up the DMA and writes the event word
    the host waits on.
    """
    return (
        2 * p.command_post
        + wire_us(
            p.fabric, p.nic_tx_processing, p.nic_rx_processing,
            ELAN_HEADER_BYTES,
        )
        + p.thread_match_base
        + p.thread_match_per_element
        + p.thread_dma_setup
        + p.event_delivery
    )


def ib_round_us(p=IB_4X):
    """One barrier round on InfiniBand (6.0143 us with the defaults).

    The receive is matched against an empty unexpected queue on the
    host, then the send posts its WQE.  On arrival the host polls the
    completion queue and matches the one posted receive.
    """
    return (
        p.host_match_base
        + p.wqe_post
        + wire_us(
            p.fabric, p.hca_tx_processing, p.hca_rx_processing,
            IB_HEADER_BYTES,
        )
        + p.cq_poll
        + p.host_match_base
        + p.host_match_per_element
    )


def closed_form_us(network, n):
    rounds = math.ceil(math.log2(n))
    if network == "elan":
        return ELAN_4.capability_setup + elan_round_us() * rounds
    return IB_4X.qp_setup * (n - 1) + ib_round_us() * rounds


def idle(mpi):
    return None
    yield  # a generator that does nothing


def window_starts(network, n):
    result = Machine(network, n, seed=0).run(idle)
    return [start for start, _end in result.rank_spans]


@pytest.mark.parametrize(
    "network, hidden",
    [("elan", ELAN_4.command_post), ("ib", IB_4X.host_match_base)],
)
def test_round_is_pingpong_latency_plus_the_receive_post(network, hidden):
    # A ping-pong pre-posts its receive, so the round's receive-side
    # host cost is off its critical path and nothing else differs.
    result = Machine(network, 2, seed=0).run(
        pingpong_program(size=0, repetitions=10)
    )
    latency = result.values[0]
    round_us = elan_round_us() if network == "elan" else ib_round_us()
    assert abs(latency + hidden - round_us) <= TOLERANCE_US


@pytest.mark.parametrize("n", RANK_COUNTS)
@pytest.mark.parametrize("network", ["elan", "ib"])
def test_idle_window_opens_at_closed_form(network, n):
    expected = closed_form_us(network, n)
    for start in window_starts(network, n):
        assert abs(start - expected) <= TOLERANCE_US, (start, expected)


@pytest.mark.skipif(
    os.environ.get("REPRO_TOPO_FULL", "") in ("", "0"),
    reason="set REPRO_TOPO_FULL=1 for the 1024-rank start-up runs",
)
@pytest.mark.parametrize("network", ["elan", "ib"])
def test_idle_window_opens_at_closed_form_1024_ranks(network):
    expected = closed_form_us(network, 1024)
    for start in window_starts(network, 1024):
        assert abs(start - expected) <= TOLERANCE_US, (start, expected)
