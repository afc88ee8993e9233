"""Machine-builder tests: validation, placement, lifecycle, stats."""

import pytest

from repro.errors import ConfigurationError
from repro.mpi import Machine, NETWORK_LABELS, NETWORKS


def trivial(mpi):
    yield from mpi.compute(1.0)
    return mpi.rank


def test_network_names():
    assert set(NETWORKS) == {"ib", "elan"}
    assert NETWORK_LABELS["ib"] == "4X InfiniBand"
    assert NETWORK_LABELS["elan"] == "Quadrics Elan-4"


def test_unknown_network_rejected():
    with pytest.raises(ConfigurationError):
        Machine("myrinet", 2)


def test_bad_node_count_rejected():
    with pytest.raises(ConfigurationError):
        Machine("ib", 0)


def test_ppn_bounded_by_cpus():
    with pytest.raises(ConfigurationError):
        Machine("ib", 2, ppn=3)  # dual-CPU nodes
    Machine("ib", 2, ppn=2)  # fine


def test_block_rank_placement():
    m = Machine("elan", 2, ppn=2)
    # Ranks 0,1 on node 0; ranks 2,3 on node 1.
    assert m.contexts[0].node is m.contexts[1].node
    assert m.contexts[2].node is m.contexts[3].node
    assert m.contexts[0].node is not m.contexts[2].node
    # Each rank on its own CPU within the node.
    assert m.contexts[0].cpu is not m.contexts[1].cpu


def test_neighbors_wiring():
    m = Machine("ib", 2, ppn=2)
    assert m.contexts[0].neighbors == [m.contexts[1]]
    assert m.contexts[3].neighbors == [m.contexts[2]]
    m1 = Machine("ib", 2, ppn=1)
    assert m1.contexts[0].neighbors == []


def test_run_returns_per_rank_values():
    m = Machine("elan", 2, ppn=2)
    result = m.run(trivial)
    assert result.values == [0, 1, 2, 3]
    assert result.elapsed_us > 0
    assert result.elapsed_s == result.elapsed_us / 1e6


def test_machine_is_single_use():
    m = Machine("elan", 1, ppn=1)
    m.run(trivial)
    with pytest.raises(ConfigurationError):
        m.run(trivial)


def test_collect_stats():
    m = Machine("ib", 2, ppn=1)

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(dest=1, size=100)
        else:
            yield from mpi.recv(source=0, size=100)
        return None

    m.run(prog)
    stats = [m.impl.finalize_stats(ctx) for ctx in m.contexts]
    assert len(stats) == 2
    # One application eager send plus the startup barrier's zero-byte one.
    assert stats[0]["eager_sends"] == 2
    assert "reg_hits" in stats[0]


def test_elan_stats_shape():
    m = Machine("elan", 2, ppn=1)

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(dest=1, size=100)
        else:
            yield from mpi.recv(source=0, size=100)
        return None

    m.run(prog)
    # One application message plus the startup barrier's exchange.
    assert m.impl.finalize_stats(m.contexts[0])["tx_count"] == 2
    assert m.impl.finalize_stats(m.contexts[1])["rx_count"] == 2


def test_label_and_builder():
    m = Machine("elan", 2)
    assert m.label == "Quadrics Elan-4"
    assert m.n_ranks == 2


def test_rank_spans_follow_barrier():
    m = Machine("elan", 2, ppn=1)
    result = m.run(trivial)
    starts = [s for s, _ in result.rank_spans]
    # All ranks leave the initial barrier at nearly the same time.
    assert max(starts) - min(starts) < 5.0
