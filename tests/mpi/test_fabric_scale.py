"""Machines on multi-stage fabrics (the scale what-if path)."""

import pytest

from repro.campaign import RunSpec
from repro.errors import ConfigurationError
from repro.mpi import Machine
from repro.topology import CrossbarTopology, FatTreeTopology, TopologySpec

#: What ``RunSpec(fabric_radix=4)`` builds: radix-4 leaves, 2 nodes each.
RADIX4 = TopologySpec(kind="fattree", radix=4, levels=2)


def exchange(mpi):
    peer = (mpi.rank + mpi.size // 2) % mpi.size
    status = yield from mpi.sendrecv(
        dest=peer, send_size=4096, source=peer, recv_size=4096
    )
    return status.size


@pytest.mark.parametrize("net", ["ib", "elan"])
def test_two_level_machine_runs(net):
    m = Machine(net, 8, ppn=1, topology=RADIX4)
    assert isinstance(m.fabric, FatTreeTopology) and m.fabric.levels == 2
    result = m.run(exchange)
    assert all(v == 4096 for v in result.values)


def test_cross_leaf_slower_than_same_leaf():
    """Extra hops cost latency: cross-leaf pairs pay more."""

    def pingpong_between(a, b):
        def prog(mpi):
            if mpi.rank not in (a, b):
                return None
            peer = b if mpi.rank == a else a
            t0 = mpi.now
            for _ in range(20):
                if mpi.rank == a:
                    yield from mpi.send(dest=peer, size=0)
                    yield from mpi.recv(source=peer, size=0)
                else:
                    yield from mpi.recv(source=peer, size=0)
                    yield from mpi.send(dest=peer, size=0)
            return mpi.now - t0 if mpi.rank == a else None

        return prog

    # radix 4 -> 2 nodes per leaf: (0,1) same leaf, (0,2) cross leaf.
    m_same = Machine("elan", 8, topology=RADIX4, seed=1)
    t_same = m_same.run(pingpong_between(0, 1)).values[0]
    m_cross = Machine("elan", 8, topology=RADIX4, seed=1)
    t_cross = m_cross.run(pingpong_between(0, 2)).values[0]
    assert t_cross > t_same


def test_bad_radix_rejected():
    # Rejected when the spec is declared, before any execution.
    with pytest.raises(ConfigurationError, match="even radix"):
        RunSpec(app="pingpong", network="ib", nodes=8, fabric_radix=3)
    with pytest.raises(ConfigurationError):
        Machine("ib", 8, topology={"kind": "fattree", "radix": 3})


def test_crossbar_default_when_no_radix():
    m = Machine("ib", 4)
    assert type(m.fabric) is CrossbarTopology
    assert RunSpec(app="pingpong", network="ib", nodes=4).topology_spec is None
