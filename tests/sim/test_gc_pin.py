"""Per-event kernel objects must die by reference counting.

A finished simulation should leave almost nothing for the cyclic garbage
collector: storing a bound method on a per-event object (for example a
process caching ``self._resume``) makes every such object a reference
cycle, multiplies gen-0 collections and raises peak memory.  A 2-node
Elan-4 ping-pong leaves under a hundred cyclic objects; one cached
bound method per process leaves thousands.
"""

import gc

from repro import Machine
from repro.microbench.pingpong import pingpong_program

#: Cyclic objects a finished 2-node ping-pong machine may leave behind.
CYCLIC_LIMIT = 500


def test_finished_machine_leaves_few_cycles():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        machine = Machine("elan", n_nodes=2, seed=0)
        machine.run(pingpong_program(64, 50))
        assert machine.sim.events_processed > 1000
        del machine
        freed = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert freed < CYCLIC_LIMIT
