"""Protocol tracing through a traced Machine."""

from repro.mpi import Machine
from repro.telemetry import Telemetry


def traced(network):
    return Machine(network, 2, telemetry=Telemetry(metrics=False, trace=True))


def exchange_prog(size):
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(dest=1, size=size, tag=9)
        else:
            yield from mpi.recv(source=0, tag=9, size=size)
        return None

    return prog


def test_ib_eager_send_traced():
    m = traced("ib")
    m.run(exchange_prog(256))
    sends = m.sim.trace.select("ib.send")
    assert any("eager" in msg and "tag=9" in msg for _, _, msg in sends)


def test_ib_rendezvous_protocol_sequence_traced():
    m = traced("ib")
    m.run(exchange_prog(64 * 1024))
    msgs = [
        msg for _, category, msg in m.sim.trace.records
        if category in ("ib.send", "ib.handle")
    ]
    assert any("rndv" in m_ for m_ in msgs)
    # The full handshake appears in causal order: rts -> cts -> rdata.
    kinds = [m_.split()[1] for m_ in msgs if m_.startswith("r") and " rts " not in m_]
    joined = " ".join(msgs)
    for kind in ("rts", "cts", "rdata"):
        assert kind in joined
    assert joined.index("rts") < joined.index("cts") < joined.index("rdata")


def test_elan_tx_and_match_traced():
    m = traced("elan")
    m.run(exchange_prog(512))
    tx = m.sim.trace.select("elan.tx")
    match = m.sim.trace.select("elan.match")
    assert any("tag=9" in msg for _, _, msg in tx)
    assert any("matched" in msg or "parked" in msg for _, _, msg in match)


def test_untraced_machine_records_nothing():
    m = Machine("ib", 2)
    m.run(exchange_prog(256))
    assert len(m.sim.trace) == 0


def test_trace_times_are_monotone():
    m = traced("elan")
    m.run(exchange_prog(2048))
    times = [t for t, _, _ in m.sim.trace.records]
    assert times == sorted(times)
