"""Schedule order across the two queues: random processes, exact pops.

The kernel keeps events due now on a FIFO ready queue and later ones on
a time heap (see :mod:`repro.sim.engine`).  Random processes here sleep
for zero, integral, repeated-equal and sub-ulp delays (at ``now = 1e9``
µs a delay of ``1e-8`` is below half an ulp, so it is due *now*),
trigger events other processes wait on, wait on ``AllOf``/``AnyOf``
composites, spawn children and contend for one keyed ``FifoResource``.
A recording observer then checks the kernel's contract:

* pops arrive strictly ascending in ``(t, seq)``;
* every ``seq`` from 1 to the last one scheduled pops exactly once;
* every timeout fires at its creation time plus its delay.

A run stopped by ``max_events`` (often mid-instant) and resumed must pop
the same sequence as an uninterrupted one, and the bare loop must resume
the processes in the same order as the instrumented loop.
"""

from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import RaceSanitizer
from repro.errors import WatchdogError
from repro.sim import FifoResource, Simulator

#: Every process first sleeps this long, so all start their scripts at
#: one instant, far enough from zero that ``SUB_ULP`` is due now.
BASE = 1e9
#: Below half an ulp of ``BASE``: ``BASE + SUB_ULP == BASE``.
SUB_ULP = 1e-8
#: Above half an ulp of ``BASE``: due one ulp later.
OVER_ULP = 1e-7
SIGNALS = 4

delay_st = st.sampled_from([0.0, 0.0, SUB_ULP, OVER_ULP, 0.5, 1.0, 2.0])
signal_st = st.integers(min_value=0, max_value=SIGNALS - 1)
op_st = st.one_of(
    st.tuples(st.just("sleep"), delay_st),
    st.tuples(st.just("trigger"), signal_st),
    st.tuples(st.just("wait"), signal_st),
    st.tuples(st.just("all"), st.lists(signal_st, min_size=1, max_size=3)),
    st.tuples(st.just("any"), st.lists(signal_st, min_size=1, max_size=3)),
    st.tuples(st.just("hold"), delay_st),
    st.tuples(st.just("spawn"), delay_st),
)
program_st = st.lists(st.lists(op_st, max_size=8), min_size=1, max_size=6)

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Recorder:
    """Observer: every pop's ``(t, seq)``, and each timeout's due time."""

    def __init__(self) -> None:
        self.pops: List[Tuple[float, int]] = []
        #: Timeout -> creation time plus delay.
        self.due: Dict[Any, float] = {}
        self.late: List[Tuple[float, float]] = []

    def on_run_enter(self, sim: Simulator) -> None:
        pass

    def on_pop(self, t: float, seq: int, event: Any) -> None:
        self.pops.append((t, seq))
        due = self.due.pop(event, None)
        if due is not None and due != t:
            self.late.append((due, t))

    def on_run_exit(self, sim: Simulator) -> None:
        pass


class Scenario:
    """One random program built on a fresh simulator."""

    def __init__(self, program: List[List[tuple]], observed: bool) -> None:
        self.recorder = Recorder()
        self.sanitizer = RaceSanitizer()
        observers = [self.recorder, self.sanitizer] if observed else []
        self.sim = sim = Simulator(observers=observers)
        self.resource = FifoResource(sim, name="shared")
        self.signals = [sim.event() for _ in range(SIGNALS)]
        #: ``(now, pid, step)`` at every resumption of a script.
        self.log: List[Tuple[float, int, int]] = []
        for pid, script in enumerate(program):
            sim.spawn(self._script(pid, script), name=f"p{pid}")

    def sleep(self, delay: float):
        timeout = self.sim.timeout(delay)
        self.recorder.due[timeout] = self.sim.now + delay
        return timeout

    def _child(self, delay: float):
        yield self.sleep(delay)

    def _script(self, pid: int, script: List[tuple]):
        sim, signals = self.sim, self.signals
        yield self.sleep(BASE)
        for step, (op, arg) in enumerate(script):
            self.log.append((sim.now, pid, step))
            if op == "sleep":
                yield self.sleep(arg)
            elif op == "trigger":
                if not signals[arg].triggered:
                    signals[arg].succeed((pid, step))
            elif op == "wait":
                yield signals[arg]
            elif op == "all":
                yield sim.all_of([signals[i] for i in arg])
            elif op == "any":
                yield sim.any_of([signals[i] for i in arg])
            elif op == "hold":
                grant = self.resource.request(key=(pid, step))
                yield grant
                yield self.sleep(arg)
                self.resource.release(grant)
            else:
                sim.spawn(self._child(arg), name=f"c{pid}.{step}")
        self.log.append((sim.now, pid, -1))


def assert_schedule_order(scenario: Scenario) -> None:
    sim, recorder = scenario.sim, scenario.recorder
    pops = recorder.pops
    assert all(a < b for a, b in zip(pops, pops[1:])), "pops out of order"
    assert sorted(seq for _t, seq in pops) == list(range(1, sim._seq + 1))
    assert not recorder.late, "timeouts fired off their due time"
    assert not recorder.due, "timeouts never fired"
    assert sim.events_processed == len(pops)
    assert sim.pending_events() == 0
    assert scenario.sanitizer.order_violations == []
    assert scenario.sanitizer.race_count == 0


@SETTINGS
@given(program_st)
def test_pops_ascend_in_time_then_seq(program):
    scenario = Scenario(program, observed=True)
    scenario.sim.run()
    assert_schedule_order(scenario)


@SETTINGS
@given(program_st, st.integers(min_value=1, max_value=7))
def test_stopped_and_resumed_run_pops_the_same_sequence(program, budget):
    whole = Scenario(program, observed=True)
    whole.sim.run()
    split = Scenario(program, observed=True)
    while True:
        try:
            split.sim.run(max_events=budget)
            break
        except WatchdogError:
            continue
    assert_schedule_order(split)
    assert split.recorder.pops == whole.recorder.pops
    assert split.sim.events_processed == whole.sim.events_processed
    assert split.log == whole.log


@SETTINGS
@given(program_st)
def test_bare_and_instrumented_loops_agree(program):
    bare = Scenario(program, observed=False)
    bare.sim.run()
    watched = Scenario(program, observed=True)
    watched.sim.run()
    budgeted = Scenario(program, observed=False)
    budgeted.sim.run(max_events=10**9)
    for other in (watched, budgeted):
        assert other.log == bare.log
        assert other.sim.events_processed == bare.sim.events_processed
        assert other.sim.now == bare.sim.now


def test_stop_mid_instant_resumes_in_order():
    # Three processes wake at t=5 from the heap; each wake schedules
    # zero-delay work.  A budget that ends right after the first wake
    # stops with the other two wakes and that work still due at t=5.
    program = [[("trigger", 0), ("sleep", 0.0)]] * 3
    whole = Scenario(program, observed=True)
    whole.sim.run()
    before = [t for t, _seq in whole.recorder.pops if t < BASE]
    split = Scenario(program, observed=True)
    try:
        split.sim.run(max_events=len(before) + 1)
    except WatchdogError:
        pass
    else:  # pragma: no cover - the budget must stop the run
        raise AssertionError("the run was not stopped")
    assert split.sim.now == BASE
    assert split.sim.pending_events() > 0
    split.sim.run()
    assert split.recorder.pops == whole.recorder.pops
    assert split.recorder.pops[len(before) + 1][0] == BASE  # mid-instant
    assert_schedule_order(split)


def test_sub_ulp_delay_is_due_now():
    sim = Simulator()
    order = []

    def sleeper(delay, tag):
        yield sim.timeout(BASE)
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.spawn(sleeper(SUB_ULP, "sub-ulp"))
    sim.spawn(sleeper(0.0, "zero"))
    sim.spawn(sleeper(OVER_ULP, "over-ulp"))
    sim.run()
    assert BASE + SUB_ULP == BASE
    # Scheduled first, the sub-ulp timeout fires first at the same time.
    assert order[:2] == [(BASE, "sub-ulp"), (BASE, "zero")]
    assert order[2][1] == "over-ulp" and order[2][0] > BASE
