"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(2.0)

    eng.process(proc(eng))
    eng.run()
    assert eng.now == 2.0


def test_timeout_value_passthrough():
    eng = Engine()
    got = []

    def proc(eng):
        got.append((yield eng.timeout(1.0, value="payload")))

    eng.process(proc(eng))
    eng.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_process_return_value():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)
        return 42

    p = eng.process(proc(eng))
    eng.run()
    assert p.ok and p.value == 42


def test_process_waits_on_process():
    eng = Engine()

    def child(eng):
        yield eng.timeout(3.0)
        return "child-result"

    def parent(eng, c):
        val = yield c
        return (eng.now, val)

    c = eng.process(child(eng))
    p = eng.process(parent(eng, c))
    eng.run()
    assert p.value == (3.0, "child-result")


def test_wait_on_already_completed_process():
    eng = Engine()

    def quick(eng):
        yield eng.timeout(0.5)
        return "q"

    q = eng.process(quick(eng))

    def late(eng):
        yield eng.timeout(5.0)
        val = yield q  # q finished long ago
        return (eng.now, val)

    p = eng.process(late(eng))
    eng.run()
    assert p.value == (5.0, "q")


def test_simultaneous_events_fifo_order():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for i in range(5):
        eng.process(proc(eng, i))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    eng = Engine()
    evt = eng.event()
    seen = []

    def waiter(eng):
        seen.append((yield evt))

    def firer(eng):
        yield eng.timeout(1.0)
        evt.succeed("fired")

    eng.process(waiter(eng))
    eng.process(firer(eng))
    eng.run()
    assert seen == ["fired"] and eng.now == 1.0


def test_event_double_trigger_rejected():
    eng = Engine()
    evt = eng.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_throws_into_waiter():
    eng = Engine()
    evt = eng.event()
    caught = []

    def waiter(eng):
        try:
            yield evt
        except RuntimeError as e:
            caught.append(str(e))

    eng.process(waiter(eng))

    def firer(eng):
        yield eng.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    eng.process(firer(eng))
    eng.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_propagates_from_run():
    eng = Engine()

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("kaput")

    eng.process(bad(eng))
    with pytest.raises(ValueError, match="kaput"):
        eng.run()


def test_waiting_process_receives_child_failure():
    eng = Engine()

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("inner")

    b = eng.process(bad(eng))
    caught = []

    def parent(eng):
        try:
            yield b
        except ValueError as e:
            caught.append(str(e))

    eng.process(parent(eng))
    eng.run()
    assert caught == ["inner"]


def test_deadlock_detection():
    eng = Engine()

    def stuck(eng):
        yield eng.event()  # never triggered

    eng.process(stuck(eng))
    with pytest.raises(DeadlockError):
        eng.run()


def test_run_until_bound_stops_clock():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(100.0)

    eng.process(proc(eng))
    eng.run(until=10.0)
    assert eng.now == 10.0
    eng.run()  # finish the rest
    assert eng.now == 100.0


def test_yield_non_event_fails_process():
    eng = Engine()

    def bad(eng):
        yield 42  # type: ignore[misc]

    p = eng.process(bad(eng))
    with pytest.raises(SimulationError, match="must yield Events"):
        eng.run()
    assert not p.ok


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_complete_returns_values_in_order():
    eng = Engine()

    def proc(eng, d):
        yield eng.timeout(d)
        return d

    procs = [eng.process(proc(eng, d)) for d in (3.0, 1.0, 2.0)]
    assert eng.run_until_complete(procs) == [3.0, 1.0, 2.0]


def test_nested_process_spawning():
    eng = Engine()
    results = []

    def leaf(eng, d):
        yield eng.timeout(d)
        return d

    def spawner(eng):
        children = [eng.process(leaf(eng, d)) for d in (1.0, 2.0)]
        for c in children:
            results.append((yield c))

    eng.process(spawner(eng))
    eng.run()
    assert results == [1.0, 2.0]


# -- timeout delays and the clock --------------------------------------------


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_timeout_rejected(delay):
    eng = Engine()
    with pytest.raises(ValueError, match="finite"):
        eng.timeout(delay)


def test_rejected_timeout_leaves_schedule_untouched():
    # A NaN fire time would break the heap order; the rejected timeout
    # must take no heap entry, so the valid ones still fire in order.
    eng = Engine()
    fired = []
    for delay in (0.5, 1.0):
        eng.timeout(delay).callbacks.append(lambda evt, d=delay: fired.append((d, eng.now)))
    with pytest.raises(ValueError):
        eng.timeout(float("nan"))
    eng.run()
    assert fired == [(0.5, 0.5), (1.0, 1.0)]
    assert eng.events_processed == 2


def test_run_until_earlier_than_now_rejected():
    eng = Engine()
    eng.timeout(2.0)
    eng.run(until=1.0)
    assert eng.now == 1.0
    with pytest.raises(SimulationError, match="earlier than the current time"):
        eng.run(until=0.5)
    assert eng.now == 1.0
    eng.run(until=1.0)  # the current time itself is a valid bound
    assert eng.now == 1.0 and eng.events_processed == 0
    eng.run()
    assert eng.now == 2.0 and eng.events_processed == 1


def test_run_until_includes_events_at_the_bound():
    eng = Engine()
    seen = []
    for delay in (1.0, 1.0, 1.5):
        eng.timeout(delay).callbacks.append(lambda evt: seen.append(eng.now))
    eng.run(until=1.0)
    assert seen == [1.0, 1.0] and eng.events_processed == 2


def test_clock_is_monotone_across_bounded_runs():
    eng = Engine()
    times = []

    def proc(eng):
        for delay in (0.0, 0.3, 0.0, 0.7, 0.2):
            yield eng.timeout(delay)
            times.append(eng.now)

    eng.process(proc(eng))
    for bound in (0.1, 0.3, 0.3, 0.9, 5.0):
        eng.run(until=bound)
        times.append(eng.now)
    assert times == sorted(times)
    assert eng.now == 5.0


def test_stop_when_done_ignores_a_far_future_timer():
    """The armed-fault path stops at the last process's completion: same
    clock and event count as draining a heap without the timer."""
    eng = Engine()

    def proc(eng, delay):
        yield eng.timeout(delay)
        yield eng.timeout(delay)
        return delay

    procs = [eng.process(proc(eng, delay)) for delay in (1.0, 2.0)]
    far = eng.timeout(1e6)
    assert eng.run_until_complete(procs, stop_when_done=True) == [1.0, 2.0]
    # 2 bootstraps + 4 timeouts + 2 process completions.
    assert eng.now == 4.0 and eng.events_processed == 8
    assert not far.processed

    plain = Engine()
    procs = [plain.process(proc(plain, delay)) for delay in (1.0, 2.0)]
    assert plain.run_until_complete(procs) == [1.0, 2.0]
    assert (plain.now, plain.events_processed) == (eng.now, eng.events_processed)


def test_stop_when_done_with_processes_already_finished():
    eng = Engine()

    def quick(eng):
        yield eng.timeout(1.0)
        return "done"

    proc = eng.process(quick(eng))
    eng.run()
    far = eng.timeout(50.0)
    assert eng.run_until_complete([proc], stop_when_done=True) == ["done"]
    assert eng.now == 1.0 and not far.processed


# -- ordering property: the engine against a naive reference scheduler -------


class _Boom(Exception):
    pass


class _RefEvent:
    """Reference event: the engine's semantics, no slots, no inlining."""

    def __init__(self, sched):
        self.sched = sched
        self.callbacks = []
        self.triggered = False
        self.processed = False
        self.ok = True
        self.value = None
        self.defused = False

    def succeed(self, value=None):
        assert not self.triggered
        self.triggered, self.ok, self.value = True, True, value
        self.sched.schedule(self, 0.0)
        return self

    def fail(self, exc):
        assert not self.triggered
        self.triggered, self.ok, self.value = True, False, exc
        self.sched.schedule(self, 0.0)
        return self

    def fire(self):
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if not self.ok and not self.defused:
            raise self.value


class _RefTimeout(_RefEvent):
    def __init__(self, sched, delay, value):
        super().__init__(sched)
        self.pending = value
        sched.schedule(self, delay)

    def fire(self):
        self.triggered, self.value = True, self.pending
        super().fire()


class _RefProcess(_RefEvent):
    def __init__(self, sched, generator):
        super().__init__(sched)
        self.generator = generator
        sched.alive += 1
        _RefEvent(sched).succeed().callbacks.append(self.resume)

    def resume(self, event):
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                event.defused = True
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            self.sched.alive -= 1
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sched.alive -= 1
            self.fail(exc)
            return
        if target.processed:
            bridge = _RefEvent(self.sched)
            bridge.callbacks.append(self.resume)
            if target.ok:
                bridge.succeed(target.value)
            else:
                target.defused = True
                bridge.fail(target.value)
                bridge.defused = True
        else:
            target.callbacks.append(self.resume)


class _RefCondition(_RefEvent):
    def __init__(self, sched, children, need_all):
        super().__init__(sched)
        self.children = children
        self.need_all = need_all
        self.left = len(children)
        for child in children:
            if child.processed:
                self.on_child(child)
            else:
                child.callbacks.append(self.on_child)
            if self.triggered:
                break

    def on_child(self, child):
        if not child.ok:
            child.defused = True
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
        elif not self.need_all:
            self.succeed((self.children.index(child), child.value))
        else:
            self.left -= 1
            if self.left == 0:
                self.succeed([c.value for c in self.children])


class _RefScheduler:
    """Processes events in (fire time, insertion seq) order by a linear scan."""

    def __init__(self):
        self.now = 0.0
        self.pending = []
        self.seq = 0
        self.alive = 0
        self.events_processed = 0

    def schedule(self, event, delay):
        self.seq += 1
        self.pending.append((self.now + delay, self.seq, event))

    def timeout(self, delay, value=None):
        return _RefTimeout(self, delay, value)

    def event(self):
        return _RefEvent(self)

    def process(self, generator):
        return _RefProcess(self, generator)

    def all_of(self, events):
        return _RefCondition(self, list(events), need_all=True)

    def any_of(self, events):
        return _RefCondition(self, list(events), need_all=False)

    def run(self):
        while self.pending:
            entry = min(self.pending, key=lambda item: item[:2])
            self.pending.remove(entry)
            self.now = entry[0]
            self.events_processed += 1
            entry[2].fire()
        if self.alive:
            raise DeadlockError("reference deadlock")


class _RealApi:
    """The engine under test behind the reference scheduler's interface."""

    def __init__(self):
        from repro.sim.primitives import all_of, any_of

        self.engine = Engine()
        self.all_of = lambda events: all_of(self.engine, events)
        self.any_of = lambda events: any_of(self.engine, events)
        self.timeout = self.engine.timeout
        self.event = self.engine.event
        self.process = self.engine.process

    @property
    def now(self):
        return self.engine.now

    def run(self):
        self.engine.run()

    @property
    def events_processed(self):
        return self.engine.events_processed


def _program(api, pid, steps, shared, log):
    """Interpret one process's steps, logging what it observes and when."""
    child = last = None
    for i, step in enumerate(steps):
        kind = step[0]
        if kind == "trigger":
            event = shared[step[1]]
            if not event.triggered:
                if step[2]:
                    event.succeed((pid, i))
                else:
                    event.fail(_Boom(pid, i))
            log.append((api.now, pid, i, "trigger"))
            continue
        if kind == "spawn":
            child = api.process(_program(api, f"{pid}.{i}", step[1], shared, log))
            continue
        if kind == "timeout":
            target = api.timeout(step[1], value=(pid, i))
        elif kind == "wait":
            target = shared[step[1]]
        elif kind == "join":
            target = child
        elif kind == "again":
            target = last  # already processed once we resumed: the bridge path
        else:
            kids = [
                shared[part] if isinstance(part, int) else api.timeout(part[1], value=(pid, i, j))
                for j, part in enumerate(step[1])
            ]
            target = (api.all_of if kind == "all" else api.any_of)(kids)
        if target is None:
            continue
        last = target
        try:
            value = yield target
        except _Boom as exc:
            log.append((api.now, pid, i, "failed", exc.args))
        else:
            log.append((api.now, pid, i, "ok", value))
    return pid


def _closer(api, shared, log):
    """Succeed every shared event nobody triggered, after all other work."""
    yield api.timeout(1000.0)
    for k, event in enumerate(shared):
        if not event.triggered:
            event.succeed(("closer", k))
    log.append((api.now, "closer"))


def _execute(api, programs, nshared):
    shared = [api.event() for _ in range(nshared)]
    log = []
    procs = [api.process(_program(api, str(p), steps, shared, log))
             for p, steps in enumerate(programs)]
    api.process(_closer(api, shared, log))
    for k, event in enumerate(shared):
        event.callbacks.append(lambda evt, k=k: log.append((api.now, "shared", k, evt.ok)))
    outcome = None
    try:
        api.run()
    except (_Boom, DeadlockError) as exc:
        outcome = (type(exc).__name__, exc.args)
    return {
        "log": log,
        "events": api.events_processed,
        "now": api.now,
        "outcome": outcome,
        "done": [p.processed and p.ok and p.value for p in procs],
    }


_NSHARED = 3
_delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5])
_shared_index = st.integers(0, _NSHARED - 1)
_part = st.one_of(_shared_index, st.tuples(st.just("t"), _delays))
_leaf_step = st.one_of(
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("wait"), _shared_index),
    st.tuples(st.just("trigger"), _shared_index, st.booleans()),
    st.tuples(st.sampled_from(["all", "any"]), st.lists(_part, min_size=1, max_size=3)),
    st.tuples(st.just("again")),
)
_step = st.one_of(
    _leaf_step,
    st.tuples(st.just("spawn"), st.lists(_leaf_step, max_size=4)),
    st.tuples(st.just("join")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_step, max_size=6), min_size=1, max_size=4))
def test_engine_matches_reference_scheduler(programs):
    """Timeouts (equal times, zero delays), bare succeed/fail, spawns and
    joins, AllOf/AnyOf and waits on processed events: the engine processes
    exactly the events the naive (time, insertion seq) scheduler does, in
    the same order, with the same clock."""
    expected = _execute(_RefScheduler(), programs, _NSHARED)
    actual = _execute(_RealApi(), programs, _NSHARED)
    assert actual == expected
