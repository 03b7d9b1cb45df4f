"""A step split between two threads gives the bits of an unsplit step.

With `split` < n, lw_advance (_lw.c) starts a helper thread for each
call, which takes nodes [split, n) of each member's step and continues
the caller's E1 and H1 sums.  These tests force the split through
StepWork and simulate_batch at small n, and hold every record, state and
failure equal to those of one thread, bit for bit; then they check that
no thread outlives a call, and the rule that gives a process its threads.
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipestab import cli, dynamics
from pipestab.disturbance import DisturbanceSpec
from pipestab.dynamics import (RECORDS, FieldState, SolverError, StepWork, bump_profile,
                               profile_terms, simulate_batch, step, wave_speed)
from pipestab.stationary import PipeParams, build_stationary
from test_dynamics import TestBatch, assert_same_results, cfl_member

member_draws = st.tuples(
    st.floats(1.5, 3.0),        # a
    st.floats(2.0, 6.0),        # k
    st.floats(0.0, 0.5),        # theta
    st.floats(0.1, 0.4),        # u0
    st.floats(1e-4, 3e-2),      # bump amplitude
    st.floats(0.0, 1e-2),       # disturbance amplitude
    st.integers(0, 9),          # disturbance seed
    st.floats(0.2, 1.5),        # guard over the bump amplitude: some steps leave it
    st.floats(0.3, 6.0),        # snapshot interval, in initial CFL steps
)


def batch(n: int, draws: list):
    """The state, terms, disturbances and loop values of one member per draw, on n nodes."""
    xs = np.linspace(0.0, 1.0, n)
    pairs, fields, specs, guards, snaps = [], [], [], [], []
    for a, k, theta, u0, bump, amplitude, seed, guard, snap in draws:
        params = PipeParams(L=1.0, a=a, theta=theta, k=k)
        pairs.append((build_stationary(params, u0, xs), params))
        phi, dphi = bump_profile(xs, bump, 0.4 + 0.2 * seed / 9, 0.3)
        fields.append((phi, -a * dphi, dphi))
        specs.append(DisturbanceSpec(family="decaying_burst", amplitude=amplitude,
                                     frequency=3.0, gamma=0.5, T_period=0.05, seed=seed))
        guards.append(guard * bump)
        snaps.append(snap)
    state = FieldState([0.0] * len(draws), xs, *(np.array(f) for f in zip(*fields)))
    terms = profile_terms(pairs)
    speed = wave_speed(terms, state)
    cfl_dx = 0.45 * (xs[1] - xs[0])
    return state, terms, specs, dict(
        speed=speed, guard=guards, cfl_dx=[cfl_dx] * len(draws),
        t_snap=[s * cfl_dx / c for s, c in zip(snaps, speed)], t_end=[math.inf] * len(draws))


def run_steps(state, terms, specs, values, capacity, threads, split=None):
    """Calls `step` until the records are full or a step fails, moving each
    member's snapshot time on as it reaches it; returns every byte the
    calls wrote, the steps of each call and the failure."""
    state = FieldState(list(state.t), state.xs, state.u.copy(), state.v.copy(), state.w.copy())
    work = StepWork(state, threads)
    work.states.fill(0.0)           # a state no step writes compares equal too
    if split is not None:
        work.split = split
    work.load(specs, **values)
    interval = np.array(values["t_snap"])
    records = np.zeros((len(RECORDS), len(specs), capacity))
    index, taken, failure = 1, [], None
    while index < capacity:
        try:
            state = step(state, terms, work, records, index)
        except SolverError as exc:
            failure = (type(exc), exc.failed)
            break
        taken.append(work.taken)
        index += work.taken
        t_snap = work.values["t_snap"]
        t_snap[np.asarray(state.t) >= t_snap - 1e-12] += interval[
            np.asarray(state.t) >= t_snap - 1e-12]
    return records.tobytes(), work.io.tobytes(), work.states.tobytes(), taken, failure


def assert_split_equal(state, terms, specs, values, capacity, split=None):
    one = run_steps(state, terms, specs, values, capacity, 1)
    two = run_steps(state, terms, specs, values, capacity, 2, split)
    assert two[3:] == one[3:]
    assert two[:3] == one[:3]
    return one


@settings(max_examples=150, deadline=None)
@given(n=st.integers(6, 40), where=st.floats(0.0, 1.0), capacity=st.integers(2, 60),
       draws=st.lists(member_draws, min_size=1, max_size=3))
def test_split_steps_equal_one_thread(n, where, capacity, draws):
    # n from the fewest nodes two parts of 3 can take, any split point, the
    # records filling within a call, and guards that some steps leave
    split = 3 + round(where * (n - 6))
    assert_split_equal(*batch(n, draws), capacity, split)


DRAW = (2.0, 4.0, 0.1, 0.3, 1e-3, 1e-3, 3, 10.0, 4.0)
N = 37          # split at 18


def quiet_nan(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0])


@pytest.mark.parametrize("nodes", [[5], [17], [18], [30], [36], [5, 30], [30, 5]],
                         ids=lambda nodes: "nan-at-" + "-".join(map(str, nodes)))
def test_nan_in_either_part_and_at_the_seam(nodes):
    # NaNs of distinct payloads: the rescan in node order gives the one that
    # one thread gives, the last (`nan_max` keeps a later NaN), and the guard
    # fails at that step
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    for payload, node in enumerate(nodes, 1):
        state.u[1, node] = state.w[1, node] = quiet_nan(payload)
    records, *_, failure = assert_split_equal(state, terms, specs, values, 4)
    assert failure[0] is dynamics.BlowUpError and list(failure[1]) == [1]
    max_u = np.frombuffer(records).reshape(len(RECORDS), 2, 4)[RECORDS.index("max_u"), 1, 1]
    assert np.array(max_u).view(np.uint64) == np.array(quiet_nan(max(
        (node, payload) for payload, node in enumerate(nodes, 1))[1])).view(np.uint64)


@pytest.mark.parametrize("peak", [0.25, 0.75], ids=["part-0", "part-1"])
def test_guard_failure_in_either_part(peak):
    # a bump in one part only, above the guard after the first step of member 1
    xs = np.linspace(0.0, 1.0, N)
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    phi, dphi = bump_profile(xs, 1e-2, peak, 0.1)
    state.u[1], state.v[1], state.w[1] = phi, -2.0 * dphi, dphi
    values["guard"] = [10.0, 0.9e-2]
    *_, failure = assert_split_equal(state, terms, specs, values, 30)
    assert failure[0] is dynamics.BlowUpError and list(failure[1]) == [1]


def test_cfl_failure():
    # a CFL number of 2: the call fails before its first step, and its helper returns
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    values["cfl_dx"] = [values["cfl_dx"][0], 2.0 / 0.45 * values["cfl_dx"][0]]
    *_, taken, failure = assert_split_equal(state, terms, specs, values, 30)
    assert taken == [] and failure[0] is dynamics.CFLError and list(failure[1]) == [1]


def test_split_work_sets_hold_rows_of_n():
    # one layout of the half-step rows, n rounded up to 4 doubles, split or
    # not; one part is a split at n
    state, *_ = batch(N, [DRAW])
    assert [(work.half.shape, work.split) for work in (StepWork(state, 2), StepWork(state))] == [
        ((3, 40), N // 2), ((3, 40), N)]


@pytest.mark.parametrize("split", [2, N - 2])
def test_part_below_three_nodes_refused(split):
    state, terms, specs, values = batch(N, [DRAW])
    with pytest.raises(ValueError, match=f"cannot be split at node {split}"):
        run_steps(state, terms, specs, values, 4, 2, split)


def test_batches_split_as_one_thread(monkeypatch):
    # members that fail at t = 0, by their guard and by CFL mid-run, re-packs
    # and records that grow: the same results with the split
    members = [*TestBatch.MEMBERS, cfl_member()]
    one = simulate_batch(members)
    monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    assert_same_results(simulate_batch(members, threads=2), one)
    assert len(one[0].times) > 100


def test_small_grids_do_not_split(monkeypatch):
    made = []
    work = dynamics.StepWork

    def noted(state, threads=1):
        made.append(threads)
        return work(state, threads)

    monkeypatch.setattr(dynamics, "StepWork", noted)
    member = TestBatch.MEMBERS[0]
    assert member.config.nx + 1 < dynamics.SPLIT_NODES
    simulate_batch([member], threads=2)
    assert made == [1]
    monkeypatch.setattr(dynamics, "SPLIT_NODES", member.config.nx + 1)
    simulate_batch([member], threads=2)
    assert made == [1, 2]


def test_concurrent_split_calls(monkeypatch):
    # three Python threads step split batches at once: six native threads on
    # the CPUs there are, which makes the waits yield; every result is the
    # one of a single thread
    monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    members = TestBatch.MEMBERS[:3]
    want = simulate_batch(members)
    got = [None] * 3
    interval = sys.getswitchinterval()

    def work(i):
        got[i] = [simulate_batch(members, threads=2) for _ in range(3)]

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for results in got:
        for result in results:
            assert_same_results(result, want)


TASKS = "/proc/self/task"
linux_only = pytest.mark.skipif(not os.path.isdir(TASKS), reason="needs Linux's /proc/self/task")


@linux_only
def test_no_thread_outlives_a_split_run(monkeypatch):
    # a thread that counts this process's threads while a split run steps sees
    # the helper; after the run the count is what it was
    monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    member = TestBatch.MEMBERS[0]._replace(config=dynamics.SolverConfig(
        nx=64, t_end=10.0, snapshot_dt=10.0))
    before = settled_threads()
    seen, done = [], threading.Event()

    def count():
        while not done.is_set():
            seen.append(len(os.listdir(TASKS)))

    counter = threading.Thread(target=count)
    counter.start()
    try:
        simulate_batch([member], threads=2)
    finally:
        done.set()
        counter.join(timeout=60)
    assert not counter.is_alive()
    assert max(seen) == before + 2          # the counter and the helper
    assert_threads(before)


def settled_threads() -> int:
    """The threads of this process, once those that were joined have left /proc."""
    count = len(os.listdir(TASKS))
    for _ in range(100):
        time.sleep(0.02)
        if len(os.listdir(TASKS)) == count:
            break
        count = len(os.listdir(TASKS))
    return count


def assert_threads(count: int):
    """This process runs `count` threads, once a thread that was joined has left /proc."""
    deadline = time.monotonic() + 5.0
    while len(os.listdir(TASKS)) != count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(os.listdir(TASKS)) == count


@linux_only
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_forks_after_a_split_run(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    before = settled_threads()
    simulate_batch([TestBatch.MEMBERS[0]], threads=2)
    assert_threads(before)
    cfgs = two_grids(tmp_path)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert len(cli._shares(cfgs, 2)) == 2         # one forked worker
    reports = cli.execute_runs(cfgs)
    assert all(not isinstance(report, Exception) for report in reports), reports


def two_grids(tmp_path) -> list:
    """Two scenarios on grids of their own: two batches."""
    return [cli.ScenarioConfig({
        "solver.nx": nx, "solver.t_end": 0.5, "solver.snapshot_dt": 0.25,
        "disturbance.T_period": 0.25, "output.csv_path": str(tmp_path / f"run_{nx}.csv"),
        "output.report_path": str(tmp_path / f"report_{nx}.txt")}) for nx in (32, 48)]


def test_thread_budget():
    # P processes on all the CPUs there are: none splits
    for cpus in range(1, 65):
        assert cli._thread_budget(cpus, cpus) == 1
    assert [cli._thread_budget(cpus, 1) for cpus in (1, 2, 3, 8)] == [1, 2, 2, 2]
    assert [cli._thread_budget(cpus, 2) for cpus in (2, 3, 4, 8)] == [1, 1, 2, 2]


@pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 2), (8, 2)])
def test_run_budget(tmp_path, monkeypatch, cpus, threads):
    given = []
    simulate = cli.simulate

    def noted(*member, threads):
        given.append(threads)
        return simulate(*member, threads=threads)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "simulate", noted)
    cli.execute_run(two_grids(tmp_path)[0])
    assert given == [threads]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus,threads", [(1, 1), (2, 1), (4, 2)])
def test_sweep_budget(tmp_path, monkeypatch, cpus, threads):
    # two batches: one process on one CPU, two on two (one each), two on four
    given = tmp_path / "given"
    batch = cli.simulate_batch

    def noted(members, threads):
        with open(given, "a") as fh:
            fh.write(f"{threads}\n")
        return batch(members, threads)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "simulate_batch", noted)
    cli.execute_runs(two_grids(tmp_path))
    assert given.read_text().split() == [str(threads)] * 2
