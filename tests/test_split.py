"""A step split between two threads gives the bits of an unsplit step.

With `split` < n, lw_advance (_lw.c) starts a helper thread for each
call, which takes nodes [split, n) of each member's step.  The split is
an edge of the blocks of the step's sum order (lyapunov.BLOCK nodes), so
each part sums the blocks that one thread sums, and the caller adds all
block sums in block order after the helper is done.  These tests force
the split through StepWork and simulate_batch at small n, and hold every
record, state and failure equal to those of one thread, bit for bit, the
steps that the other members take after one fails included; then they
check that no thread outlives a call, and the rule that gives a process
its threads.
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipestab import cli, dynamics, lyapunov
from pipestab.disturbance import DisturbanceSpec
from pipestab.dynamics import (RECORDS, FieldState, StepWork, bump_profile, failure,
                               profile_terms, simulate_batch, step, wave_speed)
from pipestab.stationary import PipeParams, build_stationary
from test_dynamics import TestBatch, assert_member_fails_mid_call, assert_same_results, cfl_member

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
    """Calls `step` until the records are full or no member runs, moving
    each member's snapshot time on as it reaches it; returns every byte the
    calls wrote, the steps of each call and each member's failure, its
    error's type and message, or None."""
    state = FieldState(list(state.t), state.xs, state.u.copy(), state.v.copy(), state.w.copy())
    work = StepWork(state, threads)
    work.states.fill(0.0)           # a state no step writes compares equal too
    if split is not None:
        work.split = split
    work.load(specs, **values)
    interval = np.array(values["t_snap"])
    records = np.zeros((len(RECORDS), len(specs), capacity))
    index, taken = 1, []
    while index < capacity:
        state = step(state, terms, work, records, index)
        if not work.taken:
            break
        taken.append(work.taken)
        index += work.taken
        t_snap = work.values["t_snap"]
        t_snap[np.asarray(state.t) >= t_snap - 1e-12] += interval[
            np.asarray(state.t) >= t_snap - 1e-12]
    errors = [failure(work, row) for row in range(len(specs))]
    failures = [error and (type(error), str(error)) for error in errors]
    return records.tobytes(), work.io.tobytes(), work.states.tobytes(), taken, failures


def assert_split_equal(state, terms, specs, values, capacity, split=None):
    one = run_steps(state, terms, specs, values, capacity, 1)
    two = run_steps(state, terms, specs, values, capacity, 2, split)
    assert two[3:] == one[3:]
    assert two[:3] == one[:3]
    return one


BLOCK = lyapunov.BLOCK


@settings(max_examples=150, deadline=None)
@given(n=st.integers(BLOCK + 3, 3 * BLOCK + 8), where=st.floats(0.0, 1.0),
       capacity=st.integers(2, 60), draws=st.lists(member_draws, min_size=1, max_size=3))
def test_split_steps_equal_one_thread(n, where, capacity, draws):
    # n from the fewest nodes a split can take, a block and 3, any block
    # edge that leaves the helper 3 nodes or more, the records filling
    # within a call, and guards that some steps leave
    split = BLOCK * (1 + round(where * ((n - 3) // BLOCK - 1)))
    assert_split_equal(*batch(n, draws), capacity, split)


DRAW = (2.0, 4.0, 0.1, 0.3, 1e-3, 1e-3, 3, 10.0, 4.0)
N = 37          # split at 32, the block edge nearest N / 2


def quiet_nan(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0])


@pytest.mark.parametrize("nodes", [[5], [17], [18], [30], [31], [32], [34], [36], [5, 30],
                                   [30, 5], [5, 34], [34, 5]],
                         ids=lambda nodes: "nan-at-" + "-".join(map(str, nodes)))
def test_nan_in_either_part_and_at_the_seam(nodes):
    # NaNs of distinct payloads: the rescan in node order gives the one that
    # one thread gives, the last (`nan_max` keeps a later NaN), and the guard
    # fails at that step
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    for payload, node in enumerate(nodes, 1):
        state.u[1, node] = state.w[1, node] = quiet_nan(payload)
    records, *_, failures = assert_split_equal(state, terms, specs, values, 4)
    assert failures[0] is None and failures[1][0] is dynamics.BlowUpError
    max_u = np.frombuffer(records).reshape(len(RECORDS), 2, 4)[RECORDS.index("max_u"), 1, 1]
    assert np.array(max_u).view(np.uint64) == np.array(quiet_nan(max(
        (node, payload) for payload, node in enumerate(nodes, 1))[1])).view(np.uint64)


@pytest.mark.parametrize("peak", [0.25, 0.94], ids=["part-0", "part-1"])
def test_guard_failure_in_either_part(peak):
    # a bump on nodes 8-10 or 33-35, in one part only, above the guard after
    # the first step of member 1
    xs = np.linspace(0.0, 1.0, N)
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    phi, dphi = bump_profile(xs, 1e-2, peak, 0.05)
    state.u[1], state.v[1], state.w[1] = phi, -2.0 * dphi, dphi
    values["guard"] = [10.0, 0.9e-2]
    *_, taken, failures = assert_split_equal(state, terms, specs, values, 30)
    assert failures[0] is None and failures[1][0] is dynamics.BlowUpError
    assert sum(taken) == 29             # member 0 fills the records


def test_cfl_failure():
    # a CFL number of 2: member 1 fails before the first step, and member 0
    # takes that step and fills the records; alone, member 1 takes no step,
    # and the call's helper returns
    state, terms, specs, values = batch(N, [DRAW, DRAW])
    values["cfl_dx"] = [values["cfl_dx"][0], 2.0 / 0.45 * values["cfl_dx"][0]]
    *_, taken, failures = assert_split_equal(state, terms, specs, values, 30)
    assert failures[0] is None and failures[1][0] is dynamics.CFLError
    assert sum(taken) == 29
    state, terms, specs, values = batch(N, [DRAW])
    values["cfl_dx"] = [2.0 / 0.45 * values["cfl_dx"][0]]
    *_, taken, failures = assert_split_equal(state, terms, specs, values, 30)
    assert taken == [] and failures[0][0] is dynamics.CFLError


def test_split_work_sets_hold_rows_of_n():
    # one layout of the half-step rows, n rounded up to 4 doubles, split or
    # not; two threads split at the block edge nearest n / 2, and one part
    # is a split at n
    state, *_ = batch(N, [DRAW])
    assert [(work.half.shape, work.split) for work in (StepWork(state, 2), StepWork(state))] == [
        ((3, 40), BLOCK), ((3, 40), N)]


@pytest.mark.parametrize("split", [2, N - 2])
def test_part_below_three_nodes_refused(split):
    state, terms, specs, values = batch(N, [DRAW])
    with pytest.raises(ValueError, match=f"cannot be split at node {split}"):
        run_steps(state, terms, specs, values, 4, 2, split)


@pytest.mark.parametrize("n,split", [(N, BLOCK // 2), (N, 0), (BLOCK + 2, BLOCK)])
def test_split_off_a_block_edge_refused(n, split):
    # a split inside a block, at none, or at a block edge that leaves the
    # helper fewer than 3 nodes
    state, terms, specs, values = batch(n, [DRAW])
    with pytest.raises(ValueError, match=f"cannot be split at node {split}"):
        run_steps(state, terms, specs, values, 4, 2, split)


def test_batches_split_as_one_thread(monkeypatch):
    # members that fail at t = 0, by their guard and by CFL mid-run, members
    # that end, and records that grow: the same results with the split
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


def test_member_failing_mid_call_leaves_the_others_split(monkeypatch):
    assert_member_fails_mid_call(monkeypatch, threads=2)


TASKS = "/proc/self/task"
linux_only = pytest.mark.skipif(not os.path.isdir(TASKS), reason="needs Linux's /proc/self/task")


@linux_only
def test_no_thread_outlives_a_split_run(monkeypatch):
    # a thread that counts this process's threads while a split run steps sees
    # the helper; after the run the count is what it was.  The run is one
    # call of about 150,000 steps, 0.2 s or more, so that the counter gets a
    # CPU while the caller and the helper spin on two
    monkeypatch.setattr(dynamics, "SPLIT_NODES", 65)
    member = TestBatch.MEMBERS[0]._replace(config=dynamics.SolverConfig(
        nx=64, t_end=500.0, snapshot_dt=500.0))
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
