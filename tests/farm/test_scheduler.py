"""Unit tests for the deterministic work-stealing scheduler.

Everything runs under :meth:`WorkStealingScheduler.simulate`'s fake
clock — no processes, no wall time — so stealing behaviour, LPT
placement, and determinism are exact assertions, not timing hopes.
"""

import random

from repro.farm.scheduler import FarmTask, WorkStealingScheduler


def make_tasks(costs):
    return [
        FarmTask(seq, "page", cost) for seq, cost in enumerate(costs)
    ]


def seeded_tasks(n, seed):
    rng = random.Random(seed)
    return make_tasks([round(rng.uniform(0.1, 10.0), 3) for _ in range(n)])


class TestPlanning:
    def test_lpt_places_largest_tasks_first(self):
        scheduler = WorkStealingScheduler(2)
        queues = scheduler.plan(make_tasks([1.0, 5.0, 3.0]))
        # descending cost onto the least-loaded worker: 5 → w0, 3 → w1,
        # 1 → w1 (load 3 < 5)
        assert [t.seq for t in queues[0]] == [1]
        assert [t.seq for t in queues[1]] == [2, 0]

    def test_equal_costs_tie_break_on_submission_order(self):
        scheduler = WorkStealingScheduler(2)
        queues = scheduler.plan(make_tasks([2.0, 2.0, 2.0, 2.0]))
        assert [t.seq for t in queues[0]] == [0, 2]
        assert [t.seq for t in queues[1]] == [1, 3]

    def test_planning_is_deterministic(self):
        placements = []
        for _ in range(3):
            scheduler = WorkStealingScheduler(4)
            scheduler.plan(seeded_tasks(50, seed=7))
            placements.append(
                [[t.seq for t in q] for q in scheduler.queues]
            )
        assert placements[0] == placements[1] == placements[2]


class TestStealing:
    def test_idle_worker_steals_from_backlogged_victim(self):
        scheduler = WorkStealingScheduler(2)
        # LPT: w0 = [5.0], w1 = [1.0, 1.0, 1.0]; then a mid-batch task
        # lands behind w0's long task.  w1 drains at t=3 while w0 is still inside the 5.0
        # task — w1 must steal w0's backlog instead of idling
        scheduler.plan(make_tasks([5.0] + [1.0] * 3))
        scheduler.push(FarmTask(4, "page", 1.0), worker=0)
        report = scheduler.simulate()
        assert report.steals == 1
        assert report.makespan == 5.0
        stolen_entry = [e for e in report.schedule if e[1] == 4]
        assert stolen_entry == [(1, 4, 3.0)]

    def test_steal_takes_queue_front(self):
        # the real per-worker queues are FIFO pipes: a steal can only
        # take the front, which LPT made the victim's largest remaining
        scheduler = WorkStealingScheduler(2)
        scheduler.plan(make_tasks([5.0, 4.0, 3.0]))
        # w0: [seq0(5)], w1: [seq1(4), seq2(3)]
        task, stolen = scheduler.take(0)
        assert (task.seq, stolen) == (0, False)
        # w0 idle again; steals w1's *front* (its largest remaining)
        task, stolen = scheduler.take(0)
        assert (task.seq, stolen) == (1, True)

    def test_no_steal_when_everyone_is_busy(self):
        scheduler = WorkStealingScheduler(2)
        scheduler.plan(make_tasks([1.0, 1.0]))
        report = scheduler.simulate()
        assert report.steals == 0

    def test_all_tasks_run_exactly_once_despite_stealing(self):
        scheduler = WorkStealingScheduler(3)
        tasks = seeded_tasks(40, seed=11)
        scheduler.plan(tasks)
        report = scheduler.simulate()
        executed = sorted(seq for _worker, seq, _start in report.schedule)
        assert executed == [t.seq for t in tasks]


class TestMakespan:
    def test_stealing_beats_no_stealing_on_skewed_loads(self):
        # one giant task plus a tail of small ones: static placement
        # alone leaves workers idle; the simulated steals fill them
        costs = [30.0] + [1.0] * 30
        scheduler = WorkStealingScheduler(4)
        scheduler.plan(make_tasks(costs))
        report = scheduler.simulate()
        total = sum(costs)
        # perfect would be total/4 = 15; the giant task forces 30;
        # stealing must keep us at the giant task's cost, not serial
        assert report.makespan == 30.0
        assert report.makespan < total

    def test_makespan_within_lpt_bound(self):
        # LPT + greedy stealing stays within 4/3·OPT + largest task
        tasks = seeded_tasks(60, seed=3)
        workers = 4
        scheduler = WorkStealingScheduler(workers)
        scheduler.plan(tasks)
        report = scheduler.simulate()
        lower_bound = max(
            sum(t.cost for t in tasks) / workers,
            max(t.cost for t in tasks),
        )
        assert report.makespan <= lower_bound * 4 / 3 + 1e-9

    def test_simulation_is_deterministic(self):
        schedules = []
        for _ in range(3):
            scheduler = WorkStealingScheduler(4)
            scheduler.plan(seeded_tasks(50, seed=19))
            schedules.append(scheduler.simulate().schedule)
        assert schedules[0] == schedules[1] == schedules[2]

    def test_single_worker_runs_in_plan_order(self):
        scheduler = WorkStealingScheduler(1)
        scheduler.plan(make_tasks([1.0, 3.0, 2.0]))
        report = scheduler.simulate()
        assert [seq for _w, seq, _s in report.schedule] == [1, 2, 0]
        assert report.steals == 0
