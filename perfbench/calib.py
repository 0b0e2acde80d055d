"""Reference-speed calibration of the benchmark's operation walls.

On a shared host the speed of a core drifts by tens of percent from one
minute to the next, so one cold pass over the corpus reads 8.7 s in one
run and 12.7 s in the next while the program does exactly the same
work.  Timing a fixed piece of Python right next to the program's own
work measures that drift, and dividing it out leaves the program's
cost.

The *reference kernel* is generic Python (dicts, strings, ``json``, a
keyed sort) that shares no code with the analyzer.  :func:`install`
runs it before every page the analyzer enters on its serial path (the
CLI, remediation's re-analysis, the daemon), before every task a farm
worker runs, and at layer entries in between, in that same process, so
its samples see the same core at the same moments as the work around
them.  An operation's calibrated wall is its wall without the kernel's
own time, divided by the kernel's mean time during the operation and
multiplied by :data:`NOMINAL_S`: the seconds the operation would take
on a host where the kernel takes 2 ms.  A change to the program's own
work moves it in full; a change of host speed moves it only by the
difference between how much the kernel and the analyzer slow down.  On
a 2-core VM where five corpus-cold runs of the same code read from
10.0 s to 14.4 s per pass uncalibrated, ten runs of 20 s had an
interquartile range of 3% of the median calibrated pass.

Set-up time (spawn to ready) is calibrated the same way, by a few
kernel samples the analyzer process takes at the end of its set-up.
Calibration is installed in untraced sessions only; traced sessions
time the spans instead.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import statistics
import time

from spans import LAYERS, _resolve

#: the kernel's time on the nominal host
NOMINAL_S = 0.002

#: inside a unit of work, a layer entry samples when this long has
#: passed since the last sample ended, so long pages and remediation's
#: own work are covered too
EVERY_S = 0.1

#: where the analyzer enters one unit of work, wrapped as bound in the
#: module that calls it: a page on the serial path, a task in a farm
#: worker (a page, a split page's cascade share, a parse pre-pass chunk)
HOOKS = (
    ("repro.analysis.analyzer", "_page_result"),
    ("repro.farm.workers", "_execute"),
)

#: a farm worker's whole life; it writes its samples when it returns
WORKER_MAIN = ("repro.farm.driver", "farm_worker_main")

#: kernel samples at the end of an analyzer process's set-up, before it
#: reports ready, to calibrate the set-up time by
SETUP_SAMPLES = 5


def kernel() -> int:
    """The reference work: about 2 ms of CPython on a current core."""
    table = {}
    for i in range(600):
        key = "k%d" % i
        table[key] = [i, key * 3, (i, i + 1), {"a": i}]
    decoded = json.loads(json.dumps(table))
    ordered = sorted(decoded, key=lambda k: (len(k), k[::-1]))
    return len(ordered)


class Calibrator:
    """The kernel samples of one process: ``(start, duration)`` pairs,
    ``time.perf_counter`` seconds (``CLOCK_MONOTONIC``, so comparable
    across the benchmark's processes)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.last = 0.0

    def sample(self) -> None:
        # the kernel frees all it allocates by reference counting; with
        # the collector off it neither pays for nor triggers a collection
        # of the analyzer's heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.last = time.perf_counter()
            self.samples.append((start, self.last - start))
        finally:
            if collecting:
                gc.enable()

    def wrap(self, fn, every: float = 0.0):
        """``fn`` sampling first, when ``every`` seconds have passed
        since the last sample."""
        @functools.wraps(fn)
        def calibrated(*args, **kwargs):
            if time.perf_counter() - self.last >= every:
                self.sample()
            return fn(*args, **kwargs)

        return calibrated


def sample_setup(calibrator: Calibrator) -> list[tuple[float, float]]:
    """The set-up samples, taken once the analyzer is imported."""
    for _ in range(SETUP_SAMPLES):
        calibrator.sample()
    return list(calibrator.samples)


def install(calibrator: Calibrator, worker_dir: str | None = None) -> None:
    """Sample before every unit of work of this process, and at the
    entries of the layers :mod:`spans` times every :data:`EVERY_S`; with
    ``worker_dir``, farm workers forked from it write their samples to
    ``worker_dir/ref-<pid>.json`` when they exit."""
    hooks = [(module, attr_path, 0.0) for module, attr_path in HOOKS]
    hooks += [(module, attr_path, EVERY_S) for _, module, attr_path in LAYERS]
    for module, attr_path, every in hooks:
        owner, attr = _resolve(module, attr_path)
        setattr(owner, attr, calibrator.wrap(getattr(owner, attr), every))
    if worker_dir is None:
        return
    owner, attr = _resolve(*WORKER_MAIN)
    worker_main = getattr(owner, attr)

    def calibrated_worker(*args, **kwargs):
        calibrator.samples = []
        try:
            return worker_main(*args, **kwargs)
        finally:
            path = os.path.join(worker_dir, f"ref-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(calibrator.samples, handle)

    setattr(owner, attr, calibrated_worker)


def collect_workers(worker_dir: str) -> list[list[float]]:
    """Samples written by exited farm workers (the files are removed)."""
    samples: list[list[float]] = []
    for name in sorted(os.listdir(worker_dir)):
        if name.startswith("ref-"):
            path = os.path.join(worker_dir, name)
            with open(path, encoding="utf-8") as handle:
                samples.extend(json.load(handle))
            os.remove(path)
    return samples


def calibrate(wall: float, durations: list[float], parallel: int = 1):
    """``(net, calibrated)`` walls of an operation whose ``wall``
    includes the kernel samples ``durations`` run by ``parallel``
    processes side by side; ``(wall, None)`` without samples."""
    if not durations:
        return wall, None
    net = wall - sum(durations) / parallel
    return net, net * NOMINAL_S / statistics.fmean(durations)
