"""The work-stealing analysis farm (parallel execution layer).

``run_pages(jobs>1)`` fans entry pages out to a pool of persistent
worker processes: one task per page, placed longest-first onto
per-worker queues, with real work stealing (an idle worker takes the
front of a victim's queue).  Each worker runs the serial per-page path
against its own parse cache and in-process verdict / FST-image memos.

The driver (:class:`repro.farm.driver.AnalysisFarm`) merges results in
page order, so ``--jobs N`` output is byte-identical to serial; see
DESIGN.md §5k for the soundness argument.
"""

from .driver import AnalysisFarm
from .scheduler import FarmTask, WorkStealingScheduler

__all__ = [
    "AnalysisFarm",
    "FarmTask",
    "WorkStealingScheduler",
]
