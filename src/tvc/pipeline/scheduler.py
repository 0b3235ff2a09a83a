"""Dependency engine: counters, an oldest-picture-first ready heap, counter gates.

Every mutation happens under the decoder's lock (its dispatch thread or
the caller), which makes job-state transitions race-free by construction.
A job enters the ready heap exactly once: when its dependency count
reaches zero and its counter-gate, if any, is satisfied.  Gated jobs park
on a per-reference-picture wait list ordered by required row count;
advancing finalized rows releases them into the same heap.

The heap hands out output pseudo-jobs first (they take no worker), then
the oldest picture's jobs: its parse, filter rows, MC and recon, each kind
in raster order.  So the pool finishes picture 0 before it parses picture
2, and a filter row goes as soon as it can, which finalizes the rows the
next picture's MC and the output wait for.
"""
from __future__ import annotations

import heapq

from .jobs import Job

_KIND_RANK = {"parse": 0, "filter": 1, "mcpre": 2, "recon": 3}


def _dispatch_priority(key: tuple) -> tuple:
    """Heap order of a job key: ``(picture, kind rank, row, col, ...)``."""
    if key[0] == "output":
        return (-1, key[1])
    return (key[1], _KIND_RANK[key[0]], key[2:])


class Scheduler:
    def __init__(self) -> None:
        self.jobs: dict[tuple, Job] = {}
        self.ready: list[tuple] = []            # heap of (priority, key)
        self.parked: dict[int, list] = {}
        self.finalized: dict[int, int] = {}
        self._seq = 0

    def add_jobs(self, jobs: dict[tuple, Job]) -> None:
        self.jobs.update(jobs)
        for job in jobs.values():
            if job.dep_count == 0:
                self._maybe_ready(job)

    def add_prefetch(self, key: tuple, gate: tuple, recon_key: tuple) -> None:
        """Dynamic mcpre job: no deps, gated, feeding one recon job."""
        job = Job(key=key, gate=gate, dependents=[recon_key])
        self.jobs[key] = job
        self.jobs[recon_key].dep_count += 1
        self._maybe_ready(job)

    def _maybe_ready(self, job: Job) -> None:
        assert not job.enqueued, f"job {job.key} enqueued twice"
        if job.gate is not None:
            ref, rows = job.gate
            if self.finalized.get(ref, 0) < rows:
                heapq.heappush(
                    self.parked.setdefault(ref, []), (rows, self._seq, job.key)
                )
                self._seq += 1
                return
        self._push(job)

    def complete(self, key: tuple) -> None:
        job = self.jobs[key]
        assert not job.done, f"job {key} completed twice"
        job.done = True
        for dk in job.dependents:
            dep = self.jobs[dk]
            dep.dep_count -= 1
            assert dep.dep_count >= 0
            if dep.dep_count == 0:
                self._maybe_ready(dep)

    def advance_finalized(self, pic_id: int, rows: int) -> None:
        # monotone: a stale smaller value is safe, larger-than-true never happens
        if rows <= self.finalized.get(pic_id, 0):
            return
        self.finalized[pic_id] = rows
        heap = self.parked.get(pic_id)
        while heap and heap[0][0] <= rows:
            _, _, key = heapq.heappop(heap)
            self._push(self.jobs[key])

    def drop_picture(self, pic_id: int, keys) -> None:
        for k in keys:
            self.jobs.pop(k, None)
        self.parked.pop(pic_id, None)

    def _push(self, job: Job) -> None:
        job.enqueued = True
        heapq.heappush(self.ready, (_dispatch_priority(job.key), job.key))

    def peek_ready(self) -> tuple | None:
        """The key ``take_ready`` would return next, left in the heap."""
        return self.ready[0][1] if self.ready else None

    def take_ready(self) -> tuple | None:
        return heapq.heappop(self.ready)[1] if self.ready else None
