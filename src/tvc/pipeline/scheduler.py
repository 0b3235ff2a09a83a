"""Dependency engine: counters, FIFO ready queue, counter gates.

Every mutation happens on a single thread (the dispatch thread in process
mode, the caller in inline mode), which makes job-state transitions
race-free by construction.  A job enters the ready queue exactly once:
when its dependency count reaches zero and its counter-gate, if any, is
satisfied.  Gated jobs park on a per-reference-picture wait list ordered
by required row count; advancing finalized rows releases them in order.
"""
from __future__ import annotations

import heapq
from collections import deque

from .jobs import Job


class Scheduler:
    def __init__(self) -> None:
        self.jobs: dict[tuple, Job] = {}
        self.ready: deque[tuple] = deque()
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
        job.enqueued = True
        self.ready.append(job.key)

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
            job = self.jobs[key]
            job.enqueued = True
            self.ready.append(key)

    def drop_picture(self, pic_id: int, keys) -> None:
        for k in keys:
            self.jobs.pop(k, None)
        self.parked.pop(pic_id, None)

    def take_ready(self) -> tuple | None:
        return self.ready.popleft() if self.ready else None
