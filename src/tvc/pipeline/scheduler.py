"""Dependency engine: counters and an oldest-picture-first ready heap.

Every mutation happens under the decoder's lock (its dispatch thread or
the caller), which makes job-state transitions race-free by construction.
A job enters the ready heap exactly once: when its dependency count
reaches zero.  That is the only release rule; an "mcpre" job's wait for
its reference rows is one more dependency edge, on the reference
picture's filter row that finalizes them.

The heap hands out the oldest picture's jobs first: its parse, filter rows,
MC and recon, each kind in raster order.  So the pool finishes picture 0
before it parses picture 2, and a filter row goes as soon as it can, which
finalizes the rows the next picture's MC and the output wait for.
"""
from __future__ import annotations

import heapq

from .jobs import Job

_KIND_RANK = {"parse": 0, "filter": 1, "mcpre": 2, "recon": 3}


def _dispatch_priority(key: tuple) -> tuple:
    """Heap order of a job key: ``(picture, kind rank, row, col, ...)``."""
    return (key[1], _KIND_RANK[key[0]], key[2:])


class Scheduler:
    def __init__(self) -> None:
        self.jobs: dict[tuple, Job] = {}
        self.ready: list[tuple] = []            # heap of (priority, key)

    def add_jobs(self, jobs: dict[tuple, Job]) -> None:
        self.jobs.update(jobs)
        for job in jobs.values():
            if job.dep_count == 0:
                self._push(job)

    def add_prefetch(self, key: tuple, ref_key: tuple, recon_key: tuple) -> Job:
        """Dynamic mcpre job: waits for the reference job ``ref_key`` (ready
        at once if that is done) and feeds one recon job."""
        job = Job(key=key, dependents=[recon_key])
        self.jobs[key] = job
        self.jobs[recon_key].dep_count += 1
        ref = self.jobs[ref_key]
        if ref.done:
            self._push(job)
        else:
            ref.dependents.append(key)
            job.dep_count = 1
        return job

    def complete(self, key: tuple) -> None:
        job = self.jobs[key]
        assert not job.done, f"job {key} completed twice"
        job.done = True
        for dk in job.dependents:
            dep = self.jobs[dk]
            dep.dep_count -= 1
            assert dep.dep_count >= 0
            if dep.dep_count == 0:
                self._push(dep)

    def drop_picture(self, keys) -> None:
        for k in keys:
            self.jobs.pop(k, None)

    def _push(self, job: Job) -> None:
        assert not job.enqueued, f"job {job.key} enqueued twice"
        job.enqueued = True
        heapq.heappush(self.ready, (_dispatch_priority(job.key), job.key))

    def peek_ready(self) -> tuple | None:
        """The key ``take_ready`` would return next, left in the heap."""
        return self.ready[0][1] if self.ready else None

    def take_ready(self) -> tuple | None:
        return heapq.heappop(self.ready)[1] if self.ready else None
