"""Job graph construction: kinds, wavefront dependencies, reference-row edges.

Job keys are tuples: ("parse", pic), ("recon", pic, r, c),
("mcpre", pic, r, c, i) with i the inter CU's index in the CTU's ``cus``,
and ("filter", pic, r).  Every job is released by its dependency count
alone.  Only "mcpre" jobs read the reference picture, so only they depend
on one of its filter rows: the row ``ref_filter_row`` names.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..reconstruct import band_limits


def wavefront_deps(r: int, c: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """CTU positions that must reconstruct before (r, c)."""
    deps = []
    if c > 0:
        deps.append((r, c - 1))
    if r > 0:
        deps.append((r - 1, min(c + 1, cols - 1)))
    return deps


def ref_filter_row(r: int, rows: int, ctu_size: int, height: int, max_mv_y: int) -> int:
    """The filter row of a ``rows``-row reference picture whose completion
    finalizes every row that motion compensation of CTU row ``r`` may read.

    Filter rows complete in order and each finalizes the luma rows up to its
    ``band_limits`` "final" end, so this is the first row whose end reaches
    the CTU row's bottom plus the motion range and the 4-row filter support.
    """
    need = min(height, (r + 1) * ctu_size + max_mv_y + 4)
    return next(k for k in range(rows)
                if band_limits(k, rows, ctu_size, height)["final"][1] >= need)


@dataclass
class Job:
    key: tuple
    dep_count: int = 0
    dependents: list = field(default_factory=list)
    enqueued: bool = False
    sent: bool = False              # on its worker's queue (pool only)
    done: bool = False


def build_job_graph(pic_id: int, rows: int, cols: int) -> dict[tuple, Job]:
    """Static per-picture jobs: parse -> recon wavefront -> filter rows.

    None of them reads another picture.  A P picture's "mcpre" jobs, the only
    ones that read its reference, are added after its parse.
    """
    jobs: dict[tuple, Job] = {}

    def add(key, deps=()):
        job = Job(key=key)
        jobs[key] = job
        for d in deps:
            jobs[d].dependents.append(key)
            job.dep_count += 1
        return job

    add(("parse", pic_id))
    for r in range(rows):
        for c in range(cols):
            deps = [("parse", pic_id)]
            deps += [("recon", pic_id, dr, dc)
                     for dr, dc in wavefront_deps(r, c, rows, cols)]
            add(("recon", pic_id, r, c), deps)
    for r in range(rows):
        deps = [("recon", pic_id, r, cols - 1)]
        if r + 1 < rows:
            deps.append(("recon", pic_id, r + 1, cols - 1))
        if r > 0:
            deps.append(("filter", pic_id, r - 1))
        add(("filter", pic_id, r), deps)
    return jobs


def assert_acyclic(jobs: dict[tuple, Job]) -> None:
    """The dependency graph admits a topological order."""
    indeg = {k: j.dep_count for k, j in jobs.items()}
    queue = [k for k, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        k = queue.pop()
        seen += 1
        for d in jobs[k].dependents:
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)
    if seen != len(jobs):
        raise AssertionError("job graph contains a cycle")
