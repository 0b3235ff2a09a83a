"""Job graph construction: kinds, wavefront dependencies, counter gates.

Job keys are tuples: ("parse", pic), ("recon", pic, r, c),
("mcpre", pic, r, c, i) with i the inter CU's index in the CTU's ``cus``,
("filter", pic, r), ("output", pic).
"""
from __future__ import annotations

from dataclasses import dataclass, field


def wavefront_deps(r: int, c: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """CTU positions that must reconstruct before (r, c)."""
    deps = []
    if c > 0:
        deps.append((r, c - 1))
    if r > 0:
        deps.append((r - 1, min(c + 1, cols - 1)))
    return deps


def gate_rows(r: int, ctu_size: int, height: int, max_mv_y: int) -> int:
    """Reference finalized-row requirement for reconstructing CTU row r."""
    return min(height, (r + 1) * ctu_size + max_mv_y + 4)


@dataclass
class Job:
    key: tuple
    dep_count: int = 0
    dependents: list = field(default_factory=list)
    gate: tuple | None = None          # (ref_pic_id, required_finalized_rows)
    enqueued: bool = False
    done: bool = False


def build_job_graph(pic_id: int, pic_type: int, rows: int, cols: int,
                    ctu_size: int, height: int, max_mv_y: int,
                    ref_pic: int | None) -> dict[tuple, Job]:
    """Static per-picture jobs: parse -> recon wavefront -> filter rows -> output.

    P-picture recon rows carry a counter-gate on the reference picture's
    finalized rows.  Sub-CTU prefetch jobs are added dynamically after parse.
    """
    jobs: dict[tuple, Job] = {}

    def add(key, deps=(), gate=None):
        job = Job(key=key, gate=gate)
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
            gate = None
            if pic_type == 1:
                assert ref_pic is not None
                gate = (ref_pic, gate_rows(r, ctu_size, height, max_mv_y))
            add(("recon", pic_id, r, c), deps, gate)
    for r in range(rows):
        deps = [("recon", pic_id, r, cols - 1)]
        if r + 1 < rows:
            deps.append(("recon", pic_id, r + 1, cols - 1))
        if r > 0:
            deps.append(("filter", pic_id, r - 1))
        add(("filter", pic_id, r), deps)
    add(("output", pic_id), [("filter", pic_id, rows - 1)])
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
