"""Worker-process main loop for the process-backed worker pool.

Workers are forked from the decoder, so they inherit its ``JobEnv``: the
kernel set and the slot planes, which are views of the shared arena.  They
execute jobs from the FIFO task queue and post completions.  They hold no
authoritative state: dependency bookkeeping lives with the master's
dispatch thread.
"""
from __future__ import annotations

import traceback

from .exec import JobEnv, run_job


def worker_main(env: JobEnv, task_q, result_q) -> None:
    while True:
        msg = task_q.get()
        if msg is None:
            return
        key = msg[0]
        try:
            result = ("done", key, run_job(msg, env))
        except Exception:
            result = ("error", key, traceback.format_exc())
        result_q.put(result)
