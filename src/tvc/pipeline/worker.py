"""Worker-process main loop for the process-backed worker pool.

Workers are forked from the decoder, so they inherit its ``JobEnv``: the
kernel set and the slot planes, which are views of the shared arena.  They
take job messages from the task queue in the order the master put them
(oldest picture first, and at most ``2 * workers`` outstanding) and post
one completion per message, an error included, since the master counts
them against its credit.  They hold no authoritative state: dependency
bookkeeping lives with the master's dispatch thread.
"""
from __future__ import annotations

import pickle
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
        except Exception as e:
            result = ("error", key, _portable(e))
        result_q.put(result)


def _portable(error: Exception) -> Exception | str:
    """The exception itself if it pickles (the master raises it), else its traceback."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return "".join(traceback.format_exception(error))
