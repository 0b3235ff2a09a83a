"""Worker-process main loop for the process-backed worker pool.

Workers are forked from the decoder, so they inherit its ``JobEnv``: the
kernel set and the slot planes, which are views of the shared arena.  Each
worker reads its own task queue, which carries every job of the pictures
it owns (picture ``p`` belongs to worker ``p % workers``), in the order
the master put them.  A parse keeps its picture's parsed data in this
process's ``JobEnv``, so the picture's later jobs find it here.  A worker
posts one completion per message, an error included, tagged with its
index, since the master counts what each worker has outstanding.
Dependency bookkeeping lives with the master's dispatch thread.
"""
from __future__ import annotations

import pickle
import traceback

from .exec import JobEnv, run_job


def worker_main(env: JobEnv, index: int, task_q, result_q) -> None:
    while (msg := task_q.get()) is not None:
        key = msg[0]
        try:
            result = (index, "done", key, run_job(msg, env))
        except Exception as e:
            result = (index, "error", key, _portable(e))
        result_q.put(result)


def _portable(error: Exception) -> Exception | str:
    """The exception itself if it pickles (the master raises it), else its traceback."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return "".join(traceback.format_exception(error))
