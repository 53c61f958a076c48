"""Starts the benchmark's processes from a small interpreter and reports their cost.

    python3 bench/launcher.py

Reads one JSON request per line on standard input, ``{"argv", "env", "stdout",
"stderr", "timeout"}``, runs it to its end (killing it after ``timeout``
seconds) and answers with one JSON line ``{"code", "wall_s", "cpu_s",
"rss_kb"}``.  The usage comes from ``wait4``, so it covers the process and
every descendant it waited for, such as the pool workers of ``verify --jobs``.

The processes are started from here and not from the benchmark itself
because Linux carries the resident set of the process that spawns a child
into the child's ``ru_maxrss`` across ``exec``.  This interpreter imports
almost nothing and stays far below the programs it starts; the benchmark,
with networkx and jsonschema loaded, does not.
"""

import json
import os
import signal
import sys
import threading
import time


def run(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    timer = threading.Timer(request["timeout"], os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
