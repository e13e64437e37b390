"""Start measured processes from a small interpreter.

A process's ru_maxrss includes the peak RSS of the process that started it
(the address space it replaced at exec), so children started straight from
run.py, which holds NumPy, SciPy and parsed outputs, would report run.py's
peak whenever it exceeds their own.  run.py starts this script once; it
imports nothing heavy and runs one request at a time:

    stdin:  {"argv": [...], "stdout": path, "stderr": path, "env": {...},
             "cwd": path, "timeout": seconds}
    stdout: {"wall_s": ..., "rss_mb": ..., "exit_code": ...}

A child still running at the timeout is killed.  SIGTERM kills the current
child, waits for it, and exits.
"""

import json
import os
import signal
import subprocess
import sys
import time

_current = None


def _kill_current(*_):
    if _current is not None:
        _current.kill()


def _terminate(*_):
    if _current is not None:
        _current.kill()
        _current.wait()
    sys.exit(143)


def main() -> None:
    global _current
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _kill_current)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            _current = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                        env=req["env"], cwd=req["cwd"])
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            try:
                _, status, usage = os.wait4(_current.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            _current.returncode = os.waitstatus_to_exitcode(status)
            _current = None
        print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                          "exit_code": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
