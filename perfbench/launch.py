"""Start the benchmark's commands and report each one's wall time, peak RSS and exit code.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "env", "log",
"timeout"}``, and answers each with one JSON line ``[seconds, max_rss_kib,
exit_code]``. A command still running after ``timeout`` seconds is killed.

It is a process of its own because on Linux a child's ``ru_maxrss`` also
takes in the resident size of the process that spawned it, and run.py holds
the generated corpus and the expected outputs. Spawned from this small
process, each command's ``ru_maxrss`` is its own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    request = json.loads(line)
    with open(request["log"], "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([seconds, usage.ru_maxrss, proc.returncode]), flush=True)
