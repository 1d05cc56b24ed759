"""Start the ``cli`` workload's command processes on behalf of the worker.

Usage: ``python launcher.py``, then one JSON list of arguments per line
on stdin; for each it runs the command to its end and writes one JSON
line: exit code, stdout (stderr merged), CPU time and peak RSS in KiB.

The kernel carries the peak RSS of the process that starts a command
over into the command's own, so commands started by the worker would
report the worker's size.  This process imports little and stays smaller
than any command it starts.
"""

import json
import os
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, out.decode(), usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
