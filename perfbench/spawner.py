"""Start benchmark requests from a process that holds almost no memory.

Linux carries the memory high-water mark of the process that starts a
child into the child's ``ru_maxrss``, so every request started straight
from the benchmark client (``run.py``) would read at least the client's own
peak RSS.  The client starts this small process once instead; it starts
each request, reaps it with ``os.wait4`` and reports the child's exit
status, peak RSS and wall time.

Protocol, over the SOCK_SEQPACKET unix socket whose descriptor is argv[1]:
the client sends ``{"cmd", "env", "cwd"}`` as JSON with the child's stdout
and stderr descriptors attached; the spawner answers ``{"pid"}`` once the
child runs (or ``{"error"}``) and ``{"status", "rss_kb", "seconds"}`` when it
has ended.  The spawner exits when the client closes the socket.
"""

import json
import os
import socket
import subprocess
import sys
import time


def serve(sock):
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 20, 2)
        if not message:
            return
        request = json.loads(message)
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["cmd"], stdout=fds[0], stderr=fds[1], env=request["env"], cwd=request["cwd"]
            )
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({"status": proc.returncode, "rss_kb": usage.ru_maxrss, "seconds": seconds}).encode())


if __name__ == "__main__":
    with socket.socket(fileno=int(sys.argv[1])) as channel:
        try:
            serve(channel)
        except BrokenPipeError:
            pass  # the client went away while a child ran
