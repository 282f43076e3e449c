"""Start, time and reap the benchmark's child processes, from a small process.

A child's `ru_maxrss` includes the resident pages of the process that spawned
it, which it shares until exec.  The harness itself is larger than a small
CLI run, so it starts this script once (`python3 -I -S`, stdlib only, about
13 MB) and lets it spawn every child.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "env": {...}, "keep_output": bool}
and one JSON reply per line on stdout,
    {"wall", "cpu", "rss_mb", "exit", "size", "sha256", "body_sha256", "out"}.
`wall` runs from spawn to exit with stdout fully read; stdout is hashed as it
arrives (`body_sha256` skips its first line) and returned in `out` only when
`keep_output` is set.  Exits at end of input.
"""

import hashlib
import json
import os
import sys
import time


def run(argv, env, keep_output):
    read_fd, write_fd = os.pipe()
    digest, body = hashlib.sha256(), hashlib.sha256()
    size, in_header, kept = 0, True, []
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, write_fd, 1),
            (os.POSIX_SPAWN_CLOSE, read_fd),
            (os.POSIX_SPAWN_CLOSE, write_fd),
        ])
    except OSError:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    try:
        while chunk := os.read(read_fd, 1 << 16):
            size += len(chunk)
            digest.update(chunk)
            if keep_output:
                kept.append(chunk)
            if in_header:
                newline = chunk.find(b"\n")
                if newline < 0:
                    continue
                in_header, chunk = False, chunk[newline + 1:]
            body.update(chunk)
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    return {
        "wall": time.perf_counter() - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
        "size": size,
        "sha256": digest.hexdigest(),
        "body_sha256": body.hexdigest(),
        "out": b"".join(kept).decode("utf-8", "replace"),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["env"], request["keep_output"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
