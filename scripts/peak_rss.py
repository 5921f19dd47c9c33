#!/usr/bin/env python3
"""Run one tiltchar command and report its own peak RSS and CPU time.

The arguments are the command's, as given to ``tiltchar``:

    python scripts/peak_rss.py char steinberg --type D --rank 4 --p 5

The command runs in a fresh interpreter with stdout counted and hashed
instead of shown; its stderr passes through.  As that interpreter
finishes, it reads its own peak resident set, VmHWM from
/proc/self/status (ru_maxrss where there is no /proc), and its user and
system CPU time, and sends them back over a pipe.  VmHWM belongs to the
address space made by exec, so the launcher's memory is not in it, while
the ru_maxrss of a child started by fork or vfork and exec keeps the
launcher's peak.  It also sends the tiltchar modules whose code ran
(``modules``): the package registers some of them lazily, and a
registered module runs only once its type is plain ``types.ModuleType``.
Prints one JSON object and exits with the command's exit code.
"""
import hashlib
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

CHILD = """
import os, sys, types

def report(fd):
    kb, source = None, "VmHWM"
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
    except OSError:
        pass
    import resource
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if kb is None:
        # kilobytes on Linux, bytes on macOS
        kb = usage.ru_maxrss // (1024 if sys.platform == "darwin" else 1)
        source = "ru_maxrss"
    cpu = usage.ru_utime + usage.ru_stime
    ran = sorted(
        name for name, module in list(sys.modules.items())
        if name.split(".")[0] == "tiltchar" and type(module) is types.ModuleType
    )
    os.write(fd, " ".join(["%d %s %.6f" % (kb, source, cpu), *ran]).encode())

fd = int(sys.argv.pop(1))
code = 1
try:
    from tiltchar.cli import main
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:
    report(fd)
sys.exit(code)
"""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_fd, write_fd = os.pipe()
    digest = hashlib.sha256()
    size = 0
    with os.fdopen(read_fd, "rb") as report:
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(write_fd), *argv],
                stdout=subprocess.PIPE,
                pass_fds=(write_fd,),
                env=env,
            )
        finally:
            os.close(write_fd)  # the child holds its own copy
        with proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
        wall = time.perf_counter() - start
        fields = report.read().decode().split()
    if len(fields) < 3:
        print(f"error: the command ended (exit {proc.returncode}) without a report",
              file=sys.stderr)
        return 1
    kb, source, cpu, *modules = fields
    print(json.dumps({
        "command": " ".join(argv),
        "exit_code": proc.returncode,
        "peak_rss_mb": round(int(kb) / 1024, 2),
        "rss_source": source,
        "cpu_s": round(float(cpu), 3),
        "wall_s": round(wall, 3),
        "stdout_bytes": size,
        "stdout_sha256": digest.hexdigest(),
        "modules": modules,
    }))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
