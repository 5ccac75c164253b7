"""Run one eqkr CLI job as the `eqkr` console script does, then report the
process's peak resident set.

    python perfbench/cli_job.py verify --group SU2 --suite all

A child's ru_maxrss, as its parent sees it, also counts the memory of the
parent it was forked from (Linux keeps the pre-exec high-water mark), so
each job writes its own VmHWM line to stderr as its last act.
"""

import sys

PEAK_PREFIX = "VmHWM:"


def report_peak():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            sys.stderr.write(next(line for line in fh if line.startswith(PEAK_PREFIX)))
    except (OSError, StopIteration):
        pass  # not Linux: the parent falls back to ru_maxrss


if __name__ == "__main__":
    from eqkr.cli import main
    rc = main()
    report_peak()
    sys.exit(rc)
