"""Check that an export streams: `demo --export` peaks near the plain demo.

Usage: python .github/check_export_memory.py

Runs `hetcat demo colimits --shape span --n 2` twice, each in a fresh
process: without `--export`, then with `--export` to a 145.5 MB file in a
temporary directory. Each run's peak memory is the `ru_maxrss` that
`os.wait4` reports for that process. The check exits 1 if either run fails,
or if the export run peaks at more than 1.2 times the plain run, which is
what a copy of the tables before writing them costs (about 1.35 times).
"""

import os
import subprocess
import sys
import tempfile

DEMO = ["hetcat", "demo", "colimits", "--shape", "span", "--n", "2"]
BOUND = 1.2


def peak_mb(argv: list[str]) -> float:
    """The peak resident memory of one `argv` process, in MB (Linux KB units)."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def main() -> int:
    plain = peak_mb(DEMO)
    with tempfile.TemporaryDirectory() as work:
        exported = peak_mb(DEMO + ["--export", os.path.join(work, "span.json")])
    print(f"demo colimits span n=2: {plain:.1f} MB plain, {exported:.1f} MB with --export "
          f"({exported / plain:.2f}x, bound {BOUND}x)")
    return 0 if exported <= BOUND * plain else 1


if __name__ == "__main__":
    sys.exit(main())
