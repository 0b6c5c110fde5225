"""The timed process: runs a workload's jobs through `hetcat.cli.main`.

    python3 bench/worker.py PLAN.json

A closed loop with one client: each job starts when the previous verdict is
in. Jobs run in passes over the whole job list, each pass in an order drawn
from the seed, until `seconds` have passed and the minimum passes are done.
With tracing on, untraced and traced passes alternate so the overhead ratio
compares passes of one process. Records and spans are written once, at exit.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Sampler


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> tuple[str, int]:
    """Digest and size of a file, read in chunks to keep the peak memory the
    program's own."""
    sha, size = hashlib.sha256(), 0
    if path.exists():
        with path.open("rb") as f:
            while chunk := f.read(1 << 20):
                sha.update(chunk)
                size += len(chunk)
    return sha.hexdigest(), size


def _run_job(main, tracer, key: str, argv: list[str], export: str) -> tuple[dict, str]:
    """One job, timed from the call of `main` to its return; then its digests."""
    gc.collect()
    buf = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = tracer.span("cli.main", main, argv) if tracer else main(argv)
    except (Exception, SystemExit):
        code, error = None, traceback.format_exc()
    end = time.perf_counter()
    out = buf.getvalue()
    if export:
        out = out.replace(json.dumps(export), '"<export>"')
    record = {"key": key, "start": start, "end": end, "exit": code, "error": error,
              "stdout": _digest(out.encode()), "traced": tracer is not None}
    if export:
        gc.collect()
        record["export"], record["bytes_written"] = _file_digest(Path(export))
    return record, out


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, str(Path(plan["root"]) / "src"))
    from hetcat import cli

    work = plan["work"]
    jobs = [(job["key"], [a.replace("{work}", work) for a in job["argv"]],
             str(Path(work) / job["export"]) if job["export"] else "")
            for job in plan["jobs"]]
    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    rng = random.Random(plan["seed"])
    order = list(range(len(jobs)))
    min_passes = 2 if tracer else 1
    records: list[dict] = []
    passes: list[dict] = []
    stdout_of: dict[str, str] = {}
    with Sampler() as sampler:
        deadline = time.perf_counter() + plan["seconds"]
        done = False
        while not done:
            rng.shuffle(order)
            traced = tracer if len(passes) % 2 == 1 else None
            pass_records = []
            if traced:
                traced.install()
            try:
                for i in order:
                    if time.perf_counter() >= deadline and len(passes) >= min_passes:
                        break
                    if traced:
                        traced.job = len(records)
                    record, out = _run_job(cli.main, traced, *jobs[i])
                    stdout_of.setdefault(record["key"], out)
                    pass_records.append(len(records))
                    records.append(record)
                else:
                    passes.append({"traced": traced is not None, "records": pass_records})
            finally:
                if traced:
                    traced.uninstall()
            done = time.perf_counter() >= deadline and len(passes) >= min_passes

    for record in records:
        record["seconds"] = record["end"] - record["start"]
        record["factor"], record["sampling"] = sampler.scale(record["start"], record["end"])
        record["scaled"] = (record["seconds"] - record["sampling"]) * record["factor"]
    result = {
        "records": records,
        "passes": passes,
        "stdout": stdout_of,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
    }
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
