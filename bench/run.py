"""The hetcat benchmark.

One run of one workload, as the benchmark contract calls it:

    python3 bench/run.py --workload galois-sweep --seed 1 --seconds 20 --trace 0

prints human-readable lines, then one JSON line with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). Other modes:

    python3 bench/run.py --all [--seed N] [--seconds S]   every workload, both runs
    python3 bench/run.py --baseline                       write bench/baseline.json
    python3 bench/run.py --pin                            write bench/oracle.json

Set-up runs in this process, `SETUP_REPS` times, and `setup_s` is the median.
The timed jobs run in a fresh interpreter (`worker.py`), so peak memory is
the workload's own. Every verdict is checked against `oracle.json` (exit
code, digests of stdout and of each exported file, pinned from a known-good
tree) and against the instance's direct formulas for the adjoints.

Reported times are scaled to one machine speed (`speed.py`). An untraced run
also prints the unscaled `wall_s`, `job_p50_s` and `setup_s` and the median,
minimum and maximum speed factor on a readable line `raw {...}`, which
`--baseline` stores; the JSON line keeps to its four keys.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Sampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ORACLE = BENCH / "oracle.json"
BASELINE = BENCH / "baseline.json"
SETUP_REPS = 3
BASELINE_RUNS = 10
DEFAULT_SECONDS = 20

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "comma.build_s": "s", "comma.iso_self_s": "s", "comma.morphisms": "count",
    "comma.comp_entries": "count",
    "fincat.check_functor_s": "s", "fincat.check_category_s": "s",
    "fincat.comp_entries": "count", "fincat.assoc_triples": "count",
    "instances.tabulate_s": "s", "instances.het_elements": "count",
    "fincat.functor_category_s": "s",
    "het.find_left_s": "s", "het.find_right_s": "s", "het.candidates": "count",
    "het.universal_hit_ratio": "ratio", "het.witness_failures": "count",
    "het.check_bifunctor_s": "s", "het.action_entries": "count",
    "adjunction.assembly_self_s": "s", "adjunction.four_iso_s": "s",
    "adjunction.identities_s": "s", "adjunction.roundtrip_self_s": "s",
    "documents.parse_s": "s", "documents.bytes_read": "B",
    "documents.dump_s": "s", "documents.bytes_written": "B",
    "cli.self_s": "s", "cli.jobs": "count",
    "trace.overhead_ratio": "ratio", "trace.residual_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _set_up(workload: str, work: Path):
    """Run set-up `SETUP_REPS` times; return its jobs and median times
    (scaled to the reference speed, and raw)."""
    from workloads import setup
    scaled, raw, jobs = [], [], []
    for _ in range(SETUP_REPS):
        with Sampler() as sampler:
            start = time.perf_counter()
            jobs = setup(workload, work)
            end = time.perf_counter()
        factor, sampling = sampler.scale(start, end)
        raw.append(end - start)
        scaled.append((end - start - sampling) * factor)
    return jobs, statistics.median(scaled), statistics.median(raw)


def _run_worker(jobs, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    plan = {"root": str(ROOT), "work": str(work), "seed": seed, "seconds": seconds,
            "trace": trace, "result": str(work / "result.json"),
            "jobs": [{"key": j.key, "argv": j.argv, "export": j.export} for j in jobs]}
    (work / "plan.json").write_text(json.dumps(plan))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(work / "plan.json")], timeout=seconds + 150)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed process did not finish: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"timed process exited with {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def _formula_problems(job, stdout: str) -> list[str]:
    """Check a verdict against facts that do not come from the search."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    problems = []
    if out.get("exit") != 0 or not all(c["ok"] for c in out.get("checks", [])):
        problems.append("verdict is not a pass")
    for side in ("left_adjoint", "right_adjoint"):
        if side in job.expect and out.get(side) != job.expect[side]:
            problems.append(f"{side} differs from the direct formula")
    return problems


def _verify(jobs, result: dict) -> tuple[list[bool], list[str]]:
    """Per record: does its verdict match the oracle? Plus what went wrong."""
    pinned = json.loads(ORACLE.read_text()) if ORACLE.exists() else {}
    by_key = {j.key: j for j in jobs}
    bad_keys = {}
    for key, stdout in result["stdout"].items():
        problems = _formula_problems(by_key[key], stdout)
        if problems:
            bad_keys[key] = problems
    ok, notes = [], []
    for rec in result["records"]:
        pin = pinned.get(rec["key"])
        problems = list(bad_keys.get(rec["key"], []))
        if rec["error"]:
            problems.append("raised: " + rec["error"].strip().splitlines()[-1])
        elif pin is None:
            problems.append("no pinned digest")
        else:
            if rec["exit"] != 0 or rec["exit"] != pin["exit"]:
                problems.append(f"exit {rec['exit']}, documented 0")
            if rec["stdout"] != pin["stdout"]:
                problems.append("stdout digest differs from the pinned one")
            if rec.get("export") != pin.get("export"):
                problems.append("exported document digest differs from the pinned one")
        ok.append(not problems)
        if problems:
            notes.append(f"{rec['key']}: {'; '.join(problems)}")
    return ok, notes


def _pass_walls(result: dict, traced: bool, field: str = "scaled") -> list[float]:
    return [sum(result["records"][i][field] for i in p["records"])
            for p in result["passes"] if p["traced"] == traced]


def _end_to_end(jobs, result: dict, setup_s: float,
                raw_setup_s: float) -> tuple[dict, list[str]]:
    """Pass walls count every job; job times leave out the shared tail."""
    walls = _pass_walls(result, False)
    raw_walls = _pass_walls(result, False, "seconds")
    tail = {j.key for j in jobs if j.tail}
    timed = [rec for p in result["passes"]
             for rec in map(result["records"].__getitem__, p["records"])
             if rec["key"] not in tail]
    times = sorted(rec["scaled"] for rec in timed)
    values = {"wall_s": statistics.median(walls),
              "job_p50_s": statistics.median(times),
              "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": setup_s}
    p90 = times[int(0.9 * (len(times) - 1))]
    # the unscaled figures and the speed factors, so that a comparison can
    # tell a change of the program from a change of the factors
    factors = [r["factor"] for r in result["records"]]
    raw = {"wall_s": statistics.median(raw_walls),
           "job_p50_s": statistics.median(r["seconds"] for r in timed),
           "setup_s": raw_setup_s,
           "factor_median": statistics.median(factors),
           "factor_min": min(factors), "factor_max": max(factors)}
    lines = [f"passes {len(walls)}, job samples {len(times)} "
             f"({len(times) // len(walls)} jobs x {len(walls)} passes), "
             f"job p90 {p90:.6f} s",
             "pass walls " + " ".join(f"{w:.4f}" for w in walls) + " s",
             "raw pass walls " + " ".join(f"{w:.4f}" for w in raw_walls) + " s",
             "raw " + json.dumps(raw)]
    return values, lines


def _per_layer(jobs, result: dict, work: Path) -> tuple[dict, list[str], bool]:
    from tracing import layer_times, search_counts
    from workloads import job_sizes

    records, spans = result["records"], result["spans"]
    traced = [p["records"] for p in result["passes"] if p["traced"]]
    in_pass = sorted(i for p in traced for i in p)
    traced_jobs = set(in_pass)
    spans = [s for s in spans if s[4] in traced_jobs]
    totals, self_by_job = layer_times(spans, [r["factor"] for r in records])
    # every job's self times must add up to its time, up to the cost of the
    # wrappers and of the speed sampler
    job_time = {i: records[i]["seconds"] * records[i]["factor"] for i in in_pass}
    residuals = [job_time[i] - self_by_job[i] for i in in_pass]
    consistent = all(abs(r) <= max(1e-3, 0.01 * job_time[i])
                     + records[i]["sampling"] * records[i]["factor"]
                     for r, i in zip(residuals, in_pass))
    n = len(traced)
    values = {k: v / n for k, v in totals.items()}

    sizes = {j.key: job_sizes(j) for j in jobs}
    lines = [f"size {key} {json.dumps(s, sort_keys=True)}" for key, s in sizes.items()]

    def total(field, kinds=("adjoint", "check", "demo")):
        return sum(sizes[j.key][field] for j in jobs if j.kind in kinds)

    counts = search_counts(spans)
    values.update({
        "comma.morphisms": total("comma_morphisms"),
        "comma.comp_entries": total("comma_comp_entries"),
        "fincat.comp_entries": total("comp_entries", ("check",)),
        "fincat.assoc_triples": total("composable_triples", ("check",)),
        "instances.het_elements": total("het_elements", ("demo",)),
        "het.action_entries": total("action_entries", ("adjoint", "check")),
        "het.candidates": round(counts["candidates"] / n),
        "het.universal_hit_ratio": counts["hits"] / max(counts["candidates"], 1),
        "het.witness_failures": round(counts["witness_failures"] / n),
        "documents.bytes_read": sum((work / j.doc).stat().st_size for j in jobs if j.doc),
        "documents.bytes_written": round(sum(records[i].get("bytes_written", 0)
                                             for i in in_pass) / n),
        "cli.jobs": len(jobs),
        "trace.overhead_ratio": (statistics.median(_pass_walls(result, True))
                                 / statistics.median(_pass_walls(result, False))),
        "trace.residual_s": sum(residuals) / n,
    })
    lines.append(f"traced passes {n}; self times account for every job: {consistent}")
    return values, lines, consistent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_s, raw_setup_s = _set_up(workload, work)
        result = _run_worker(jobs, work, seed, seconds, trace)
        ok, notes = _verify(jobs, result)
        if trace:
            values, lines, consistent = _per_layer(jobs, result, work)
            units = PER_LAYER
        else:
            values, lines = _end_to_end(jobs, result, setup_s, raw_setup_s)
            consistent = True
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted, failed = len(ok), ok.count(False)
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(trace)}")
    for line in lines + notes[:20]:
        print("  " + line)
    print(f"  fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} jobs)")
    for name, unit in units.items():
        print(f"  {name} {values[name]} {unit}")
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


# ---------------------------------------------------------------------------
# modes over every workload
# ---------------------------------------------------------------------------

def _subprocess_run(workload: str, seed: int, seconds: float, trace: bool):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    from workloads import WORKLOADS
    all_correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result = _subprocess_run(workload, seed, seconds, trace)
            print("\n".join(line for line in lines if not line.startswith("  size ")))
            all_correct &= result["correct"]
    return 0 if all_correct else 1


def _quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": vals}


def write_baseline(seconds: float) -> int:
    from workloads import WORKLOADS
    out = {"seconds": seconds, "runs": BASELINE_RUNS, "workloads": {}}
    for workload in WORKLOADS:
        values = {name: [] for name in END_TO_END}
        raw: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, BASELINE_RUNS + 1):
            lines, result = _subprocess_run(workload, seed, seconds, False)
            failed += result["failed"] + (not result["correct"])
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
            for line in lines:
                if line.startswith("  raw {"):
                    for name, value in json.loads(line[len("  raw "):]).items():
                        raw.setdefault(name, []).append(value)
        summary = {name: {"unit": END_TO_END[name], **_quartiles(vals)}
                   for name, vals in values.items()}
        lines, traced = _subprocess_run(workload, 1, seconds, True)
        failed += traced["failed"] + (not traced["correct"])
        sizes = {}
        for line in lines:
            if line.startswith("  size "):
                _, key, body = line.strip().split(" ", 2)
                sizes[key] = json.loads(body)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "raw": {name: _quartiles(vals) for name, vals in raw.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "job_sizes": sizes, "failed": failed}
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.4f} (spread {v['spread']:.3f})" for k, v in summary.items())
            + f", failed {failed}", flush=True)
    BASELINE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def pin_oracle() -> int:
    """Record exit codes and digests of one pass of every workload."""
    from workloads import WORKLOADS
    pinned = {}
    for workload in WORKLOADS:
        work = ROOT / ".bench_work" / f"pin-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            jobs, _, _ = _set_up(workload, work)
            result = _run_worker(jobs, work, 1, 0, False)
            by_key = {j.key: j for j in jobs}
            for rec in result["records"]:
                problems = _formula_problems(by_key[rec["key"]],
                                             result["stdout"][rec["key"]])
                if rec["exit"] != 0 or rec["error"] or problems:
                    raise BenchError(f"refusing to pin {rec['key']}: exit {rec['exit']} "
                                     f"{rec['error']} {problems}")
                pinned[rec["key"]] = {k: rec[k] for k in ("exit", "stdout", "export")
                                      if k in rec}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    ORACLE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} jobs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the hetcat benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and waits for the timed
    # process, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hetcat" / "cli.py").is_file():
        print(f"error: no hetcat source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.pin:
            return pin_oracle()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.baseline:
            return write_baseline(args.seconds)
        if not args.workload:
            parser.error("give --workload, --all, --baseline or --pin")
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
