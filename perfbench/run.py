"""altproj benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload run-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout that holds ``src/altproj``.  One run

1. writes the workload's inputs for ``--seed`` under ``.bench_work/``;
2. measures ``setup_s``, the median wall time of a fresh
   ``python -c "import altproj.cli"``;
3. starts ``worker.py``, which runs the batch in-process through the public
   entry points for ``--seconds`` (half untraced, half traced with
   ``--trace 1``), timing the reference kernel of ``hostspeed.py`` between
   jobs so that every job time can be normalized by the host's speed;
4. checks every job's output against ``oracles.py``, requires every repeat
   of a job to give the same output digest, and replays a sample of jobs in
   fresh interpreters through the console entry, requiring byte-identical
   stdout and output files;
5. prints the metrics, the machine facts and the digests, writes them to
   ``.bench_work/<workload>/result.json``, and prints one JSON object as the
   last line of stdout.

BLAS runs on one thread in every process.  See README.md for the metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from hostspeed import NOMINAL_S, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")

SETUP_SAMPLES = 11
CHILD_TIMEOUT = 150
CONSOLE = ("import sys; from altproj.cli import console_main; "
           "sys.argv[0] = 'altproj'; console_main()")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _child(argv):
    """Run a child process to completion; kill it if it overruns."""
    return subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)


def measure_setup():
    """Median set-up time, normalized by the reference kernel; and the raw median."""
    walls, ratios = [], []
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = _child([sys.executable, "-c", "import altproj.cli"])
        walls.append(time.perf_counter() - t0)
        after = reference_seconds()
        ratios.append(walls[-1] / ((before + after) / 2.0))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"import altproj.cli failed: {proc.stderr.strip()}")
    return statistics.median(ratios) * NOMINAL_S, statistics.median(walls)


def machine_facts():
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def fresh_replay(job, first, batch_path):
    """Replay one job in a fresh interpreter; returns a mismatch message or None."""
    if job["kind"] == "cli":
        argv = [sys.executable, "-c", CONSOLE, *job["argv"]]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), str(batch_path), "-", "--one", job["id"]]
    proc = _child(argv)
    if proc.returncode != first["code"]:
        return f"{job['id']}: fresh interpreter exited {proc.returncode}, in-process {first['code']}"
    if proc.stdout != first["stdout"]:
        return f"{job['id']}: fresh interpreter stdout differs from the in-process run"
    if workloads.digest(proc.stdout, first["outputs"]) != first["digest"]:
        return f"{job['id']}: fresh interpreter output files differ from the in-process run"
    return None


def run_workload(name, seed, seconds, trace):
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = workloads.generate(name, seed, str(work))
    setup_s, setup_raw = measure_setup()

    batch_path = work / "batch.json"
    with open(batch_path, "w", encoding="utf-8") as fh:
        json.dump([{k: v for k, v in j.items() if k != "oracle"} for j in jobs], fh)
    result_path = work / "worker.json"
    proc = _child([sys.executable, str(HERE / "worker.py"), str(batch_path), str(result_path),
                   "--seconds", str(seconds), "--trace", str(trace)])
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    by_id = {j["id"]: j for j in jobs}
    first = res["first"]
    problems = []  # anything here makes the run incorrect
    failures = {}
    for jid, job in by_id.items():
        verdict = oracles.check(job, first[jid])
        if verdict is not None:
            message, silent = verdict
            failures[jid] = message
            if silent:
                problems.append(f"{jid}: silent wrong answer: {message}")
    records = res["records"]
    for r in records:
        if r["digest"] != first[r["id"]]["digest"] or r["code"] != first[r["id"]]["code"]:
            problems.append(f"{r['id']}: a repeat gave different output than the first execution")
    for job in (jobs[0], jobs[len(jobs) // 2]):
        msg = fresh_replay(job, first[job["id"]], batch_path)
        if msg:
            problems.append(msg)

    failed = [r for r in records if r["id"] in failures]
    completed = len(records) - len(failed)

    def timings(times):
        slowest = max(times)
        ranked = [slowest if r["id"] in failures else t for r, t in zip(records, times)]
        p50, p90 = np.percentile(ranked, [50, 90])
        return float(p50), float(p90), completed / sum(times)

    p50, p90, rate = timings([r["wall"] / r["ref"] * NOMINAL_S for r in records])
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (p50, "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (rate, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw = dict(zip(("job_s.p50", "job_s.p90", "jobs_per_s"), timings([r["wall"] for r in records])),
               setup_s=setup_raw,
               reference_kernel_s=statistics.median(r["ref"] for r in records))
    failed_ratio = len(failed) / len(records)
    digests = {jid: first[jid]["digest"] for jid in sorted(first)}
    overall = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workloads.WHY[name],
        "unique_jobs": len(jobs), "executions": len(records),
        "failed_executions": len(failed), "failed_ratio": failed_ratio,
        "failures": failures, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in res.get("layers", {}).items()},
        "raw_wall": raw,
        "traced_pass_s": res.get("traced_pass_s"),
        "machine": machine_facts(),
        "outputs_digest": overall, "job_digests": digests,
        "sizes": {j["id"]: j["size"] for j in jobs},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def _show(summary):
    s = summary
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}  "
          f"{s['executions']} jobs ({s['unique_jobs']} distinct)  why: {s['why']}")
    for name, m in s["end_to_end"].items():
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<14} {s['failed_ratio']:.6g} (carried by attempted/failed)")
    print("  raw wall (not host-normalized): "
          + "  ".join(f"{k} {v:.6g}" for k, v in s["raw_wall"].items()))
    for name, m in s["per_layer"].items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    for jid, why in sorted(s["failures"].items()):
        print(f"  failed {jid}: {why}")
    for msg in s["problems"]:
        print(f"  PROBLEM {msg}")
    print(f"  machine {json.dumps(s['machine'], sort_keys=True)}")
    print(f"  outputs_digest {s['outputs_digest']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "altproj" / "__init__.py").is_file():
        print(f"perfbench: no altproj sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        _show(summary)
        summaries.append(summary)
    section = "per_layer" if args.trace else "end_to_end"
    final = {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["executions"] for s in summaries),
        "failed": sum(s["failed_executions"] for s in summaries),
        "metrics": summaries[0][section] if len(summaries) == 1 else
        {f"{s['workload']}.{k}": v for s in summaries for k, v in s[section].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
