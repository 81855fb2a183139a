"""Run one workload's batch in-process and time every job.

Started by ``run.py`` as its own process, so that the peak RSS it reports
covers numpy, altproj and the workload, and not the benchmark's oracles.

    python3 perfbench/worker.py BATCH.json RESULT.json --seconds S --trace 0|1
    python3 perfbench/worker.py BATCH.json - --one JOB_ID

The first form runs whole passes over the batch for about ``S`` seconds
and writes per-execution wall times, exit codes and output digests to
RESULT.json.  Between jobs it times the reference kernel of
``hostspeed.py``.  With ``--trace 1`` it spends half the time untraced and half
traced, and adds the per-layer metrics.  The second form
runs a single job once in this fresh interpreter and prints its stdout; a
construction job prints its canonical summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import numpy as np

import altproj
from altproj import cli, divergence, iteration, linalg
from hostspeed import NOMINAL_S, reference_seconds
from workloads import digest


def _run_cli(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job["argv"]))
    return code, out.getvalue()


def build_construction(params):
    """The steps ``glue`` performs, at a relaxed budget it would refuse."""
    k, eps = params["K"], params["eps"]
    epsilons = [eps] * k
    k_values = [divergence.k_of_eps(e) for e in epsilons]
    slabs = [2 * (kv + 2) - 2 for kv in k_values]
    total = (k + 1) + sum(slabs)
    offsets = np.cumsum([k + 1] + slabs[:-1])
    ident = np.eye(total)
    e = [ident[:, i] for i in range(k + 1)]
    rng = np.random.default_rng(params["seed"])
    triples = []
    for i in range(k):
        off, slab = int(offsets[i]), slabs[i]
        q = linalg.random_subspace(rng, slab, slab).basis
        slab_cols = np.zeros((total, slab))
        slab_cols[off:off + slab] = q
        x_cols = np.column_stack([e[i], e[i + 1], slab_cols[:, :k_values[i]]])
        e_cols = np.column_stack([x_cols, slab_cols[:, k_values[i]:]])
        triples.append(divergence.build_triple(
            linalg.Subspace(total, e_cols), linalg.Subspace(total, x_cols), e[i], e[i + 1],
            eps, eta=0.2, s_cap=10**14))
    return divergence.assemble(triples, e, epsilons)


def _run_construct(job):
    p = job["params"]
    con = build_construction(p)
    spaces = [con.M1, con.M2, con.M3]
    cfg = iteration.RunConfig(max_steps=p["steps"], stop_tol=1e-300)
    trace = iteration.run(spaces, con.schedule, con.e[0], cfg, reference=None, store_iterates=True)
    w = p["window"]
    window = iteration.Trace(indices=trace.indices[:w], iterate_norms=trace.iterate_norms[:w + 1],
                             increments=trace.increments[:w], final_iterate=trace.stored_iterates[w],
                             stored_iterates=trace.stored_iterates[:w + 1])
    sakai = iteration.sakai_constant(window)
    summary = {
        "K": con.K,
        "ambient_dim": con.ambient_dim,
        "triples": [{"k": t.quarter.k, "r": list(t.quarter.r), "s": [int(s) for s in t.s]}
                    for t in con.triples],
        "checkpoints": [int(c) for c in con.checkpoints],
        "achieved": con.achieved,
        "steps": trace.steps,
        "final_norm": trace.iterate_norms[-1],
        "sakai_window": w,
        "sakai_constant": sakai,
    }
    return con, trace, sakai, json.dumps(summary, indent=2) + "\n"


def _save_construct(path, con, trace, sakai):
    np.savez(path, m1=con.M1.basis, m2=con.M2.basis, m3=con.M3.basis,
             indices=np.asarray(trace.indices), iterates=np.asarray(trace.stored_iterates),
             achieved=np.asarray(con.achieved), epsilons=np.asarray(con.epsilons),
             states=np.asarray(con.checkpoint_states), e=np.asarray(con.e),
             sakai=np.float64(sakai))


def peak_rss_mb():
    """Peak resident set of this process in MB.

    ``VmHWM`` belongs to the address space made by exec, whereas
    ``ru_maxrss`` survives exec and so can report the parent's size at spawn.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(job, save=False):
    """Execute one job; returns (exit code, stdout, wall seconds, output paths)."""
    t0 = time.perf_counter()
    if job["kind"] == "cli":
        code, stdout = _run_cli(job)
        wall = time.perf_counter() - t0
        try:
            outputs = json.loads(stdout).get("outputs", [])
        except ValueError:
            outputs = []
        return code, stdout, wall, [p for p in outputs if os.path.exists(p)]
    con, trace, sakai, stdout = _run_construct(job)
    wall = time.perf_counter() - t0
    if save:
        _save_construct(job["params"]["out"], con, trace, sakai)
    return 0, stdout, wall, []


#: every run times at least this many executions, so job_s.p90 has ten beyond it
MIN_EXECUTIONS = 100


def _passes(jobs, seconds, records, first, spans=None, minimum=MIN_EXECUTIONS):
    """Run whole passes over the batch; returns (job/kernel time ratios, passes done).

    A pass runs every job once, so each pass times the same mix.  Passes
    continue while the next one is expected to end within ``seconds``, and
    until at least ``minimum`` jobs have run.  Time here is host-normalized
    (see ``hostspeed.py``), so a slow stretch of the host does not change
    how many passes a seed gets.  ``spans`` is the active
    tracer, if any; it is charged with the bytes each CLI job writes.
    """
    walls = []  # job wall time / reference kernel time, one per execution
    passes = 0
    before = reference_seconds()
    while True:
        for job in jobs:
            try:
                code, stdout, wall, outputs = run_job(job, save=job["id"] not in first)
                out_digest = digest(stdout, outputs)
            except Exception as exc:  # a crash is a failed job, not a benchmark abort
                code, stdout, wall, outputs = None, f"{type(exc).__name__}: {exc}", 0.0, []
                out_digest = ""
            if spans is not None and job["kind"] == "cli":
                spans.count["cli.bytes_written"] += (len(stdout.encode())
                                                     + sum(os.path.getsize(p) for p in outputs))
            if job["id"] not in first:
                first[job["id"]] = {"code": code, "stdout": stdout, "digest": out_digest,
                                    "outputs": outputs}
            # the kernel timed on both sides of the job brackets its host speed
            after = reference_seconds()
            ref = (before + after) / 2.0
            before = after
            records.append({"id": job["id"], "wall": wall, "ref": ref, "code": code,
                            "digest": out_digest})
            walls.append(wall / ref)
        passes += 1
        elapsed = sum(walls) * NOMINAL_S
        if elapsed * (passes + 1) / passes > seconds and len(walls) >= minimum:
            return walls, passes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("batch")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one", default=None)
    args = ap.parse_args(argv)
    with open(args.batch, encoding="utf-8") as fh:
        jobs = json.load(fh)

    if args.one is not None:
        job = next(j for j in jobs if j["id"] == args.one)
        code, stdout, _, _ = run_job(job)
        sys.stdout.write(stdout)
        return code

    # untimed warm-up: first calls into numpy.linalg pay one-off set-up
    run_job(jobs[0])
    records = []
    first = {}
    result = {"altproj_version": altproj.__version__}
    if args.trace:
        import tracer

        half = args.seconds / 2.0
        # the traced run reports no percentile, so one pass per half will do
        plain, _ = _passes(jobs, half, records, first, minimum=1)
        spans = tracer.Tracer()
        spans.install()
        traced, passes = _passes(jobs, half, records, first, spans=spans, minimum=1)
        spans.uninstall()
        result["layers"] = spans.metrics(passes, plain, traced)
        result["traced_pass_s"] = sum(r["wall"] for r in records[len(plain):]) / passes
    else:
        _passes(jobs, args.seconds, records, first)
    result["records"] = records
    result["first"] = first
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
