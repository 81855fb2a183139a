"""Seeded input generators for the four benchmark workloads.

Each generator writes its input files under a work directory and returns a
list of jobs.  A job is a plain dict: ``kind`` (``"cli"`` or
``"construct"``), the ``argv`` or construction parameters the program sees,
and an ``oracle`` entry holding the ground truth the checks in ``oracles.py``
compare against (the written arrays themselves: 17 significant digits read
back exactly).  The program itself sees only the files and argv.

Sizes are stratified on fixed grids and the seed draws the content (random
rotations, starting vectors, sparsity patterns) and the order of the batch,
so two seeds give different inputs with the same mix of job sizes.  That keeps
the medians comparable from seed to seed.

Why each workload exists, and the layer shares a traced run measured on it,
is in ``README.md`` next to this file; the short form is in ``WHY``.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

WHY = {
    "run-small": "altproj run at n=8..16 over 10^2..10^4 steps: per-step Python "
                 "overhead, schedule emission and the trace CSV dominate",
    "run-large": "altproj run and angle at n=128..176, d=0.75n: orthonormalize, "
                 "complement and intersect in linalg do the work",
    "kaczmarz": "altproj kaczmarz --min-norm on 60x90..200x300 systems plus a square "
                "cond-100 minority: the sweep loop and max_violation dominate",
    "construct": "divergence build, glued-schedule stepping and sakai_constant "
                 "at eps=0.45, K=2..5: words, emit and divergence stages",
}

#: stopping tolerance passed to every CLI job (the CLI default)
TOL = 1e-10


def digest(stdout, paths):
    """sha256 over a job's stdout and the sha256 of each output file, in order."""
    h = hashlib.sha256(stdout.encode())
    for p in paths:
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _fmt_rows(rows):
    rows = np.atleast_2d(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _mixed_rows(rng, basis):
    """Rows spanning the columns of ``basis`` without being orthonormal.

    A random rotation times a diagonal scale in [0.5, 2] keeps the rows well
    conditioned, so loading them must recover exactly this span.
    """
    d = basis.shape[1]
    mix = _orthogonal(rng, d) * rng.uniform(0.5, 2.0, size=d)
    return (basis @ mix).T


def _vec_arg(x):
    # "--x0=" keeps argparse from reading a leading minus as an option
    return "--x0=" + ",".join("%.17g" % v for v in x)


def run_small(rng, work):
    """100 ``run`` jobs, three subspaces each, n = 8..16.

    The subspaces share an intersection M (dim 1 or 2) and meet pairwise in
    planes of R^n at controlled angles i*theta: per step the slowest block
    contracts by about cos(theta), and theta is set so that the expected step
    count lands on a log grid from 10^2 to 10^4.
    """
    jobs = []
    count = 100
    targets = np.geomspace(150.0, 15000.0, count)
    order = rng.permutation(count)
    for slot in range(count):
        idx = int(order[slot])
        n = 8 + idx % 9
        m = 1 + idx % 2
        blocks = (n - m) // 2
        schedule = "ruler:3" if idx % 2 == 0 else "periodic:1,2,3"
        q = _orthogonal(rng, n)
        x0 = rng.standard_normal(n)
        # two projections per slow factor cos(theta) on average (see docstring)
        theta = math.acos(math.exp(math.log(TOL / np.linalg.norm(x0)) / (2.0 * targets[idx])))
        jdir = os.path.join(work, f"j{slot:03d}")
        os.makedirs(jdir)
        paths, spans = [], []
        for i in range(3):
            cols = [q[:, c] for c in range(m)]
            for k in range(blocks):
                ang = i * min(theta * (1.0 + 0.37 * k), 0.7)
                cols.append(math.cos(ang) * q[:, m + 2 * k] + math.sin(ang) * q[:, m + 2 * k + 1])
            path = os.path.join(jdir, f"space{i + 1}.csv")
            rows = _mixed_rows(rng, np.column_stack(cols))
            _write(path, _fmt_rows(rows))
            paths.append(path)
            spans.append(rows)
        out = os.path.join(jdir, "trace.csv")
        argv = ["run", "--spaces", *paths, "--schedule", schedule, _vec_arg(x0), "--out", out]
        jobs.append({"id": f"j{slot:03d}", "kind": "cli", "command": "run", "argv": argv,
                     "size": {"n": n, "target_steps": float(targets[idx]), "schedule": schedule},
                     "oracle": {"spaces": spans, "x0": x0, "out": out}})
    return jobs


def run_large(rng, work):
    """108 jobs at n = 128..176 (36 sizes), d = round(0.75 n).

    Per size: one periodic ``run`` over two subspaces, one over three, and one
    ``angle`` job.  The subspaces are spans of Gaussian rows, so two of them
    meet in about n/2 dimensions and three in about n/4.
    """
    jobs = []
    sizes = np.linspace(128, 176, 36).round().astype(int)
    specs = [(int(n), kind) for n in sizes for kind in ("run2", "run3", "angle")]
    order = rng.permutation(len(specs))
    for slot, idx in enumerate(order):
        n, kind = specs[int(idx)]
        d = round(0.75 * n)
        jdir = os.path.join(work, f"j{slot:03d}")
        os.makedirs(jdir)
        spaces = 3 if kind == "run3" else 2
        paths, spans = [], []
        for i in range(spaces):
            path = os.path.join(jdir, f"space{i + 1}.csv")
            rows = rng.standard_normal((d, n))
            _write(path, _fmt_rows(rows))
            paths.append(path)
            spans.append(rows)
        if kind == "angle":
            out = os.path.join(jdir, "rates.csv")
            argv = ["angle", paths[0], paths[1], "--n", "8", "--out", out]
            oracle = {"spaces": spans, "out": out, "terms": 8}
        else:
            x0 = rng.standard_normal(n)
            out = os.path.join(jdir, "trace.csv")
            pattern = ",".join(str(i + 1) for i in range(spaces))
            argv = ["run", "--spaces", *paths, "--schedule", f"periodic:{pattern}",
                    _vec_arg(x0), "--out", out]
            oracle = {"spaces": spans, "x0": x0, "out": out}
        jobs.append({"id": f"j{slot:03d}", "kind": "cli", "command": argv[0], "argv": argv,
                     "size": {"n": n, "d": d, "job": kind}, "oracle": oracle})
    return jobs


def _conditioned(rng, rows, cols, cond):
    """rows x cols matrix with singular values spread geometrically over [1/cond, 1]."""
    k = min(rows, cols)
    u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, k)))[0]
    return (u * np.geomspace(1.0, 1.0 / cond, k)) @ v.T


def _sparse(rng, rows, cols, cond):
    """Block-diagonal conditioned matrix under random row and column permutations.

    Three dense blocks leave a third of the entries non-zero, and the
    singular values are the union of the blocks', so the condition number is
    exactly ``cond`` like the dense systems'.
    """
    a = np.zeros((rows, cols))
    r_cut = np.linspace(0, rows, 4).astype(int)
    c_cut = np.linspace(0, cols, 4).astype(int)
    for b in range(3):
        block = _conditioned(rng, r_cut[b + 1] - r_cut[b], c_cut[b + 1] - c_cut[b], cond)
        a[r_cut[b]:r_cut[b + 1], c_cut[b]:c_cut[b + 1]] = block
    return a[rng.permutation(rows)][:, rng.permutation(cols)]


#: square minority: consistent 30x30 systems at cond 100 under a sweep cap;
#: the stall rule falsely calls some of them inconsistent (see README)
SQUARE_SHARE = 4
SQUARE_SWEEPS = 1000


def kaczmarz(rng, work):
    """100 ``kaczmarz --min-norm`` jobs on consistent systems.

    96 rectangular systems: sizes 60x90, 100x150, 140x210, 200x300 in turn,
    dense or sparse in turn, each with its own condition number from a
    geometric grid over 2..12 (a continuous spread of job times keeps the
    percentiles from jumping between size classes), so the minimal-norm
    solution is pinv(A) c.  Four square 30x30 dense systems at
    cond 100 run under ``--sweeps 1000``.
    """
    shapes = [(60, 90), (100, 150), (140, 210), (200, 300)]
    conds = np.geomspace(2.0, 12.0, 96)
    specs = []
    for i in range(96):
        rows, cols = shapes[i % 4]
        specs.append({"rows": rows, "cols": cols, "cond": float(conds[i]),
                      "dense": (i // 4) % 2 == 0, "sweeps": None})
    specs += [{"rows": 30, "cols": 30, "cond": 100.0, "dense": True, "sweeps": SQUARE_SWEEPS}
              for _ in range(SQUARE_SHARE)]
    order = rng.permutation(len(specs))
    jobs = []
    for slot, idx in enumerate(order):
        spec = specs[int(idx)]
        rows, cols = spec["rows"], spec["cols"]
        make = _conditioned if spec["dense"] else _sparse
        a = make(rng, rows, cols, spec["cond"])
        c = a @ rng.standard_normal(cols)
        jdir = os.path.join(work, f"j{slot:03d}")
        os.makedirs(jdir)
        path = os.path.join(jdir, "system.txt")
        if spec["dense"]:
            _write(path, _fmt_rows(np.column_stack([a, c])))
        else:
            lines = [f"{cols} {rows}\n"]
            for i in range(rows):
                nz = np.flatnonzero(a[i])
                pairs = " ".join(f"{j} {a[i, j]:.17g}" for j in nz)
                lines.append(f"{c[i]:.17g} {len(nz)} {pairs}\n")
            _write(path, "".join(lines))
        out = os.path.join(jdir, "solution.txt")
        argv = ["kaczmarz", path, "--min-norm", "--out", out]
        if spec["dense"]:
            argv.insert(2, "--dense")
        if spec["sweeps"]:
            argv += ["--sweeps", str(spec["sweeps"])]
        jobs.append({"id": f"j{slot:03d}", "kind": "cli", "command": "kaczmarz", "argv": argv,
                     "size": {"rows": rows, "cols": cols, "cond": spec["cond"],
                              "dense": spec["dense"], "capped": bool(spec["sweeps"])},
                     "oracle": {"a": a, "c": c, "out": out, "capped": bool(spec["sweeps"])}})
    return jobs


#: relaxed accuracy budget of every glued triple (glue refuses all budgets)
CONSTRUCT_EPS = 0.45
CONSTRUCT_STEPS = (600, 1200)


def construct(rng, work):
    """100 construction jobs: K = 2, 3, 4, 5 for 20, 40, 25 and 15 layout seeds.

    Each job does what ``glue`` would do at eps = 0.45 (the seeded
    ``random_subspace`` slab layout, ``build_triple`` per triple,
    ``assemble``), steps the glued schedule from e_1 with stored iterates,
    and runs ``sakai_constant`` over the first half of the steps.  The step
    prefix runs over a grid from 600 to 1200 steps, so job times spread within
    each K.  Job time grows with K in clusters, so the uneven K counts put
    the median inside the K = 3 cluster and the 90th percentile inside
    K = 5, not on a gap between clusters.
    """
    prefixes = np.linspace(CONSTRUCT_STEPS[0], CONSTRUCT_STEPS[1], 100).round().astype(int)
    ks = [2] * 20 + [3] * 40 + [4] * 25 + [5] * 15
    # a stride coprime to 100 spreads the prefixes evenly over every K
    specs = [(k, int(rng.integers(0, 2**31)), int(prefixes[(t * 37) % 100]))
             for t, k in enumerate(ks)]
    order = rng.permutation(len(specs))
    jobs = []
    for slot, idx in enumerate(order):
        k, layout_seed, steps = specs[int(idx)]
        jdir = os.path.join(work, f"j{slot:03d}")
        os.makedirs(jdir)
        params = {"K": k, "eps": CONSTRUCT_EPS, "seed": layout_seed,
                  "steps": steps, "window": steps // 2,
                  "out": os.path.join(jdir, "construct.npz")}
        jobs.append({"id": f"j{slot:03d}", "kind": "construct", "command": "construct",
                     "params": params,
                     "size": {"K": k, "eps": CONSTRUCT_EPS, "steps": steps,
                              "window": steps // 2},
                     "oracle": {"out": params["out"], "K": k, "eps": CONSTRUCT_EPS}})
    return jobs


GENERATORS = {"run-small": run_small, "run-large": run_large,
              "kaczmarz": kaczmarz, "construct": construct}


def generate(name, seed, work):
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(name)])
    return GENERATORS[name](rng, work)
