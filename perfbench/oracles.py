"""Independent checks of every job's output.

Each check recomputes the answer with plain numpy (and, for ``angle``,
``scipy.linalg.subspace_angles``; scipy is used here only) from the
generator's ground truth, never by calling altproj.  A check
returns ``None`` when the job produced a verified result, or one line saying
why not.  ``silent`` marks a wrong answer the program reported as a success
(exit code 0), which makes the whole run incorrect, not just the job failed.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import TOL


class JobFailed(Exception):
    """The job did not produce a verified result."""

    def __init__(self, message, silent=False):
        super().__init__(message)
        self.silent = silent


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _report(first):
    if first["code"] is None:
        raise JobFailed(f"exception: {first['stdout']}")
    try:
        return json.loads(first["stdout"], parse_constant=_reject_constant)
    except ValueError as exc:
        raise JobFailed(f"stdout is not strict JSON: {exc}") from None


def _basis(rows):
    """Orthonormal basis of the span of a subspace file's rows (by SVD)."""
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    return u[:, s > 1e-10 * s[0]]


def _intersection(bases):
    """Orthonormal basis of the common null space of the I - P_i."""
    n = bases[0].shape[0]
    stacked = np.vstack([np.eye(n) - q @ q.T for q in bases])
    _, s, vt = np.linalg.svd(stacked)
    return vt[s <= 1e-8].T


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def _wrong(message):
    """A job that exited 0 with a wrong answer."""
    raise JobFailed(message, silent=True)


def check_run(job, first):
    report = _report(first)
    o = job["oracle"]
    if first["code"] != 0 or not report["converged"]:
        raise JobFailed(f"run did not converge (exit {first['code']})")
    rows = _csv_rows(o["out"])
    if len(rows) != report["steps_executed"]:
        _wrong(f"trace CSV has {len(rows)} rows for {report['steps_executed']} steps")
    x0 = o["x0"]
    m = _intersection([_basis(p) for p in o["spaces"]])
    limit = m @ (m.T @ x0)
    err = float(np.linalg.norm(np.asarray(report["final_iterate"]) - limit))
    if err > 1e-8 * max(1.0, float(np.linalg.norm(x0))):
        _wrong(f"final iterate is {err:.3e} from the projection onto the intersection")


def check_angle(job, first):
    from scipy.linalg import subspace_angles

    report = _report(first)
    o = job["oracle"]
    if first["code"] != 0:
        raise JobFailed(f"angle exited {first['code']}")
    angles = subspace_angles(_basis(o["spaces"][0]), _basis(o["spaces"][1]))
    open_angles = angles[angles > 1e-7]  # zero angles belong to the intersection
    expected = float(np.cos(open_angles.min())) if open_angles.size else 0.0
    got = report["friedrichs_cosine"]
    if abs(got - expected) > 1e-7:
        _wrong(f"Friedrichs cosine {got!r} differs from {expected!r}")
    rows = _csv_rows(o["out"])
    if len(rows) != o["terms"]:
        _wrong(f"rate CSV has {len(rows)} rows, expected {o['terms']}")


def _max_violation(a, c, x):
    return float(np.max(np.abs(a @ x - c) / np.linalg.norm(a, axis=1)))


def check_kaczmarz(job, first):
    report = _report(first)
    o = job["oracle"]
    a, c = o["a"], o["c"]
    if report["suspected_inconsistent"]:
        raise JobFailed(f"false stall: consistent system flagged inconsistent after "
                        f"{report['steps_executed']} sweeps")
    x = np.loadtxt(o["out"], ndmin=1)
    rows = _csv_rows(report["outputs"][1])
    if len(rows) != max(report["steps_executed"], 1):
        raise JobFailed(f"residual CSV has {len(rows)} rows for "
                        f"{report['steps_executed']} sweeps", silent=first["code"] == 0)
    if first["code"] == 0 and report["converged"]:
        ref = np.linalg.pinv(a) @ c
        err = float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
        if err > 1e-6:
            _wrong(f"solution is {err:.3e} (relative) from pinv(A) c")
        return
    if not o["capped"] or first["code"] != 2:
        raise JobFailed(f"kaczmarz exited {first['code']} without converging")
    # an honest "out of sweeps": the reported residual is the real one
    viol = _max_violation(a, c, x)
    if not viol > TOL or abs(viol - report["final_residual"]) > 1e-6 * viol:
        raise JobFailed(f"out-of-sweeps residual {report['final_residual']!r} "
                        f"does not match the recomputed {viol!r}")


def check_construct(job, first):
    report = _report(first)
    o = job["oracle"]
    with np.load(o["out"]) as z:
        data = {k: z[k] for k in z.files}
    eps = data["epsilons"]
    budgets = np.cumsum(4.0 * eps)
    for i, (achieved, state) in enumerate(zip(data["achieved"], data["states"])):
        if not achieved < 4.0 * eps[i]:
            _wrong(f"word {i + 1} error {achieved!r} is not below 4 eps")
        dist = float(np.linalg.norm(state - data["e"][i + 1]))
        if not dist < budgets[i]:
            _wrong(f"checkpoint {i + 1} is {dist:.3e} from its target")
    bases = [data["m1"], data["m2"], data["m3"]]
    for q in bases:
        if np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) > 1e-10:
            _wrong("a glued subspace basis is not orthonormal")
    xs, idx = data["iterates"], data["indices"]
    scale = float(xs[0] @ xs[0])
    for k, j in enumerate(idx):
        x, y = xs[k], xs[k + 1]
        q = bases[j - 1]
        step = float(np.linalg.norm(y - q @ (q.T @ x)))
        pyth = abs(x @ x - y @ y - (y - x) @ (y - x))
        if step > 1e-12 or pyth > 1e-12 * scale:
            _wrong(f"step {k + 1} is not the projection onto M{j} "
                   f"(off by {step:.3e}, Pythagoras off by {pyth:.3e})")
    w = report["sakai_window"]
    window = xs[1:w + 1]
    inc2 = np.sum(np.diff(xs[1:w + 1], axis=0) ** 2, axis=1)
    best = 0.0
    for m in range(len(window) - 1):
        numer = np.sum((window[m + 1:] - window[m]) ** 2, axis=1)
        denom = np.cumsum(inc2[m:])
        mask = denom > 0.0
        if mask.any():
            best = max(best, float(np.max(numer[mask] / denom[mask])))
    if abs(best - report["sakai_constant"]) > 1e-9 * max(1.0, best):
        _wrong(f"sakai constant {report['sakai_constant']!r} differs from {best!r}")


def check(job, first):
    """Run the job's oracle; returns None, or (message, silent)."""
    fn = {"run": check_run, "angle": check_angle, "kaczmarz": check_kaczmarz,
          "construct": check_construct}[job["command"]]
    try:
        fn(job, first)
    except JobFailed as exc:
        return str(exc), exc.silent
    return None
