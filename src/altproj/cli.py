"""Command-line front end.

Subcommands: ``run`` (drive an iteration and write a trace CSV),
``kaczmarz`` (solve a linear system file), ``angle`` (Friedrichs cosine and
measured-vs-predicted rate CSV), ``diverge`` (build the non-convergence
construction and report it), ``thirds`` (string-thirds demonstration).

Exit codes: 0 success/converged, 2 iteration ran out of steps without
converging, 1 any input or construction error.  The JSON report goes to
stdout and is byte-deterministic for identical invocations; timing and
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
import time
from itertools import islice

# every subcommand needs numpy; each cmd_* imports the altproj modules it runs
import numpy as np

#: all numbers in CSV/JSON outputs carry 17 significant digits
FMT = "%.17g"

#: integers are written as JSON numbers up to this many decimal digits and as
#: digit strings beyond, built in chunks of this size; both stay below every
#: setting of the interpreter's int-to-str limit (at least 640 digits), so no
#: report depends on that setting
_INT_DIGITS = 600


def _digits(n):
    """Exact decimal digits of a non-negative int of any size."""
    chunk = 10**_INT_DIGITS
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:0{_INT_DIGITS}d}")
    return str(n) + "".join(reversed(parts))


def _json_int(n):
    """A JSON number for an int below 10^600, its digit string above."""
    n = int(n)
    return n if n < 10**_INT_DIGITS else _digits(n)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class InputError(Exception):
    pass


def _tolerance(text):
    """A stopping tolerance: finite and positive, checked before any work starts."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _parse_vector(text):
    try:
        return np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError as exc:
        raise InputError(f"malformed vector {text!r}: {exc}") from None


#: Fraction builds 10**exponent exactly, in time and memory growing with it
_HUGE_EXPONENT = re.compile(r"e[-+]?[\d_]{5,}", re.IGNORECASE)


def _parse_eps_list(text):
    from fractions import Fraction

    if _HUGE_EXPONENT.search(text):
        raise InputError(f"malformed accuracy list {text!r}: an exponent is far outside float64 range")
    try:
        return [float(Fraction(tok)) for tok in text.split(",")]
    except ZeroDivisionError:
        raise InputError(f"malformed accuracy list {text!r}: zero denominator") from None
    except (ValueError, OverflowError) as exc:
        raise InputError(f"malformed accuracy list {text!r}: {exc}") from None


def _report(payload):
    print(json.dumps(payload, indent=2, allow_nan=False))


def _write_rows(path, header, row_format, rows):
    """A CSV of ``header`` plus one ``row_format % row`` line per row, to
    ``path``, or to stderr when it is None.

    The lines are streamed, not joined: a joined 10^4-step trace raised the
    benchmark's peak RSS by 3 MB.
    """
    with (open(path, "w", encoding="utf-8", newline="\n") if path is not None
          else contextlib.nullcontext(sys.stderr)) as fh:
        fh.write(header)
        fh.writelines(map(row_format.__mod__, rows))


def _write_trace_csv(path, trace):
    # islice, not [1:]: a slice would copy a 10^4-step column
    columns = [range(1, trace.steps + 1), trace.indices, islice(trace.iterate_norms, 1, None),
               trace.increments]
    row_format = f"%d,%d,{FMT},{FMT},"
    if trace.residuals is not None:
        columns.append(islice(trace.residuals, 1, None))
        row_format += FMT
    _write_rows(path, "n,j_n,norm,increment,residual\n", row_format + "\n", zip(*columns))


def cmd_run(args):
    from . import iteration, linalg, schedules

    spaces = [linalg.load_subspace(p) for p in args.spaces]
    schedule = schedules.parse_schedule(args.schedule, J=len(spaces))
    x0 = _parse_vector(args.x0)
    cfg = iteration.RunConfig(max_steps=args.max_steps, stop_tol=args.tol)
    trace = iteration.run(spaces, schedule, x0, cfg, reference="auto")
    _write_trace_csv(args.out, trace)
    _report({
        "command": "run",
        "inputs": {
            "spaces": list(args.spaces),
            "schedule": args.schedule,
            "x0": [float(v) for v in x0],
            "max_steps": args.max_steps,
            "stop_tol": float(args.tol),
            "seed": args.seed,
        },
        "steps_executed": trace.steps,
        "converged": trace.converged,
        "schedule_exhausted": trace.schedule_exhausted,
        "final_residual": float(trace.residuals[-1]),
        "final_iterate": [float(v) for v in trace.final_iterate],
        "outputs": [args.out],
    })
    return 0 if trace.converged else 2


def cmd_kaczmarz(args):
    from . import kaczmarz

    system = kaczmarz.load_system(args.system, dense=args.dense)
    if args.min_norm:
        x0 = np.zeros(system.ambient_dim)
    elif args.x0 is not None:
        x0 = _parse_vector(args.x0)
    else:
        raise InputError("kaczmarz needs --x0 or --min-norm")
    result = kaczmarz.solve(system, x0, max_sweeps=args.sweeps, tol=args.tol)
    _write_rows(args.out, "", FMT + "\n", result.x)
    residuals_path = args.residuals or (args.out + ".residuals.csv")
    _write_rows(residuals_path, "sweep,residual\n", f"%d,{FMT}\n",
                enumerate(result.residual_history, start=1))
    _report({
        "command": "kaczmarz",
        "inputs": {
            "system": args.system,
            "dense": bool(args.dense),
            "x0": "min-norm" if args.min_norm else args.x0,
            "sweeps": args.sweeps,
            "tol": float(args.tol),
            "seed": args.seed,
        },
        "steps_executed": result.sweeps,
        "converged": result.converged,
        "suspected_inconsistent": result.suspected_inconsistent,
        "final_residual": float(result.residual_history[-1]),
        "outputs": [args.out, residuals_path],
    })
    return 0 if result.converged else 2


def cmd_angle(args):
    from . import analysis, linalg

    s1 = linalg.load_subspace(args.space1)
    s2 = linalg.load_subspace(args.space2)
    curve = analysis.rate_curve(s1, s2, args.n)
    _write_rows(args.out, "n,measured,predicted,abs_err\n", f"%d,{FMT},{FMT},{FMT}\n", curve.rows())
    _report({
        "command": "angle",
        "inputs": {"space1": args.space1, "space2": args.space2, "n": args.n, "seed": args.seed},
        "steps_executed": args.n,
        "converged": True,
        "friedrichs_cosine": float(curve.c),
        "max_abs_err": max(curve.abs_errors),
        "outputs": [args.out],
    })
    return 0


def cmd_diverge(args):
    from . import divergence

    epsilons = (_parse_eps_list(args.eps) if args.eps
                else [2.0 ** (-(i + 4)) for i in range(1, args.K + 1)])
    try:
        construction = divergence.glue(args.K, epsilons, seed=args.seed,
                                       r_cap=args.r_cap, s_cap=args.s_cap)
    except divergence.ExponentCapExceeded as exc:
        raise InputError(str(exc)) from None
    trace_path = args.trace or (args.out + ".trace.csv")
    report = {
        "command": "diverge",
        "inputs": {"K": args.K, "epsilons": epsilons, "seed": args.seed,
                   "r_cap": args.r_cap, "s_cap": args.s_cap},
        "ambient_dim": construction.ambient_dim,
        "K": construction.K,
        "epsilons": construction.epsilons,
        "precision_bits": construction.precision,
        "triples": [
            {
                "k": t.quarter.k,
                "r": [_json_int(r) for r in t.quarter.r],
                "s": [_json_int(s) for s in t.s],
                "psi_length": _json_int(t.psi.length),
            }
            for t in construction.triples
        ],
        "checkpoints": [_json_int(c) for c in construction.checkpoints],
        "verified_bounds": {str(i + 1): a for i, a in enumerate(construction.achieved)},
        "non_cauchy_gap": construction.non_cauchy_gap,
        "caveat": construction.caveat,
        "outputs": [args.out, trace_path],
    }
    if args.sakai:
        report["sakai_constant"] = divergence.sakai_blowup(construction)
    # checkpoint trace: the full step-by-step trace is out of reach whenever
    # the schedule length is astronomical, the checkpoint states never are;
    # checkpoint i is the state after word i, and its target is e_{i+1}
    checkpoints = zip(construction.checkpoints, construction.checkpoint_states, construction.e[1:])
    _write_rows(trace_path, "checkpoint,n,norm,err_to_target\n", f"%d,%s,{FMT},{FMT}\n", [
        (i, _digits(n_k), np.linalg.norm(state), np.linalg.norm(state - target))
        for i, (n_k, state, target) in enumerate(checkpoints, start=1)])
    text = json.dumps(report, indent=2, allow_nan=False)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_thirds(args):
    from . import kaczmarz

    positions, bound_ok = kaczmarz.thirds_demo(args.x, args.y, args.z, args.n)
    c = args.x + args.y + args.z
    _write_rows(args.out or None, "k,left,right,left_dev,right_dev\n", f"%d,{FMT},{FMT},{FMT},{FMT}\n",
                [(k, left, right, abs(left - c / 3.0), abs(right - 2.0 * c / 3.0))
                 for k, (left, right) in enumerate(positions)])
    _report({
        "command": "thirds",
        "inputs": {"x": args.x, "y": args.y, "z": args.z, "n": args.n, "seed": args.seed},
        "steps_executed": args.n,
        "converged": bool(bound_ok),
        "bound_ok": bool(bound_ok),
        "final_positions": [positions[-1][0], positions[-1][1]],
        "outputs": [args.out] if args.out else [],
    })
    return 0


def build_parser():
    parser = _Parser(prog="altproj", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed, echoed in every report")
    parser.add_argument("--tol", type=_tolerance, default=1e-10, help="stopping tolerance")
    parser.add_argument("--max-steps", type=int, default=100_000, dest="max_steps")
    parser.add_argument("--out", default=None, dest="global_out",
                        help="output path (also accepted after the subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="drive x_n = P_{j_n} x_{n-1} and write a trace CSV")
    p.add_argument("--spaces", nargs="+", required=True, help="subspace files, one per index")
    p.add_argument("--schedule", required=True, help="periodic:1,2,3 | ruler:J | file:PATH")
    p.add_argument("--x0", required=True, help="starting vector, comma separated")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run, default_out="trace.csv")

    p = sub.add_parser("kaczmarz", help="solve a consistent linear system by cyclic projection")
    p.add_argument("system", help="system file (sparse rows, or dense CSV with --dense)")
    p.add_argument("--dense", action="store_true")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--x0", default=None, help="starting vector, comma separated")
    start.add_argument("--min-norm", action="store_true", dest="min_norm",
                       help="start from zero: converges to the minimal-norm solution")
    p.add_argument("--sweeps", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.add_argument("--residuals", default=None, help="residual CSV path (default OUT.residuals.csv)")
    p.set_defaults(func=cmd_kaczmarz, default_out="solution.txt")

    p = sub.add_parser("angle", help="Friedrichs cosine and measured-vs-predicted rates")
    p.add_argument("space1")
    p.add_argument("space2")
    p.add_argument("--n", type=int, default=8, help="number of alternation powers to measure")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_angle, default_out="rates.csv")

    p = sub.add_parser("diverge", help="build the non-Cauchy-window construction")
    p.add_argument("--K", type=int, default=2, help="number of glued triples")
    p.add_argument("--eps", default=None,
                   help="comma list of accuracy budgets (fractions like 1/32 allowed); "
                        "default 2^-(i+4)")
    p.add_argument("--r-cap", type=int, default=None, dest="r_cap",
                   help="refuse rotation exponents r above this (default: no cap)")
    p.add_argument("--s-cap", type=int, default=None, dest="s_cap",
                   help="refuse tilt exponents s above this (default: no cap)")
    p.add_argument("--sakai", action="store_true",
                   help="also report the checkpoint lower bound on the increment-sum constant")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None, help="checkpoint trace CSV (default OUT.trace.csv)")
    p.set_defaults(func=cmd_diverge, default_out="construction.json")

    p = sub.add_parser("thirds", help="string-thirds two-projection demonstration")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    p.add_argument("--n", type=int, default=10, help="number of fold-and-slide iterations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_thirds, default_out=None)
    return parser


#: a value that starts like a negative number, which argparse would read as an option
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """``--opt -1e-10`` as ``--opt=-1e-10``, the one spelling argparse reads as a
    value for every long option, so the option's own check names the fault."""
    out = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if args.out is None:
        args.out = args.global_out if args.global_out is not None else args.default_out
    started = time.monotonic()
    try:
        code = args.func(args)
    except (InputError, OSError, ValueError, ArithmeticError) as exc:
        print(f"altproj {args.command}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed_ms = (time.monotonic() - started) * 1000.0
        print(f"altproj {getattr(args, 'command', '?')}: elapsed_ms={elapsed_ms:.3f}",
              file=sys.stderr)
    return code


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
