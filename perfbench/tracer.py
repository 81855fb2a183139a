"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces the public functions of each altproj module (and
two methods, ``Schedule.emit`` and ``Word.letter_at``, plus the ``Word.length``
property) by wrappers that time each call on a span stack and count the work
they see in arguments and results.  Callers inside altproj look these names
up at call time (module globals or class attributes), so nested calls are
traced too.  A span's self time is its duration minus the time of the traced
spans it encloses.  Nothing in ``src/`` changes.

``Word.length`` is counted but not timed: it recurses through the word tree
and a clock read per evaluation would swamp what it measures.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from altproj import analysis, cli, divergence, iteration, kaczmarz, linalg, schedules, words

#: (module, function name) pairs timed as spans, named "<module>.<function>"
SPANS = [
    (cli, "main"),
    (linalg, "load_subspace"), (linalg, "orthonormalize"), (linalg, "complement"),
    (linalg, "intersect"), (linalg, "random_subspace"),
    (iteration, "run"), (iteration, "reference_limit"), (iteration, "sakai_constant"),
    (kaczmarz, "load_system"), (kaczmarz, "solve"), (kaczmarz, "max_violation"),
    (analysis, "friedrichs_cosine"), (analysis, "rate_curve"),
    (divergence, "quarter_circle"), (divergence, "replace_projection"),
    (divergence, "build_triple"), (divergence, "assemble"),
]


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span stack plus named counters for one traced stretch of jobs."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self._stack = []  # [name, start, child time]
        self._saved = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._exit()
            if after is not None:
                after(dur, out, *args, **kwargs)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- per-function counters ----------------------------------------------

    def _after_load_subspace(self, dur, out, path, *a, **k):
        self.count["linalg.load_subspace.bytes_read"] += os.path.getsize(path)

    def _after_orthonormalize(self, dur, out, vectors, *a, **k):
        self.count["linalg.orthonormalize.columns_in"] += len(vectors)
        self.count["linalg.orthonormalize.columns_out"] += out.dim

    def _after_run(self, dur, trace, subspaces, *a, **k):
        dims = np.array([s.dim for s in subspaces], dtype=float)
        n = subspaces[0].ambient_dim
        steps = trace.steps
        self.count["iteration.steps"] += steps
        if steps:
            per_index = np.bincount(np.asarray(trace.indices) - 1, minlength=len(dims))
            self.count["iteration.flops"] += 4.0 * n * float(per_index @ dims)
        self.count["iteration.loop_s"] += dur - self._ref_in_run
        self._ref_in_run = 0.0

    def _after_reference_limit(self, dur, *a, **k):
        if self._inside("iteration.run"):
            self._ref_in_run += dur

    def _after_sakai(self, dur, out, trace, *a, **k):
        t = len(trace.stored_iterates) - 1
        self.count["iteration.sakai_constant.pairs"] += t * (t - 1) // 2

    def _after_solve(self, dur, result, *a, **k):
        self.count["kaczmarz.sweeps"] += result.sweeps
        # every benchmark system is consistent, so any such flag is false
        self.count["kaczmarz.false_stall"] += int(result.suspected_inconsistent)

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "linalg.load_subspace": self._after_load_subspace,
            "linalg.orthonormalize": self._after_orthonormalize,
            "iteration.run": self._after_run,
            "iteration.reference_limit": self._after_reference_limit,
            "iteration.sakai_constant": self._after_sakai,
            "kaczmarz.solve": self._after_solve,
        }
        self._ref_in_run = 0.0
        for module, attr in SPANS:
            name = f"{_short(module)}.{attr}"
            self._patch(module, attr, self._wrap(name, getattr(module, attr), after.get(name)))
        Schedule, Word = schedules.Schedule, words.Word
        self._patch(Schedule, "emit", self._wrap("schedules.emit", Schedule.emit))
        self._patch(Word, "letter_at", self._wrap("words.letter_at", Word.letter_at))
        length = Word.__dict__["length"].fget
        count = self.count

        def counted_length(word):
            count["words.length.evals"] += 1
            return length(word)

        self._patch(Word, "length", property(counted_length))
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            if self._inside("divergence.build_triple") or self._inside("divergence.assemble"):
                count["divergence.eigh.calls"] += 1
            return eigh(*args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- derived metrics ----------------------------------------------------

    def metrics(self, passes, plain_walls, traced_walls):
        """Per-layer metrics per batch pass, as ``{name: (value, unit)}``."""
        per = 1.0 / passes
        c = self.count

        def self_s(name):
            return self.self_time[name] * per

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "cli.main.self_s": (self_s("cli.main"), "s"),
            "cli.bytes_written": (c["cli.bytes_written"] * per, "bytes"),
            "linalg.load_subspace.self_s": (self_s("linalg.load_subspace"), "s"),
            "linalg.load_subspace.bytes_read": (c["linalg.load_subspace.bytes_read"] * per, "bytes"),
            "linalg.orthonormalize.self_s": (self_s("linalg.orthonormalize"), "s"),
            "linalg.orthonormalize.calls": (self.calls["linalg.orthonormalize"] * per, "count"),
            "linalg.orthonormalize.columns_in": (c["linalg.orthonormalize.columns_in"] * per, "count"),
            "linalg.orthonormalize.kept_ratio": (
                ratio(c["linalg.orthonormalize.columns_out"], c["linalg.orthonormalize.columns_in"]),
                "ratio"),
            "linalg.complement.self_s": (self_s("linalg.complement"), "s"),
            "linalg.intersect.self_s": (self_s("linalg.intersect"), "s"),
            "linalg.random_subspace.self_s": (self_s("linalg.random_subspace"), "s"),
            "iteration.run.self_s": (self_s("iteration.run"), "s"),
            "iteration.steps": (c["iteration.steps"] * per, "count"),
            "iteration.us_per_step": (ratio(c["iteration.loop_s"], c["iteration.steps"]) * 1e6, "us"),
            "iteration.gflop_per_s": (ratio(c["iteration.flops"], c["iteration.loop_s"]) / 1e9,
                                      "GFLOP/s"),
            "iteration.reference_limit.self_s": (self_s("iteration.reference_limit"), "s"),
            "iteration.sakai_constant.self_s": (self_s("iteration.sakai_constant"), "s"),
            "iteration.sakai_constant.pairs": (c["iteration.sakai_constant.pairs"] * per, "count"),
            "schedules.emit.calls": (self.calls["schedules.emit"] * per, "count"),
            "schedules.emit.us_per_call": (
                ratio(self.incl["schedules.emit"], self.calls["schedules.emit"]) * 1e6, "us"),
            "words.letter_at.calls": (self.calls["words.letter_at"] * per, "count"),
            "words.letter_at.self_s": (self_s("words.letter_at"), "s"),
            "words.length.evals": (c["words.length.evals"] * per, "count"),
            "words.length.evals_per_emit": (
                ratio(c["words.length.evals"], self.calls["schedules.emit"]), "ratio"),
            "kaczmarz.load_system.self_s": (self_s("kaczmarz.load_system"), "s"),
            "kaczmarz.solve.self_s": (self_s("kaczmarz.solve"), "s"),
            "kaczmarz.sweeps": (c["kaczmarz.sweeps"] * per, "count"),
            "kaczmarz.us_per_sweep": (
                ratio(self.incl["kaczmarz.solve"], c["kaczmarz.sweeps"]) * 1e6, "us"),
            "kaczmarz.max_violation.self_s": (self_s("kaczmarz.max_violation"), "s"),
            "kaczmarz.max_violation.calls": (self.calls["kaczmarz.max_violation"] * per, "count"),
            "kaczmarz.false_stall": (c["kaczmarz.false_stall"] * per, "count"),
            "analysis.friedrichs_cosine.self_s": (self_s("analysis.friedrichs_cosine"), "s"),
            "analysis.rate_curve.self_s": (self_s("analysis.rate_curve"), "s"),
            "divergence.quarter_circle.self_s": (self_s("divergence.quarter_circle"), "s"),
            "divergence.replace_projection.self_s": (self_s("divergence.replace_projection"), "s"),
            "divergence.build_triple.self_s": (self_s("divergence.build_triple"), "s"),
            "divergence.assemble.self_s": (self_s("divergence.assemble"), "s"),
            "divergence.eigh.calls": (c["divergence.eigh.calls"] * per, "count"),
            "trace.overhead_ratio": (ratio(float(np.median(traced_walls)),
                                           float(np.median(plain_walls))), "ratio"),
        }
        return out
