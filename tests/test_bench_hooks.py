"""The names the benchmark tracer patches exist, and it puts them all back.

``perfbench/tracer.py`` wraps public functions, ``Schedule.emit``,
``Word.letter_at`` and the ``Word.length`` property.  It is read from its
file (no bytecode is written next to it) and installed around one relaxed
triple build and a walk over that triple's schedule.
"""

from itertools import islice
from pathlib import Path
from types import ModuleType

import numpy as np

from altproj import divergence, linalg
from altproj.schedules import Schedule
from altproj.words import Word

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def relaxed_triple(eps=0.45):
    """One ``build_triple`` at a budget ``glue`` refuses, in the layout of the relaxed glue."""
    k = divergence.k_of_eps(eps)
    slab = 2 * (k + 2) - 2
    ident = np.eye(2 + slab)
    x_cols = ident[:, :2 + k]
    return divergence.build_triple(linalg.Subspace.full(2 + slab), linalg.Subspace(2 + slab, x_cols),
                                   ident[:, 0], ident[:, 1], eps, eta=0.2, s_cap=10**14)


def test_tracer_hooks_exist_and_are_restored():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        triple = relaxed_triple()
        schedule = Schedule.from_word(triple.psi)
        steps = min(500, triple.psi.length)
        emitted = [schedule.emit(n) for n in range(1, steps + 1)]
    finally:
        tracer.uninstall()
    assert {(Schedule, "emit"), (Word, "letter_at"), (Word, "length")} <= {
        (owner, attr) for owner, attr, _ in patched}
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} was not restored"
    assert tracer.calls["divergence.build_triple"] == 1
    assert tracer.calls["schedules.emit"] == tracer.calls["words.letter_at"] == steps
    assert tracer.count["words.length.evals"] >= steps
    assert emitted == list(islice(schedule.indices(), steps))
