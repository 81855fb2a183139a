"""``iteration.run`` and ``iteration.sakai_constant`` against their loop forms.

``loop_run`` and ``loop_sakai_constant`` are the straightforward versions: one
``emit`` call, ``@`` products and ``np.linalg.norm`` per step, and one
``cumsum`` per row of pairs.  The library versions step a schedule cursor,
reuse the norms of snapped steps, drop repeated states and scan rows in
blocks; each of those is exact, so every recorded number must match to the
bit (compared through ``float.hex``).
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import iteration, linalg
from altproj.iteration import RunConfig, Trace
from altproj.schedules import Schedule, ScheduleExhausted, parse_schedule
from altproj.words import Word


def loop_run(subspaces, schedule, x0, cfg, reference="auto", store_iterates=False):
    ss = list(subspaces)
    n = ss[0].ambient_dim
    x = linalg.as_vector(x0, dim=n).astype(float, copy=True)
    x0_norm = linalg.start_norm(x)
    ref = None
    if isinstance(reference, str):
        ref = iteration.reference_limit(ss, x)
    elif reference is not None:
        ref = linalg.as_vector(reference, dim=n)
    bases = [s.basis for s in ss]
    snap = iteration._SNAP_REL * (x0_norm or 1.0)
    norms, increments, indices = [x0_norm], [], []
    residuals = None if ref is None else [float(np.linalg.norm(x - ref))]
    stored = [x.copy()] if store_iterates else None
    converged = exhausted = False
    quiet = 0
    for step in range(1, cfg.max_steps + 1):
        try:
            j = schedule.emit(step)
        except ScheduleExhausted:
            exhausted = True
            break
        q = bases[j - 1]
        x_next = q @ (q.T @ x) if q.shape[1] else np.zeros_like(x)
        inc = float(np.linalg.norm(x_next - x))
        if inc <= snap:
            x_next = x
            inc = 0.0
        indices.append(j)
        increments.append(inc)
        x = x_next
        norms.append(float(np.linalg.norm(x)))
        if stored is not None:
            stored.append(x.copy())
        res = None
        if residuals is not None:
            res = float(np.linalg.norm(x - ref))
            residuals.append(res)
        if inc < cfg.stop_tol and (res is None or res < cfg.stop_tol):
            quiet += 1
            if quiet >= cfg.window_len:
                converged = True
                break
        else:
            quiet = 0
    return Trace(indices=indices, iterate_norms=norms, increments=increments, final_iterate=x,
                 residuals=residuals, stored_iterates=stored, converged=converged,
                 schedule_exhausted=exhausted, reference=ref)


def loop_sakai_constant(trace):
    xs = np.asarray(trace.stored_iterates[1:], dtype=float)
    t = xs.shape[0]
    if t < 2:
        return 0.0
    inc2 = np.square(np.asarray(trace.increments[1:], dtype=float))
    best = 0.0
    for m in range(t - 1):
        diff = xs[m + 1:t] - xs[m]
        numer = np.einsum("ij,ij->i", diff, diff)
        denom = np.cumsum(inc2[m:])
        mask = denom > 0.0
        if np.any(mask):
            best = max(best, float(np.max(numer[mask] / denom[mask])))
    return best


def hexes(values):
    return None if values is None else [float(v).hex() for v in values]


def assert_same_trace(new, old):
    assert new.indices == old.indices
    assert hexes(new.iterate_norms) == hexes(old.iterate_norms)
    assert hexes(new.increments) == hexes(old.increments)
    assert hexes(new.residuals) == hexes(old.residuals)
    assert new.final_iterate.tobytes() == old.final_iterate.tobytes()
    assert (new.converged, new.schedule_exhausted) == (old.converged, old.schedule_exhausted)
    if old.reference is None:
        assert new.reference is None
    else:
        assert new.reference.tobytes() == old.reference.tobytes()
    if old.stored_iterates is None:
        assert new.stored_iterates is None
    else:
        assert [v.tobytes() for v in new.stored_iterates] == [v.tobytes() for v in old.stored_iterates]


@st.composite
def words(draw, J, depth=2):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            item = Word.empty(J)  # a zero-length block
        elif roll < 4 and depth:
            item = draw(words(J, depth - 1))
        else:
            item = draw(st.integers(1, J))
        factors.append((item, draw(st.integers(1, 4))))
    return Word(J, tuple(factors))


@st.composite
def schedules(draw, J):
    kind = draw(st.sampled_from(["periodic", "ruler", "explicit", "word"] if J >= 2
                                else ["periodic", "explicit", "word"]))
    if kind == "periodic":
        return Schedule.periodic(draw(st.lists(st.integers(1, J), min_size=1, max_size=7)), J=J)
    if kind == "ruler":
        return Schedule.ruler(J)
    if kind == "explicit":
        return Schedule.explicit(draw(st.lists(st.integers(1, J), min_size=1, max_size=80)), J=J)
    return Schedule.from_word(draw(words(J)), J=J)


@st.composite
def runs(draw):
    """Subspaces, schedule, start, config and reference for one run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    J = draw(st.integers(1, 4))
    spaces = [linalg.random_subspace(rng, n, draw(st.integers(0, n))) for _ in range(J)]
    if J >= 2 and draw(st.booleans()):
        spaces[-1] = spaces[0]  # a repeated subspace: its second projection snaps
    x0 = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    cfg = RunConfig(max_steps=draw(st.integers(1, 300)),
                    stop_tol=draw(st.sampled_from([1e-300, 1e-12, 1e-6, 1e-2])),
                    window_len=draw(st.integers(1, 4)))
    reference = draw(st.sampled_from(["auto", None, "vector"]))
    if reference == "vector":
        reference = rng.standard_normal(n)
    return spaces, draw(schedules(J)), x0, cfg, reference


class TestRunMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(runs(), st.booleans())
    def test_every_recorded_number_is_identical(self, case, store):
        spaces, schedule, x0, cfg, reference = case
        assert_same_trace(iteration.run(spaces, schedule, x0, cfg, reference, store),
                          loop_run(spaces, schedule, x0, cfg, reference, store))

    def test_file_schedules(self):
        rng = np.random.default_rng(5)
        spaces = [linalg.random_subspace(rng, 6, d) for d in (2, 3, 4)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "schedule.txt")
            # repeated letters snap; the short file runs out before max_steps
            for indices in ([1, 2, 3] * 200, [1, 1, 2, 2, 2, 3, 1], list(rng.integers(1, 4, 3000))):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(",".join(str(i) for i in indices))
                schedule = parse_schedule(f"file:{path}", J=3)
                for store in (False, True):
                    cfg = RunConfig(max_steps=2500, stop_tol=1e-12)
                    x0 = rng.standard_normal(6)
                    assert_same_trace(iteration.run(spaces, schedule, x0, cfg, "auto", store),
                                      loop_run(spaces, schedule, x0, cfg, "auto", store))

    def test_long_periodic_and_ruler_runs_to_convergence(self):
        rng = np.random.default_rng(7)
        for n in (10, 28):
            spaces = [linalg.random_subspace(rng, n, d) for d in (n - 2, n - 3, n - 1)]
            x0 = rng.standard_normal(n)
            for schedule in (Schedule.periodic([1, 2, 3]), Schedule.ruler(3)):
                cfg = RunConfig(max_steps=20_000, stop_tol=1e-10)
                new, old = iteration.run(spaces, schedule, x0, cfg), loop_run(spaces, schedule, x0, cfg)
                assert new.converged
                assert_same_trace(new, old)


def window_trace(stored, increments):
    return Trace(indices=[1] * len(increments), iterate_norms=[0.0] * len(stored),
                 increments=list(increments), final_iterate=stored[-1],
                 stored_iterates=[np.asarray(v, dtype=float) for v in stored])


class TestSakaiMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(runs(), st.sampled_from([1, 7, 64, 2**15]))
    def test_runs_with_repeated_letters(self, case, block):
        spaces, schedule, x0, cfg, _ = case
        trace = iteration.run(spaces, schedule, x0, cfg, reference=None, store_iterates=True)
        with mock.patch.object(iteration, "_SAKAI_BLOCK", block):
            assert iteration.sakai_constant(trace).hex() == loop_sakai_constant(trace).hex()

    def test_runs_of_zero_increments(self):
        rng = np.random.default_rng(11)
        spaces = [linalg.random_subspace(rng, 7, d) for d in (5, 4, 6)]
        trace = iteration.run(spaces, Schedule.periodic([1, 1, 1, 2, 2, 3, 3, 3, 3]),
                              rng.standard_normal(7), RunConfig(max_steps=400, stop_tol=1e-300),
                              reference=None, store_iterates=True)
        assert trace.increments[1:].count(0.0) > 150
        for block in (1, 5, 2**15):
            with mock.patch.object(iteration, "_SAKAI_BLOCK", block):
                assert iteration.sakai_constant(trace).hex() == loop_sakai_constant(trace).hex()

    def test_equal_states_across_a_positive_increment_keep_their_pairs(self):
        p, a, b = [2.0, 0.0], [1.0, 0.0], [0.0, 0.0]
        # x_3 equals x_2, but the step between them is recorded as 1, so the
        # pair (x_1, x_4) sums three unit steps: 4/3.  Dropping x_3 would
        # sum two and give 2.
        trace = window_trace([p, p, a, a, b], [1.0, 1.0, 1.0, 1.0])
        assert iteration.sakai_constant(trace) == loop_sakai_constant(trace) == 4.0 / 3.0

    def test_distinct_states_across_a_zero_increment_keep_their_pairs(self):
        a, b, c = [0.0, 0.0], [3.0, 0.0], [-1.0, 0.0]
        # the step x_1 -> x_2 is recorded as 0, yet x_2 differs from x_1 and
        # its pair with x_3 gives the maximum 16 over a unit window
        trace = window_trace([a, a, b, c], [1.0, 0.0, 1.0])
        assert iteration.sakai_constant(trace) == loop_sakai_constant(trace) == 16.0

    def test_underflowing_increment_between_equal_states(self):
        a, b = [1.0, 0.0], [0.0, 2.0]
        trace = window_trace([a, a, a, b, b], [1.0, 1e-170, 2.0, 0.0])
        assert iteration.sakai_constant(trace).hex() == loop_sakai_constant(trace).hex()

    def test_fewer_than_two_states(self):
        for stored, increments in (([[1.0]], []), ([[1.0], [0.5]], [0.5])):
            trace = window_trace(stored, increments)
            assert iteration.sakai_constant(trace) == loop_sakai_constant(trace) == 0.0

    def test_sizes_either_side_of_the_block_budget(self):
        rng = np.random.default_rng(13)
        # 19 * 5 entries fit one block; 999 * 40 exceed it, so the first
        # blocks hold one row and later ones several
        assert 19 * 5 < iteration._SAKAI_BLOCK < 999 * 40
        for n, steps in ((5, 20), (40, 1000)):
            spaces = [linalg.random_subspace(rng, n, d) for d in (n - 1, n - 2, n - 1)]
            trace = iteration.run(spaces, Schedule.ruler(3), rng.standard_normal(n),
                                  RunConfig(max_steps=steps, stop_tol=1e-300),
                                  reference=None, store_iterates=True)
            assert iteration.sakai_constant(trace).hex() == loop_sakai_constant(trace).hex()
