"""``iteration.run`` and ``iteration.sakai_constant`` against their loop forms.

``loop_run`` and ``loop_sakai_constant`` are the straightforward versions: one
``emit`` call, ``@`` products and ``np.linalg.norm`` per step, and one
``cumsum`` per row of pairs.  The library versions step a schedule cursor
in blocks, take increments, norms and residuals from each stacked block
through ``np.vecdot``, cut a block at a snap they did not foresee, drop
repeated states and scan rows in blocks; each of those is exact, so every
recorded number must match to the bit (compared through ``float.hex``).
"""

import json
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import cli, iteration, linalg
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
    spaces = []
    for i in range(J):
        kind = draw(st.sampled_from(["fresh", "full", "repeat"] if i else ["fresh", "full"]))
        if kind == "repeat":  # its projection snaps right after the one it repeats
            spaces.append(spaces[draw(st.integers(0, i - 1))])
        else:  # a full space moves x only by rounding, so its projection snaps
            spaces.append(linalg.random_subspace(rng, n, n if kind == "full" else draw(st.integers(0, n))))
    x0 = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    cfg = RunConfig(max_steps=draw(st.integers(1, 300)),
                    stop_tol=draw(st.sampled_from([1e-300, 1e-12, 1e-6, 1e-2])),
                    window_len=draw(st.integers(1, 4)))
    reference = draw(st.sampled_from(["auto", None, "vector"]))
    if reference == "vector":
        reference = rng.standard_normal(n)
    return spaces, draw(schedules(J)), x0, cfg, reference


class TestVecdotIsPerRowDot:
    """``run`` records norms as ``np.vecdot`` over a block of stacked iterates.

    That keeps the trace bits only because ``vecdot`` runs the same ``ddot``
    on each row as ``v.dot(v)`` on the vector it was copied from.
    """

    def test_stacked_rows_match_their_own_dot(self):
        rng = np.random.default_rng(19)
        for n in range(1, 301):
            # separately allocated vectors, as the iterates of a run are
            rows = [rng.standard_normal(n) * scale for scale in (1.0, 1e-150, 1e150, 3.0)]
            rows += [np.zeros(n), rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)]
            xs = np.array(rows)
            assert hexes(np.vecdot(xs, xs)) == hexes([v.dot(v) for v in rows])
            ref = rng.standard_normal(n)
            xs -= ref
            assert hexes(np.vecdot(xs, xs)) == hexes([(v - ref).dot(v - ref) for v in rows])


def three_planes(rng, n):
    return [linalg.random_subspace(rng, n, d) for d in (n - 1, n - 2, n - 1)]


class TestRunMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(runs(), st.booleans(), st.sampled_from([1, 2, 5, iteration._NORM_BLOCK]))
    def test_every_recorded_number_is_identical(self, case, store, block):
        spaces, schedule, x0, cfg, reference = case
        with mock.patch.object(iteration, "_NORM_BLOCK", block):
            new = iteration.run(spaces, schedule, x0, cfg, reference, store)
        assert_same_trace(new, loop_run(spaces, schedule, x0, cfg, reference, store))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_runs_either_side_of_a_block(self, extra):
        rng = np.random.default_rng(29)
        steps = iteration._NORM_BLOCK + extra
        spaces, x0 = three_planes(rng, 12), rng.standard_normal(12)
        for reference in ("auto", None):
            for store in (False, True):
                cfg = RunConfig(max_steps=steps, stop_tol=1e-300)
                new = iteration.run(spaces, Schedule.ruler(3), x0, cfg, reference, store)
                assert new.steps == steps and not new.converged and not new.schedule_exhausted
                assert_same_trace(new, loop_run(spaces, Schedule.ruler(3), x0, cfg, reference, store))

    def test_run_that_stops_mid_block(self):
        rng = np.random.default_rng(31)
        spaces, x0 = three_planes(rng, 8), rng.standard_normal(8)
        for window in (1, 5):
            cfg = RunConfig(max_steps=100_000, stop_tol=1e-10, window_len=window)
            new = iteration.run(spaces, Schedule.periodic([1, 2, 3]), x0, cfg)
            assert new.converged and new.steps > iteration._NORM_BLOCK
            assert new.steps % iteration._NORM_BLOCK != 0
            assert_same_trace(new, loop_run(spaces, Schedule.periodic([1, 2, 3]), x0, cfg))

    def test_snapped_tail_across_a_block_boundary(self):
        rng = np.random.default_rng(37)
        spaces, x0 = three_planes(rng, 6), rng.standard_normal(6)
        block = iteration._NORM_BLOCK
        # moving steps up to 10 before a block ends, then only letter 3, whose
        # repeats snap on through the boundary and into the next block
        moving = [1, 2, 3] * ((block - 10) // 3)
        letters = moving + [3] * 40
        assert len(moving) < block < len(letters)
        schedule = Schedule.explicit(letters, J=3)
        for reference in ("auto", None, rng.standard_normal(6)):
            for store in (False, True):
                # a window longer than the tail, so zero increments never stop the run
                cfg = RunConfig(max_steps=10_000, stop_tol=1e-300, window_len=41)
                new = iteration.run(spaces, schedule, x0, cfg, reference, store)
                assert new.schedule_exhausted and new.steps == len(letters)
                assert new.increments[len(moving):] == [0.0] * 40
                assert_same_trace(new, loop_run(spaces, schedule, x0, cfg, reference, store))

    def test_explicit_reference_vector(self):
        rng = np.random.default_rng(41)
        spaces, x0 = three_planes(rng, 9), rng.standard_normal(9)
        reference = rng.standard_normal(9)
        cfg = RunConfig(max_steps=3 * iteration._NORM_BLOCK + 17, stop_tol=1e-6)
        new = iteration.run(spaces, Schedule.ruler(3), x0, cfg, reference)
        assert new.steps == cfg.max_steps  # the residual never falls below stop_tol
        assert_same_trace(new, loop_run(spaces, Schedule.ruler(3), x0, cfg, reference))

    def test_step_limit_through_the_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        paths = []
        for i, space in enumerate(three_planes(rng, 7)):
            paths.append(str(tmp_path / f"m{i}.csv"))
            np.savetxt(paths[-1], space.basis.T, delimiter=",", fmt="%.17g")
        x0 = rng.standard_normal(7)
        steps = 2 * iteration._NORM_BLOCK + 9
        out = tmp_path / "trace.csv"
        code = cli.main(["--max-steps", str(steps), "--tol", "1e-300", "run", "--spaces", *paths,
                         "--schedule", "periodic:1,2,3", "--x0", ",".join(repr(float(v)) for v in x0),
                         "--out", str(out)])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["steps_executed"] == steps and report["converged"] is False
        old = loop_run([linalg.load_subspace(p) for p in paths], Schedule.periodic([1, 2, 3]),
                       x0, RunConfig(max_steps=steps, stop_tol=1e-300))
        expected = tmp_path / "expected.csv"
        cli._write_trace_csv(str(expected), old)
        assert out.read_bytes() == expected.read_bytes()
        assert report["final_residual"].hex() == old.residuals[-1].hex()

    def test_glued_schedule_with_stored_iterates(self, construction):
        c = construction
        spaces = [c.M1, c.M2, c.M3]
        cfg = RunConfig(max_steps=7 * iteration._NORM_BLOCK + 5, stop_tol=1e-300)
        new = iteration.run(spaces, c.schedule, c.e[0], cfg, reference=None, store_iterates=True)
        assert new.steps == cfg.max_steps
        assert new.increments.count(0.0) > iteration._NORM_BLOCK  # repeated letters snap
        assert_same_trace(new, loop_run(spaces, c.schedule, c.e[0], cfg, reference=None,
                                        store_iterates=True))

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


def held_moves(trace, spaces):
    """Steps of a stored trace that held x although P_j changed its bits.

    Each is given with whether d . d underflowed to 0 there.  Where ``run``
    did not foresee the snap, it stepped on from the moved state and must
    cut its block at that step.
    """
    out = []
    for t, (j, inc) in enumerate(zip(trace.indices, trace.increments)):
        x, q = trace.stored_iterates[t], spaces[j - 1].basis
        moved = q @ (q.T @ x)
        if inc == 0.0 and moved.tobytes() != x.tobytes():
            d = moved - x
            out.append((t, d.dot(d) == 0.0))
    return out


def check_every_variant(spaces, schedule, x0, cfg):
    """``run`` against ``loop_run`` for each reference, store flag and block size."""
    vector = np.random.default_rng(53).standard_normal(spaces[0].ambient_dim)
    for block in (1, 2, 5, 64):
        for reference in ("auto", None, vector):
            for store in (False, True):
                with mock.patch.object(iteration, "_NORM_BLOCK", block):
                    new = iteration.run(spaces, schedule, x0, cfg, reference, store)
                assert_same_trace(new, loop_run(spaces, schedule, x0, cfg, reference, store))


class TestBlockCuts:
    """Steps that snap where ``run`` did not foresee it, so it cuts the block there."""

    @staticmethod
    def repeat_and_full(rng, n):
        # letters 1 and 2 are one subspace; letter 4 is the full space, whose
        # products move x by rounding only
        a = linalg.random_subspace(rng, n, n - 2)
        return [a, a, linalg.random_subspace(rng, n, n - 3), linalg.random_subspace(rng, n, n)]

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_snap_at_a_step_of_the_first_block(self, block, where):
        rng = np.random.default_rng(47)
        spaces, x0 = self.repeat_and_full(rng, 6), rng.standard_normal(6)
        at = {"first": 0, "middle": block // 2, "last": block - 1}[where]
        moving = ([3, 1] * block)[:at]
        # 2 after 1 repeats its subspace, and 4 after 3 is the full space
        letters = moving + [2 if moving[-1:] == [1] else 4] + [3, 1, 2, 3, 4, 1, 3, 1] * 8
        cfg = RunConfig(max_steps=10_000, stop_tol=1e-300, window_len=len(letters))
        schedule = Schedule.explicit(letters, J=4)
        snaps = held_moves(loop_run(spaces, schedule, x0, cfg, None, True), spaces)
        assert snaps[0][0] == at and len(snaps) > 8
        check_every_variant(spaces, schedule, x0, cfg)

    @pytest.mark.parametrize("max_steps", [4, 100])
    def test_cut_then_stop_inside_the_restepped_letters(self, max_steps):
        # letter 3 (the full space) snaps at step 0, letter 1 moves, letter 2
        # snaps at step 2; from there every step holds x, and a tracked
        # residual of about 1e-16 lets the window close at step 4
        rng = np.random.default_rng(59)
        a = linalg.random_subspace(rng, 5, 3)
        spaces = [a, a, linalg.random_subspace(rng, 5, 5)]
        x0, schedule = rng.standard_normal(5), Schedule.explicit([3] + [1, 2] * 30, J=3)
        cfg = RunConfig(max_steps=max_steps, stop_tol=1e-10, window_len=3)
        trace = loop_run(spaces, schedule, x0, cfg, None, True)
        assert [t for t, _ in held_moves(trace, spaces)][:2] == [0, 2]
        for reference in ("auto", None):
            trace = iteration.run(spaces, schedule, x0, cfg, reference)
            assert (trace.steps, trace.converged) == ((5, True) if max_steps == 100 else (4, False))
        check_every_variant(spaces, schedule, x0, cfg)

    def test_file_schedule_ends_inside_the_restepped_letters(self, tmp_path):
        rng = np.random.default_rng(61)
        spaces, x0 = self.repeat_and_full(rng, 5), rng.standard_normal(5)
        path = tmp_path / "schedule.txt"
        path.write_text("3,1,2,1,3,4,3\n")
        schedule = parse_schedule(f"file:{path}", J=4)
        cfg = RunConfig(max_steps=100, stop_tol=1e-300, window_len=50)
        trace = loop_run(spaces, schedule, x0, cfg, None, True)
        # steps 2 and 5 snap unforeseen; steps 3 and 6 follow a snap and are foreseen
        assert trace.schedule_exhausted and [t for t, _ in held_moves(trace, spaces)] == [2, 3, 5, 6]
        check_every_variant(spaces, schedule, x0, cfg)

    def test_increment_that_underflows_while_x_moves(self):
        # at a start of norm about 1e-150, steps below about 1.6e-162 in every
        # entry square to 0: such a step holds x although x moved
        rng = np.random.default_rng(4)
        spaces = [linalg.random_subspace(rng, 5, d) for d in (4, 3, 4)]
        x0 = rng.standard_normal(5) * 1e-150
        cfg = RunConfig(max_steps=400, stop_tol=1e-300, window_len=400)
        schedule = Schedule.periodic([1, 2, 3])
        snaps = held_moves(loop_run(spaces, schedule, x0, cfg, None, True), spaces)
        assert len(snaps) > 10 and all(underflow for _, underflow in snaps)
        check_every_variant(spaces, schedule, x0, cfg)

    @pytest.mark.parametrize("window", [5, 1000])
    def test_all_snap_tail_of_a_converged_orbit(self, window):
        rng = np.random.default_rng(60)
        spaces = [linalg.random_subspace(rng, 6, d) for d in (5, 4, 5)]
        x0, schedule = rng.standard_normal(6), Schedule.periodic([1, 2, 3])
        cfg = RunConfig(max_steps=600, stop_tol=1e-300, window_len=window)
        trace = iteration.run(spaces, schedule, x0, cfg)  # the residual stays above stop_tol
        # the orbit moves for 59 steps, and every step after those snaps
        assert trace.steps == 600 and trace.increments[59:] == [0.0] * 541
        check_every_variant(spaces, schedule, x0, cfg)

    @pytest.mark.parametrize("max_steps", [1, 7])
    def test_snap_that_changes_only_the_sign_of_a_zero(self, max_steps):
        # P_1 x0 = (+0, 1, 0) differs from x0 = (-0, 1, 0) in its bits alone;
        # the step holds x0, -0.0 included, and the run steps on from there
        e = np.eye(3)
        spaces = [linalg.Subspace(3, e[:, 1:2]), linalg.Subspace(3, e[:, :2])]
        x0 = np.array([-0.0, 1.0, 0.0])
        cfg = RunConfig(max_steps=max_steps, stop_tol=1e-300, window_len=10)
        trace = iteration.run(spaces, Schedule.periodic([1, 2]), x0, cfg, store_iterates=True)
        assert trace.increments[0] == 0.0 and np.signbit(trace.stored_iterates[1][0])
        check_every_variant(spaces, Schedule.periodic([1, 2]), x0, cfg)

    @staticmethod
    def slow_planes(rng, n):
        """Three hyperplanes whose normals nearly agree, so an orbit creeps for long."""
        base = rng.standard_normal(n)
        out = []
        for _ in range(3):
            normal = base + 0.05 * rng.standard_normal(n)
            out.append(linalg.complement(linalg.Subspace(n, (normal / np.linalg.norm(normal))[:, None])))
        return out

    @pytest.mark.parametrize("kind", ["nested", "full"])
    def test_snap_that_recurs_at_one_letter_cuts_one_block(self, kind):
        # letter 2 snaps after every letter-1 step: its subspace holds letter
        # 1's, or it is the full space, while letters 1 and 3 keep moving x
        rng = np.random.default_rng(67)
        a, b, c = self.slow_planes(rng, 10)
        spaces = [linalg.intersect([a, b]), a, c] if kind == "nested" else [a, linalg.random_subspace(rng, 10, 10), c]
        x0, schedule = rng.standard_normal(10), Schedule.periodic([1, 2, 3])
        cfg = RunConfig(max_steps=600, stop_tol=1e-300, window_len=600)
        trace = loop_run(spaces, schedule, x0, cfg, None, True)
        snaps = [t for t, _ in held_moves(trace, spaces)]
        assert snaps == list(range(1, 600, 3)) and 0.0 not in trace.increments[::3]
        with mock.patch.object(iteration.np, "concatenate", wraps=np.concatenate) as stacks:
            iteration.run(spaces, schedule, x0, cfg, None)
        # the first snap cuts a block; from then on letter 2 decides inline
        assert stacks.call_count <= 600 // iteration._NORM_BLOCK + 3
        check_every_variant(spaces, schedule, x0, cfg)

    def test_letter_that_cut_a_block_moves_later(self):
        # letters 1 and 2 are one subspace: letter 2 snaps after letter 1 and
        # cuts, then moves after letter 3 while it still decides inline
        rng = np.random.default_rng(71)
        a = linalg.random_subspace(rng, 7, 5)
        spaces = [a, a, linalg.random_subspace(rng, 7, 4), linalg.random_subspace(rng, 7, 6)]
        x0, schedule = rng.standard_normal(7), Schedule.explicit([1, 2, 3, 2, 4, 3] * 40, J=4)
        cfg = RunConfig(max_steps=1000, stop_tol=1e-300, window_len=1000)
        trace = loop_run(spaces, schedule, x0, cfg, None, True)
        assert [t for t, _ in held_moves(trace, spaces)][:2] == [1, 7]
        assert trace.increments[3] > 0.0 and trace.increments[9] > 0.0
        check_every_variant(spaces, schedule, x0, cfg)


def window_trace(stored, increments):
    return Trace(indices=[1] * len(increments), iterate_norms=[0.0] * len(stored),
                 increments=list(increments), final_iterate=stored[-1],
                 stored_iterates=[np.asarray(v, dtype=float) for v in stored])


def creeping_orbit(n, steps, seed):
    """``ruler:3`` over three hyperplanes whose normals nearly agree.

    The orbit creeps towards their intersection, so no step snaps and all
    ``steps`` states are distinct.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    spaces = []
    for _ in range(3):
        normal = base + 0.02 * rng.standard_normal(n)
        spaces.append(linalg.complement(linalg.Subspace(n, (normal / np.linalg.norm(normal))[:, None])))
    trace = iteration.run(spaces, Schedule.ruler(3), rng.standard_normal(n),
                          RunConfig(max_steps=steps, stop_tol=1e-300),
                          reference=None, store_iterates=True)
    assert trace.steps == steps and 0.0 not in trace.increments
    return trace


#: entry magnitudes from 1e-150 to 1e150; their products stay normal
_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@st.composite
def windows(draw):
    """Traces of n = 1..8 and 2..60 states, with increments drawn apart from the states.

    A state may repeat an earlier one.  An increment is 0, one whose square
    is subnormal, a free magnitude, or the step's own length times 1 or 2,
    so that its neighbour ratio is about 1, as on a projection orbit, or 1/4.
    """
    n = draw(st.integers(1, 8))
    states = []
    for _ in range(draw(st.integers(3, 61))):
        if states and draw(st.integers(0, 3)) == 0:
            states.append(states[draw(st.integers(0, len(states) - 1))])
        else:
            states.append(np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n))))
    increments = []
    for a, b in zip(states, states[1:]):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            increments.append(0.0)
        elif kind == 1:
            increments.append(draw(st.floats(2.3e-162, 1.4e-154)))  # subnormal square
        elif kind == 2:
            increments.append(draw(st.floats(1e-150, 1e150)))
        else:
            increments.append(float(np.linalg.norm(b - a)) * (kind - 2))
    return window_trace(states, increments)


def outcome(sakai, trace):
    """The bits of ``sakai(trace)`` and the messages of the warnings it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = sakai(trace)
    return value.hex(), sorted({str(w.message) for w in caught})


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
        # a screen block holding every row of t states takes (t - 1) * (t - 2)
        # padded pairs: 20 states fit one block, 2,000 states need hundreds
        pairs = iteration._SAKAI_BLOCK // 8
        for n, steps in ((5, 20), (40, 2000)):
            trace = creeping_orbit(n, steps, seed=13)
            assert ((steps - 1) * (steps - 2) <= pairs) == (steps == 20)
            assert iteration.sakai_constant(trace).hex() == loop_sakai_constant(trace).hex()

    @settings(max_examples=300, deadline=None)
    @given(windows(), st.sampled_from([1, 7, 64, 2**15]))
    def test_windows_of_any_scale(self, trace, block):
        # a ratio over a subnormal denominator may overflow to inf: both
        # forms then return inf and warn alike, and the screen adds no warning
        with mock.patch.object(iteration, "_SAKAI_BLOCK", block):
            assert outcome(iteration.sakai_constant, trace) == outcome(loop_sakai_constant, trace)

    def test_screen_overflow_is_silent(self):
        # the seed ratio 2^1000 times the window sum 2^80 overflows in the
        # screen; that pair falls through to the exact path without a warning
        e = np.eye(2)[0]
        trace = window_trace([e, 0 * e, e, 3 * e], [1.0, 2.0**-500, 2.0**40])
        assert iteration.sakai_constant(trace) == loop_sakai_constant(trace) == 2.0**1000

    @pytest.mark.parametrize("block", [1, 7, 64, 2**15])
    def test_straight_line_passes_the_screen(self, block):
        # x_k = k v with unit increments: the ratio of (m, p) is p - m, so the
        # first block's pairs beat the neighbour seed 1 and are formed exactly
        rng = np.random.default_rng(17)
        v = rng.standard_normal(3)
        for v in (np.eye(3)[0], v / np.linalg.norm(v)):
            trace = window_trace([k * v for k in range(400)], [1.0] * 399)
            with mock.patch.object(iteration, "_SAKAI_BLOCK", block):
                value = iteration.sakai_constant(trace)
            assert value.hex() == loop_sakai_constant(trace).hex()
            assert value == 398.0 if v[0] == 1.0 else value == pytest.approx(398.0, rel=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 64, 2**15])
    def test_pair_that_ties_the_neighbour_seed(self, block):
        # states 0, 4, 5 on an axis with increments 4 and 3: the first
        # neighbour and the pair across both steps have ratio exactly 1
        for scale in (2.0**-500, 1.0, 2.0**500):
            e = np.eye(2)[1] * scale
            trace = window_trace([e, 0 * e, 4 * e, 5 * e, 5 * e], [1.0, 4 * scale, 3 * scale, 0.0])
            with mock.patch.object(iteration, "_SAKAI_BLOCK", block):
                assert iteration.sakai_constant(trace) == loop_sakai_constant(trace) == 1.0

    def test_gram_cancellation_is_covered(self):
        # a far offset C e_2 makes q_m + q_p - 2 G_mp lose the pair (0, 2)
        # to rounding (its computed value is 24 where the distance is 25),
        # while its ratio 25 / (16 (1 + 2^-40)^2 + 9) beats the neighbour
        # seed 16 / (16 (1 + 2^-40)^2); only the slack s keeps it
        e, c = np.eye(2)
        c = c * 2.0**27
        trace = window_trace([c, c, c + 4 * e, c + 5 * e], [1.0, 4 * (1 + 2.0**-40), 3.0])
        value = iteration.sakai_constant(trace)
        assert value.hex() == loop_sakai_constant(trace).hex()
        assert value == 25 / (16 * (1 + 2.0**-40) ** 2 + 9) > 1 / (1 + 2.0**-40) ** 2

    def test_overflowing_norms_keep_their_pairs(self):
        # ||x||^2 overflows, so the pair (0, 2) has the bound inf - inf = NaN;
        # its differences are finite and its ratio 4.5 beats the seed 4
        a, d = 2.0**520, 2.0**480
        trace = window_trace([[a], [a], [a + d], [a + 3 * d]], [1.0, d, d])
        assert outcome(iteration.sakai_constant, trace) == outcome(loop_sakai_constant, trace)
        assert iteration.sakai_constant(trace) == 4.5

    def test_screen_rules_out_most_pairs(self):
        trace = creeping_orbit(40, 2000, seed=13)
        formed = []
        einsum = np.einsum

        def counting_einsum(*args):
            out = einsum(*args)
            formed.append(len(out))
            return out

        with mock.patch.object(np, "einsum", counting_einsum):
            value = iteration.sakai_constant(trace)
        assert value.hex() == loop_sakai_constant(trace).hex()
        # 1,999 neighbour pairs in the seed, then under 1% of the others
        assert sum(formed) - 1999 < 1999 * 1998 // 2 // 100

    def test_peak_memory_on_a_long_orbit(self):
        trace = creeping_orbit(40, 2000, seed=23)
        tracemalloc.start()
        try:
            iteration.sakai_constant(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 1024
