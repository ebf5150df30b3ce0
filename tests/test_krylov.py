import copy
import gc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from dlekrylov import krylov
from dlekrylov.dense import frob_norm, qr_thin, spec_norm_2
from dlekrylov.krylov import KrylovBreakdown, KrylovDecomposition
from dlekrylov.problems import gen_convdiff, gen_heat_fem, gen_random_block
from dlekrylov.solvers import SolverConfig, krylov_steps
from dlekrylov.sparsela import (CapabilityError, LinearOperator, wrap_dense,
                                wrap_sparse)


def arnoldi_relation_residual(op, dec):
    """|| A V_m - V_{m+1} T_bar || / (||A V_m||)."""
    V_inner = dec.inner_basis
    AV = op.apply(V_inner)
    R = AV - dec.basis @ dec.T_bar
    return frob_norm(R) / max(frob_norm(AV), 1e-300)


def _extend_times(dec, op, m):
    for _ in range(m):
        dec.extend(op)
    return dec


def _check_invariants(op, dec, A_dense):
    V_all = dec.basis
    k_all = V_all.shape[1]
    # orthonormality
    assert frob_norm(V_all.T @ V_all - np.eye(k_all)) <= 1e-10
    # Arnoldi relation A V_m = V_{m+1} T_bar
    V_in = dec.inner_basis
    lhs = A_dense @ V_in
    rel = frob_norm(lhs - V_all @ dec.T_bar)
    assert rel <= 1e-9 * spec_norm_2(A_dense) * frob_norm(V_in)
    # projection identity
    T_proj = V_in.T @ A_dense @ V_in
    assert frob_norm(dec.T - T_proj) <= 1e-10 * max(frob_norm(T_proj), 1.0)
    # split form with the coupling block on the last columns
    k = dec.inner_width
    w_last = dec.widths[dec.m - 1]
    trailing = V_all[:, k:]
    correction = np.zeros_like(lhs)
    if trailing.shape[1]:
        correction[:, k - w_last:] = trailing @ dec.coupling
    rel6 = frob_norm(lhs - (V_in @ dec.T + correction))
    assert rel6 <= 1e-9 * spec_norm_2(A_dense) * frob_norm(V_in)


# -- block variant -----------------------------------------------------------

def test_block_identity_breaks_down_immediately():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((12, 2))
    op = wrap_dense(np.eye(12))
    dec = KrylovDecomposition(op, B, variant="block")
    with pytest.raises(KrylovBreakdown) as exc:
        dec.extend(op)
    assert exc.value.rank == 0
    assert dec.m == 1
    assert dec.coupling.shape[0] == 0
    np.testing.assert_allclose(dec.T, np.eye(2), atol=1e-14)


def test_block_diagonal_axis_aligned():
    # an eigenvector start block keeps the basis axis-aligned and the
    # one-dimensional invariant subspace is flagged immediately
    d = np.array([3.0, -1.0, 2.0, 0.5, -2.0])
    op = wrap_dense(np.diag(d))
    e1 = np.zeros((5, 1))
    e1[0, 0] = 1.0
    dec = KrylovDecomposition(op, e1, variant="block")
    with pytest.raises(KrylovBreakdown):
        dec.extend(op)
    assert abs(abs(dec.inner_basis[0, 0]) - 1.0) <= 1e-14
    assert dec.T[0, 0] == pytest.approx(d[0])


def test_block_invariant_suite_random():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((80, 80))
    op = wrap_dense(A)
    B = rng.standard_normal((80, 2))
    dec = _extend_times(KrylovDecomposition(op, B, variant="block"), op, 5)
    assert dec.m == 5
    assert dec.widths == [2] * 6
    _check_invariants(op, dec, A)


def test_block_nesting():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((40, 40))
    op = wrap_dense(A)
    B = rng.standard_normal((40, 2))
    dec = KrylovDecomposition(op, B, variant="block")
    snapshots = []
    for _ in range(4):
        dec.extend(op)
        snapshots.append(dec.inner_basis.copy())
    for a, b in zip(snapshots, snapshots[1:]):
        np.testing.assert_array_equal(b[:, : a.shape[1]], a)


def _partial_deflation_case():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 30))
    b = rng.standard_normal((30, 1))
    return A, np.hstack([b, A @ b])  # second column becomes dependent


def _invariant_subspace_case():
    # B spans an invariant subspace of a block-diagonal A
    rng = np.random.default_rng(4)
    A = np.zeros((12, 12))
    A[:4, :4] = rng.standard_normal((4, 4))
    A[4:, 4:] = rng.standard_normal((8, 8))
    B = np.zeros((12, 2))
    B[:4, :] = rng.standard_normal((4, 2))
    return A, B


def test_block_partial_deflation_then_continue():
    A, B = _partial_deflation_case()
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    with pytest.raises(KrylovBreakdown) as exc:
        dec.extend(op)
    assert exc.value.rank == 1
    assert dec.widths[-1] == 1
    dec.extend(op)                   # narrower process keeps going
    assert dec.widths[-1] == 1
    _check_invariants(op, dec, A)


def test_full_breakdown_invariant_subspace():
    A, B = _invariant_subspace_case()
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant="block")
    caught = None
    for _ in range(6):
        try:
            dec.extend(op)
        except KrylovBreakdown as exc:
            caught = exc
            break
    assert caught is not None and caught.rank == 0
    V = dec.basis
    proj = V @ (V.T @ (A @ V)) - A @ V
    assert frob_norm(proj) <= 1e-8 * max(frob_norm(A @ V), 1.0)


# -- extended variant --------------------------------------------------------

def test_extended_identity_deflates_at_init():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((10, 2))
    op = wrap_dense(np.eye(10))
    dec = KrylovDecomposition(op, B, variant="extended")
    assert dec.widths == [2]        # [B, A^{-1}B] collapses to rank s
    with pytest.raises(KrylovBreakdown) as exc:
        dec.extend(op)
    assert exc.value.rank == 0


def test_start_block_keeps_a_direction_above_the_deflation_tolerance():
    # [b, b + 1e-11 ||b|| u], u a unit vector orthogonal to b: its second
    # direction is about 7e-12 of the block's norm, above _DEFLATION_TOL
    # = 1e-12, so the block variant keeps both columns
    op = wrap_sparse(gen_convdiff(10))
    b = gen_random_block(100, 1, seed=7)[:, 0]
    u = gen_random_block(100, 1, seed=8)[:, 0]
    u -= (u @ b) / (b @ b) * b
    u /= np.linalg.norm(u)
    B = np.column_stack([b, b + 1e-11 * np.linalg.norm(b) * u])
    dec = KrylovDecomposition(op, B, variant="block")
    assert dec.widths == [2]


def test_a_direction_exactly_at_the_deflation_tolerance_is_dropped():
    # [e1, 1e-12 e2] has Frobenius norm exactly 1.0, so the threshold is
    # _DEFLATION_TOL = 1e-12, and both R's second diagonal entry and the
    # second singular value equal it: a direction must lie above the
    # threshold to be kept, in the QR test and in the SVD count alike
    B = np.zeros((100, 2))
    B[0, 0], B[1, 1] = 1.0, 1e-12
    assert frob_norm(B) == 1.0
    assert abs(qr_thin(B, rank_tol=0.0)[1][1, 1]) == 1e-12
    assert np.linalg.svd(B, compute_uv=False)[1] == 1e-12
    dec = KrylovDecomposition(wrap_sparse(gen_convdiff(10)), B, variant="block")
    assert dec.widths == [1]
    assert dec._dropped


def test_extended_span_matches_moment_space():
    rng = np.random.default_rng(6)
    d = np.logspace(np.log10(0.5), np.log10(10.0), 20)   # well separated
    A = np.diag(d)
    B = rng.standard_normal((20, 2))
    op = wrap_dense(A)
    m = 4
    dec = _extend_times(KrylovDecomposition(op, B, variant="extended"), op, m)
    V = dec.inner_basis
    moments = []
    for k in range(-m, m):
        col = np.linalg.matrix_power(A, k) @ B
        moments.append(col / np.linalg.norm(col, axis=0))
    Q, _ = np.linalg.qr(np.hstack(moments))
    P1 = V @ V.T
    P2 = Q @ Q.T
    assert frob_norm(P1 - P2) <= 1e-8


def test_extended_invariant_suite_convdiff():
    A = gen_convdiff(10)
    B = gen_random_block(100, 2, seed=1)
    op = wrap_sparse(A)
    dec = _extend_times(KrylovDecomposition(op, B, variant="extended"), op, 4)
    assert dec.m == 4
    assert dec.widths == [4] * 5
    _check_invariants(op, dec, A.toarray())


def test_extended_requires_inverse():
    rng = np.random.default_rng(7)
    A = csr_matrix(np.diag(rng.random(8) + 1.0))
    op = LinearOperator(8, lambda V: A @ V)
    B = rng.standard_normal((8, 1))
    with pytest.raises(CapabilityError):
        KrylovDecomposition(op, B, variant="extended")


def test_extended_nesting_and_relation_helper():
    A = gen_convdiff(6)
    B = gen_random_block(36, 2, seed=2)
    op = wrap_sparse(A)
    dec = KrylovDecomposition(op, B, variant="extended")
    prev = None
    for _ in range(3):
        dec.extend(op)
        if prev is not None:
            np.testing.assert_array_equal(dec.inner_basis[:, : prev.shape[1]], prev)
        prev = dec.inner_basis.copy()
    assert arnoldi_relation_residual(op, dec) <= 1e-9


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        KrylovDecomposition(wrap_dense(np.eye(3)), np.ones((3, 1)), variant="other")


def test_zero_start_block_rejected():
    with pytest.raises(ValueError):
        KrylovDecomposition(wrap_dense(np.eye(3)), np.zeros((3, 1)), variant="block")


# -- both variants -----------------------------------------------------------

def _grow_checking_T_bar(A, B, variant):
    """Extend up to the full breakdown, checking after every step that the
    grown T_bar equals basis^T A inner_basis. Returns the breakdown ranks
    and the largest norm, relative to T_bar's, of a new block's rows
    against the older blocks."""
    op = wrap_dense(A)
    dec = KrylovDecomposition(op, B, variant=variant)
    ranks, below = [], 0.0
    while dec.breakdown_rank != 0:
        k, k_in = dec.basis.shape[1], dec.inner_width
        try:
            dec.extend(op)
        except KrylovBreakdown as exc:
            ranks.append(exc.rank)
        ref = dec.basis.T @ A @ dec.inner_basis
        assert frob_norm(dec.T_bar - ref) <= 1e-12 * frob_norm(ref)
        below = max(below, frob_norm(dec.T_bar[k:, :k_in]) / frob_norm(ref))
        assert dec.m <= A.shape[0]
    return ranks, below


@pytest.mark.parametrize("variant", ["block", "extended"])
@pytest.mark.parametrize("case", [_partial_deflation_case, _invariant_subspace_case],
                         ids=["partial-deflation", "invariant-subspace"])
def test_T_bar_is_the_explicit_projection_after_every_step(variant, case):
    ranks, _ = _grow_checking_T_bar(*case(), variant)
    if case is _partial_deflation_case:
        assert ranks[0] > 0
    assert ranks[-1] == 0


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_state_is_read_only(variant):
    A = gen_convdiff(6)
    op = wrap_sparse(A)
    dec = _extend_times(KrylovDecomposition(op, gen_random_block(36, 2, seed=3),
                                            variant=variant), op, 2)
    for view in (dec.basis, dec.inner_basis, dec.T_bar, dec.T, dec.coupling):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    V, T_bar = dec.basis, dec.T_bar
    dec.extend(op)
    np.testing.assert_array_equal(dec.basis[:, :V.shape[1]], V)
    np.testing.assert_array_equal(dec.T_bar[:T_bar.shape[0], :T_bar.shape[1]],
                                  T_bar)


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_one_operator_action_per_extend(variant):
    # one apply on the newest block and one apply_inverse on its inverse
    # columns on the extended variant only; once a block has dropped a
    # direction, one more apply on each older inner block. The start block
    # [b, A b] drops one on the extended variant, and the block variant's
    # first extend drops one
    A = gen_convdiff(6)
    base = wrap_sparse(A)
    calls = []
    op = LinearOperator(
        base.dim,
        forward=lambda V: calls.append(("apply", V.copy())) or base.apply(V),
        inverse=lambda V: calls.append(("inverse", V.copy())) or base.apply_inverse(V))
    B = gen_random_block(36, 2, seed=4)
    for drops, start in ((False, B), (True, np.hstack([B[:, :1], A @ B[:, :1]]))):
        calls.clear()
        dec = KrylovDecomposition(op, start, variant=variant)
        assert [kind for kind, _ in calls] == (["inverse"] if variant == "extended" else [])
        for _ in range(3):
            width = dec.widths[-1]
            newest = dec.basis[:, -width:]
            n_inv = width // 2 if variant == "extended" else 0
            older = dec.widths[:dec.m] if drops else []
            calls.clear()
            try:
                dec.extend(op)
            except KrylovBreakdown:
                assert drops
            assert [kind for kind, _ in calls] == (["apply"] + ["inverse"] * (n_inv > 0)
                                                   + ["apply"] * len(older))
            np.testing.assert_array_equal(calls[0][1], newest)
            if n_inv:
                np.testing.assert_array_equal(calls[1][1], newest[:, width - n_inv:])
            j = 0
            for w, (_, V) in zip(older, calls[len(calls) - len(older):]):
                np.testing.assert_array_equal(V, dec.basis[:, j:j + w])
                j += w
            ref = dec.basis.T @ A @ dec.inner_basis
            assert frob_norm(dec.T_bar - ref) <= 1e-12 * frob_norm(ref)
        dropped = dec.widths[0] == 3 if variant == "extended" else dec.widths[1] == 1
        assert dropped == drops


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_T_bar_is_block_upper_hessenberg_until_a_drop(variant):
    # no block of this convdiff case drops a direction, so every new
    # block's rows against the older inner blocks are exactly zero
    A = gen_convdiff(10)
    op = wrap_sparse(A)
    dec = _extend_times(KrylovDecomposition(op, gen_random_block(100, 2, seed=7),
                                            variant=variant), op, 6)
    assert dec.widths == [dec.widths[0]] * 7
    ends = np.cumsum(dec.widths)
    for i in range(2, dec.m + 1):
        assert not dec.T_bar[ends[i - 1]:ends[i], :ends[i - 2]].any()
    ref = dec.basis.T @ A @ dec.inner_basis
    assert frob_norm(dec.T_bar - ref) <= 1e-12 * frob_norm(ref)


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_earlier_steps_keep_their_state_across_a_regrowth(variant):
    # the basis buffer starts at the start block's width and doubles: every
    # step's views and shallow copy keep their values, read-only, across
    # the regrowths and the in-place writes past them
    op = wrap_sparse(gen_convdiff(8))
    dec = KrylovDecomposition(op, gen_random_block(64, 2, seed=5), variant=variant)
    snapshots = []
    capacities = [dec._buf.shape[1]]
    for _ in range(9):
        dec.extend(op)
        if dec._buf.shape[1] != capacities[-1]:
            capacities.append(dec._buf.shape[1])
        state = copy.copy(dec)
        views = (state.basis, state.inner_basis, state.T_bar, state.coupling)
        snapshots.append((state, views, [a.copy() for a in views]))
    assert len(capacities) >= 3
    assert all(b >= 2 * a for a, b in zip(capacities, capacities[1:]))
    for state, views, values in snapshots:
        now = (state.basis, state.inner_basis, state.T_bar, state.coupling)
        for view, current, value in zip(views, now, values):
            np.testing.assert_array_equal(view, value)
            np.testing.assert_array_equal(current, value)
            for a in (view, current):
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0
    # a shallow copy extended by another operator writes no column of the
    # original's, also where the buffer they share has room past the copy
    state, _, (V, *_) = snapshots[3]
    assert state._buf is snapshots[4][0]._buf
    other = wrap_sparse(gen_convdiff(8).T)
    state.extend(other)
    assert not np.allclose(state.basis, snapshots[4][2][0])
    np.testing.assert_array_equal(state.basis[:, :V.shape[1]], V)
    for later, _, (V_later, *_) in snapshots[4:]:
        np.testing.assert_array_equal(later.basis, V_later)
    np.testing.assert_array_equal(dec.basis[:, :V_later.shape[1]], V_later)


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_krylov_steps_write_one_buffer_allocated_for_the_step_budget(variant):
    # with the step budget m_max the basis buffer is allocated once, for
    # (m_max + 1) blocks of the start width, and the walk never copies
    # it; every step's views and shallow copy keep their values, read-only
    op = wrap_sparse(gen_convdiff(8))
    config = SolverConfig(m_max=9, krylov_variant=variant)
    steps = []
    for step in krylov_steps(op, gen_random_block(64, 2, seed=5),
                             np.zeros((64, 0)), config):
        dec = step.decomposition
        views = (dec.inner_basis, dec.coupling, dec.basis, dec.T_bar)
        steps.append((step, views, [a.copy() for a in views]))
    assert len(steps) == 9
    first = steps[0][0].decomposition
    assert first._buf.shape == (64, first.widths[0] * 10)
    assert all(step.decomposition._buf is first._buf for step, _, _ in steps)
    for step, views, values in steps:
        dec = step.decomposition
        now = (dec.inner_basis, dec.coupling, dec.basis, dec.T_bar)
        for view, current, value in zip(views, now, values):
            np.testing.assert_array_equal(view, value)
            np.testing.assert_array_equal(current, value)
            for a in (view, current):
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0


def test_step_budget_capacity_is_at_most_n():
    op = wrap_sparse(gen_convdiff(4))
    dec = KrylovDecomposition(op, gen_random_block(16, 2, seed=5), max_steps=30)
    assert dec._buf.shape == (16, 16)
    while dec.breakdown_rank != 0:
        try:
            dec.extend(op)
        except KrylovBreakdown:
            pass
    assert dec.basis.shape[1] == 16 and dec.basis.base is dec._buf


def _smaps_kb(array):
    """Rss and AnonHugePages in kB, summed over the mappings of
    /proc/self/smaps that overlap the memory of `array`."""
    lo = array.__array_interface__["data"][0]
    hi = lo + array.nbytes
    try:
        with open("/proc/self/smaps") as fh:
            lines = fh.readlines()
    except OSError:
        pytest.skip("/proc/self/smaps cannot be read")
    totals = {"Rss": 0, "AnonHugePages": 0}
    overlaps = False
    for line in lines:
        key, *rest = line.split()
        if not key.endswith(":"):
            start, end = (int(a, 16) for a in key.split("-"))
            overlaps = start < hi and end > lo
        elif overlaps and key[:-1] in totals:
            totals[key[:-1]] += int(rest[0])
    return totals


def test_basis_buffer_is_resident_in_small_pages_as_columns_are_written():
    # the n = 6400 buffer is allocated for 41 blocks (164 columns, 8.4 MB):
    # after 20 extends only the 84 written columns are resident, in 4 KiB
    # pages, never in 2 MiB ones ahead of the writes. The kernel can merge
    # the buffer's mapping only with another basis buffer's, so earlier
    # tests' are freed first.
    gc.collect()
    op = wrap_sparse(gen_convdiff(80))
    dec = _extend_times(KrylovDecomposition(op, gen_random_block(6400, 2, seed=7),
                                            max_steps=40), op, 20)
    k = dec.basis.shape[1]
    assert (k, dec._buf.shape[1]) == (84, 164)
    kb = _smaps_kb(dec._buf)
    assert kb["AnonHugePages"] == 0
    assert kb["Rss"] <= (dec.basis.nbytes + 4096 * k) // 1024


def test_basis_view_outlives_its_decomposition():
    op = wrap_sparse(gen_convdiff(8))
    dec = _extend_times(KrylovDecomposition(op, gen_random_block(64, 2, seed=5),
                                            max_steps=4), op, 3)
    V = dec.basis
    value = V.copy()
    del dec
    gc.collect()
    np.testing.assert_array_equal(V, value)
    with pytest.raises(ValueError):
        V[0, 0] = 1.0


def test_T_bar_keeps_the_older_rows_after_a_coarse_deflation(monkeypatch):
    # a deflation threshold that drops a direction well above rounding
    # level leaves A V_inner outside the block Hessenberg pattern, so the
    # rows of a new block against the older blocks are not zero and must
    # be kept
    rng = np.random.default_rng(2)
    A = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
    b, g, h = (rng.standard_normal((20, 1)) for _ in range(3))
    B = np.hstack([b, A @ b + 1e-8 * g, h])
    monkeypatch.setattr(krylov, "_DEFLATION_TOL", 2e-9)
    _, below = _grow_checking_T_bar(A, B, "extended")
    assert below > 1e-10


@pytest.mark.parametrize("problem", ["convdiff", "heat_fem"])
def test_extended_basis_stays_orthonormal_at_n_6400(problem):
    # loss of orthogonality of the 19-step extended basis, trailing block
    # included (k = 80), on both problem families at n = 6400: about 5e-15
    # with two block CGS passes per extend; fewer passes must keep it
    B = gen_random_block(6400, 2, seed=7)
    if problem == "convdiff":
        op = wrap_sparse(gen_convdiff(80))
    else:
        op, build_b = gen_heat_fem(6400, 0.01, 0.05)
        B = build_b(B)
    V = _extend_times(KrylovDecomposition(op, B), op, 19).basis
    assert V.shape[1] == 80
    assert frob_norm(np.eye(80) - V.T @ V) <= 1e-13


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_extend_holds_at_most_four_and_a_half_blocks(variant):
    # the candidate is orthogonalized in place and dropped once the new
    # block is formed: one extend at n = 10,000 peaks at 4 n x w blocks
    # (6 on the extended variant and 5 on the block variant with a fresh
    # array per Gram-Schmidt pass)
    import tracemalloc

    n = 10_000
    op = wrap_sparse(gen_convdiff(100))
    dec = _extend_times(KrylovDecomposition(op, gen_random_block(n, 2, seed=7),
                                            variant=variant, max_steps=6), op, 3)
    block = n * dec.widths[-1] * 8
    tracemalloc.start()
    try:
        dec.extend(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * block


@pytest.mark.parametrize("variant", ["block", "extended"])
def test_extend_keeps_the_forward_action_it_projects(variant):
    # T_bar's new columns read A V_newest after the candidate drawn from it
    # has been orthogonalized: the block variant's candidate is all of it,
    # so it must be orthogonalized in a copy
    base = wrap_sparse(gen_convdiff(8))
    applied = []
    op = LinearOperator(base.dim,
                        forward=lambda V: applied.append(base.apply(V)) or applied[-1],
                        inverse=base.apply_inverse)
    dec = KrylovDecomposition(op, gen_random_block(64, 2, seed=6), variant=variant)
    for _ in range(3):
        k_in = dec.inner_width
        applied.clear()
        dec.extend(op)
        (a_newest,) = applied
        np.testing.assert_array_equal(a_newest, base.apply(dec.basis[:, k_in:dec.inner_width]))
        np.testing.assert_array_equal(dec.T_bar[:, k_in:], dec.basis.T @ a_newest)
