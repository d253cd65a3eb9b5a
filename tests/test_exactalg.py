"""Exact linear algebra: oracles by brute-force enumeration."""

import itertools

import numpy as np
import pytest

from treelab import exactalg
from treelab.exactalg import (
    RingSpec,
    RowSolver,
    howell_array,
    image_and_preimage,
    kernel_array,
    preimage_kernel,
    span_sum,
    split_test,
)
from treelab.grouprep import QuotientPresentation

from oracles import howell_array_sparse


def all_vectors(modulus, n):
    return (np.array(v, dtype=np.int64) for v in itertools.product(range(modulus), repeat=n))


def span_by_enumeration(ring, rows):
    """The row span as a frozen set of tuples, by enumerating coefficients."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    out = set()
    for coeffs in itertools.product(range(ring.modulus), repeat=rows.shape[0]):
        v = (np.array(coeffs, dtype=np.int64) @ rows) % ring.modulus
        out.add(tuple(int(x) for x in v))
    return out


def test_ringspec_validation():
    with pytest.raises(ValueError):
        RingSpec(4, 1)
    with pytest.raises(ValueError):
        RingSpec(3, 0)
    with pytest.raises(ValueError):
        RingSpec(7, 4)  # e above MAX_E
    assert RingSpec(3, 1).is_field
    assert not RingSpec(3, 2).is_field
    assert RingSpec(2, 3).modulus == 8


def test_howell_identity_mod3():
    ring = RingSpec(3, 1)
    eye = np.eye(3, dtype=np.int64)
    cb = howell_array(ring, eye)
    assert np.array_equal(cb.mat, eye)


def test_howell_zero_matrix():
    ring = RingSpec(3, 1)
    cb = howell_array(ring, np.zeros((2, 3), dtype=np.int64))
    assert cb.nrows == 0


def test_howell_mod4_span_has_four_elements():
    # oracle: enumerate all 16 coefficient combinations over Z/4
    ring = RingSpec(2, 2)
    rows = [[2, 0], [0, 2]]
    oracle = span_by_enumeration(ring, rows)
    assert len(oracle) == 4
    cb = howell_array(ring, rows)
    assert 2 ** cb.span_log_size() == 4
    member = {tuple(int(x) for x in v) for v in all_vectors(4, 2) if cb.contains(v)}
    assert member == oracle


@pytest.mark.parametrize("ring", [RingSpec(2, 1), RingSpec(3, 1), RingSpec(2, 2), RingSpec(3, 2)])
def test_howell_matches_enumerated_span(ring):
    rng = np.random.default_rng(ring.modulus)
    for _ in range(25):
        rows = rng.integers(0, ring.modulus, size=(3, 3))
        cb = howell_array(ring, rows)
        oracle = span_by_enumeration(ring, rows)
        member = {tuple(int(x) for x in v) for v in all_vectors(ring.modulus, 3) if cb.contains(v)}
        assert member == oracle
        assert ring.p ** cb.span_log_size() == len(oracle)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (7, 2)])
def test_howell_idempotent_and_span_invariant(p, e):
    ring = RingSpec(p, e)
    rng = np.random.default_rng(100 * p + e)
    for _ in range(30):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = rng.integers(0, ring.modulus, size=(m, n))
        H = howell_array(ring, A)
        again = howell_array(ring, H.mat)
        assert H == again
        # span invariance by mutual row membership
        assert H.contains_rows(A)
        assert howell_array(ring, np.concatenate([A, H.mat])) == H
        # canonical under row permutation
        perm = rng.permutation(m)
        assert howell_array(ring, A[perm]) == H


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_sparse_path_identical(p, e):
    ring = RingSpec(p, e)
    rng = np.random.default_rng(7 * p + e)
    for _ in range(40):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rng.integers(0, ring.modulus, size=(m, n))
        assert howell_array(ring, A) == howell_array_sparse(ring, A)


def test_kernel_invertible_is_trivial():
    ring = RingSpec(5, 1)
    assert kernel_array(ring, [[1, 2], [3, 4]]).nrows == 0


def test_kernel_zero_map_is_full():
    ring = RingSpec(3, 1)
    k = kernel_array(ring, np.zeros((2, 2), dtype=np.int64))
    assert k.nrows == 2
    assert np.array_equal(k.mat, np.eye(2, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kernel_multiplication_by_p(p):
    # oracle: enumerate all p^2 residues x with x*p = 0 mod p^2
    ring = RingSpec(p, 2)
    oracle = {x for x in range(p * p) if (x * p) % (p * p) == 0}
    assert oracle == set(range(0, p * p, p))
    k = kernel_array(ring, [[p]])
    assert k.nrows == 1
    assert k.mat[0, 0] == p
    member = {x for x in range(p * p) if k.contains(np.array([x]))}
    assert member == oracle


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_kernel_vs_enumeration(p, e):
    ring = RingSpec(p, e)
    rng = np.random.default_rng(13 * p + e)
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.integers(0, ring.modulus, size=(m, n))
        K = kernel_array(ring, A)
        oracle = {
            tuple(int(y) for y in v)
            for v in all_vectors(ring.modulus, m)
            if not np.any((v @ A) % ring.modulus)
        }
        member = {
            tuple(int(y) for y in v) for v in all_vectors(ring.modulus, m) if K.contains(v)
        }
        assert member == oracle


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)])
def test_row_solver_kernel_is_kernel_array(p, e):
    # both read the one split of [A | I], so the equality pins only that
    # they read it alike; the kernel itself is checked against its
    # equation and |ker A| * |im A| = N^m at every e
    ring = RingSpec(p, e)
    N = ring.modulus
    rng = np.random.default_rng(100 * p + e)
    mats = [np.zeros((3, 4), dtype=np.int64), np.eye(4, dtype=np.int64), np.zeros((0, 3), dtype=np.int64)]
    for _ in range(12):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        k = int(rng.integers(1, min(m, n) + 1))
        mats.append(rng.integers(0, N, size=(m, n)))
        mats.append(rng.integers(0, N, size=(m, k)) @ rng.integers(0, N, size=(k, n)) % N)
    for A in mats:
        K = RowSolver(ring, A).kernel
        assert K == kernel_array(ring, A)
        assert not ((K.mat @ A) % N).any()
        assert K.span_log_size() + howell_array(ring, A).span_log_size() == e * A.shape[0]


def test_rank_law_field_case():
    ring = RingSpec(5, 1)
    rng = np.random.default_rng(2)
    for _ in range(30):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rng.integers(0, 5, size=(m, n))
        assert kernel_array(ring, A).nrows + howell_array(ring, A).nrows == m


def test_solve_identity():
    ring = RingSpec(3, 2)
    b = np.array([4, 7])
    assert np.array_equal(RowSolver(ring, np.eye(2, dtype=np.int64)).solve(b), b % 9)


def test_solve_zero_map_no_solution():
    ring = RingSpec(3, 1)
    assert RowSolver(ring, np.zeros((2, 2), dtype=np.int64)).solve([1, 0]) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_p_times_x_deterministic(p):
    # oracle: brute-force all residues; the deterministic answer is x = 1
    ring = RingSpec(p, 2)
    sols = [x for x in range(p * p) if (x * p) % (p * p) == p]
    assert 1 in sols
    x = RowSolver(ring, [[p]]).solve([p])
    assert x is not None and x[0] == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_solve_sound_and_complete(p, e):
    ring = RingSpec(p, e)
    N = ring.modulus
    rng = np.random.default_rng(17 * p + e)
    for _ in range(25):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A = rng.integers(0, N, size=(m, n))
        b = rng.integers(0, N, size=n)
        got = RowSolver(ring, A).solve(b)
        brute = [
            v for v in all_vectors(N, m) if np.array_equal((v @ A) % N, b % N)
        ]
        if got is None:
            assert not brute
        else:
            assert np.array_equal((got @ A) % N, b % N)
            assert brute


def test_row_solver_matches_one_shot():
    ring = RingSpec(3, 2)
    rng = np.random.default_rng(0)
    A = rng.integers(0, 9, size=(4, 5))
    solver = RowSolver(ring, A)
    for _ in range(20):
        x0 = rng.integers(0, 9, size=4)
        b = (x0 @ A) % 9
        x = solver.solve(b)
        assert x is not None and np.array_equal((x @ A) % 9, b)
        assert np.array_equal(x, RowSolver(ring, A).solve(b))


def test_preimage_kernel_enumerated():
    ring = RingSpec(2, 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        M = rng.integers(0, 4, size=(3, 3))
        R = howell_array(ring, rng.integers(0, 4, size=(1, 3)))
        pre = preimage_kernel(ring, [M], R)
        oracle = {
            tuple(int(y) for y in v)
            for v in all_vectors(4, 3)
            if R.contains((v @ M) % 4)
        }
        member = {tuple(int(y) for y in v) for v in all_vectors(4, 3) if pre.contains(v)}
        assert member == oracle


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_split_image_and_preimage_against_enumeration(p, e):
    # the image part is the Howell form of span([M_1 | M_2]) + diag(rel, rel),
    # bit for bit the one span_sum eliminates; the preimage part is
    # {x : x M_i in rel for every i}, checked against every x
    ring = RingSpec(p, e)
    N = ring.modulus
    rng = np.random.default_rng(31 * p + e)
    for trial in range(12):
        m, w, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1 + trial % 2
        blocks = [rng.integers(0, N, size=(m, w)) * rng.integers(0, 2, size=(m, w)) for _ in range(k)]
        rel = None if trial % 3 == 0 else howell_array(ring, rng.integers(0, N, size=(int(rng.integers(1, 3)), w)))
        image, pre = image_and_preimage(ring, blocks, rel)
        wide = np.concatenate(blocks, axis=1)
        parts = [wide] if rel is None else [wide, np.kron(np.eye(k, dtype=np.int64), rel.mat)]
        assert image == span_sum(ring, parts)
        assert pre == preimage_kernel(ring, blocks, rel)
        if rel is None:
            assert pre == kernel_array(ring, wide)
        inside = rel.contains if rel is not None else (lambda v: not v.any())
        oracle = {tuple(map(int, v)) for v in all_vectors(N, m) if all(inside((v @ B) % N) for B in blocks)}
        assert {tuple(map(int, v)) for v in all_vectors(N, m) if pre.contains(v)} == oracle


@pytest.mark.parametrize("e", [1, 3])
def test_each_span_question_eliminates_once(monkeypatch, e):
    # kernel_array, preimage_kernel (with and without relations) and
    # map_verdicts each read one Howell form; none eliminates its answer again
    ring = RingSpec(3, e)
    N = ring.modulus
    calls = []
    real = exactalg._howell

    def spy(ring, A):
        calls.append(A.shape)
        return real(ring, A)

    monkeypatch.setattr(exactalg, "_howell", spy)
    A = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 3], [1, 0, 1]], dtype=np.int64)
    rel = howell_array(ring, [[0, 1, 1]])
    quot = QuotientPresentation(ring, 3, rel)
    source_rel = howell_array(ring, [[1, 1, 0, 0]])
    for run in (
        lambda: kernel_array(ring, A),
        lambda: preimage_kernel(ring, [A, (2 * A) % N]),
        lambda: preimage_kernel(ring, [A, (2 * A) % N], rel),
        lambda: quot.map_verdicts(A),
        lambda: quot.map_verdicts(A, source_rel),
    ):
        calls.clear()
        run()
        assert len(calls) == 1, calls


def random_rel(ring, rng, n, kind):
    """An empty, partial or full relation span in n columns."""
    if kind == "empty":
        return howell_array(ring, np.zeros((0, n), dtype=np.int64))
    if kind == "full":
        return howell_array(ring, np.eye(n, dtype=np.int64))
    rows = rng.integers(0, ring.modulus, size=(int(rng.integers(1, n + 1)), n))
    return howell_array(ring, rows * (rng.random(n) < 0.7))


def random_rows(ring, rng, m, n):
    """Sparse rows, low rank a third of the time."""
    if m and rng.random() < 0.3:
        return rng.integers(0, ring.modulus, size=(m, 2)) @ rng.integers(0, ring.modulus, size=(2, n))
    return rng.integers(0, ring.modulus, size=(m, n)) * (rng.random((m, n)) < rng.random())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", ["empty", "partial", "full"])
def test_section_route_against_split(p, kind):
    # at e = 1 image_and_preimage asks at the section columns of rel; the
    # split of [[A | I], [diag(rel, ...) | 0]] is the oracle, arrays and pivots
    ring = RingSpec(p, 1)
    rng = np.random.default_rng(100 * p + len(kind))
    for _ in range(40):
        n, m, k = int(rng.integers(1, 8)), int(rng.integers(0, 8)), int(rng.integers(1, 3))
        rel = random_rel(ring, rng, n, kind)
        blocks = [random_rows(ring, rng, m, n) for _ in range(k)]
        image, pre = image_and_preimage(ring, blocks, rel)
        wide = np.concatenate([ring.reduce(B) for B in blocks], axis=1)
        oracle_image, _, oracle_pre = exactalg._split(ring, wide, np.kron(np.eye(k, dtype=np.int64), rel.mat))
        for got, want in ((image, oracle_image), (pre, oracle_pre)):
            assert got.ncols == want.ncols and got.pivots == want.pivots
            assert got.mat.shape == want.mat.shape and np.array_equal(got.mat, want.mat)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_extend_against_howell_of_the_concatenation(p, e):
    ring = RingSpec(p, e)
    N = ring.modulus
    rng = np.random.default_rng(7 * p + e)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        span = howell_array(ring, random_rows(ring, rng, int(rng.integers(0, 6)), n))
        X = random_rows(ring, rng, int(rng.integers(0, 5)), n) - N * rng.integers(0, 2, size=(1, n))
        grown = span.extend(X)
        oracle = howell_array(ring, np.concatenate([span.mat, X]))
        assert grown.pivots == oracle.pivots and np.array_equal(grown.mat, oracle.mat)
        if not span.reduce_rows(X).any():
            assert grown is span


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (2, 3)])
def test_membership_against_the_residue(p, e):
    # rows of the span, its negatives and rows outside it, unreduced
    ring = RingSpec(p, e)
    rng = np.random.default_rng(11 * p + e)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        span = howell_array(ring, random_rows(ring, rng, int(rng.integers(0, 6)), n))
        inside = rng.integers(-9, 9, size=(3, span.nrows)) @ span.mat
        outside = random_rows(ring, rng, 3, n)
        for X in (inside, -inside, outside, -outside, np.concatenate([inside, outside])):
            assert span.contains_rows(X) == (not span.reduce_rows(X).any())
            assert [span.contains(x) for x in X] == [not span.reduce(x).any() for x in X]
        assert span.contains_rows(inside) and span.contains_rows(-inside)


def test_split_identity_gives_identity_section():
    ring = RingSpec(3, 1)
    s = split_test(ring, np.eye(3, dtype=np.int64))
    assert s is not None
    assert np.array_equal(s, np.eye(3, dtype=np.int64))


def test_split_projection_gives_coordinate_section():
    ring = RingSpec(3, 2)
    s = split_test(ring, [[1], [0]])
    assert s is not None
    assert np.array_equal((s @ np.array([[1], [0]])) % 9, np.eye(1, dtype=np.int64))


def test_split_rejects_non_surjection():
    ring = RingSpec(3, 2)
    with pytest.raises(ValueError, match="not a surjection"):
        split_test(ring, [[3]])


def test_split_respects_constraints():
    # intertwining doubling on the target with the identity on the source
    # forces s = 0, which cannot be a section; a compatible diagonal pair
    # admits one, and the returned matrix satisfies the identities exactly
    ring = RingSpec(3, 1)
    P = np.array([[1], [0]])
    ident1 = np.eye(1, dtype=np.int64)
    double = np.array([[2]])
    assert split_test(ring, P, [(double, np.eye(2, dtype=np.int64))]) is None
    diag = np.array([[1, 0], [0, 2]])
    s = split_test(ring, P, [(ident1, diag)])
    assert s is not None
    assert np.array_equal((s @ P) % 3, np.eye(1, dtype=np.int64))
    assert np.array_equal((ident1 @ s) % 3, (s @ diag) % 3)
