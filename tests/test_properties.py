"""Differential property tests of the exact kernels over Z/p^e.

Random matrices for p in {2, 3, 5} and e in {1, 2, 3}: the dense Howell
form against the independent sparse one, the kernel and the row solver
against their defining equations, the batched row solve against the
one-row solve, the batched solve and the shared reduction
`CanonicalBasis.quotients` against the pivot-by-pivot solve oracle at
each e, the batched reduction modulo a span against the full
pivot product (e = 1) and a pivot-by-pivot reduction, and the shared
span closure against a naive fixpoint loop kept here as the oracle (also
on the Hecke subalgebra closure and on a round that only lowers a pivot
value, with every elimination input held to (1 + len(ops)) * ncols rows).
Sparse and tree-shaped block matrices up to 20 x 30, with a random share
of their entries multiplied by p, exercise the elimination's
pivot-support update and, for e > 1, its non-unit pivots,
least-valuation pivot choice and annihilator rows, which the small dense
cases rarely reach.  Matrices with zero columns, and with columns that
are multiples of earlier ones and so become zero during elimination,
exercise its skipping of zero columns.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treelab import exactalg  # noqa: E402
from treelab.exactalg import (  # noqa: E402
    RingSpec,
    RowSolver,
    howell_array,
    kernel_array,
    span_closure,
)
from treelab.hecke import build_hecke  # noqa: E402

from oracles import howell_array_sparse, solve_rows_oracle  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None)

rings = st.builds(RingSpec, st.sampled_from([2, 3, 5]), st.integers(1, 3))


def matrices(ring, rows, cols):
    return st.lists(
        st.lists(st.integers(0, ring.modulus - 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda x: np.array(x, dtype=np.int64).reshape(rows, cols))


@st.composite
def ring_and_matrix(draw, max_rows=6, max_cols=6):
    ring = draw(rings)
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    return ring, draw(matrices(ring, rows, cols))


def p_multiples(rng, ring, A):
    """Multiply a random share of the entries of A by p."""
    return A * np.where(rng.random(A.shape) < rng.random(), ring.p, 1) % ring.modulus


@st.composite
def sparse_ring_matrix(draw):
    """A Z/p^e matrix of up to 20 x 30 with about 85% zeros."""
    ring = draw(rings)
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(1, ring.modulus, size=(rows, cols)) * (rng.random((rows, cols)) < 0.15)
    return ring, p_multiples(rng, ring, A)


@st.composite
def block_ring_matrix(draw):
    """Block row i meets its own column block and one earlier one, as an edge meets its endpoints."""
    ring = draw(rings)
    k, r, c = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((k * r, k * c), dtype=np.int64)
    for i in range(k):
        A[i * r : (i + 1) * r, i * c : (i + 1) * c] = rng.integers(0, ring.modulus, size=(r, c))
        if i:
            j = int(rng.integers(0, i))
            A[i * r : (i + 1) * r, j * c : (j + 1) * c] = rng.integers(0, ring.modulus, size=(r, c))
    return ring, p_multiples(rng, ring, A)


sparse_cases = st.one_of(sparse_ring_matrix(), block_ring_matrix())


@st.composite
def zero_column_matrix(draw):
    """A Z/p^e matrix of up to 12 x 20 with about half its columns zero, between nonzero ones."""
    ring = draw(rings)
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = p_multiples(rng, ring, rng.integers(0, ring.modulus, size=(rows, cols)))
    A[:, rng.random(cols) < 0.5] = 0
    return ring, A


@st.composite
def cleared_column_matrix(draw):
    """Columns that elimination clears: about half are multiples of an earlier column,
    taken after a random share of the entries is multiplied by p."""
    ring = draw(rings)
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = p_multiples(rng, ring, rng.integers(0, ring.modulus, size=(rows, cols)))
    for j in range(1, cols):
        if rng.random() < 0.5:
            A[:, j] = A[:, rng.integers(0, j)] * rng.integers(0, ring.modulus) % ring.modulus
    return ring, A


zero_column_cases = st.one_of(zero_column_matrix(), cleared_column_matrix())


def check_howell(ring, A):
    assert howell_array(ring, A) == howell_array_sparse(ring, A)


def check_kernel(ring, A):
    K = kernel_array(ring, A)
    assert howell_array(ring, K.mat) == K
    assert not np.any((K.mat @ A) % ring.modulus)
    # |ker| * |image| = |source| pins the kernel as the whole annihilator
    assert K.span_log_size() + howell_array(ring, A).span_log_size() == ring.e * A.shape[0]


def check_row_solver(ring, A, data):
    N = ring.modulus
    solver = RowSolver(ring, A)
    x0 = data.draw(matrices(ring, 1, A.shape[0]))[0]
    b = (x0 @ A) % N
    x = solver.solve(b)
    assert x is not None and np.array_equal((x @ A) % N, b)
    other = data.draw(matrices(ring, 1, A.shape[1]))[0]
    y = solver.solve(other)
    if howell_array(ring, A).contains(other):
        assert y is not None and np.array_equal((y @ A) % N, other)
    else:
        assert y is None
    # the batched solve is the one-row solve on every row, unsolvable rows included
    rows = np.stack([b, other, (b + other) % N])
    X, ok = solver.solve_rows(rows)
    for row, xr, okr in zip(rows, X, ok):
        y = solver.solve(row)
        assert okr == (y is not None)
        assert np.array_equal(xr, y if okr else np.zeros(A.shape[0], dtype=np.int64))


@SETTINGS
@given(ring_and_matrix())
def test_dense_howell_matches_sparse(case):
    check_howell(*case)


@SETTINGS
@given(ring_and_matrix())
def test_kernel_is_the_left_annihilator(case):
    check_kernel(*case)


@SETTINGS
@given(ring_and_matrix(), st.data())
def test_row_solver_solves_exactly_the_span(case, data):
    check_row_solver(*case, data)


@SETTINGS
@given(sparse_cases)
def test_sparse_field_howell_matches_sparse_oracle(case):
    check_howell(*case)


@SETTINGS
@given(sparse_cases)
def test_sparse_field_kernel_is_the_left_annihilator(case):
    check_kernel(*case)


@SETTINGS
@given(sparse_cases, st.data())
def test_sparse_field_row_solver_solves_exactly_the_span(case, data):
    check_row_solver(*case, data)


@SETTINGS
@given(zero_column_cases)
def test_zero_column_howell_matches_sparse_oracle(case):
    check_howell(*case)


@SETTINGS
@given(zero_column_cases)
def test_zero_column_kernel_is_the_left_annihilator(case):
    check_kernel(*case)


@SETTINGS
@given(zero_column_cases, st.data())
def test_zero_column_row_solver_solves_exactly_the_span(case, data):
    check_row_solver(*case, data)


@SETTINGS
@pytest.mark.parametrize("e", [1, 2, 3])
@given(data=st.data())
def test_solve_rows_and_quotients_match_the_pivot_oracle(e, data):
    cases = st.one_of(ring_and_matrix(), sparse_cases, zero_column_cases)
    ring, A = data.draw(cases.filter(lambda case: case[0].e == e))
    N = ring.modulus
    spanned = (data.draw(matrices(ring, 2, A.shape[0])) @ A) % N
    X = np.concatenate([data.draw(matrices(ring, 3, A.shape[1])), spanned])
    solver = RowSolver(ring, A)
    got, ok = solver.solve_rows(X)
    want, want_ok = solve_rows_oracle(solver, X)
    assert np.array_equal(got, want) and np.array_equal(ok, want_ok)
    H = howell_array(ring, A)
    residues, Q = H.quotients(X)
    assert np.array_equal(residues, H.reduce_rows(X))
    assert np.array_equal((residues + Q @ H.mat) % N, X)


def sequential_residue(H, x):
    """One row reduced pivot by pivot in Python integers, as the Howell order prescribes."""
    N = H.ring.modulus
    x = [int(v) % N for v in x]
    for row, (c, g) in zip(H.mat, H.pivots):
        q = x[c] // g
        x = [(v - q * int(r)) % N for v, r in zip(x, row)]
    return x


@SETTINGS
@given(sparse_cases, st.integers(0, 2**32 - 1))
def test_reduce_rows_matches_the_full_pivot_product(case, seed):
    ring, A = case
    N = ring.modulus
    H = howell_array(ring, A)
    rng = np.random.default_rng(seed)
    m, n = A.shape
    dense = rng.integers(0, N, size=(3, n))
    few = np.zeros_like(dense)  # rows on a few columns meet only a few pivot rows
    cols = rng.choice(n, size=min(n, 2), replace=False)
    few[:, cols] = dense[:, cols]
    spanned = (rng.integers(0, N, size=(2, m)) @ A) % N
    for X in (dense, few, spanned, np.concatenate([dense, few, spanned])):
        got = H.reduce_rows(X)
        if ring.is_field:
            piv = [c for c, _ in H.pivots]
            assert np.array_equal(got, (X - X[:, piv] @ H.mat) % N)
        assert [list(r) for r in got] == [sequential_residue(H, x) for x in X]
        assert H.contains_rows((X - got) % N)
    assert not H.reduce_rows(spanned).any()


def naive_closure(ring, seed, ops):
    """Apply every operator to every generator found so far until nothing new appears."""
    N = ring.modulus
    gens = [row % N for row in seed]
    i = 0
    while i < len(gens):
        for op in ops:
            image = (gens[i] @ op) % N
            if not howell_array_sparse(ring, np.array(gens)).contains(image):
                gens.append(image)
        i += 1
    return howell_array_sparse(ring, np.array(gens))


@st.composite
def closure_case(draw):
    ring = draw(rings)
    n = draw(st.integers(1, 5))
    seed = draw(matrices(ring, draw(st.integers(1, 3)), n))
    ops = [draw(matrices(ring, n, n)) for _ in range(draw(st.integers(0, 3)))]
    return ring, seed, ops


@SETTINGS
@given(closure_case())
def test_span_closure_matches_naive_fixpoint(case):
    ring, seed, ops = case
    span = span_closure(ring, seed, ops)
    assert span == naive_closure(ring, seed, ops)
    for op in ops:
        assert span.contains_rows((span.mat @ op) % ring.modulus)


def closure_with_spied_eliminations(monkeypatch, ring, seed, ops):
    """span_closure with the shape of every input to the one elimination recorded."""
    shapes = []
    real = exactalg._howell

    def spy(ring, A):
        shapes.append(np.shape(A))
        return real(ring, A)

    monkeypatch.setattr(exactalg, "_howell", spy)
    span = span_closure(ring, seed, ops)
    monkeypatch.undo()
    assert span == naive_closure(ring, seed, ops)
    # one Howell span plus the residues of a frontier of at most ncols rows
    assert max(m for m, _ in shapes) <= (1 + len(ops)) * span.ncols
    return span, shapes


def test_span_closure_frontier_on_the_hecke_subalgebra(monkeypatch):
    alg = build_hecke(5)
    unit = np.zeros((1, alg.dim), dtype=np.int64)
    unit[0, alg.unit] = 1
    ops = [m for g in alg.gens for m in (alg.left_regular(g), alg.right_regular(g))]
    assert len(ops) == 6
    span, _ = closure_with_spied_eliminations(monkeypatch, alg.ring, unit, ops)
    assert span.span_log_size() == alg.dim


def test_span_closure_frontier_when_a_round_only_lowers_pivot_values(monkeypatch):
    ring = RingSpec(3, 2)
    seed = np.array([[3, 1, 0]])
    op = np.array([[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    assert howell_array(ring, seed).pivots == ((0, 3), (1, 3))
    span, shapes = closure_with_spied_eliminations(monkeypatch, ring, seed, [op])
    # round 1 adds (1, 0, 3) and lowers both pivot values to 1 without a new pivot
    # column; only its new pivot rows map onto the third column, in round 2
    assert span.pivots == ((0, 1), (1, 1), (2, 1))
    assert len(shapes) == 3  # the seed and two growing rounds; the last round has zero residues
