"""Differential property tests of the exact kernels over Z/p^e.

Random matrices for p in {2, 3, 5} and e in {1, 2, 3}: the dense Howell
form against the independent sparse one, the kernel and the row solver
against their defining equations, and the shared span closure against a
naive fixpoint loop kept here as the oracle.  Sparse and tree-shaped block
matrices up to 20 x 30, with a random share of their entries multiplied by
p, exercise the elimination's pivot-support update and, for e > 1, its
non-unit pivots, least-valuation pivot choice and annihilator rows, which
the small dense cases rarely reach.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treelab.exactalg import (  # noqa: E402
    RingSpec,
    RowSolver,
    howell_array,
    howell_array_sparse,
    kernel_array,
    span_closure,
)

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


def check_howell(ring, A):
    assert howell_array(ring, A) == howell_array_sparse(ring, A)


def check_kernel(ring, A):
    K = kernel_array(ring, A)
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
