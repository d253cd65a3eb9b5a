"""Group construction and module operations against enumeration oracles."""

import itertools

import numpy as np
import pytest

from treelab.catalog import builtin_catalog
from treelab.exactalg import RingSpec, VerificationBug, howell_array, kernel_array, span_closure
from treelab.grouprep import (
    IDENT,
    QuotientPresentation,
    build_group,
    decompose_jbar,
    direct_sum,
    elem_inv,
    elem_mul,
    generated_submodule,
    h1_procyclic,
    invariants,
    is_irreducible,
    jbar,
    primitive_root,
    quotient_gmodule,
    submodule_gmodule,
    torus_idempotents,
    trivial_module,
)

from oracles import coinvariants, composition_length


def enumerate_group_order(kind, p):
    """Independent oracle: count 2x2 matrices with the right determinant."""
    count = 0
    for m in itertools.product(range(p), repeat=4):
        det = (m[0] * m[3] - m[1] * m[2]) % p
        if (kind == "sl2" and det == 1) or (kind == "gl2" and det != 0):
            count += 1
    return count


@pytest.mark.parametrize(
    "kind,p,expected",
    [("sl2", 2, 6), ("sl2", 3, 24), ("gl2", 3, 48), ("sl2", 5, 120), ("sl2", 7, 336)],
)
def test_group_orders(kind, p, expected):
    assert enumerate_group_order(kind, p) == expected
    grp = build_group(kind, p)
    assert grp.order == expected


@pytest.mark.parametrize("kind,p", [("sl2", 3), ("gl2", 3), ("sl2", 5)])
def test_group_structure(kind, p):
    grp = build_group(kind, p)
    assert len(grp.upper_unipotent) == p
    conj = frozenset(
        elem_mul(elem_mul(grp.weyl, x, p), elem_inv(grp.weyl, p), p) for x in grp.lower_unipotent
    )
    assert conj == frozenset(grp.upper_unipotent)


@pytest.mark.parametrize(
    "kind,p,rank", [("sl2", 3, 8), ("sl2", 2, 3), ("gl2", 3, 16), ("sl2", 5, 24)]
)
def test_jbar_rank(kind, p, rank):
    grp = build_group(kind, p)
    J = jbar(grp, RingSpec(p, 1))
    assert J.rank == grp.order // p == rank


@pytest.mark.parametrize("kind,p", [("sl2", 2), ("sl2", 3), ("gl2", 3), ("sl2", 5)])
def test_action_law_random_triples(kind, p):
    grp = build_group(kind, p)
    J = jbar(grp, RingSpec(p, 1))
    rng = np.random.default_rng(42)
    for _ in range(100):
        g = grp.elements[int(rng.integers(0, grp.order))]
        h = grp.elements[int(rng.integers(0, grp.order))]
        lhs = (J.action(g) @ J.action(h)) % p
        assert np.array_equal(lhs, J.action(elem_mul(g, h, p)))
    assert np.array_equal(J.action(IDENT), np.eye(J.rank, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3])
def test_action_is_the_word_product_on_every_element(p):
    # generators act by their cached matrices, which alias no stored generator
    # matrix; at p = 2 the identity is a generator and keeps the empty word
    for M in builtin_catalog(p, 1):
        grp, N = M.group, M.ring.modulus
        for g, word in zip(grp.elements, grp.words):
            m = np.eye(M.rank, dtype=np.int64)
            for gi in word:
                m = (m @ M._gen_mats[grp.gens[gi]]) % N
            assert np.array_equal(M.action(g), m), (M.name, g)
        assert not any(np.shares_memory(M.action(g), M._gen_mats[g]) for g in grp.gens)


def test_invariants_jbar_sl2_3_by_enumeration():
    # oracle: count all 3^8 vectors fixed by the unipotent generator action
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    A = J.action(grp.upper_gen)
    vs = np.array(list(itertools.product(range(3), repeat=8)), dtype=np.int64)
    fixed = int((((vs @ A) % 3) == vs).all(axis=1).sum())
    assert fixed == 3**4
    inv = invariants(J, [grp.upper_gen])
    assert inv.nrows == 4


def test_invariants_full_group_is_constants():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    inv = invariants(J, grp.gens)
    assert inv.nrows == 1
    # the line of constant functions
    assert inv.contains(np.ones(J.rank, dtype=np.int64))


def test_invariants_trivial_module_is_everything():
    grp = build_group("sl2", 3)
    triv = trivial_module(grp, RingSpec(3, 2))
    inv = invariants(triv, [grp.upper_gen])
    assert inv.span_log_size() == 2


@pytest.mark.parametrize("kind,p", [("sl2", 2), ("sl2", 3), ("sl2", 5), ("gl2", 3)])
def test_invariants_conjugate_subgroups_same_dim(kind, p):
    grp = build_group(kind, p)
    J = jbar(grp, RingSpec(p, 1))
    assert invariants(J, [grp.upper_gen]).nrows == invariants(J, [grp.lower_gen]).nrows


def test_coinvariants_regular_module():
    # oracle: the image of (shift - 1) on the length-3 cyclic shift has 9
    # elements, so the cokernel is one-dimensional
    ring = RingSpec(3, 1)
    shift = np.zeros((3, 3), dtype=np.int64)
    for i in range(3):
        shift[i, (i + 1) % 3] = 1
    eye = np.eye(3, dtype=np.int64)
    images = {
        tuple(int(x) for x in (v @ (shift - eye)) % 3)
        for v in itertools.product(range(3), repeat=3)
    }
    assert len(images) == 9
    h1 = h1_procyclic(ring, shift, 3)
    assert h1.dim == 1


def test_coinvariants_trivial_action():
    grp = build_group("sl2", 3)
    triv = trivial_module(grp, RingSpec(3, 1))
    co = coinvariants(triv, [grp.upper_gen])
    assert co.dim == 1


def test_coinvariants_equal_invariants_for_jbar():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    co = coinvariants(J, [grp.upper_gen])
    assert co.dim == 4 == invariants(J, [grp.upper_gen]).nrows


def test_generated_by_phi_is_everything():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    base = np.eye(J.rank, dtype=np.int64)[grp.coset_of(np.reshape(IDENT, (2, 2)))]
    assert generated_submodule(J, base).nrows == J.rank


def test_generated_by_zero_is_zero():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    assert generated_submodule(J, np.zeros(J.rank, dtype=np.int64)).nrows == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lower_invariants_generate_under_upper_subgroup_alone(p):
    grp = build_group("sl2", p)
    J = jbar(grp, RingSpec(p, 1))
    inv = invariants(J, [grp.lower_gen])
    span = span_closure(J.ring, inv.mat, [J.action(grp.upper_gen)])
    assert span.nrows == J.rank


def span_set(rows, N):
    """The row span as a set of tuples, by enumerating coefficients."""
    return {
        tuple(int(x) for x in (np.array(c, dtype=np.int64) @ rows) % N)
        for c in itertools.product(range(N), repeat=rows.shape[0])
    }


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("with_source", [False, True])
def test_map_verdicts_against_enumeration(p, e, with_source):
    """(injective, surjective) of Lambda^m / S -> Lambda^n / R, x -> x @ f, by listing every vector."""
    ring = RingSpec(p, e)
    N = ring.modulus
    rng = np.random.default_rng(10 * p + e + 100 * with_source)
    seen = set()
    for _ in range(30):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        f = rng.integers(0, N, size=(m, n))
        S = rng.integers(0, N, size=(int(rng.integers(1, 3)) if with_source else 0, m))
        R = np.concatenate([rng.integers(0, N, size=(int(rng.integers(0, 3)), n)), S @ f % N])
        quotient = QuotientPresentation(ring, n, howell_array(ring, R))
        got = quotient.map_verdicts(f, howell_array(ring, S) if with_source else None)
        rel = span_set(R, N)
        vectors = [np.array(x, dtype=np.int64) for x in itertools.product(range(N), repeat=m)]
        classes = {tuple(int(y) for y in (x @ f + r) % N) for x in vectors for r in rel}
        kernel = {tuple(int(y) for y in x) for x in vectors if tuple(int(y) for y in x @ f % N) in rel}
        want = (kernel <= span_set(S, N), len(classes) == N**n)
        assert got == want, (f, S, R)
        seen.add(want)
    assert len(seen) >= 3  # both verdicts take both values


def test_h1_identity_operator():
    ring = RingSpec(3, 2)
    h1 = h1_procyclic(ring, np.eye(2, dtype=np.int64), 3)
    assert h1.log_size() == 4  # the whole module survives


def test_h1_rejects_bad_operator():
    ring = RingSpec(3, 1)
    with pytest.raises(ValueError):
        h1_procyclic(ring, np.array([[2]]), 3)  # order 2, not a p-power


def test_h1_kernel_cokernel_balance_field_case():
    ring = RingSpec(3, 1)
    grp = build_group("sl2", 3)
    J = jbar(grp, ring)
    for u in (1, 2):
        op = np.linalg.matrix_power(J.action(grp.upper_gen), u) % 3
        h1 = h1_procyclic(ring, op, 3)
        ker = 8 - howell_array(ring, (op - np.eye(8, dtype=np.int64)) % 3).nrows
        assert h1.dim == ker


@pytest.mark.parametrize(
    "p,count,dim", [(2, 1, 3), (3, 2, 4), (5, 4, 6), (7, 6, 8)]
)
def test_decompose_jbar_summands(p, count, dim):
    grp = build_group("sl2", p)
    summands = decompose_jbar(grp, RingSpec(p, 1))
    assert len(summands) == count
    assert all(s.rank == dim for s in summands)
    assert sum(s.rank for s in summands) == grp.order // p


def left_torus_translation(grp):
    """U g -> U t0 g for t0 = diag(z, 1/z), as a permutation matrix on the cosets."""
    p = grp.p
    z = primitive_root(p)
    t0 = np.reshape((z, 0, 0, pow(z, -1, p)), (2, 2))
    return np.eye(len(grp.coset_reps), dtype=np.int64)[grp.coset_of(t0 @ grp.coset_reps)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_decompose_jbar_summands_are_the_eigenspaces(p):
    # summand i is the kernel of L - z^i, in the coordinates of its Howell basis
    grp = build_group("sl2", p)
    ring = RingSpec(p, 1)
    J = jbar(grp, ring)
    L = left_torus_translation(grp)
    eye = np.eye(J.rank, dtype=np.int64)
    summands = decompose_jbar(grp, ring)
    assert len(summands) == p - 1
    for i, S in enumerate(summands):
        eig = submodule_gmodule(J, kernel_array(ring, (L - pow(primitive_root(p), i, p) * eye) % p))
        assert all(np.array_equal(S.action(g), eig.action(g)) for g in grp.gens)


def test_torus_idempotents_reject_an_operator_of_order_p():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    with pytest.raises(VerificationBug, match="not orthogonal idempotents"):
        torus_idempotents(J.ring, [J.action(grp.upper_gen)])


def test_torus_idempotents_reject_operators_that_do_not_commute():
    grp = build_group("sl2", 5)
    J = jbar(grp, RingSpec(5, 2))
    L = left_torus_translation(grp)
    swap = np.eye(J.rank, dtype=np.int64)[[1, 0, *range(2, J.rank)]]  # of order 2, which divides p - 1
    assert ((L @ swap - swap @ L) % J.ring.modulus).any()
    with pytest.raises(VerificationBug, match="do not commute"):
        torus_idempotents(J.ring, [L, swap])


def test_decompose_requires_sl2_and_field():
    with pytest.raises(ValueError):
        decompose_jbar(build_group("gl2", 3), RingSpec(3, 1))
    with pytest.raises(ValueError):
        decompose_jbar(build_group("sl2", 3), RingSpec(3, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_principal_series_length_two(p):
    grp = build_group("sl2", p)
    for s in decompose_jbar(grp, RingSpec(p, 1)):
        assert composition_length(s) == 2
        assert invariants(s, [grp.upper_gen]).nrows == 2
        assert not is_irreducible(s)


def test_trivial_module_length_one():
    grp = build_group("sl2", 3)
    triv = trivial_module(grp, RingSpec(3, 1))
    assert composition_length(triv) == 1
    assert is_irreducible(triv)


def test_jbar_sl2_3_total_length_four():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    assert composition_length(J) == 4


def test_composition_length_choice_independent():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    lengths = {composition_length(J, perm_seed=s) for s in range(5)}
    assert lengths == {4}


def test_submodule_quotient_coordinates_consistent():
    grp = build_group("sl2", 3)
    ring = RingSpec(3, 1)
    J = jbar(grp, ring)
    inv = invariants(J, [grp.lower_gen])
    sub_span = generated_submodule(J, inv.mat[:1])
    sub = submodule_gmodule(J, sub_span)
    quo = quotient_gmodule(J, sub_span)
    assert sub.rank + quo.rank == J.rank
    sub.verify_action(samples=30)
    quo.verify_action(samples=30)


def test_direct_sum_block_action():
    grp = build_group("sl2", 3)
    ring = RingSpec(3, 1)
    J = jbar(grp, ring)
    D = direct_sum([J, J])
    assert D.rank == 16
    g = grp.upper_gen
    assert np.array_equal(D.action(g)[:8, :8], J.action(g))
    assert np.array_equal(D.action(g)[8:, 8:], J.action(g))
    assert not D.action(g)[:8, 8:].any()
