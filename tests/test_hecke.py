"""Hecke algebra: double-coset oracle, tensor functor, splitness."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from treelab import exactalg, hecke
from treelab.exactalg import (
    RingSpec,
    RowSolver,
    VerificationBug,
    howell_array,
    kernel_array,
    preimage_kernel,
    span_closure,
    span_sum,
)
from treelab.grouprep import IDENT, GModule, build_group, elem_mul, jbar
from treelab.hecke import (
    build_hecke,
    check_assoc,
    check_dim,
    check_flatness,
    check_vytastra,
    free_module,
    hecke_suite,
    invariants_jbar_star,
    quotient_module,
    random_modules_hecke,
    tensor_K,
)
from treelab.report import FAIL, PASS, RECORDED

from oracles import ambient_vytastra, stacked_kernel_residue


def double_cosets_oracle(p):
    """Count orbits of the two-sided unipotent translation directly."""
    grp = build_group("gl2", p)
    upper = grp.upper_unipotent
    seen = set()
    count = 0
    for g in grp.elements:
        if g in seen:
            continue
        count += 1
        for n1 in upper:
            for n2 in upper:
                seen.add(elem_mul(elem_mul(n1, g, grp.p), n2, grp.p))
    return count


@pytest.mark.parametrize("p,expected", [(2, 2), (3, 8), (5, 32)])
def test_dimension_by_double_coset_enumeration(p, expected):
    assert double_cosets_oracle(p) == expected == 2 * (p - 1) ** 2
    alg = build_hecke(p, 1)
    assert alg.dim == expected
    assert check_dim(p).status == PASS


def loop_cosets_oracle(group):
    """The cosets U g by a loop over the elements: (reps, coset of each element).

    The reps are the least elements, in increasing order.
    """
    p = group.p
    upper = group.upper_unipotent
    seen = {}
    reps = []
    for g in group.elements:
        if g in seen:
            continue
        coset = sorted(elem_mul(n, g, p) for n in upper)
        for x in coset:
            seen[x] = len(reps)
        reps.append(coset[0])
    return reps, seen


@pytest.mark.parametrize("kind", ["sl2", "gl2"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_table_against_loop_oracle(kind, p):
    group = build_group(kind, p)
    reps, of = loop_cosets_oracle(group)
    assert group.coset_reps.dtype == np.int64
    assert np.array_equal(group.coset_reps, np.array(reps).reshape(-1, 2, 2))
    elements = np.array(group.elements).reshape(-1, 2, 2)
    assert np.array_equal(group.coset_of(elements), [of[g] for g in group.elements])
    assert not group.coset_index.flags.writeable and not group.coset_reps.flags.writeable
    assert (group.coset_index >= 0).sum() == group.order
    J = jbar(group, RingSpec(p, 1))
    for g in group.gens:
        m = np.zeros((len(reps), len(reps)), dtype=np.int64)
        for i, rep in enumerate(reps):
            m[i, of[elem_mul(rep, g, p)]] = 1
        assert np.array_equal(J.action(g), m)
    assert int(group.coset_of(np.reshape(IDENT, (2, 2)))) == of[IDENT]


def loop_build_oracle(p, e):
    """Double cosets, basis operators and structure constants by loops.

    One right translation of a coset by U gives its double coset, scanned
    in index order; the operator of a double coset sends coset i to the
    sum of the cosets of rep_x * rep_i over its cosets x; struct[u, v] is
    read off the image of the base coset under T_v, then T_u.
    """
    ring = RingSpec(p, e)
    N = ring.modulus
    group = build_group("gl2", p)
    reps, of = loop_cosets_oracle(group)
    n = len(reps)
    dc_of = [-1] * n
    double_cosets = []
    for i in range(n):
        if dc_of[i] < 0:
            orbit = sorted({of[elem_mul(reps[i], u, p)] for u in group.upper_unipotent})
            for j in orbit:
                dc_of[j] = len(double_cosets)
            double_cosets.append(orbit)
    mats = []
    for orbit in double_cosets:
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for x in orbit:
                m[i, of[elem_mul(reps[x], reps[i], p)]] += 1
        mats.append(m % N)
    base = of[IDENT]
    least = [orbit[0] for orbit in double_cosets]
    d = len(double_cosets)
    struct = np.zeros((d, d, d), dtype=np.int64)
    for u in range(d):
        for v in range(d):
            img = (mats[v][base] @ mats[u]) % N
            assert np.array_equal(img[least][dc_of], img)
            struct[u, v] = img[least]
    return double_cosets, mats, struct


def dense_operators(alg):
    """The (d, n, n) stack of basis operators T_w = (dc_table == w)."""
    return (alg.dc_table == np.arange(alg.dim)[:, None, None]).astype(np.int64)


def assert_matches_loop_oracle(alg, p, e):
    double_cosets, mats, struct = loop_build_oracle(p, e)
    base_row = alg.dc_table[alg.base_coset_idx]
    assert [np.flatnonzero(base_row == w).tolist() for w in range(alg.dim)] == double_cosets
    assert type(alg.unit) is int and all(type(g) is int for g in alg.gens)
    assert alg.dc_table.dtype == struct.dtype == alg.struct.dtype == np.int64
    assert not alg.dc_table.flags.writeable
    assert len(mats) == alg.dim
    for w, m in enumerate(mats):
        assert np.array_equal((alg.dc_table == w).astype(np.int64), m), w
    assert np.array_equal(alg.struct, struct)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_table_build_against_loop_oracle(p, e):
    assert_matches_loop_oracle(build_hecke(p, e), p, e)


def test_table_build_against_loop_oracle_at_p7():
    # the build, its laws and its verification run once, uncached.  With
    # the group cached, a build that kept the dense (d, n, n) operator
    # stack retained 52.9 MiB and peaked at 83.6 MiB; the (n, n)
    # double-coset table retains 7.9 MiB and peaked at 38.6 MiB
    # while the (d, d, n) composite image stayed alive through the laws,
    # 32.8 MiB once it is freed before them
    cached = hecke._build_hecke.cache_info().currsize
    tracemalloc.start()
    try:
        alg = hecke._build_hecke.__wrapped__(7, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 11 * 2**20 and peak <= 36 * 2**20
    assert alg.dim == 2 * 6**2
    assert alg.laws == {"associative": True, "unit_laws": True}
    assert_matches_loop_oracle(alg, 7, 1)
    assert hecke._build_hecke.cache_info().currsize == cached


def test_build_raises_when_right_translation_does_not_permute_the_cosets(monkeypatch):
    # a coset lookup that sends the products landing in coset 1 to coset 0
    group = build_group("gl2", 3)

    class Collapsed:
        def __getattr__(self, name):
            return getattr(group, name)

        def coset_of(self, g):
            out = group.coset_of(g)
            return np.where(out == 1, 0, out) if np.ndim(out) == 2 else out

    monkeypatch.setattr(hecke, "build_group", lambda kind, p: Collapsed())
    with pytest.raises(VerificationBug, match="does not permute the cosets"):
        hecke._build_hecke.__wrapped__(3, 1)


@pytest.mark.parametrize(
    "upper_gen,match",
    [
        # each coset is its own orbit: 16 cosets of GL2(F_3), not 2(p-1)^2 = 8
        (IDENT, r"double coset count 16 != 2\(p-1\)\^2"),
        # right translation by U^- gives the right count, but its orbits are no U double cosets
        ((1, 0, 1, 1), "composite image is not double-coset invariant"),
    ],
    ids=["identity", "lower_gen"],
)
def test_build_raises_on_orbits_of_a_wrong_upper_generator(monkeypatch, upper_gen, match):
    group = replace(build_group("gl2", 3), upper_gen=upper_gen)
    monkeypatch.setattr(hecke, "build_group", lambda kind, p: group)
    with pytest.raises(VerificationBug, match=match):
        hecke._build_hecke.__wrapped__(3, 1)


def test_build_is_one_cache_entry_however_e_is_passed():
    assert build_hecke(3) is build_hecke(3, 1)


def test_refusal_names_the_supported_primes():
    with pytest.raises(ValueError, match=r"supported: \(2, 3, 5, 7\)$"):
        hecke._build_hecke.__wrapped__(11, 1)


@pytest.mark.parametrize("p,gens", [(2, (0,)), (3, (1, 5, 6)), (5, (3, 17, 20))])
def test_closed_form_generators_fill_the_algebra(p, gens):
    # T_s and the torus operators, without the unit
    alg = build_hecke(p, 1)
    grp = alg.J.group
    assert alg.gens == gens
    assert alg.unit not in alg.gens
    weyl_coset = int(grp.coset_of(np.reshape(grp.weyl, (2, 2))))
    weyl_dc = alg.dc_table[alg.base_coset_idx, weyl_coset]
    assert weyl_dc in alg.gens
    assert alg._generated_subalgebra_full(alg.gens)


def test_suite_checks_the_generators_once(monkeypatch):
    calls = []
    original = hecke.HeckeAlgebra._generated_subalgebra_full

    def counted(self, gens):
        calls.append(gens)
        return original(self, gens)

    monkeypatch.setattr(hecke.HeckeAlgebra, "_generated_subalgebra_full", counted)
    hecke._build_hecke.cache_clear()
    hecke_suite(5, seed=7, n_random=5)
    assert len(calls) == 1


def test_tampered_basis_operator_fails_the_equivariance_check():
    # moving one coset pair to another double coset changes two operators
    alg = build_hecke(3)
    table = alg.dc_table.copy()
    table[0, 1] = (table[0, 1] + 1) % alg.dim
    with pytest.raises(VerificationBug, match="basis operator is not equivariant"):
        hecke._verify_algebra(replace(alg, dc_table=table))


@pytest.mark.parametrize("law,match", [("unit_laws", "unit laws fail"), ("associative", "associativity fails")])
def test_verify_algebra_raises_on_a_failed_law(law, match):
    alg = build_hecke(3)
    with pytest.raises(VerificationBug, match=match):
        hecke._verify_algebra(replace(alg, laws={**alg.laws, law: False}))


def test_verify_algebra_raises_on_structure_constants_that_disagree_with_composition():
    # bump the coefficient of the unit in the first sampled product; the
    # laws stay as evaluated at build, and the bumped tensor still
    # generates the algebra, so only the composition check sees it
    alg = build_hecke(3)
    rng = np.random.default_rng(alg.p)
    u, v = int(rng.integers(0, alg.dim)), int(rng.integers(0, alg.dim))
    struct = bumped(alg.struct, (u, v, alg.unit), alg.ring.modulus)
    with pytest.raises(VerificationBug, match="structure constants disagree with composition"):
        hecke._verify_algebra(replace(alg, struct=struct))


def test_verify_algebra_raises_when_the_generators_do_not_fill_the_algebra():
    alg = build_hecke(3)
    with pytest.raises(VerificationBug, match="do not generate the algebra"):
        hecke._verify_algebra(replace(alg, gens=alg.gens[:1]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gather_and_scatter_against_dense_operators(p):
    # c[dc_table] is sum_w c_w T_w, and orbit(v) stacks the rows v @ T_w
    alg = build_hecke(p)
    N = alg.ring.modulus
    ops = dense_operators(alg)
    rng = np.random.default_rng(p)
    for _ in range(3):
        c = rng.integers(-N, N, alg.dim)
        v = rng.integers(0, N, len(alg.dc_table))
        assert np.array_equal(alg.left_action(c), np.tensordot(c, ops, axes=1) % N)
        assert np.array_equal(alg.orbit(v), v @ ops % N)


def test_equivariance_check_requires_permutation_generators():
    alg = build_hecke(3)
    J = alg.J
    scaled = GModule(J.group, J.ring, {g: 2 * J.action(g) for g in J.group.gens})
    with pytest.raises(VerificationBug, match="does not act on J by a permutation"):
        hecke._verify_algebra(replace(alg, J=scaled))


def test_suite_evaluates_the_algebra_laws_once(monkeypatch):
    # the exhaustive associativity check runs at build; check_assoc reports it
    calls = []
    original = hecke._algebra_laws

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hecke, "_algebra_laws", counted)
    hecke._build_hecke.cache_clear()
    reports = hecke_suite(5, seed=7, n_random=5)
    assert len(calls) == 1
    (assoc,) = [r for r in reports if r.lemma == "hecke_assoc"]
    assert assoc.status == PASS and assoc.verdicts == {"associative": True, "unit_laws": True}


def test_dim_and_jbar_star_read_false_on_a_missing_basis_operator(monkeypatch):
    real = hecke.build_hecke
    monkeypatch.setattr(hecke, "build_hecke", lambda p, e=1: replace(real(p, e), struct=real(p, e).struct[:-1]))
    dim, star = check_dim(3), invariants_jbar_star(3)
    assert dim.status == star.status == FAIL
    assert dim.verdicts["dim_matches"] is False
    assert star.verdicts["invariants_match_algebra_dim"] is False


def bumped(struct, where, N):
    out = struct.copy()
    out[where] = (out[where] + 1) % N
    return out


def dense_laws_oracle(ring, struct, unit):
    """Associativity and unit laws by two dense einsums over all basis triples."""
    N = ring.modulus
    eye = np.eye(struct.shape[0], dtype=np.int64) % N
    left = np.einsum("uvx,xwy->uvwy", struct, struct) % N
    right = np.einsum("vwx,uxy->uvwy", struct, struct) % N
    return {
        "associative": bool(np.array_equal(left, right)),
        "unit_laws": bool(
            np.array_equal(struct[unit] % N, eye) and np.array_equal(struct[:, unit, :] % N, eye)
        ),
    }


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_algebra_laws_against_dense_oracle(p, e):
    alg = build_hecke(p, e)
    laws = hecke._algebra_laws(alg.ring, alg.struct, alg.unit)
    assert laws == dense_laws_oracle(alg.ring, alg.struct, alg.unit) == {"associative": True, "unit_laws": True}
    assert all(type(x) is bool for x in laws.values())


def test_algebra_laws_read_at_most_d_cubed_entries_at_once():
    # the dense laws hold two d^4 int64 tensors, 8 MiB each at p = 5
    alg = build_hecke(5)
    d = alg.dim
    tracemalloc.start()
    try:
        hecke._algebra_laws(alg.ring, alg.struct, alg.unit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d**4 * 8


def test_associativity_reads_false_on_each_bumped_structure_constant():
    # off the unit rows every bump keeps the unit laws and breaks associativity
    alg = build_hecke(3)
    N = alg.ring.modulus
    off_unit = [tuple(x) for x in np.argwhere(alg.struct) if alg.unit not in x[:2]]
    assert len(off_unit) == 65
    for where in off_unit:
        struct = bumped(alg.struct, where, N)
        laws = hecke._algebra_laws(alg.ring, struct, alg.unit)
        assert laws == dense_laws_oracle(alg.ring, struct, alg.unit) == {"associative": False, "unit_laws": True}, where


def test_unit_laws_read_false_on_a_bumped_unit_row():
    alg = build_hecke(3)
    struct = bumped(alg.struct, alg.unit, alg.ring.modulus)
    laws = hecke._algebra_laws(alg.ring, struct, alg.unit)
    assert laws == dense_laws_oracle(alg.ring, struct, alg.unit)
    assert laws["unit_laws"] is False


@pytest.mark.parametrize("p", [3, 5])
def test_algebra_laws_on_a_bump_that_lengthens_the_longest_product(p):
    # a new term in a product that already has the most terms raises K by one
    alg = build_hecke(p)
    N = alg.ring.modulus
    terms = (alg.struct != 0).sum(axis=-1)
    u, v = np.argwhere((terms == terms.max()) & (np.arange(alg.dim) != alg.unit)[:, None])[0]
    w = np.flatnonzero(alg.struct[u, v] == 0)[0]
    struct = bumped(alg.struct, (u, v, w), N)
    assert (struct != 0).sum(axis=-1).max() == terms.max() + 1
    laws = hecke._algebra_laws(alg.ring, struct, alg.unit)
    assert laws == dense_laws_oracle(alg.ring, struct, alg.unit)
    assert laws["associative"] is False


@pytest.mark.parametrize("where", ["off_unit", "unit"])
def test_check_assoc_fails_on_the_laws_of_a_bumped_tensor(monkeypatch, where):
    real = build_hecke(3)
    off_unit = next(tuple(x) for x in np.argwhere(real.struct) if real.unit not in x[:2])
    struct = bumped(real.struct, off_unit if where == "off_unit" else real.unit, real.ring.modulus)
    laws = hecke._algebra_laws(real.ring, struct, real.unit)
    assert laws == dense_laws_oracle(real.ring, struct, real.unit)
    monkeypatch.setattr(hecke, "build_hecke", lambda p, e=1: replace(real, struct=struct, laws=laws))
    rep = check_assoc(3)
    assert rep.status == FAIL
    assert rep.verdicts["associative" if where == "off_unit" else "unit_laws"] is False


def test_unsupported_prime():
    with pytest.raises(ValueError):
        build_hecke(11, 1)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_associativity_and_units_exhaustive(p, e):
    rep = check_assoc(p, e)
    assert rep.status == PASS
    assert rep.dims["triples"] == (2 * (p - 1) ** 2) ** 3


@pytest.mark.parametrize("p", [2, 3])
def test_basis_operators_realize_structure_constants(p):
    alg = build_hecke(p, 1)
    N = alg.ring.modulus
    ops = dense_operators(alg)
    for u in range(alg.dim):
        for v in range(alg.dim):
            lhs = (ops[v] @ ops[u]) % N
            rhs = alg.left_action(alg.struct[u, v])
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_invariants_match_algebra_dimension(p, e):
    rep = invariants_jbar_star(p, e)
    assert rep.status == PASS
    assert rep.dims["invariants_log"] == e * 2 * (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3])
def test_free_module_axioms_exhaustive(p):
    alg = build_hecke(p, 1)
    free_module(alg, 1).verify_axioms(exhaustive=True)
    free_module(alg, 2).verify_axioms(exhaustive=True)


@pytest.mark.parametrize("which,match", [("unit", "unit does not act as the identity"), ("gen", "right-module law fails")])
def test_module_axioms_raise_on_a_tampered_action(which, match):
    # T_u + I in place of the action of one basis element
    alg = build_hecke(3)
    free = free_module(alg, 1)
    w = alg.unit if which == "unit" else alg.gens[0]
    action = list(free.action)
    action[w] = (action[w] + np.eye(free.rank, dtype=np.int64)) % alg.ring.modulus
    with pytest.raises(VerificationBug, match=match):
        replace(free, action=action).verify_axioms(exhaustive=True)


def test_coordinate_quotient_refuses_e_above_1():
    alg = build_hecke(2, 2)
    free = free_module(alg, 1)
    with pytest.raises(ValueError, match="require e = 1"):
        quotient_module(free, howell_array(alg.ring, np.eye(alg.dim, dtype=np.int64)[:1]))


def test_unknown_presentation_and_method_are_refused():
    with pytest.raises(ValueError, match="unknown presentation 'dense'"):
        tensor_K(free_module(build_hecke(2), 1), "dense")
    with pytest.raises(ValueError, match="unknown method 'dense'"):
        check_flatness(2, 1, "dense")


def test_tensor_unit_is_permutation_module():
    # K(H) = J: rank (p^2 - 1)(p - 1), and the two presentations agree
    for p in (2, 3):
        alg = build_hecke(p, 1)
        free = free_module(alg, 1)
        for pres in ("balancing", "generators"):
            K = tensor_K(free, pres)
            assert K.log_size() == (p * p - 1) * (p - 1)


def test_tensor_zero_module():
    # the generators route finds no module generator and tensors an empty presentation
    alg = build_hecke(2, 1)
    free = free_module(alg, 1)
    full = span_closure(alg.ring, np.eye(alg.dim, dtype=np.int64), free.action)
    zero = quotient_module(free, full, name="zero")
    assert zero.rank == 0
    for presentation in ("balancing", "generators"):
        K = tensor_K(zero, presentation)
        assert K.presentation == presentation
        assert K.log_size() == 0
        rep = check_vytastra(zero, presentation)
        assert rep.status == PASS
        assert rep.dims == {"module_log": 0, "invariants_log": 0, "tensor_log": 0}


def test_tensor_additive_on_free_modules():
    alg = build_hecke(3, 1)
    one = tensor_K(free_module(alg, 1), "balancing")
    two = tensor_K(free_module(alg, 2), "balancing")
    assert two.log_size() == 2 * one.log_size()


def block_direct_sum(alg, A, B):
    from treelab.hecke import HeckeModule

    mats = []
    for w in range(alg.dim):
        big = np.zeros((A.rank + B.rank, A.rank + B.rank), dtype=np.int64)
        big[: A.rank, : A.rank] = A.action[w]
        big[A.rank :, A.rank :] = B.action[w]
        mats.append(big)
    return HeckeModule(alg, A.rank + B.rank, mats, name=f"{A.name}+{B.name}")


def test_tensor_additive_on_direct_sums():
    alg = build_hecke(3, 1)
    mods = list(random_modules_hecke(alg, 31, 2))
    for pres in ("balancing", "generators"):
        kA = tensor_K(mods[0], pres)
        kB = tensor_K(mods[1], pres)
        kAB = tensor_K(block_direct_sum(alg, mods[0], mods[1]), pres)
        assert kAB.log_size() == kA.log_size() + kB.log_size()


def carrier_rows(K):
    """Row (O, i, b) of the block carrier is e_i (x) BJ_O[b] in the whole carrier (M (x) J or J^s)."""
    return np.concatenate([np.kron(np.eye(K.copies, dtype=np.int64), b.J.mat) for b in K.blocks])


def test_tensor_unit_canonical_map_is_equivariant_isomorphism():
    # the evaluation pairing of the balancing carrier onto J, read through
    # the block bases of J, kills the relations, is bijective on the
    # quotient, and commutes with the group action
    for p in (2, 3):
        alg = build_hecke(p, 1)
        K = tensor_K(free_module(alg, 1), "balancing")
        ring = alg.ring
        N = ring.modulus
        n = len(alg.dc_table)
        ev = carrier_rows(K) @ dense_operators(alg).reshape(alg.dim * n, n) % N
        assert not np.any((K.rel.mat @ ev) % N)  # relations die
        # bijective: the quotient has the size of J and ev is onto
        assert K.log_size() == n
        assert howell_array(ring, ev).nrows == n
        for g in alg.J.group.gens:
            lhs = (K.action(g) @ ev) % N
            rhs = (ev @ alg.J.action(g)) % N
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("presentation", ["balancing", "generators"])
def test_block_carrier_action_is_the_carrier_action(presentation):
    # BJ_O @ A_g read at the pivot columns is the action of g on the whole carrier
    alg = build_hecke(3, 1)
    N = alg.ring.modulus
    for M in [free_module(alg, 1), *random_modules_hecke(alg, 21, 3)]:
        K = tensor_K(M, presentation)
        rows = carrier_rows(K)
        for g in alg.J.group.gens:
            whole = np.kron(np.eye(K.copies, dtype=np.int64), alg.J.action(g))
            assert np.array_equal(K.action(g) @ rows % N, rows @ whole % N)


def test_tensor_group_action_descends():
    alg = build_hecke(3, 1)
    K = tensor_K(free_module(alg, 1), "balancing")
    N = alg.ring.modulus
    for g in alg.J.group.gens:
        moved = (K.rel.mat @ K.action(g)) % N
        assert K.rel.contains_rows(moved)


def verdicts_and_dims(rep):
    return rep.verdicts, rep.dims, rep.details["presentation"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_block_vytastra_against_ambient_oracle_on_the_free_module(p, e):
    # K(H) = J: every torus block is kept, and the block relations must
    # present the same quotient as one elimination in the whole carrier
    M = free_module(build_hecke(p, e), 1, name="free:1")
    assert verdicts_and_dims(check_vytastra(M)) == ambient_vytastra(M)


@pytest.mark.parametrize("p,seeds", [(2, (21, 3)), (3, (21, 1)), (5, (7,))])
@pytest.mark.parametrize("presentation", ["balancing", "generators"])
def test_block_vytastra_against_ambient_oracle_on_quotients(p, seeds, presentation):
    # the quotients kill some torus blocks, which the block route drops
    # (p = 2 has one block); the golden digests hold the suite at seed 1009
    alg = build_hecke(p, 1)
    kept = set()
    for seed in seeds:
        for M in random_modules_hecke(alg, seed, 5):
            assert verdicts_and_dims(check_vytastra(M, presentation)) == ambient_vytastra(M, presentation)
            kept.add(len(tensor_K(M, presentation).blocks))
    assert p == 2 or min(kept) < len(alg.blocks)


def basis_relation_cases():
    for p in (2, 3):
        for e in (1, 2, 3):
            yield from (free_module(build_hecke(p, e), s) for s in (1, 2))
    for p, seed in ((2, 21), (3, 21), (5, 7)):
        yield from random_modules_hecke(build_hecke(p), seed, 3)


def test_balancing_relations_generate_the_kernel_of_the_basis_presentation(monkeypatch):
    # the relations R that the balancing route pairs with each BJ_O, closed
    # under the right action on H^r, are the kernel of M's presentation by
    # its basis, whose row (i, w) is m_i T_w
    paired = []
    real = hecke._block_pairing

    def spy(alg, block, qs, X):
        paired.append(qs)
        return real(alg, block, qs, X)

    monkeypatch.setattr(hecke, "_block_pairing", spy)
    for M in basis_relation_cases():
        alg, r = M.alg, M.rank
        paired.clear()
        tensor_K(M, "balancing")
        R = paired[0]  # the relations, paired with the first kept block
        right = [np.kron(np.eye(r, dtype=np.int64), alg.right_regular(a)) for a in alg.gens]
        basis = np.asarray(M.action).swapaxes(0, 1).reshape(r * alg.dim, r)
        assert span_closure(alg.ring, R, right) == kernel_array(alg.ring, basis), M.name


@pytest.mark.parametrize("seed", [7, 1009])
def test_vytastra_at_p5_traces_at_most_3_mib(seed):
    # the benchmark's modules: with their relations eliminated in the whole
    # carrier the suite peaked at 3.98 (seed 7) and 1.86 MiB (seed 1009),
    # one torus block at a time at 1.5-1.6 MiB, the block bases included
    vars(build_hecke(5, 1)).pop("blocks", None)  # built again inside the trace
    tracemalloc.start()
    try:
        reports = hecke_suite(5, 1, ("vytastra",), seed, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == [PASS] * 6
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vytastra_free_module(p):
    alg = build_hecke(p, 1)
    rep = check_vytastra(free_module(alg, 1))
    assert rep.status == PASS
    assert rep.dims["module_log"] == rep.dims["invariants_log"] == 2 * (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3])
def test_vytastra_random_quotients_both_presentations(p):
    alg = build_hecke(p, 1)
    for M in random_modules_hecke(alg, 21, 6):
        M.verify_axioms(exhaustive=True)
        ra = check_vytastra(M, "balancing")
        rb = check_vytastra(M, "generators")
        assert ra.status == rb.status == PASS
        assert ra.verdicts == rb.verdicts


def test_vytastra_e2_recorded_not_asserted():
    alg = build_hecke(3, 2)
    rep = check_vytastra(free_module(alg, 1))
    # the verdict itself is data; the suite wraps it as recorded
    reports = hecke_suite(3, 2, checks=("vytastra",))
    assert all(r.status in (RECORDED, PASS) for r in reports)
    assert any(r.status == RECORDED for r in reports)
    assert "bijective" in rep.verdicts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_flatness_field_case(p):
    rep = check_flatness(p, 1)
    assert rep.status == PASS
    assert rep.verdicts["flat"] is True
    assert "section" in rep.details


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_flatness_methods_agree(p, e):
    a = check_flatness(p, e, "split_test")
    b = check_flatness(p, e, "presentation")
    assert a.verdicts == b.verdicts


def test_flatness_reads_false_on_a_non_central_block(monkeypatch):
    # the basis vector T_3 in place of the first torus block is no central
    # idempotent, and its block system has no solution
    real = hecke.torus_blocks

    def tampered(alg):
        blocks = real(alg).copy()
        blocks[0] = np.eye(alg.dim, dtype=np.int64)[3]
        return blocks

    monkeypatch.setattr(hecke, "torus_blocks", tampered)
    alg = build_hecke(5, 1)
    alg.blocks  # cached, so the untampered blocks are put back after the test
    monkeypatch.delitem(vars(alg), "blocks")
    rep = check_flatness(5, 1, "presentation")
    assert rep.verdicts == {"flat": False}
    assert rep.status == FAIL
    assert "section" not in rep.details


def test_flatness_raises_when_a_torus_block_is_missing(monkeypatch):
    # without the first block the summed solution misses that block's part of each x_k
    alg = build_hecke(5, 1)
    monkeypatch.setitem(vars(alg), "blocks", alg.blocks[1:])
    with pytest.raises(VerificationBug, match="section identity fails"):
        check_flatness(5, 1, "presentation")


def test_flatness_raises_on_a_section_that_is_no_module_map(monkeypatch):
    # a left-kernel vector of P added to row 0 keeps the section identity,
    # and T_u moves that row to the other cosets of its double coset
    real = hecke._section_via_presentation

    def shifted(alg, chosen, P):
        section = real(alg, chosen, P).copy()
        section[0] = (section[0] + kernel_array(alg.ring, P).mat[0]) % alg.ring.modulus
        return section

    monkeypatch.setattr(hecke, "_section_via_presentation", shifted)
    with pytest.raises(VerificationBug, match="section is not a module map"):
        check_flatness(5, 1, "presentation")


def test_torus_blocks_raise_on_a_non_central_block(monkeypatch):
    # every character's element e_chi replaced by the torus element
    # diag(1, z^3), which is not central; the idempotents are read on the
    # torus subalgebra, in the order diag(z^a, z^b) at a (p - 1) + b
    alg = build_hecke(5)

    def fake(ring, ops):
        out = np.zeros((16, *ops[0].shape), dtype=np.int64)
        out[:, 0, 3] = 1
        return out

    monkeypatch.setattr(hecke, "torus_idempotents", fake)
    with pytest.raises(VerificationBug, match="not central"):
        hecke.torus_blocks(alg)


def test_flatness_presentation_relations_by_module_generators(monkeypatch):
    # one RowSolver on P (r.d x n = 160 x 96), then per central torus block
    # one kernel of X, r.b rows against the relations of the 6 module
    # generators of ker P (6 b columns), and one RowSolver on M, r.t rows
    # against the section equations (r c columns), where b = 4 or 2 and
    # c = 12 or 6 are the ranks of e_O H and e_O J, and t = r b - rank X = 12
    # or 6.  With all 64 kernel rows as relations X would have 64 b columns;
    # one generic solve per block eliminated r^2.b = 100 x 180 (50 x 90) and
    # the dense route one 480 x 480 section system
    solver_shapes = []
    kernel_shapes = []
    original_init = exactalg.RowSolver.__init__
    original_kernel = hecke.kernel_array

    def recorded_init(self, ring, A):
        solver_shapes.append(np.shape(A))
        original_init(self, ring, A)

    def recorded_kernel(ring, A):
        kernel_shapes.append(np.shape(A))
        return original_kernel(ring, A)

    monkeypatch.setattr(exactalg.RowSolver, "__init__", recorded_init)
    monkeypatch.setattr(hecke, "kernel_array", recorded_kernel)
    rep = check_flatness(5, 1, "presentation")
    assert rep.verdicts["flat"] is True
    assert sorted(solver_shapes) == sorted([(160, 96)] + [(5 * 12, 5 * 12)] * 6 + [(5 * 6, 5 * 6)] * 4)
    assert sorted(kernel_shapes) == sorted([(5 * 4, 6 * 4)] * 6 + [(5 * 2, 6 * 2)] * 4)


def test_flatness_at_p5_traces_at_most_3_mb():
    # the dense route held 32 block-diagonal 160 x 160 operators and
    # eliminated one 480 x 960 system: a 16-18 MB traced peak; the Howell
    # form of the stacked 160 x 800 block kernels peaked at 4.4-4.6 MiB
    build_hecke(5, 1)
    tracemalloc.start()
    try:
        check_flatness(5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_vytastra_and_flatness_at_p7_trace_at_most_24_mib():
    # the largest algebra of the envelope, built outside the trace
    # (build_hecke(7) and build_hecke(7, 1) are one cache entry); the
    # flatness check peaks at 18.5 MiB, so a doubling fails
    build_hecke(7, 1)
    tracemalloc.start()
    try:
        reports = hecke_suite(7, 1, checks=("vytastra", "flatness"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == [PASS, PASS]
    assert peak <= 24 * 2**20


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_torus_blocks_are_central_orthogonal_idempotents(p, e):
    alg = build_hecke(p, e)
    ring = alg.ring
    N = ring.modulus
    blocks = hecke.torus_blocks(alg)
    assert len(blocks) == {3: 3, 5: 10}[p]
    # a * b has the coefficients b @ L(a), with L(a) = sum_u a_u struct[u]
    L = np.tensordot(blocks, alg.struct, axes=1) % N
    prods = np.einsum("jv,ivw->ijw", blocks, L) % N
    assert np.array_equal(prods, np.eye(len(blocks), dtype=np.int64)[:, :, None] * blocks[None])
    assert np.array_equal(blocks.sum(axis=0) % N, np.eye(alg.dim, dtype=np.int64)[alg.unit])
    for u in range(alg.dim):
        assert np.array_equal(blocks @ alg.struct[u] % N, blocks @ alg.struct[:, u, :] % N)
    # e_O H and e_O J have p^(e.rank) elements, of rank 2 or 4 and p + 1 or 2(p + 1)
    rank_h = [howell_array(ring, m).span_log_size() for m in L]
    rank_j = [howell_array(ring, alg.left_action(b)).span_log_size() for b in blocks]
    assert set(rank_h) == {2 * e, 4 * e} and sum(rank_h) == e * alg.dim
    assert set(rank_j) == {(p + 1) * e, 2 * (p + 1) * e} and sum(rank_j) == e * len(alg.dc_table)


def dense_presentation_section(alg, chosen, P):
    """The section unknowns from one solve of the whole dense system.

    Unknowns Y = [y_1 | ... | y_r], each y_k of length m = r.d: one
    relation block per module generator q of ker P (sum_k q_k . y_k = 0),
    then the section equations y_k @ P = x_k.  Returns the raw solution
    of RowSolver on that system and its canonical residue modulo the
    system's kernel.
    """
    ring = alg.ring
    n = len(alg.dc_table)
    d = alg.dim
    r = len(chosen)
    m = r * d

    def blockdiag(mat):
        return np.kron(np.eye(r, dtype=np.int64), mat)

    left_ops = np.stack([blockdiag(alg.left_regular(u)) for u in range(d)])
    K = kernel_array(ring, P).mat
    rel_gens, _ = hecke._module_generators(ring, K, lambda v: v @ left_ops)
    def left_regular_combo(c):
        """Coefficient matrix of x -> (sum_u c_u T_u) * x."""
        return np.tensordot(c % ring.modulus, alg.struct, axes=(0, 0)) % ring.modulus

    blocks = [np.concatenate([blockdiag(left_regular_combo(c)) for c in q.reshape(r, d)]) for q in K[rel_gens]]
    sect = np.zeros((r * m, r * n), dtype=np.int64)
    rhs_sect = np.zeros(r * n, dtype=np.int64)
    for k, i in enumerate(chosen):
        sect[k * m : (k + 1) * m, k * n : (k + 1) * n] = P
        rhs_sect[k * n + i] = 1
    wide = np.concatenate(blocks + [sect], axis=1)
    rhs = np.concatenate([np.zeros(len(blocks) * m, dtype=np.int64), rhs_sect])
    solver = RowSolver(ring, wide)
    y = solver.solve(rhs)
    return y, solver.kernel.reduce(y)


def section_from_unknowns(alg, P, y):
    """Row j of the section is sum_k z_jk . y_k over the preimages z_j of P."""
    N = alg.ring.modulus
    r = P.shape[0] // alg.dim
    m = r * alg.dim
    left_ops = [np.kron(np.eye(r, dtype=np.int64), alg.left_regular(u)) for u in range(alg.dim)]
    acted = np.stack([y[k * m : (k + 1) * m] @ op for k in range(r) for op in left_ops]) % N
    return (hecke._relations(alg.ring, P, alg.struct)[1] @ acted) % N


@pytest.mark.parametrize(
    "p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
)
def test_block_section_against_dense_oracle(p, e):
    # the block solve returns the canonical residue of the solution set, the
    # dense solve at e = 1 (and, as it happens, at p <= 3) as well
    alg = build_hecke(p, e)
    n = len(alg.dc_table)
    T = dense_operators(alg)
    chosen, P = hecke._module_generators(alg.ring, np.eye(n, dtype=np.int64), lambda v: v @ T)
    scattered, P_scattered = hecke._module_generators(alg.ring, np.eye(n, dtype=np.int64), alg.orbit)
    assert scattered == chosen and np.array_equal(P_scattered, P)
    raw, residue = dense_presentation_section(alg, chosen, P)
    section = hecke._section_via_presentation(alg, chosen, P)
    assert np.array_equal(section, section_from_unknowns(alg, P, residue))
    if e == 1 or p <= 3:
        assert np.array_equal(raw, residue)


@pytest.mark.parametrize(
    "p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]
)
def test_slot_residue_against_stacked_kernel_oracle(p, e):
    # reduced one (k, j) slot at a time after the Kronecker block solves, y
    # is the residue modulo the Howell form of the stacked block kernels;
    # the section sends x_k to y_k
    alg = build_hecke(p, e)
    n = len(alg.dc_table)
    chosen, P = hecke._module_generators(alg.ring, np.eye(n, dtype=np.int64), alg.orbit)
    y = stacked_kernel_residue(alg, chosen, P)
    section = hecke._section_via_presentation(alg, chosen, P)
    assert np.array_equal(section[chosen], y.reshape(len(chosen), -1))
    assert np.array_equal(section, section_from_unknowns(alg, P, y))


def test_flatness_e2_recorded():
    reports = hecke_suite(2, 2, checks=("flatness",))
    assert len(reports) == 1
    assert reports[0].status == RECORDED
    assert "flat" in reports[0].verdicts


def test_suite_shape():
    reports = hecke_suite(2, 1, seed=0, n_random=3)
    lemmas = [r.lemma for r in reports]
    assert "hecke_dim" in lemmas
    assert "hecke_assoc" in lemmas
    assert "jbar_star_invariants" in lemmas
    assert "flatness" in lemmas
    assert sum(1 for x in lemmas if x == "vytastra") == 4  # free + 3 random
    assert all(r.status != FAIL for r in reports)


@pytest.mark.parametrize("presentation", ["balancing", "generators"])
def test_fixed_preimage_already_contains_the_tensor_relations(presentation):
    # the tensor relations are stable under the group action, so the fixed
    # preimage contains them without adding them once more
    alg = build_hecke(3, 1)
    upper = alg.J.group.upper_gen
    for M in [free_module(alg, 1)] + list(random_modules_hecke(alg, 21, 3)):
        K = tensor_K(M, presentation)
        op = K.action(upper)
        eye = np.eye(K.ambient, dtype=np.int64)
        pre = preimage_kernel(alg.ring, [(op - eye) % alg.ring.modulus], K.rel)
        assert K.fixed_preimage([op]) == span_sum(alg.ring, [pre.mat, K.rel.mat])


def test_vytastra_reads_false_on_a_zero_pairing(monkeypatch):
    # with the pairing m -> m (x) indicator set to zero, every module element
    # dies and no invariant class is reached
    real = hecke.tensor_K

    def zeroed(M, presentation="auto"):
        K = real(M, presentation)
        return replace(K, base_pairing=np.zeros_like(K.base_pairing))

    monkeypatch.setattr(hecke, "tensor_K", zeroed)
    rep = check_vytastra(free_module(build_hecke(3), 1))
    assert rep.status == FAIL
    assert rep.verdicts["injective"] is False
    assert rep.verdicts["onto_invariants"] is False
    assert rep.verdicts["bijective"] is False


def test_vytastra_quotient_questions_eliminate_at_the_section_columns(monkeypatch):
    # the random K(M) have 4-29 dimensions at p = 5 in a 12-48-dim block
    # carrier with 8-40 relation rows: K.fixed_preimage and the pairing's image_and_preimage
    # each eliminate one matrix with a row per section column of K, so a
    # fall-back to the ambient split fails here.  tensor_K's own
    # eliminations are not counted
    alg = build_hecke(5)
    shapes, sections = [], []
    real_howell, real_tensor = exactalg._howell, hecke.tensor_K

    def spy_howell(ring, A):
        shapes.append(A.shape)
        return real_howell(ring, A)

    def spy_tensor(M, presentation="auto"):
        K = real_tensor(M, presentation)
        sections.append(len(K.rel.section_cols()))
        shapes.clear()
        return K

    monkeypatch.setattr(exactalg, "_howell", spy_howell)
    monkeypatch.setattr(hecke, "tensor_K", spy_tensor)
    for M in [free_module(alg, 1, name="free:1"), *random_modules_hecke(alg, 7, 5)]:
        assert check_vytastra(M).status == PASS
        assert len(shapes) == 2 and all(rows <= sections[-1] for rows, _ in shapes), (M.name, sections, shapes)
    assert sections == [96, 4, 25, 8, 5, 29]  # K(H) = J, then the five quotients


def test_module_generator_search_fails_when_the_orbits_stay_zero():
    with pytest.raises(VerificationBug, match="module generator search failed"):
        hecke._module_generators(RingSpec(3), np.eye(3, dtype=np.int64), lambda v: np.zeros((1, 3), dtype=np.int64))


def test_preimages_fail_off_the_image_of_the_presentation():
    # over the algebra F_3 itself (d = 1) the rows of P span only the first
    # coordinate, so e_1 has no preimage
    with pytest.raises(VerificationBug, match="presentation does not reach a basis vector"):
        hecke._relations(RingSpec(3), np.array([[1, 0], [2, 0]]), np.ones((1, 1, 1), dtype=np.int64))
