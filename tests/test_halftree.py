"""Half-tree complexes: dimensions, equivariance, homology, reduction."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from treelab import halftree
from treelab.catalog import builtin_catalog, get_module
from treelab.cli import main
from treelab.exactalg import CanonicalBasis, RingSpec, RowSolver, VerificationBug, howell_array, kernel_array
from treelab.grouprep import build_group, invariants, jbar, trivial_module
from treelab.halftree import (
    ChainComplexData,
    NotFixedClassError,
    TreeBasis,
    build_coeff_spec,
    build_complex,
    check_cogtri_hypothesis,
    check_corrpro,
    check_presentation,
    fixed_classes,
    reduce_chain,
    sample_fixed_class,
    tree_reports,
)
from treelab.report import FAIL, PASS, REJECTED


def tree_incidence_oracle(p, D):
    """Signed vertex-edge incidence of the truncated p-ary tree, built
    directly from the index conventions (independent of the package)."""
    nv = sum(p**m for m in range(D + 1))
    ne = sum(p ** (m + 1) for m in range(D))
    voff = np.cumsum([0] + [p**m for m in range(D + 1)])
    eoff = np.cumsum([0] + [p ** (m + 1) for m in range(D)])
    inc = np.zeros((ne, nv), dtype=np.int64)
    for m in range(D):
        s_par = 1 if m % 2 == 0 else -1
        s_child = -s_par
        for b in range(p ** (m + 1)):
            inc[eoff[m] + b, voff[m] + (b % p**m)] += s_par
            inc[eoff[m] + b, voff[m + 1] + b] += s_child
    return inc


def g1_image_index(cc):
    """The generator on 1-chains as a row permutation: edge b goes to edge b + 1 at its level."""
    idx = np.arange(cc.dim1)
    for m in range(cc.depth):
        blk = idx[cc.off1[m] : cc.off1[m + 1]].reshape(cc.p ** (m + 1), cc.t)
        idx[cc.off1[m] : cc.off1[m + 1]] = np.roll(blk, -1, axis=0).reshape(-1)
    return idx


@pytest.mark.parametrize("p,D", [(2, 1), (2, 3), (3, 2), (5, 2)])
def test_trivial_module_complex_is_signed_incidence(p, D):
    grp = build_group("sl2", p)
    triv = trivial_module(grp, RingSpec(p, 1))
    cc = build_complex(triv, D)
    oracle = tree_incidence_oracle(p, D) % p
    assert np.array_equal(cc.dmat, oracle)


def test_dimension_formula_jbar_p3_d2():
    J = jbar(build_group("sl2", 3), RingSpec(3, 1))
    cc = build_complex(J, 2)
    assert cc.dim0 == 8 * (1 + 3 + 9) == 104
    assert cc.dim1 == 4 * (3 + 9) == 48


@pytest.mark.parametrize("p,D", [(2, 4), (3, 3), (5, 2)])
def test_dimension_bookkeeping(p, D):
    for W in builtin_catalog(p, 1):
        cc = build_complex(W, D)
        t = invariants(W, [W.group.lower_gen]).nrows
        assert cc.dim0 == W.rank * sum(p**m for m in range(D + 1))
        assert cc.dim1 == t * sum(p ** (m + 1) for m in range(D))


def test_equivariance_checked_at_build():
    # the coefficient system asserts the local identities that make the
    # boundary equivariant; verify it on the dense boundary too
    J = jbar(build_group("sl2", 3), RingSpec(3, 1))
    cc = build_complex(J, 2)
    lhs = cc.dmat[g1_image_index(cc), :]
    rhs = cc.apply_g0_rows(cc.dmat)
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("block", [0, 1, 2])
def test_tampered_down_stack_fails_the_equivariance_check(monkeypatch, block):
    # one corrupted entry in child block j breaks the equivariance of the
    # dense boundary, and the local check at build must see it
    J = jbar(build_group("sl2", 3), RingSpec(3, 1))
    spec = halftree.build_coeff_spec(J)
    stack = spec.down_stack.copy()
    stack[block * spec.inv_lower.nrows + 1, 2] += 1
    stack %= 3
    cc = ChainComplexData(replace(spec, down_stack=stack), 3)
    assert not np.array_equal(cc.dmat[g1_image_index(cc), :], cc.apply_g0_rows(cc.dmat))
    monkeypatch.setattr(halftree, "translate_stack", lambda *args: stack)
    with pytest.raises(VerificationBug, match="not equivariant"):
        build_complex(J, 3)


def test_generator_orders():
    # the procyclic group acts on the depth-D truncation through its
    # quotient of order p^(D+1): leaf stabilizers still twist leaf fibers,
    # so g^(p^D) acts as the twist on the top level and trivially below
    p, D = 2, 3
    J = jbar(build_group("sl2", p), RingSpec(p, 1))
    cc = build_complex(J, D)
    rng = np.random.default_rng(1)
    v = rng.integers(0, p, size=cc.dim0)
    cur = v.copy()
    for _ in range(p**D):
        cur = cc.apply_g0(cur)
    top = cc.off0[D]
    assert np.array_equal(cur[:top], v[:top])
    assert np.array_equal(cur[top:].reshape(p**D, cc.w), (v[top:].reshape(p**D, cc.w) @ cc.spec.twist) % p)
    for _ in range(p**D * (p - 1)):
        cur = cc.apply_g0(cur)
    assert np.array_equal(cur, v)  # full order p^(D+1)
    # edge blocks carry no twist: order divides p^D on 1-chains
    w1 = rng.integers(0, p, size=cc.dim1)
    shift = g1_image_index(cc)
    cur = w1.copy()
    for _ in range(p**D):
        cur = cur[shift]
    assert np.array_equal(cur, w1)


def test_homology_trivial_module_contractible():
    grp = build_group("sl2", 2)
    triv = trivial_module(grp, RingSpec(2, 1))
    cc = build_complex(triv, 3)
    assert cc.dim0 - cc.boundary_span().nrows == 1
    assert kernel_array(cc.ring, cc.dmat).nrows == 0
    assert np.array_equal(cc.h0_generator_matrix(), np.eye(1, dtype=np.int64))


@pytest.mark.parametrize("p,depths", [(2, (1, 2, 3, 4)), (3, (1, 2, 3))])
def test_h1_vanishes_on_catalog(p, depths):
    for W in builtin_catalog(p, 1):
        for D in depths:
            cc = build_complex(W, D)
            assert kernel_array(cc.ring, cc.dmat).nrows == 0, (W.name, D)
            assert cc.boundary_span().nrows == cc.dim1


def test_rank_nullity_on_h0():
    J = jbar(build_group("sl2", 3), RingSpec(3, 1))
    cc = build_complex(J, 3)
    assert kernel_array(cc.ring, cc.dmat).nrows == 0
    assert cc.dim0 - cc.boundary_span().nrows == cc.dim0 - cc.dim1


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_corrpro_jbar_p3_value_four(D):
    J = get_module(3, 1, "jbar")
    rep = check_corrpro(build_complex(J, D))
    assert rep.status == PASS
    assert rep.dims["dim_h0_fixed"] == 4


@pytest.mark.parametrize("D", [1, 2, 3])
def test_corrpro_trivial_value_one(D):
    W = get_module(3, 1, "trivial")
    rep = check_corrpro(build_complex(W, D))
    assert rep.status == PASS
    assert rep.dims["dim_h0_fixed"] == 1


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_corrpro_steinberg_value_one(D):
    W = get_module(3, 1, "steinberg")
    rep = check_corrpro(build_complex(W, D))
    assert rep.status == PASS
    assert rep.dims["dim_h0_fixed"] == 1


def test_corrpro_depth_stability_matches_invariants():
    for p, depths in [(2, (1, 2, 3)), (3, (1, 2))]:
        grp = build_group("sl2", p)
        for W in builtin_catalog(p, 1):
            expect = invariants(W, [grp.upper_gen]).nrows
            for D in depths:
                rep = check_corrpro(build_complex(W, D))
                assert rep.status == PASS
                assert rep.dims["dim_h0_fixed"] == expect, (W.name, D)


def test_corrpro_rejects_e2_module():
    J2 = jbar(build_group("sl2", 3), RingSpec(3, 2))
    (rep,) = tree_reports(J2, 2, "w0", 1, ("corrpro",))
    assert rep.status == "rejected"


def test_rho_robustness_variants():
    J = get_module(3, 1, "jbar")
    base = check_corrpro(build_complex(J, 2))
    for rho in ("w0", "twist:1", "scalar:1"):
        for u in (1, 2):
            rep = check_corrpro(build_complex(J, 2, rho, u))
            assert rep.status == PASS
            assert rep.dims["dim_h0_fixed"] == base.dims["dim_h0_fixed"]


def test_bad_rho_rejected():
    J = get_module(3, 1, "jbar")
    with pytest.raises(ValueError):
        build_complex(J, 2, rho_choice="nonsense")


@pytest.mark.parametrize("p,D", [(2, 4), (2, 6), (3, 3)])
def test_presentation_exactness(p, D):
    for W in builtin_catalog(p, 1):
        rep = check_presentation(build_complex(W, D))
        assert rep.status == PASS, (W.name, rep.to_dict())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cogtri_hypothesis_bijective(p):
    for W in builtin_catalog(p, 1):
        rep = check_cogtri_hypothesis(build_coeff_spec(W))
        assert rep.status == PASS
        assert rep.dims["source_coker"] == rep.dims["target_coker"]


def test_cogtri_reads_false_on_zero_child_embeddings():
    # zero child blocks intertwine trivially, but every source class maps
    # to zero and no class of the nonzero target coker(c - 1) is reached
    spec = build_coeff_spec(get_module(3, 1, "jbar"))
    rep = check_cogtri_hypothesis(replace(spec, down_stack=np.zeros_like(spec.down_stack)))
    assert rep.status == FAIL
    assert rep.verdicts["h1_injective"] is False
    assert rep.verdicts["h1_bijective"] is False
    assert rep.dims["target_coker"] > 0


def test_reduce_pure_edge_vector():
    J = get_module(3, 1, "jbar")
    cc = build_complex(J, 3)
    coeffs = np.array([1, 0, 2, 1])
    wv = (coeffs @ cc.spec.inv_upper.mat) % 3
    c = np.zeros(cc.dim0, dtype=np.int64)
    c[: cc.w] = wv
    w, B = reduce_chain(cc, c)
    assert np.array_equal(w, wv)
    assert not np.any(B)


def test_reduce_edge_vector_plus_boundary():
    J = get_module(3, 1, "jbar")
    cc = build_complex(J, 3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        coeffs = rng.integers(0, 3, size=cc.spec.inv_upper.nrows)
        wv = (coeffs @ cc.spec.inv_upper.mat) % 3
        bnd = rng.integers(0, 3, size=cc.dim1)
        c = np.zeros(cc.dim0, dtype=np.int64)
        c[: cc.w] = wv
        c = (c + bnd @ cc.dmat) % 3
        w, B = reduce_chain(cc, c)
        assert np.array_equal(w, wv)
        assert np.array_equal((B @ cc.dmat) % 3, (bnd @ cc.dmat) % 3)


@pytest.mark.parametrize("p,D", [(2, 2), (2, 4), (3, 2), (3, 4)])
def test_reduce_random_fixed_classes(p, D):
    J = get_module(p, 1, "jbar")
    cc = build_complex(J, D)
    rng = np.random.default_rng(100 * p + D)
    for _ in range(10):
        c = sample_fixed_class(cc, rng)
        w, B = reduce_chain(cc, c)
        lifted = np.zeros(cc.dim0, dtype=np.int64)
        lifted[: cc.w] = w
        assert np.array_equal((lifted + B @ cc.dmat) % p, c)
        assert cc.spec.inv_upper.contains(w)


def test_reduce_rejects_unfixed_class():
    J = get_module(3, 1, "jbar")
    cc = build_complex(J, 2)
    # a class living at the top level that no boundary can move to its
    # translate: a single fiber vector outside the fixed subspace
    c = np.zeros(cc.dim0, dtype=np.int64)
    probe = None
    for i in range(cc.w):
        c[:] = 0
        c[cc.off0[2] + i] = 1
        try:
            reduce_chain(cc, c)
        except NotFixedClassError:
            probe = i
            break
    assert probe is not None


def certificate(cc, b):
    """The 1-chain x with x @ dmat = b, by the dense solver, or None."""
    return cc.boundary_solver().solve(b[::-1])


def level_peeling_reduce(cc, c):
    """The level-peeling induction, the oracle of `reduce_chain`.

    Push all mass to the top level through the child-edge surjections,
    certify that the top level is stabilizer-fixed, then peel it through
    the parent edges, until only the root block is left; every identity
    the argument guarantees is asserted.  Boundaries are taken on `dmat`.
    """
    N, p, w, t = cc.ring.modulus, cc.p, cc.w, cc.t
    c = np.asarray(c, dtype=np.int64) % N
    if certificate(cc, (cc.apply_g0(c) - c) % N) is None:
        raise NotFixedClassError("class not fixed by the cyclic generator")
    down, up = RowSolver(cc.ring, cc.spec.down_stack), RowSolver(cc.ring, cc.spec.rho)
    B = np.zeros(cc.dim1, dtype=np.int64)

    def block(m):
        return c[cc.off0[m] : cc.off0[m + 1]]

    def top_level():
        return max((m for m in range(cc.depth + 1) if block(m).any()), default=0)

    def subtract_boundary(m, xm):
        x = np.zeros(cc.dim1, dtype=np.int64)
        x[cc.off1[m] : cc.off1[m + 1]] = xm.reshape(-1)
        c[:] = (c - x @ cc.dmat) % N
        B[:] = (B + x) % N

    while (n := top_level()) > 0:
        # push every value below the top down through the child edges, one
        # level at a time: edge a + j p^m takes block j of vertex a's solution
        for m in range(n):
            if block(m).any():
                u, ok = down.solve_rows(block(m).reshape(p**m, w))
                assert ok.all(), "child edges fail to span a vertex fiber"
                subtract_boundary(m, (cc.signs[m] * u).reshape(p**m, p, t).transpose(1, 0, 2) % N)
        if (n := top_level()) == 0:
            break
        # the unique 1-chain moving c to its translate; levels >= n vanish
        b = certificate(cc, (cc.apply_g0(c) - c) % N)
        assert b is not None, "fixedness certificate disappeared during reduction"
        assert not b[cc.off1[n] :].any(), "certificate chain has support above the top level"
        # telescoping: the g-orbit sum of b over p^(m+1) steps, whose level-m
        # block is that block's sum over its edges, vanishes at every m < n
        for m in range(n):
            edges = b[cc.off1[m] : cc.off1[m + 1]].reshape(p ** (m + 1), t)
            assert not (edges.sum(axis=0) % N).any(), "telescoping identity fails"
        top = block(n).reshape(p**n, w)
        assert np.array_equal((top @ cc.spec.twist) % N, top), "top level is not stabilizer-fixed"
        # peel the top level through the parent edges
        u, ok = up.solve_rows((cc.signs[n] * top) % N)
        assert ok.all(), "top value escapes the parent edge image"
        subtract_boundary(n - 1, u)
        assert not block(n).any(), "peeling did not clear the top level"
    return c[:w].copy(), B


def reduce_oracle_cases():
    """Every catalog module, gluing and unit twist at p=2 D<=4, p=3 D<=3 and p=5 D<=2."""
    variants = [(rho, u) for rho in ("w0", "twist:1", "scalar:1") for u in (1, 2)]
    for p, depth in ((2, 4), (3, 3), (5, 2)):
        for W in builtin_catalog(p, 1):
            for D in range(1, depth + 1):
                yield from ((W, D, rho, u) for rho, u in variants if u % p)


def test_reduce_matches_the_level_peeling_oracle():
    rng = np.random.default_rng(12)
    for W, D, rho, u in reduce_oracle_cases():
        cc = build_complex(W, D, rho, u)
        for _ in range(2):
            c = sample_fixed_class(cc, rng)
            w, B = reduce_chain(cc, c)
            w0, B0 = level_peeling_reduce(cc, c)
            assert np.array_equal(w, w0) and np.array_equal(B, B0), (W.name, D, rho, u)
            assert cc.spec.inv_upper.contains(w)


def test_reduce_is_one_peel(monkeypatch):
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    c = sample_fixed_class(cc, np.random.default_rng(5))
    calls = []
    peel = ChainComplexData.peel

    def counted(self, X):
        calls.append(X.shape)
        return peel(self, X)

    def refused(self, B):
        raise AssertionError("RowSolver used")

    monkeypatch.setattr(ChainComplexData, "peel", counted)
    monkeypatch.setattr(RowSolver, "solve_rows", refused)
    reduce_chain(cc, c)
    assert calls == [(2, cc.dim0)]


def test_reduce_refuses_a_residue_off_the_root_block(monkeypatch):
    # a peel that leaves mass at a non-root section column of a fixed class
    # is a fault of the reduction, not of the class
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    c = sample_fixed_class(cc, np.random.default_rng(3))
    col = cc.boundary_span().section_cols()[cc.w]
    assert col >= cc.w
    peel = ChainComplexData.peel

    def tampered(self, X):
        residue, coeffs = peel(self, X)
        residue[0, col] = (residue[0, col] + 1) % self.ring.modulus
        return residue, coeffs

    monkeypatch.setattr(ChainComplexData, "peel", tampered)
    with pytest.raises(VerificationBug, match="outside the level-0 edge image"):
        reduce_chain(cc, c)


def test_reduce_checks_telescoping_at_every_level(monkeypatch):
    # a first-peel certificate whose level-1 block no longer sums to zero
    # (level 0 untouched) must fail the oracle's telescoping identity
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    c = sample_fixed_class(cc, np.random.default_rng(3))
    assert c[cc.off0[3] :].any()
    calls = []
    solve = certificate

    def tampered(cc, b):
        x = solve(cc, b)
        calls.append(x)
        if len(calls) == 2:  # the first peel's certificate
            x = x.copy()
            x[cc.off1[1]] = (x[cc.off1[1]] + 1) % cc.ring.modulus
        return x

    level_peeling_reduce(cc, c)
    monkeypatch.setitem(globals(), "certificate", tampered)
    with pytest.raises(AssertionError, match="telescoping"):
        level_peeling_reduce(cc, c)


@pytest.mark.parametrize("p,D", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_root_fiber_injects_into_h0(p, D):
    # the full vertex fiber at the base vertex, not only the edge image,
    # meets the boundary image trivially
    from treelab.exactalg import kernel_array

    for W in builtin_catalog(p, 1):
        cc = build_complex(W, D)
        R = cc.boundary_span()
        embed = np.zeros((cc.w, cc.dim0), dtype=np.int64)
        embed[:, : cc.w] = np.eye(cc.w, dtype=np.int64)
        red = R.reduce_rows(embed)
        assert kernel_array(cc.ring, red).nrows == 0, W.name


def test_fixed_class_sampler_fixed_in_quotient():
    J = get_module(3, 1, "jbar")
    cc = build_complex(J, 2)
    R = cc.boundary_span()
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = sample_fixed_class(cc, rng)
        moved = (cc.apply_g0(c) - c) % 3
        assert not R.reduce_rows(moved).any()


def leaf_first_variants(p):
    yield from ((W, "w0", 1) for W in builtin_catalog(p, 1))
    if p > 2:
        yield get_module(p, 1, "jbar"), "twist:1", 2
        yield get_module(p, 1, "jbar"), "scalar:1", 1


def dense_leaf_first_span(cc):
    """The Howell form of the dense boundary with the C0 columns reversed,
    flipped back: a row's pivot is its last nonzero column."""
    H = howell_array(cc.ring, cc.dmat[:, ::-1])
    n = cc.dim0
    pivots = tuple((n - 1 - c, g) for c, g in reversed(H.pivots))
    return CanonicalBasis(cc.ring, n, np.ascontiguousarray(H.mat[::-1, ::-1]), pivots)


def sparse_product(X, M, N):
    """X @ M mod N, row by row over the nonzeros of X."""
    out = np.zeros((X.shape[0], M.shape[1]), dtype=np.int64)
    for i, row in enumerate(X):
        nz = np.flatnonzero(row)
        out[i] = row[nz] @ M[nz]
    return out % N


@pytest.mark.parametrize("p,D", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (3, 4)])
def test_leaf_first_boundary_against_root_first_oracle(p, D):
    rng = np.random.default_rng(10 * p + D)
    for W, rho, u in leaf_first_variants(p):
        cc = build_complex(W, D, rho, u)
        dense = dense_leaf_first_span(cc)
        # span(dense) = span(dmat): each of the dim C1 rows of dense, which
        # are independent over F_p, is its peel coefficients times dmat
        residue, Z = cc.peel(dense.mat)
        assert not residue.any() and dense.nrows == cc.dim1
        assert np.array_equal(sparse_product(Z, cc.dmat, p), dense.mat), (W.name, rho)
        last = cc.dim0 - 1 - np.argmax(dense.mat[:, ::-1] != 0, axis=1)
        assert np.array_equal(last, [c for c, _ in dense.pivots])
        # the tree basis is the dense leaf-first form, without building it
        R = cc.boundary_span()
        assert R.nrows == dense.nrows == cc.dim1
        sec = R.section_cols()
        assert sec.tolist() == dense.section_cols()
        assert set(range(cc.w)) <= set(sec)
        Y = rng.integers(0, p, size=(4, cc.dim0))
        assert np.array_equal(R.reduce_rows(Y), dense.reduce_rows(Y)), (W.name, rho)
        X = rng.integers(0, p, size=(3, cc.dim1))
        assert np.array_equal(cc.boundary_rows(X), (X @ cc.dmat) % p)
        # the peel's coefficients against the dense solver: the same preimage
        # of every boundary, a nonzero residue on every non-boundary
        targets = np.concatenate([(X @ cc.dmat) % p, Y])
        residue, coeffs = cc.peel(targets)
        oracle, ok = cc.boundary_solver().solve_rows(targets[:, ::-1])
        assert np.array_equal(residue.any(axis=1), ~ok) and np.array_equal(coeffs[ok], oracle[ok])
        assert not residue[: len(X)].any() and np.array_equal(coeffs[: len(X)], X)


def dense_fixed_oracle(cc):
    """The kernel of the dense gq - I, gq the generator on the section coordinates of H0."""
    gq = cc.h0_generator_matrix()
    gq[np.diag_indices_from(gq)] -= 1
    return kernel_array(cc.ring, gq).mat


def wide_fixed_oracle(cc):
    """The fixed basis by the wide route, in section coordinates.

    Unit rows of width dim C0 at the last vertex of every shift orbit, moved
    by the generator and peeled over the whole tree; the reduced wrap rows
    must meet the section columns at vertex 0 only.  The kernel of the orbit
    system, expanded over the orbits, is put in Howell form.
    """
    w = cc.w
    R = cc.boundary_span()
    sec = R.section_cols()
    levels = [np.arange(w)] + [cc.local_free] * cc.depth
    start = np.cumsum([0] + [local.size for local in levels])
    owner = np.concatenate(
        [s + np.tile(np.arange(local.size), cc.p**m) for m, (s, local) in enumerate(zip(start, levels))]
    )
    ends = np.concatenate([cc.off0[m + 1] - w + local for m, local in enumerate(levels)])
    _, first = np.unique(owner, return_index=True)  # each orbit starts at vertex 0
    unit = np.zeros((ends.size, cc.dim0), dtype=np.int64)
    unit[np.arange(ends.size), ends] = 1
    red = R.reduce_rows(cc.apply_g0_rows(unit))[:, sec]
    M = red[:, first]
    red[:, first] = 0
    assert not red.any(), "a wrap row meets a section column off vertex 0"
    M[np.diag_indices_from(M)] -= 1
    Y = kernel_array(cc.ring, M).mat
    return howell_array(cc.ring, Y[:, owner]).mat


def expanded_fixed_basis(cc):
    """The orbit-coordinate fixed basis of `fixed_classes`, expanded to the section columns."""
    fixed, owner = fixed_classes(cc)
    assert owner.size == len(cc.boundary_span().section_cols())
    return fixed.mat[:, owner]


def fixed_oracle_cases():
    """Every gluing and twist on the catalog at D <= 2 and on jbar at p=3 D=4;
    two of them on jbar at p=5 D=3, whose dense oracle takes 0.5 s each."""
    variants = [(rho, u) for rho in ("w0", "twist:1", "scalar:1") for u in (1, 2)]
    for p in (2, 3, 5):
        for W in builtin_catalog(p, 1):
            for D in (1, 2):
                yield from ((W, D, rho, u) for rho, u in variants if u % p)
    yield from ((get_module(3, 1, "jbar"), 4, rho, u) for rho, u in variants)
    yield from ((get_module(5, 1, "jbar"), 3, rho, u) for rho, u in (("w0", 1), ("twist:1", 2)))


def test_fixed_classes_against_dense_generator_oracle():
    large = [(W, D, "w0", 1) for p, D in ((7, 2), (2, 5)) for W in builtin_catalog(p, 1)]
    for W, D, rho, u in [*fixed_oracle_cases(), *large]:
        cc = build_complex(W, D, rho, u)
        fix = expanded_fixed_basis(cc)
        for oracle in (dense_fixed_oracle(cc), wide_fixed_oracle(cc)):
            assert fix.shape == oracle.shape and np.array_equal(fix, oracle), (W.name, D, rho, u)


def test_fixed_classes_against_both_oracles_off_the_hypotheses():
    # on a valid complex the orbit system is block lower-triangular with an
    # invertible M_ll - I below the root, so only the root block decides the
    # kernel; a random twist makes those blocks singular, and the blocks that
    # carry each wrap row up its root path then enter the fixed basis
    below_root = 0
    for p, D in ((2, 3), (3, 2), (5, 2)):
        spec = build_coeff_spec(get_module(p, 1, "jbar"))
        rng = np.random.default_rng(p)
        for _ in range(6):
            cc = ChainComplexData(replace(spec, twist=rng.integers(0, p, size=spec.twist.shape)), D)
            fix = expanded_fixed_basis(cc)
            below_root += bool(fix[:, cc.w :].any())
            for oracle in (dense_fixed_oracle(cc), wide_fixed_oracle(cc)):
                assert fix.shape == oracle.shape and np.array_equal(fix, oracle), (p, D)
    assert below_root


def test_fixed_part_is_read_off_the_root_path(monkeypatch):
    # no row of width dim C0 is peeled, shifted or reduced on the corrpro path
    def wide(*args):
        raise AssertionError("a wide row was built")

    for name in ("peel", "apply_g0_rows"):
        monkeypatch.setattr(ChainComplexData, name, wide)
    monkeypatch.setattr(TreeBasis, "reduce_rows", wide)
    cc = build_complex(get_module(5, 1, "jbar"), 3)
    fixed, owner = fixed_classes(cc)
    assert fixed.nrows == cc.spec.inv_upper.nrows and owner.size == cc.dim0 - cc.dim1
    rep = check_corrpro(build_complex(get_module(5, 1, "jbar"), 3))  # a fresh complex: no cached basis
    assert rep.status == PASS and rep.dims["dim_h0_fixed"] == cc.spec.inv_upper.nrows


def test_corrpro_never_builds_the_dense_generator(monkeypatch):
    def dense(self):
        raise AssertionError("dense H0 generator built")

    monkeypatch.setattr(ChainComplexData, "h0_generator_matrix", dense)
    rep = check_corrpro(build_complex(get_module(3, 1, "jbar"), 3))
    assert rep.status == PASS and rep.dims["dim_h0_fixed"] == 4


def test_verify_and_reduce_never_build_the_dense_boundary(monkeypatch, tmp_path):
    def dense(self):
        raise AssertionError("dense boundary built")

    monkeypatch.setattr(ChainComplexData, "dmat", property(dense))
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    assert check_corrpro(cc).status == PASS and check_presentation(cc).status == PASS
    assert expanded_fixed_basis(cc).shape == (4, len(cc.boundary_span().section_cols()))
    w, B = reduce_chain(cc, sample_fixed_class(cc, np.random.default_rng(4)))
    assert cc.spec.inv_upper.contains(w)
    argv = "reduce --p 3 --depth 3 --module jbar --seed 5 --count 2 --json"
    assert main(argv.split() + [str(tmp_path / "doc.json")]) == 0


def test_tree_suites_import_no_numpy_ma():
    # numpy.ma takes 15-22 ms to import (np.setdiff1d imports it), and
    # building a complex, corrpro and a reduction need none of it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from treelab.catalog import get_module\n"
        "from treelab.halftree import build_complex, check_corrpro, reduce_chain, sample_fixed_class\n"
        "cc = build_complex(get_module(3, 1, 'jbar'), 2)\n"
        "check_corrpro(cc)\n"
        "reduce_chain(cc, sample_fixed_class(cc, np.random.default_rng(0)))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_corrpro_injective_and_landing_rest_on_the_build_of_inv_upper(p):
    # the build takes inv_upper as the Howell basis over F_p of the upper
    # invariants, so its rows are independent and fixed by the twist, a power
    # of the upper generator: `injective` and `lands_in_fixed_part` cannot
    # read false on a built complex
    for W in builtin_catalog(p, 1):
        cc = build_complex(W, 2, twist_u=p - 1)
        upper = cc.spec.inv_upper
        assert upper == invariants(W, [W.group.upper_gen])
        assert kernel_array(cc.ring, upper.mat).nrows == 0
        assert np.array_equal(cc.spec.twist, np.linalg.matrix_power(W.action(W.group.upper_gen), p - 1) % p)
        verdicts = check_corrpro(cc).verdicts
        assert verdicts["injective"] is True and verdicts["lands_in_fixed_part"] is True


def test_corrpro_injective_and_landing_read_false_past_the_build():
    cc = build_complex(get_module(3, 1, "jbar"), 2)
    up = cc.spec.inv_upper
    doubled = CanonicalBasis(cc.ring, up.ncols, np.concatenate([up.mat, up.mat[:1]]), up.pivots + up.pivots[:1])
    rep = check_corrpro(ChainComplexData(replace(cc.spec, inv_upper=doubled), 2))
    assert rep.status == FAIL
    assert rep.verdicts["injective"] is False
    units = howell_array(cc.ring, np.eye(cc.w, dtype=np.int64)[: up.nrows])
    rep = check_corrpro(ChainComplexData(replace(cc.spec, inv_upper=units), 2))
    assert rep.status == FAIL
    assert rep.verdicts["lands_in_fixed_part"] is False


def test_corrpro_onto_and_dims_read_false_with_an_identity_twist():
    # an identity twist fixes every class of H0, so the fixed part outgrows
    # the upper invariants
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    twist = np.eye(cc.spec.twist.shape[0], dtype=np.int64)
    rep = check_corrpro(ChainComplexData(replace(cc.spec, twist=twist), 3))
    assert rep.status == FAIL
    assert rep.verdicts["onto_fixed_part"] is False and rep.verdicts["dims_equal"] is False
    assert rep.dims["dim_h0_fixed"] == 20 and rep.dims["dim_inv_upper"] == 4


def test_presentation_verdicts_rest_on_the_injective_rho_gate(monkeypatch):
    # build_coeff_spec refuses a rho that is not injective, so a built
    # complex has t boundary rows per non-root vertex, dim C1 in all:
    # boundary_injective and h1_zero hold, and rank_nullity is an identity
    for W in builtin_catalog(3, 1):
        cc = build_complex(W, 2)
        rank = cc.boundary_span().nrows
        assert rank == cc.t * sum(cc.p**m for m in range(1, cc.depth + 1)) == cc.dim1
        assert rank == howell_array(cc.ring, cc.dmat).nrows
        assert check_presentation(cc).status == PASS
    real = halftree.resolve_rho

    def rank_deficient(W, choice, inv_lower):
        rho = real(W, choice, inv_lower).copy()
        rho[-1] = rho[0]
        return rho

    monkeypatch.setattr(halftree, "resolve_rho", rank_deficient)
    J = get_module(3, 1, "jbar")
    with pytest.raises(ValueError, match="rho is not an isomorphism onto the upper invariants"):
        build_coeff_spec(J)
    (rep,) = tree_reports(J, 2, "w0", 1, ("presentation",))
    assert rep.status == REJECTED
