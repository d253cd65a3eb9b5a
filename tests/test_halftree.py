"""Half-tree complexes: dimensions, equivariance, homology, reduction."""

from dataclasses import replace

import numpy as np
import pytest

from treelab import halftree
from treelab.catalog import builtin_catalog, get_module
from treelab.cli import main
from treelab.exactalg import CanonicalBasis, RingSpec, VerificationBug, howell_array, kernel_array
from treelab.grouprep import build_group, invariants, jbar, trivial_module
from treelab.halftree import (
    ChainComplexData,
    NotFixedClassError,
    build_complex,
    check_cogtri_hypothesis,
    check_corrpro,
    check_presentation,
    fixed_classes,
    reduce_chain,
    sample_fixed_class,
    tree_reports,
)
from treelab.report import PASS


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
    for m in range(D):
        assert np.array_equal(cc.level0_block(cur, m), cc.level0_block(v, m))
    top = cc.level0_block(v, D).reshape(p**D, cc.w)
    assert np.array_equal(
        cc.level0_block(cur, D).reshape(p**D, cc.w), (top @ cc.spec.twist) % p
    )
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
        rep = check_cogtri_hypothesis(W)
        assert rep.status == PASS
        assert rep.dims["source_coker"] == rep.dims["target_coker"]


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


def test_reduce_checks_telescoping_at_every_level(monkeypatch):
    # a first-peel certificate whose level-1 block no longer sums to zero
    # (level 0 untouched) must fail the telescoping identity
    cc = build_complex(get_module(3, 1, "jbar"), 3)
    c = sample_fixed_class(cc, np.random.default_rng(3))
    assert cc.top_level(c) == 3
    calls = []
    preimage = ChainComplexData.boundary_preimage

    def tampered(self, b):
        x = preimage(self, b)
        calls.append(x)
        if len(calls) == 2:  # the first peel's certificate
            x = x.copy()
            x[self.off1[1]] = (x[self.off1[1]] + 1) % self.ring.modulus
        return x

    monkeypatch.setattr(ChainComplexData, "boundary_preimage", tampered)
    with pytest.raises(VerificationBug, match="telescoping"):
        reduce_chain(cc, c)


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


@pytest.mark.parametrize("p,D", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (3, 4)])
def test_leaf_first_boundary_against_root_first_oracle(p, D):
    rng = np.random.default_rng(10 * p + D)
    for W, rho, u in leaf_first_variants(p):
        cc = build_complex(W, D, rho, u)
        dense = dense_leaf_first_span(cc)
        assert howell_array(cc.ring, dense.mat) == howell_array(cc.ring, cc.dmat), (W.name, rho)
        assert all(np.flatnonzero(row)[-1] == c for row, (c, _) in zip(dense.mat, dense.pivots))
        # the tree basis is the dense leaf-first form, without building it
        R = cc.boundary_span()
        assert R.nrows == dense.nrows == cc.dim1
        sec = R.section_cols()
        assert sec == dense.section_cols()
        assert set(range(cc.w)) <= set(sec)
        Y = rng.integers(0, p, size=(4, cc.dim0))
        assert np.array_equal(R.reduce_rows(Y), dense.reduce_rows(Y)), (W.name, rho)
        X = rng.integers(0, p, size=(3, cc.dim1))
        assert np.array_equal(cc.boundary_rows(X), (X @ cc.dmat) % p)
        # the peel's preimage against the dense solver: the same preimage
        # of every boundary, None on every non-boundary
        targets = np.concatenate([(X @ cc.dmat) % p, Y])
        for b in targets:
            x = cc.boundary_preimage(b)
            oracle = cc.boundary_solver().solve(b[::-1])
            assert (x is None) == (oracle is None) and (x is None or np.array_equal(x, oracle))
        for x0, b in zip(X, targets):
            x = cc.boundary_preimage(b)
            assert x is not None and np.array_equal(x, x0)


def dense_fixed_oracle(cc):
    """The kernel of the dense gq - I, gq the generator on the section coordinates of H0."""
    gq = cc.h0_generator_matrix()
    gq[np.diag_indices_from(gq)] -= 1
    return kernel_array(cc.ring, gq).mat


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
    for W, D, rho, u in fixed_oracle_cases():
        cc = build_complex(W, D, rho, u)
        fix, sec = fixed_classes(cc)
        oracle = dense_fixed_oracle(cc)
        assert sec == cc.boundary_span().section_cols()
        assert fix.shape == oracle.shape and np.array_equal(fix, oracle), (W.name, D, rho, u)


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
    fix, sec = fixed_classes(cc)
    assert fix.shape == (4, len(sec))
    w, B = reduce_chain(cc, sample_fixed_class(cc, np.random.default_rng(4)))
    assert cc.spec.inv_upper.contains(w)
    argv = "reduce --p 3 --depth 3 --module jbar --seed 5 --count 2 --json"
    assert main(argv.split() + [str(tmp_path / "doc.json")]) == 0
