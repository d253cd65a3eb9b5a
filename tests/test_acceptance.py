"""Acceptance criteria, one test per criterion, exact tolerances.

Every expected value here is either a frozen structural constant
(dimension formulas cross-checked by enumeration oracles in the unit
tests) or an exact verdict; runtime bounds are asserted where stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

import numpy as np

from treelab.catalog import builtin_catalog
from treelab.exactalg import RingSpec, howell_array
from treelab.grouprep import build_group, decompose_jbar, invariants, jbar
from treelab.halftree import build_complex, reduce_chain, sample_fixed_class, tree_reports
from treelab.hecke import hecke_suite
from treelab.lemmas import lemma21_suite, lemma22_suite
from treelab.report import PASS, RECORDED

from oracles import composition_length, howell_array_sparse

GRID3 = {2: (1, 2, 3, 4, 5, 6), 3: (1, 2, 3, 4), 5: (1, 2, 3)}

_grid_cache: dict = {}


def grid_results():
    """Criterion-3 grid, computed once and shared with criteria 4 and 8.

    Each entry is (corrpro report, presentation report, wall seconds for
    the whole grid point including the complex construction).
    """
    if _grid_cache:
        return _grid_cache
    for p, depths in GRID3.items():
        for W in builtin_catalog(p, 1):
            for D in depths:
                t0 = time.monotonic()
                corr, pres = tree_reports(W, D, "w0", 1, ("corrpro", "presentation"))
                _grid_cache[(p, W.name, D)] = (corr, pres, time.monotonic() - t0)
    return _grid_cache


def _announce(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_lemma21_suite():
    t0 = time.monotonic()
    total = 0
    for p in (2, 3, 5):
        reports = lemma21_suite(p, builtin_catalog(p, 1), seed=2024, n_random=50)
        total += len(reports)
        bad = [r for r in reports if r.status != PASS]
        assert not bad, bad[0].to_dict()
        for r in reports:
            if r.lemma == "lemma21":
                assert r.verdicts["mult_surjective"]
                assert r.verdicts["ker_mult_in_ker_aug"]
                assert r.verdicts["h1_bijective_all_twists"]
                assert r.verdicts["inv_to_coinv_bijective"]
    elapsed = time.monotonic() - t0
    _announce(1, elapsed < 60.0, f"{total} reports over p in (2,3,5), zero failures, {elapsed:.1f}s < 60s")


def test_criterion_2_lemma22_suite():
    t0 = time.monotonic()
    total = 0
    for p in (2, 3):
        for e in (1, 2, 3):
            reports = lemma22_suite(p, e, seed=2024, n_random=25)
            surj = [r for r in reports if r.lemma == "lemma22.i"]
            inj = [r for r in reports if r.lemma == "lemma22.ii"]
            assert len(surj) >= 25 and len(inj) >= 25
            bad = [r for r in reports if r.status != PASS]
            assert not bad, bad[0].to_dict()
            total += len(reports)
    elapsed = time.monotonic() - t0
    _announce(2, elapsed < 120.0, f"{total} verdicts over p in (2,3) x e in (1,2,3), {elapsed:.1f}s < 120s")


def test_criterion_3_fixed_part_correspondence():
    t0 = time.monotonic()
    checked = 0
    slowest = 0.0
    for p, depths in GRID3.items():
        grp = build_group("sl2", p)
        for W in builtin_catalog(p, 1):
            expect = invariants(W, [grp.upper_gen]).nrows
            for D in depths:
                rep, _, point = grid_results()[(p, W.name, D)]
                slowest = max(slowest, point)
                assert rep.status == PASS, rep.to_dict()
                assert rep.verdicts["bijective"]
                assert rep.dims["dim_h0_fixed"] == expect, (p, W.name, D)
                if W.name == "jbar" and p == 3:
                    assert rep.dims["dim_h0_fixed"] == 4
                if W.name == "trivial":
                    assert rep.dims["dim_h0_fixed"] == 1
                checked += 1
    assert slowest < 300.0
    elapsed = time.monotonic() - t0
    _announce(3, True, f"{checked} grid points bijective at the expected dimension, "
                       f"largest point {slowest:.1f}s < 300s (total {elapsed:.1f}s)")


def test_criterion_4_h1_vanishing_and_exactness():
    bad = []
    for (p, name, D), (_, pres, _t) in grid_results().items():
        if pres.status != PASS or not pres.verdicts["boundary_injective"]:
            bad.append((p, name, D))
        assert pres.dims["rank"] == pres.dims["dim_c1"], (p, name, D)
    _announce(4, not bad, f"boundary injective (exact rank, zero tolerance) on all "
                          f"{len(grid_results())} instances")


def test_criterion_5_reduction_with_certificates():
    t0 = time.monotonic()
    runs = 0
    for p in (2, 3):
        J = jbar(build_group("sl2", p), RingSpec(p, 1))
        for D in (1, 2, 3, 4):
            cc = build_complex(J, D)
            rng = np.random.default_rng(10_000 * p + D)
            for _ in range(100):
                c = sample_fixed_class(cc, rng)
                w, B = reduce_chain(cc, c)  # fixedness and edge-image checks inside
                lifted = np.zeros(cc.dim0, dtype=np.int64)
                lifted[: cc.w] = w
                assert np.array_equal((lifted + B @ cc.dmat) % p, c)
                assert cc.spec.inv_upper.contains(w)
                runs += 1
    elapsed = time.monotonic() - t0
    _announce(5, runs == 800, f"{runs} seeded classes reduced with exact boundary "
                              f"certificates ({elapsed:.1f}s)")


def test_criterion_6_hecke_suite():
    t0 = time.monotonic()
    for p, dim in ((2, 2), (3, 8), (5, 32)):
        reports = hecke_suite(p, 1, seed=2024, n_random=10)
        by_lemma = {}
        for r in reports:
            by_lemma.setdefault(r.lemma, []).append(r)
        assert by_lemma["hecke_dim"][0].dims["dim"] == dim
        assert by_lemma["hecke_dim"][0].status == PASS
        assert by_lemma["hecke_assoc"][0].status == PASS
        assert by_lemma["jbar_star_invariants"][0].status == PASS
        assert by_lemma["flatness"][0].status == PASS
        vys = by_lemma["vytastra"]
        assert len(vys) >= 11  # the free module plus >= 10 seeded quotients
        assert all(r.status == PASS for r in vys)
    # open-question regime: verdicts recorded, never asserted
    recorded = []
    for p in (2, 3):
        for r in hecke_suite(p, 2, checks=("vytastra", "flatness")):
            assert r.status == RECORDED
            recorded.append((p, r.lemma, r.verdicts))
    elapsed = time.monotonic() - t0
    _announce(6, True, f"dims (2,8,32), assoc exhaustive, flatness split-test at e=1, "
                       f"vytastra on 11+ modules each; e=2 verdicts recorded: "
                       f"{recorded} ({elapsed:.1f}s)")


def test_criterion_7_principal_series_structure():
    for p in (2, 3, 5):
        grp = build_group("sl2", p)
        summands = decompose_jbar(grp, RingSpec(p, 1))
        assert len(summands) == p - 1
        assert sum(s.rank for s in summands) == p * p - 1
        for s in summands:
            assert composition_length(s) == 2
            assert invariants(s, [grp.upper_gen]).nrows == 2
    _announce(7, True, "p-1 summands, each length 2 with 2-dim unipotent invariants, "
                       "total dimension p^2-1, for p in (2,3,5)")


def test_criterion_8_robustness():
    t0 = time.monotonic()
    # (a)+(b): rho variation and generator unit-twist leave every criterion-3
    # verdict and dimension unchanged
    variants = 0
    for p, depths in GRID3.items():
        units = [1] if p == 2 else [1, 2]
        for W in builtin_catalog(p, 1):
            for D in depths:
                base, _, _t = grid_results()[(p, W.name, D)]
                for rho in ("twist:1", "scalar:1"):
                    for u in units:
                        (rep,) = tree_reports(W, D, rho, u, ("corrpro",))
                        assert rep.status == PASS
                        assert rep.verdicts == base.verdicts, (p, W.name, D, rho, u)
                        assert rep.dims["dim_h0_fixed"] == base.dims["dim_h0_fixed"]
                        variants += 1
    # (c): dense and sparse canonical-form paths agree bit-exactly
    rng = np.random.default_rng(2024)
    agree = 0
    for ring in (RingSpec(2, 1), RingSpec(3, 1), RingSpec(3, 2), RingSpec(2, 3)):
        for _ in range(25):
            A = rng.integers(0, ring.modulus, size=(6, 8))
            assert howell_array(ring, A) == howell_array_sparse(ring, A)
            agree += 1
    for p in (2, 3):
        W = jbar(build_group("sl2", p), RingSpec(p, 1))
        cc = build_complex(W, 2)
        ring = RingSpec(p, 1)
        assert howell_array(ring, cc.dmat) == howell_array_sparse(ring, cc.dmat)
        agree += 1
    elapsed = time.monotonic() - t0
    _announce(8, True, f"{variants} rho/twist variants verdict-identical; "
                       f"{agree} dense-vs-sparse canonical forms identical ({elapsed:.1f}s)")
