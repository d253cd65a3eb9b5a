"""Lemma verdicts on the catalog and on seeded random instances."""

from dataclasses import replace

import numpy as np
import pytest

from treelab.catalog import builtin_catalog, get_module
from treelab import grouprep, lemmas
from treelab.exactalg import RingSpec, howell_array, kernel_array, preimage_kernel, span_sum
from treelab.grouprep import (
    IDENT, QuotientPresentation, build_group, generated_submodule, invariants, jbar, trivial_module
)
from treelab.lemmas import (
    InjectionInstance,
    SurjectionInstance,
    build_comparison,
    check_comparison_map,
    check_minimal_generators,
    check_invariant_surjectivity,
    check_inherited_generation,
    lemma21_reports,
    lemma21_suite,
    lemma22_suite,
    random_injections,
    random_modules,
    random_surjections,
)
from treelab.report import FAIL, PASS, REJECTED


def test_eta_on_trivial_module_equals_augmentation():
    grp = build_group("sl2", 3)
    triv = trivial_module(grp, RingSpec(3, 1))
    em = build_comparison(triv)
    assert np.array_equal(em.mult, np.tile(np.eye(em.t, dtype=np.int64), (em.p, 1)))
    rep = check_comparison_map(em)
    assert rep.status == PASS
    assert all(rep.verdicts.values())


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_augmentation_kernel_closed_form(p):
    ring = RingSpec(p, 1)
    for t in range(1, 6):
        aug = np.tile(np.eye(t, dtype=np.int64), (p, 1))
        closed = lemmas.augmentation_kernel(ring, p, t)
        oracle = kernel_array(ring, aug)
        assert closed == oracle and closed.pivots == oracle.pivots
        assert not ((closed.mat @ aug) % p).any()


def test_eta_equivariance_exact():
    # mult intertwines source translation with the module action, for all
    # twists, on every catalog module
    for W in builtin_catalog(3, 1):
        em = build_comparison(W)
        A = W.action(W.group.upper_gen)
        for u in (1, 2):
            lhs = (em.source_shift(u) @ em.mult) % 3
            rhs = (em.mult @ np.linalg.matrix_power(A, u)) % 3
            assert np.array_equal(lhs, rhs), W.name


def test_comparison_map_jbar_dimensions():
    grp = build_group("sl2", 3)
    J = jbar(grp, RingSpec(3, 1))
    rep = check_comparison_map(build_comparison(J))
    assert rep.status == PASS
    assert rep.dims["source"] == 12  # p * dim of the lower invariants
    assert rep.dims["rank"] == 8
    assert rep.dims["inv_lower"] == 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_comparison_map_on_catalog(p):
    for W in builtin_catalog(p, 1):
        rep = check_comparison_map(build_comparison(W))
        assert rep.status == PASS, (W.name, rep.to_dict())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_comparison_map_principal_series_summands(p):
    for name in [f"ps:{i}" for i in range(p - 1)]:
        W = get_module(p, 1, name)
        rep = check_comparison_map(build_comparison(W))
        assert rep.status == PASS
        assert rep.dims["inv_upper"] == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inv_upper_is_the_coinvariant_dimension(p):
    # lemma21 runs at e = 1, where rank-nullity of upper_gen - 1 makes the
    # upper invariants and the upper coinvariants equally large
    for W in builtin_catalog(p, 1) + list(random_modules(3, p, 3)):
        em = build_comparison(W)
        inv_upper = invariants(W, [W.group.upper_gen]).nrows
        assert em.coin.dim == inv_upper, W.name
        assert check_comparison_map(em).dims["inv_upper"] == inv_upper, W.name


def test_rejection_is_a_distinct_state():
    # hypothesis violations must surface as "rejected", never as failures
    grp = build_group("sl2", 3)
    ring1 = RingSpec(3, 1)
    J2 = jbar(grp, RingSpec(3, 2))
    assert lemma21_reports(J2)[0].status == REJECTED  # wrong ring
    J = jbar(grp, ring1)
    zero = howell_array(ring1, np.zeros((1, J.rank), dtype=np.int64))
    sub = generated_submodule(J, np.eye(J.rank, dtype=np.int64)[grp.coset_of(np.reshape(IDENT, (2, 2)))])
    # rel_source not inside rel_target: not a surjection
    rep = check_invariant_surjectivity(SurjectionInstance("bad", J, sub, zero))
    assert rep.status == REJECTED
    # claimed submodule span missing the relations: not a submodule
    rep2 = check_inherited_generation(InjectionInstance("bad2", J, sub, zero))
    assert rep2.status == REJECTED


def test_minimal_generators_catalog():
    for p in (2, 3):
        for W in builtin_catalog(p, 1):
            rep = check_minimal_generators(build_comparison(W))
            assert rep.status == PASS
            assert rep.dims["min_generators"] == rep.dims["inv_lower"]


def test_minimal_generators_values():
    for name, count in (("trivial", 1), ("jbar", 4), ("steinberg", 1)):
        em = build_comparison(get_module(3, 1, name))
        assert check_minimal_generators(em).dims["min_generators"] == count


def test_lemma22_identity_map():
    grp = build_group("sl2", 3)
    ring = RingSpec(3, 1)
    J = jbar(grp, ring)
    zero = howell_array(ring, np.zeros((1, J.rank), dtype=np.int64))
    rep = check_invariant_surjectivity(SurjectionInstance("id", J, zero, zero))
    assert rep.status == PASS


def test_lemma22_jbar_to_steinberg():
    # the kernel of jbar -> steinberg: the second summand plus the
    # constants; invariant images go from dimension 4 to dimension 1
    grp = build_group("sl2", 3)
    ring = RingSpec(3, 1)
    J = jbar(grp, ring)
    from treelab.grouprep import primitive_root

    z = primitive_root(3)
    t0 = (z, 0, 0, pow(z, -1, 3))
    L = np.eye(J.rank, dtype=np.int64)[grp.coset_of(np.reshape(t0, (2, 2)) @ grp.coset_reps)]
    from treelab.exactalg import kernel_array

    eig_other = kernel_array(ring, (L - pow(z, 1, 3) * np.eye(J.rank, dtype=np.int64)) % 3)
    ones = np.ones(J.rank, dtype=np.int64)
    rel = howell_array(ring, np.concatenate([eig_other.mat, ones.reshape(1, -1)]))
    rel = generated_submodule(J, rel.mat)
    zero = howell_array(ring, np.zeros((1, J.rank), dtype=np.int64))
    inst = SurjectionInstance("jbar->steinberg", J, zero, rel)
    rep = check_invariant_surjectivity(inst)
    assert rep.status == PASS
    assert rep.dims["inv_source_log"] == 4
    assert rep.dims["inv_target_log"] == 1


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_lemma22_random_instances(p, e):
    for inst in random_surjections(3, p, e, 8):
        rep = check_invariant_surjectivity(inst)
        assert rep.status == PASS, rep.to_dict()
    for inst2 in random_injections(4, p, e, 8):
        rep = check_inherited_generation(inst2)
        assert rep.status == PASS, rep.to_dict()


@pytest.mark.parametrize("p", [2, 3])
def test_lemma22_p_multiple_submodule(p):
    # the p-multiple of jbar over Z/p^2 is a module over the residue ring
    # and must still be generated by its invariants
    grp = build_group("sl2", p)
    ring = RingSpec(p, 2)
    J = jbar(grp, ring)
    zero = howell_array(ring, np.zeros((1, J.rank), dtype=np.int64))
    psub = generated_submodule(J, p * np.eye(J.rank, dtype=np.int64))
    rep = check_inherited_generation(InjectionInstance("p-mult", J, zero, psub))
    assert rep.status == PASS


def test_random_streams_deterministic():
    a = [(W.name, W.rank) for W in random_modules(0, 3, 10)]
    b = [(W.name, W.rank) for W in random_modules(0, 3, 10)]
    assert a == b
    s1 = [(i.name, i.rel_source.nrows, i.rel_target.nrows) for i in random_surjections(5, 2, 2, 6)]
    s2 = [(i.name, i.rel_source.nrows, i.rel_target.nrows) for i in random_surjections(5, 2, 2, 6)]
    assert s1 == s2


def test_random_modules_satisfy_hypotheses():
    grp = build_group("sl2", 2)
    for W in random_modules(0, 2, 50):
        inv = invariants(W, [grp.lower_gen])
        assert generated_submodule(W, inv.mat).nrows == W.rank


def test_random_module_rank_bound():
    first = next(iter(random_modules(0, 3, 1)))
    assert first.rank <= 16


def test_suites_pass_and_are_seed_stable():
    r1 = lemma21_suite(3, builtin_catalog(3, 1), seed=11, n_random=5)
    r2 = lemma21_suite(3, builtin_catalog(3, 1), seed=11, n_random=5)
    assert [x.to_dict()["instance"] for x in r1] == [x.to_dict()["instance"] for x in r2]
    assert all(x.status != FAIL for x in r1)
    q = lemma22_suite(2, 2, seed=11, n_random=5)
    assert all(x.status != FAIL for x in q)


def test_lemma21_suite_decides_the_hypothesis_once_per_module(monkeypatch):
    calls = []
    original = lemmas.generated_by_lower_invariants

    def counted(W):
        calls.append(W.name)
        return original(W)

    monkeypatch.setattr(lemmas, "generated_by_lower_invariants", counted)
    reports = lemma21_suite(3, builtin_catalog(3, 1), seed=1, n_random=3)
    assert len(calls) == len(reports) // 2 == len(builtin_catalog(3, 1)) + 3
    assert len(set(calls)) == len(calls)


def test_lemma21_suite_takes_the_coinvariants_once_per_module(monkeypatch):
    calls = []
    original = lemmas.coinvariants

    def counted(W, subgroup):
        calls.append(W.name)
        return original(W, subgroup)

    monkeypatch.setattr(lemmas, "coinvariants", counted)
    reports = lemma21_suite(3, builtin_catalog(3, 1), seed=1, n_random=3)
    assert len(calls) == len(reports) // 2 == len(builtin_catalog(3, 1)) + 3
    assert len(set(calls)) == len(calls)


def test_invariant_surjectivity_takes_each_fixed_preimage_once(monkeypatch):
    calls = []
    original = QuotientPresentation.fixed_preimage

    def counted(self, ops):
        calls.append(self.rel)
        return original(self, ops)

    monkeypatch.setattr(QuotientPresentation, "fixed_preimage", counted)
    J = jbar(build_group("sl2", 3), RingSpec(3, 2))
    zero = howell_array(J.ring, np.zeros((1, J.rank), dtype=np.int64))
    instances = [SurjectionInstance("identity", J, zero, zero)] + list(random_surjections(5, 3, 2, 4))
    for inst in instances:
        calls.clear()
        check_invariant_surjectivity(inst)
        assert calls == [inst.rel_source, inst.rel_target]


def test_comparison_map_reads_false_on_a_zero_multiplication_map():
    # past build_comparison: mult = 0 still intertwines, but nothing is hit
    for W in builtin_catalog(5, 1):
        em = build_comparison(W)
        rep = check_comparison_map(replace(em, mult=np.zeros_like(em.mult)))
        assert rep.status == FAIL, W.name
        for name in ("mult_surjective", "ker_mult_in_ker_aug", "h1_bijective_all_twists"):
            assert rep.verdicts[name] is False, (W.name, name)


def test_inv_to_coinv_reads_false_off_the_lower_invariants():
    J = jbar(build_group("sl2", 5), RingSpec(5, 1))
    em = build_comparison(J)
    units = howell_array(J.ring, np.eye(J.rank, dtype=np.int64)[: em.t])
    rep = check_comparison_map(replace(em, inv=units))
    assert rep.status == FAIL
    assert rep.verdicts["inv_to_coinv_bijective"] is False


def test_min_generators_reads_false_without_the_coinvariant_relations():
    # past build_comparison: with no relations the "coinvariants" are all of jbar
    J = jbar(build_group("sl2", 3), RingSpec(3, 1))
    em = build_comparison(J)
    zero_span = howell_array(J.ring, np.zeros((1, J.rank), dtype=np.int64))
    rep = check_minimal_generators(replace(em, coin=QuotientPresentation(J.ring, J.rank, zero_span)))
    assert rep.status == FAIL
    assert rep.verdicts["min_generators_equal_lower_invariants"] is False
    assert rep.dims == {"min_generators": 8, "inv_lower": 4}


def test_inherited_generation_reads_false_on_a_unit_row():
    # over Z/27 the span of one coset indicator is not action-stable, so it
    # is not generated by its invariants
    J = jbar(build_group("sl2", 3), RingSpec(3, 3))
    zero = howell_array(J.ring, np.zeros((1, J.rank), dtype=np.int64))
    first = howell_array(J.ring, np.eye(J.rank, dtype=np.int64)[:1])
    rep = check_inherited_generation(InjectionInstance("unit-row", J, zero, first))
    assert rep.status == FAIL
    assert rep.verdicts["submodule_generated_by_invariants"] is False


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1)])
def test_invariant_surjectivity_reads_false_on_relations_that_are_not_action_stable(p, e):
    # the span of x0 (upper - 1) passes both gates (it contains the zero
    # source relations, and both fixed preimages generate jbar), but it is
    # not action-stable: x0 is then a fixed class of the target that no
    # fixed vector of the source reaches
    J = jbar(build_group("sl2", p), RingSpec(p, e))
    N = J.ring.modulus
    upper = J.action(J.group.upper_gen)
    x0 = np.random.default_rng(0).integers(0, N, size=(1, J.rank))
    rel = howell_array(J.ring, x0 @ (upper - np.eye(J.rank, dtype=np.int64)) % N)
    assert not rel.contains_rows(rel.mat @ J.action(J.group.lower_gen))
    zero = howell_array(J.ring, np.zeros((1, J.rank), dtype=np.int64))
    rep = check_invariant_surjectivity(SurjectionInstance("unstable", J, zero, rel))
    assert rep.status == FAIL
    assert rep.verdicts["invariants_surjective"] is False


def test_comparison_map_takes_map_verdicts_once_per_pair_of_relation_spans(monkeypatch):
    calls = []
    original = QuotientPresentation.map_verdicts

    def counted(self, f, source_rel=None):
        if source_rel is not None:  # the H^1 maps; the coinvariant map has a free source
            calls.append((source_rel.mat.tobytes(), self.rel.mat.tobytes()))
        return original(self, f, source_rel)

    h1 = []

    def built(*args):
        h1.append(args)
        return grouprep.h1_procyclic(*args)

    monkeypatch.setattr(QuotientPresentation, "map_verdicts", counted)
    monkeypatch.setattr(lemmas, "h1_procyclic", built)
    for W in builtin_catalog(5, 1):
        calls.clear()
        h1.clear()
        assert check_comparison_map(build_comparison(W)).status == PASS
        assert len(h1) == 2 * 4, W.name  # both sides of every twist are still built and checked
        assert len(calls) == 1, W.name  # all four twists share one pair of relation spans at p = 5


def test_random_streams_take_each_carrier_and_its_invariants_once(monkeypatch):
    calls = []
    original = lemmas.invariants

    def counted(M, subgroup):
        calls.append(M.rank)
        return original(M, subgroup)

    monkeypatch.setattr(lemmas, "invariants", counted)
    for stream in (random_surjections(7, 3, 3, 10), random_injections(8, 3, 3, 10)):
        calls.clear()
        instances = list(stream)
        assert len({id(inst.base) for inst in instances}) == len(calls) == len(set(calls))
        assert set(calls) == {inst.base.rank for inst in instances}
    calls.clear()
    assert len(list(random_modules(7, 5, 10))) == 10
    assert len(calls) == len(set(calls)) <= lemmas.R_MAX


@pytest.mark.parametrize("e", [1, 2, 3])
def test_fixed_preimage_and_generated_span_already_contain_the_relations(e):
    # the relations of every lemma22 instance are action-stable, so the
    # fixed preimage and every span generated from it contain them: each
    # equals its sum with the relations
    ring = RingSpec(3, e)
    J = jbar(build_group("sl2", 3), ring)
    surj = random_surjections(7, 3, e, 4)
    presented = [(inst.base, rel) for inst in surj for rel in (inst.rel_source, inst.rel_target)]
    presented += [(inst.base, inst.rel) for inst in random_injections(8, 3, e, 4)]
    presented.append((J, howell_array(ring, np.zeros((1, J.rank)))))
    for base, rel in presented:
        upper = base.action(base.group.upper_gen)
        eye = np.eye(base.rank, dtype=np.int64)
        pre = preimage_kernel(ring, [(upper - eye) % ring.modulus], rel)
        fixed = QuotientPresentation(ring, base.rank, rel).fixed_preimage([upper])
        assert fixed == span_sum(ring, [pre.mat, rel.mat])
        gen = generated_submodule(base, fixed.mat)
        assert gen == span_sum(ring, [gen.mat, rel.mat])
