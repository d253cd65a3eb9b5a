"""Executable verdicts for the representation-theoretic statements.

check_comparison_map (suite id lemma21): for a module W over k generated
by its lower-unipotent invariants, the multiplication map from the free
module on those invariants onto W is surjective, its kernel sits inside
the augmentation kernel, the induced map on the procyclic H^1 is
bijective for every choice of topological generator, and the composite
of taking lower invariants then upper coinvariants is bijective.

check_invariant_surjectivity / check_inherited_generation (suite id
lemma22): surjections stay surjective on unipotent invariants, and
action-stable submodules inherit generation by invariants; both over
Z/p^e for e up to 3.

Hypothesis violations are reported as a third verdict state
("rejected"), never as a lemma failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .catalog import select_modules
from .exactalg import (
    CanonicalBasis,
    RingSpec,
    howell_array,
    kernel_array,
    preimage_kernel,
    span_sum,
)
from .grouprep import (
    GModule,
    PresentedModule,
    _matpow,
    block_shift,
    build_group,
    coinvariants,
    direct_sum,
    generated_by_lower_invariants,
    generated_submodule,
    h1_procyclic,
    invariants,
    jbar,
    quotient_gmodule,
    translate_stack,
)
from .report import LemmaReport, rejected, timed


@dataclass(frozen=True, eq=False)
class ComparisonPair:
    """Multiplication and augmentation maps out of the free carrier.

    The source is the free module on the lower-invariant subspace, one
    copy per power of the upper unipotent generator: basis pairs (j, i),
    j-major, with j < p and i indexing the invariant basis inv.  mult
    sends (j, i) to inv[i] translated j times; aug collapses to the
    invariant coordinates.  mult intertwines translation on the group
    coordinate with the module action, exactly.
    """

    W: GModule
    inv: CanonicalBasis
    mult: np.ndarray
    aug: np.ndarray

    @property
    def p(self) -> int:
        return self.W.group.p

    @property
    def t(self) -> int:
        return self.inv.nrows

    def source_shift(self, u: int = 1) -> np.ndarray:
        """Translation by upper_gen^u on the group coordinate of the source."""
        return block_shift(self.p, self.t, u)


def build_comparison(W: GModule) -> ComparisonPair:
    group = W.group
    p = group.p
    inv = invariants(W, [group.lower_gen])
    mult = translate_stack(W.ring, inv.mat, W.action(group.upper_gen), p)
    aug = np.tile(np.eye(inv.nrows, dtype=np.int64), (p, 1))
    return ComparisonPair(W, inv, mult, aug)


def _instance_desc(W: GModule) -> dict:
    return {
        "module": W.name or "anonymous",
        "kind": W.group.kind,
        "p": W.group.p,
        "e": W.ring.e,
        "rank": W.rank,
    }


def _lemma21_rejection(W: GModule) -> Optional[str]:
    """Why W fails the comparison-map hypotheses, or None when it meets them."""
    if not W.ring.is_field:
        return "requires e = 1"
    try:
        generated_by_lower_invariants(W)
    except ValueError as err:
        return str(err)
    return None


@timed
def check_comparison_map(W: GModule) -> LemmaReport:
    """All four sub-claims of the comparison-map statement, over k."""
    ring = W.ring
    group = W.group
    desc = _instance_desc(W)
    reason = _lemma21_rejection(W)
    if reason:
        return rejected("lemma21", desc, reason)
    em = build_comparison(W)
    verdicts: dict[str, bool] = {}
    dims = {
        "rank": W.rank,
        "source": em.mult.shape[0],
        "inv_lower": em.t,
        "inv_upper": invariants(W, [group.upper_gen]).nrows,
    }
    details: dict = {}

    image = howell_array(ring, em.mult)
    verdicts["mult_surjective"] = image.nrows == W.rank

    ker_mult = kernel_array(ring, em.mult)
    ker_aug = kernel_array(ring, em.aug)
    contained = ker_mult.is_subspace_of(ker_aug)
    verdicts["ker_mult_in_ker_aug"] = contained
    if contained and ker_mult.nrows < ker_aug.nrows:
        for row in ker_aug.mat:
            if not ker_mult.contains(row):
                details["strictness_witness"] = [int(x) for x in row]
                break
    dims["ker_mult"] = ker_mult.nrows
    dims["ker_aug"] = ker_aug.nrows

    p = group.p
    ok_h1 = True
    for u in range(1, p):
        src = h1_procyclic(ring, em.source_shift(u), p)
        tgt = h1_procyclic(ring, _matpow(W.action(group.upper_gen), u, ring.modulus), p)
        if not all(src.induced_map(em.mult, tgt)):
            ok_h1 = False
            details["h1_failure_twist"] = u
            break
    verdicts["h1_bijective_all_twists"] = ok_h1

    coin = coinvariants(W, [group.upper_gen])
    img = span_sum(ring, [em.inv.mat, coin.rel.mat])
    surj = img.nrows == W.rank
    pre = preimage_kernel(ring, [em.inv.mat], coin.rel)
    inj = pre.nrows == 0
    verdicts["inv_to_coinv_bijective"] = surj and inj
    dims["coinvariants"] = coin.dim
    return LemmaReport("lemma21", desc, verdicts=verdicts, dims=dims, details=details)


@timed
def check_minimal_generators(W: GModule) -> LemmaReport:
    """The minimal generator count over the unipotent group ring equals
    the dimension of the lower invariants.

    The count is computed as the dimension of the upper coinvariants,
    mirroring the structure-theorem argument rather than a search.
    """
    group = W.group
    desc = _instance_desc(W)
    reason = _lemma21_rejection(W)
    if reason:
        return rejected("lemma21.min_generators", desc, reason)
    coin = coinvariants(W, [group.upper_gen]).dim
    lower = invariants(W, [group.lower_gen]).nrows
    return LemmaReport(
        "lemma21.min_generators",
        desc,
        verdicts={"min_generators_equal_lower_invariants": coin == lower},
        dims={"min_generators": coin, "inv_lower": lower},
    )


@dataclass(frozen=True, eq=False)
class SurjectionInstance:
    """A surjection of presented modules sharing one ambient carrier.

    The map is the identity on the ambient coordinates; the relation
    span of the target contains that of the source.
    """

    name: str
    base: GModule
    rel_source: CanonicalBasis
    rel_target: CanonicalBasis

    def source(self) -> PresentedModule:
        return PresentedModule(self.base, self.rel_source, self.name + ":src")

    def target(self) -> PresentedModule:
        return PresentedModule(self.base, self.rel_target, self.name + ":tgt")


@dataclass(frozen=True, eq=False)
class InjectionInstance:
    """An action-stable submodule V of a presented module W."""

    name: str
    base: GModule
    rel: CanonicalBasis
    sub_pre: CanonicalBasis  # ambient preimage span of V; contains rel


def _lemma22_desc(name: str, base: GModule) -> dict:
    return {"instance": name, "p": base.group.p, "e": base.ring.e, "ambient": base.rank}


@timed
def check_invariant_surjectivity(inst: SurjectionInstance) -> LemmaReport:
    """Surjectivity descends to upper-unipotent invariants."""
    base = inst.base
    ring = base.ring
    upper_gen = [base.group.upper_gen]
    desc = _lemma22_desc(inst.name, base)
    if not inst.rel_source.is_subspace_of(inst.rel_target):
        return rejected("lemma22.i", desc, "map is not surjective")
    src, tgt = inst.source(), inst.target()
    if not (src.is_generated_by_invariants(upper_gen) and tgt.is_generated_by_invariants(upper_gen)):
        return rejected("lemma22.i", desc, "generation hypothesis fails")
    k_src = src.invariants_preimage(upper_gen)
    k_tgt = tgt.invariants_preimage(upper_gen)
    image = span_sum(ring, [k_src.mat, inst.rel_target.mat])
    dims = {
        "inv_source_log": k_src.span_log_size() - inst.rel_source.span_log_size(),
        "inv_target_log": k_tgt.span_log_size() - inst.rel_target.span_log_size(),
    }
    return LemmaReport(
        "lemma22.i", desc, verdicts={"invariants_surjective": k_tgt.is_subspace_of(image)}, dims=dims
    )


@timed
def check_inherited_generation(inst: InjectionInstance) -> LemmaReport:
    """Generation by invariants passes to action-stable submodules."""
    base = inst.base
    ring = base.ring
    upper_gen = [base.group.upper_gen]
    desc = _lemma22_desc(inst.name, base)
    if not inst.rel.is_subspace_of(inst.sub_pre):
        return rejected("lemma22.ii", desc, "not a submodule")
    W = PresentedModule(base, inst.rel, inst.name + ":W")
    if not W.is_generated_by_invariants(upper_gen):
        return rejected("lemma22.ii", desc, "ambient generation hypothesis fails")
    eye = np.eye(base.rank, dtype=np.int64)
    blocks = [(base.action(h) - eye) % ring.modulus for h in upper_gen]
    # classes of V fixed by the subgroup: {x in sub_pre : x (a - 1) in rel}
    B = inst.sub_pre.mat
    cond = preimage_kernel(ring, [(B @ blk) % ring.modulus for blk in blocks], inst.rel)
    inv_pre = span_sum(ring, [(cond.mat @ B) % ring.modulus, inst.rel.mat])
    gen = generated_submodule(base, inv_pre.mat)
    closed = span_sum(ring, [gen.mat, inst.rel.mat])
    return LemmaReport(
        "lemma22.ii",
        desc,
        verdicts={"submodule_generated_by_invariants": closed == span_sum(ring, [inst.sub_pre.mat])},
        dims={"sub_log": inst.sub_pre.span_log_size(), "rel_log": inst.rel.span_log_size()},
    )


def _random_stable_span(base: GModule, rng: np.random.Generator) -> CanonicalBasis:
    """Proper nonzero action-stable span from a few seeded vectors.

    Vectors drawn inside the unipotent-invariant subspace generate
    intermediate submodules far more often than fully random ones, so
    both styles are mixed; falls back to the zero span (quotient = whole
    carrier), which is still a legal instance.
    """
    ring = base.ring
    full = ring.e * base.rank
    inv = invariants(base, [base.group.upper_gen])
    for _ in range(24):
        k = int(rng.integers(1, 3))
        if inv.nrows and rng.integers(0, 2):
            coeffs = rng.integers(0, ring.modulus, size=(k, inv.nrows))
            vecs = (coeffs @ inv.mat) % ring.modulus
        else:
            vecs = rng.integers(0, ring.modulus, size=(k, base.rank))
        if ring.e > 1 and rng.integers(0, 2):
            vecs = (ring.p * vecs) % ring.modulus
        span = generated_submodule(base, np.asarray(vecs, dtype=np.int64))
        if 0 < span.span_log_size() < full:
            return span
    return howell_array(ring, np.zeros((1, base.rank), dtype=np.int64))


# random instances are built on jbar^r for r up to this rank
R_MAX = 2


def _free_carrier(p: int, e: int, r: int) -> GModule:
    group = build_group("sl2", p)
    ring = RingSpec(p, e)
    J = jbar(group, ring)
    if r == 1:
        return J
    return direct_sum([J] * r, name=f"jbar^{r}")


def random_modules(seed: int, p: int, count: int) -> Iterator[GModule]:
    """Seeded quotients of jbar^r over k, r in {1, 2}; hypotheses hold by construction."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        r = int(rng.integers(1, R_MAX + 1))
        base = _free_carrier(p, 1, r)
        span = _random_stable_span(base, rng)
        yield quotient_gmodule(base, span, name=f"rnd:p{p}:s{seed}:{i}")


def random_surjections(seed: int, p: int, e: int, count: int) -> Iterator[SurjectionInstance]:
    rng = np.random.default_rng(seed)
    for i in range(count):
        r = int(rng.integers(1, R_MAX + 1))
        base = _free_carrier(p, e, r)
        small = _random_stable_span(base, rng)
        extra = _random_stable_span(base, rng)
        big = span_sum(base.ring, [small.mat, extra.mat])
        yield SurjectionInstance(f"surj:p{p}:e{e}:s{seed}:{i}", base, small, big)


def random_injections(seed: int, p: int, e: int, count: int) -> Iterator[InjectionInstance]:
    rng = np.random.default_rng(seed)
    for i in range(count):
        r = int(rng.integers(1, R_MAX + 1))
        base = _free_carrier(p, e, r)
        rel = _random_stable_span(base, rng)
        inside = _random_stable_span(base, rng)
        sub = span_sum(base.ring, [rel.mat, inside.mat])
        yield InjectionInstance(f"inj:p{p}:e{e}:s{seed}:{i}", base, rel, sub)


def lemma21_suite(
    p: int, e: int = 1, module: str = "all", seed: int = 0, n_random: int = 0
) -> list[LemmaReport]:
    """The comparison-map suite over the selected catalog modules plus random ones."""
    reports: list[LemmaReport] = []
    mods = select_modules(p, e, module)
    mods.extend(random_modules(seed, p, n_random))
    for W in mods:
        reports.append(check_comparison_map(W))
        reports.append(check_minimal_generators(W))
    return reports


def lemma22_suite(p: int, e: int, seed: int = 0, n_random: int = 0) -> list[LemmaReport]:
    """Surjection and injection suites over Z/p^e, plus the fixed cases."""
    reports: list[LemmaReport] = []
    group = build_group("sl2", p)
    ring = RingSpec(p, e)
    J = jbar(group, ring)
    zero = howell_array(ring, np.zeros((1, J.rank), dtype=np.int64))
    reports.append(check_invariant_surjectivity(SurjectionInstance(f"identity:p{p}:e{e}", J, zero, zero)))
    if e > 1:
        # the p-multiple submodule of jbar: the dévissage step instance
        psub = generated_submodule(J, ring.p * np.eye(J.rank, dtype=np.int64))
        reports.append(check_inherited_generation(InjectionInstance(f"p-multiple:p{p}:e{e}", J, zero, psub)))
    for inst in random_surjections(seed, p, e, n_random):
        reports.append(check_invariant_surjectivity(inst))
    for inst2 in random_injections(seed + 1, p, e, n_random):
        reports.append(check_inherited_generation(inst2))
    return reports
