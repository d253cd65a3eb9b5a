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
from typing import Iterator

import numpy as np

from .exactalg import (
    CanonicalBasis, RingSpec, VerificationBug, howell_array, image_and_preimage, preimage_kernel, span_sum
)
from .grouprep import (
    GModule,
    QuotientPresentation,
    augmentation_kernel,
    build_group,
    direct_sum,
    generated_submodule,
    h1_procyclic,
    invariants,
    jbar,
    quotient_gmodule,
    translate_stack,
    translates_equivariantly,
)
from .report import LemmaReport, rejected, timed


@dataclass(frozen=True, eq=False)
class ComparisonPair:
    """The multiplication map out of the free carrier.

    The source is the free module on the lower-invariant subspace, one
    copy per power of the upper unipotent generator: basis pairs (j, i),
    j-major, with j < p and i indexing the invariant basis inv.  mult
    sends (j, i) to inv[i] translated j times; the augmentation sends it
    to e_i (`augmentation_kernel`).  mult intertwines translation on the group
    coordinate with the module action, exactly.  coin is H^1 of the upper
    generator, the quotient of W by its upper-unipotent coinvariant relations.
    """

    W: GModule
    inv: CanonicalBasis
    coin: QuotientPresentation
    mult: np.ndarray

    @property
    def p(self) -> int:
        return self.W.group.p

    @property
    def t(self) -> int:
        return self.inv.nrows


def build_comparison(W: GModule) -> ComparisonPair:
    """The comparison pair of W; raises ValueError when W fails the hypotheses:
    e = 1, W generated by its lower-unipotent invariants, and the upper
    generator acting with p-power order."""
    if not W.ring.is_field:
        raise ValueError("requires e = 1")
    p = W.group.p
    upper = W.action(W.group.upper_gen)
    inv = W.lower_invariants
    mult = translate_stack(W.ring, inv.mat, upper, p)
    return ComparisonPair(W, inv, h1_procyclic(W.ring, upper, p), mult)


def _instance_desc(W: GModule) -> dict:
    return {
        "module": W.name or "anonymous",
        "kind": W.group.kind,
        "p": W.group.p,
        "e": W.ring.e,
        "rank": W.rank,
    }


@timed
def check_comparison_map(em: ComparisonPair) -> LemmaReport:
    """All four sub-claims of the comparison-map statement, over k."""
    W = em.W
    ring = W.ring
    verdicts: dict[str, bool] = {}
    dims = {
        "rank": W.rank,
        "source": em.mult.shape[0],
        "inv_lower": em.t,
        "inv_upper": em.coin.dim,  # e = 1, so dim ker(upper_gen - 1) = dim coker
    }
    details: dict = {}

    image, ker_mult = image_and_preimage(ring, [em.mult])
    verdicts["mult_surjective"] = image.nrows == W.rank

    ker_aug = augmentation_kernel(ring, em.p, em.t)
    contained = ker_mult.is_subspace_of(ker_aug)
    verdicts["ker_mult_in_ker_aug"] = contained
    if contained and ker_mult.nrows < ker_aug.nrows:
        for row in ker_aug.mat:
            if not ker_mult.contains(row):
                details["strictness_witness"] = [int(x) for x in row]
                break
    dims["ker_mult"] = ker_mult.nrows
    dims["ker_aug"] = ker_aug.nrows

    # mult carries the block shift s of the source to upper, so it sends
    # ker_aug, the row space of s - 1, into the relations of em.coin
    upper = W.action(W.group.upper_gen)
    if not translates_equivariantly(ring, em.mult, upper, em.t):
        raise VerificationBug("multiplication map is not equivariant")
    # each twist u gives the same two quotients as u = 1 (see `h1_procyclic`),
    # so one map decides every topological generator
    verdicts["h1_bijective_all_twists"] = all(em.coin.map_verdicts(em.mult, ker_aug))

    verdicts["inv_to_coinv_bijective"] = all(em.coin.map_verdicts(em.inv.mat))
    dims["coinvariants"] = em.coin.dim
    return LemmaReport("lemma21", _instance_desc(W), verdicts=verdicts, dims=dims, details=details)


@timed
def check_minimal_generators(em: ComparisonPair) -> LemmaReport:
    """The minimal generator count over the unipotent group ring equals
    the dimension of the lower invariants.

    The count is computed as the dimension of the upper coinvariants,
    mirroring the structure-theorem argument rather than a search.
    """
    coin = em.coin.dim
    return LemmaReport(
        "lemma21.min_generators",
        _instance_desc(em.W),
        verdicts={"min_generators_equal_lower_invariants": coin == em.t},
        dims={"min_generators": coin, "inv_lower": em.t},
    )


def lemma21_reports(W: GModule) -> list[LemmaReport]:
    """Both comparison-map reports on one shared pair, or two rejections
    when W fails the hypotheses."""
    try:
        em = build_comparison(W)
    except ValueError as err:
        return [rejected(lem, _instance_desc(W), str(err)) for lem in ("lemma21", "lemma21.min_generators")]
    return [check_comparison_map(em), check_minimal_generators(em)]


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
    upper = [base.action(base.group.upper_gen)]
    desc = _lemma22_desc(inst.name, base)
    if not inst.rel_source.is_subspace_of(inst.rel_target):
        return rejected("lemma22.i", desc, "map is not surjective")
    rels = (inst.rel_source, inst.rel_target)
    k_src, k_tgt = (QuotientPresentation(ring, base.rank, rel).fixed_preimage(upper) for rel in rels)
    full = ring.e * base.rank
    if not all(generated_submodule(base, k.mat).span_log_size() == full for k in (k_src, k_tgt)):
        return rejected("lemma22.i", desc, "generation hypothesis fails")
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
    upper = base.action(base.group.upper_gen)
    desc = _lemma22_desc(inst.name, base)
    if not inst.rel.is_subspace_of(inst.sub_pre):
        return rejected("lemma22.ii", desc, "not a submodule")
    fixed = QuotientPresentation(ring, base.rank, inst.rel).fixed_preimage([upper])
    if generated_submodule(base, fixed.mat).span_log_size() != ring.e * base.rank:
        return rejected("lemma22.ii", desc, "ambient generation hypothesis fails")
    # classes of V fixed by the subgroup: {x in sub_pre : x (a - 1) in rel}
    B = inst.sub_pre.mat
    blk = (upper - np.eye(base.rank, dtype=np.int64)) % ring.modulus
    cond = preimage_kernel(ring, [(B @ blk) % ring.modulus], inst.rel)
    inv_pre = span_sum(ring, [(cond.mat @ B) % ring.modulus, inst.rel.mat])
    closed = generated_submodule(base, inv_pre.mat)
    return LemmaReport(
        "lemma22.ii",
        desc,
        verdicts={"submodule_generated_by_invariants": closed == inst.sub_pre},
        dims={"sub_log": inst.sub_pre.span_log_size(), "rel_log": inst.rel.span_log_size()},
    )


def _random_stable_span(base: GModule, inv: CanonicalBasis, rng: np.random.Generator) -> CanonicalBasis:
    """Proper nonzero action-stable span from a few seeded vectors.

    Vectors drawn inside inv, the unipotent-invariant subspace, generate
    intermediate submodules far more often than fully random ones, so
    both styles are mixed; falls back to the zero span (quotient = whole
    carrier), which is still a legal instance.
    """
    ring = base.ring
    full = ring.e * base.rank
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


def _random_carriers(
    seed: int, p: int, e: int, count: int
) -> Iterator[tuple[np.random.Generator, int, GModule, CanonicalBasis]]:
    """Yield (rng, i, jbar^r, its upper-unipotent invariants) for count seeded draws of r.

    Each carrier is built once per call, on its first draw.
    """
    rng = np.random.default_rng(seed)
    built: dict[int, tuple[GModule, CanonicalBasis]] = {}
    for i in range(count):
        r = int(rng.integers(1, R_MAX + 1))
        if r not in built:
            J = jbar(build_group("sl2", p), RingSpec(p, e))
            base = J if r == 1 else direct_sum([J] * r, name=f"jbar^{r}")
            built[r] = (base, invariants(base, [base.group.upper_gen]))
        yield (rng, i, *built[r])


def random_modules(seed: int, p: int, count: int) -> Iterator[GModule]:
    """Seeded quotients of jbar^r over k, r in {1, 2}; hypotheses hold by construction."""
    for rng, i, base, inv in _random_carriers(seed, p, 1, count):
        span = _random_stable_span(base, inv, rng)
        yield quotient_gmodule(base, span, name=f"rnd:p{p}:s{seed}:{i}")


def random_surjections(seed: int, p: int, e: int, count: int) -> Iterator[SurjectionInstance]:
    for rng, i, base, inv in _random_carriers(seed, p, e, count):
        small = _random_stable_span(base, inv, rng)
        extra = _random_stable_span(base, inv, rng)
        big = span_sum(base.ring, [small.mat, extra.mat])
        yield SurjectionInstance(f"surj:p{p}:e{e}:s{seed}:{i}", base, small, big)


def random_injections(seed: int, p: int, e: int, count: int) -> Iterator[InjectionInstance]:
    for rng, i, base, inv in _random_carriers(seed, p, e, count):
        rel = _random_stable_span(base, inv, rng)
        inside = _random_stable_span(base, inv, rng)
        sub = span_sum(base.ring, [rel.mat, inside.mat])
        yield InjectionInstance(f"inj:p{p}:e{e}:s{seed}:{i}", base, rel, sub)


def lemma21_suite(p: int, mods: list[GModule], seed: int = 0, n_random: int = 0) -> list[LemmaReport]:
    """The comparison-map suite over the given modules plus seeded random ones."""
    return [r for W in [*mods, *random_modules(seed, p, n_random)] for r in lemma21_reports(W)]


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
