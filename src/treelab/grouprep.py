"""The finite groups SL2(F_p) / GL2(F_p) and exact module machinery.

Modules are right Lambda[G]-modules: vectors are rows, action matrices
multiply on the right, and action(g) @ action(h) = action(gh).  All the
verified statements (invariants, coinvariants, generation, the H^1
comparison) are insensitive to the left/right convention; the right
convention matches the row-space linear algebra in `exactalg`.

Fixed witnesses: upper_gen = [[1,1],[0,1]] generates the upper unipotent
subgroup, lower_gen = [[1,0],[1,1]] the lower one, weyl = [[0,1],[-1,0]]
conjugates the lower one onto the upper one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .exactalg import (
    CanonicalBasis,
    RingSpec,
    VerificationBug,
    howell_array,
    kernel_array,
    preimage_kernel,
    span_closure,
    span_sum,
)

Elem = tuple[int, int, int, int]

IDENT: Elem = (1, 0, 0, 1)


def elem_mul(x: Elem, y: Elem, p: int) -> Elem:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def elem_inv(x: Elem, p: int) -> Elem:
    a, b, c, d = x
    det = (a * d - b * c) % p
    di = pow(det, -1, p)
    return ((d * di) % p, (-b * di) % p, (-c * di) % p, (a * di) % p)


def primitive_root(p: int) -> int:
    for z in range(2, p):
        seen = {1}
        x = z
        while x != 1:
            seen.add(x)
            x = (x * z) % p
        if len(seen) == p - 1:
            return z
    return 1  # p = 2


@dataclass(frozen=True, eq=False)
class GroupData:
    """Full enumeration of SL2(F_p) or GL2(F_p) with distinguished data."""

    kind: str
    p: int
    elements: tuple[Elem, ...]
    index: dict[Elem, int]
    gens: tuple[Elem, ...]
    words: tuple[tuple[int, ...], ...]  # factorization of each element over gens
    upper_gen: Elem
    lower_gen: Elem
    weyl: Elem
    upper_unipotent: tuple[Elem, ...]
    lower_unipotent: tuple[Elem, ...]
    torus: tuple[Elem, ...]
    opp_radicals: tuple[frozenset[Elem], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: Elem, y: Elem) -> Elem:
        return elem_mul(x, y, self.p)

    def inv(self, x: Elem) -> Elem:
        return elem_inv(x, self.p)


@lru_cache(maxsize=None)
def build_group(kind: str, p: int) -> GroupData:
    """Enumerate the group, fix the distinguished subgroups, verify axioms.

    kind is "sl2" or "gl2"; p must be a supported prime.  Group tables
    are immutable after construction and shared via the cache.
    """
    if kind not in ("sl2", "gl2"):
        raise ValueError(f"unknown group kind {kind!r}")
    if p not in (2, 3, 5, 7):
        raise ValueError(f"unsupported p = {p}")
    elements = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if (kind == "sl2" and det == 1) or (kind == "gl2" and det != 0):
                        elements.append((a, b, c, d))
    elements = tuple(sorted(elements))
    index = {g: i for i, g in enumerate(elements)}

    upper_gen: Elem = (1, 1, 0, 1)
    lower_gen: Elem = (1, 0, 1, 1)
    weyl: Elem = (0, 1, (-1) % p, 0)
    z = primitive_root(p)
    gens: tuple[Elem, ...]
    if kind == "sl2":
        gens = (upper_gen, lower_gen)
    else:
        gens = (upper_gen, lower_gen, (z % p, 0, 0, 1))

    # BFS factorization of every element over the generators
    words: list[Optional[tuple[int, ...]]] = [None] * len(elements)
    words[index[IDENT]] = ()
    frontier = [IDENT]
    while frontier:
        new = []
        for h in frontier:
            wh = words[index[h]]
            for gi, g in enumerate(gens):
                x = elem_mul(h, g, p)
                if words[index[x]] is None:
                    words[index[x]] = wh + (gi,)
                    new.append(x)
        frontier = new
    if any(w is None for w in words):
        raise VerificationBug("generators do not generate the group")

    upper = tuple(sorted((1, t, 0, 1) for t in range(p)))
    lower = tuple(sorted((1, 0, t, 1) for t in range(p)))
    if kind == "sl2":
        torus = tuple(sorted((t % p, 0, 0, pow(t, -1, p)) for t in range(1, p)))
    else:
        torus = tuple(sorted((s, 0, 0, t) for s in range(1, p) for t in range(1, p)))
    radicals = []
    for n2 in upper:
        conj = frozenset(elem_mul(elem_mul(n2, x, p), elem_inv(n2, p), p) for x in lower)
        if conj not in radicals:
            radicals.append(conj)
    opp = tuple(radicals)

    grp = GroupData(
        kind=kind,
        p=p,
        elements=elements,
        index=index,
        gens=gens,
        words=tuple(words),
        upper_gen=upper_gen,
        lower_gen=lower_gen,
        weyl=weyl,
        upper_unipotent=upper,
        lower_unipotent=lower,
        torus=torus,
        opp_radicals=opp,
    )
    _spot_verify(grp)
    return grp


def _spot_verify(grp: GroupData) -> None:
    p = grp.p
    expected = p * (p * p - 1) if grp.kind == "sl2" else (p * p - 1) * (p * p - p)
    if grp.order != expected:
        raise VerificationBug(f"group order {grp.order} != {expected}")
    if len(grp.upper_unipotent) != p or len(grp.opp_radicals) != p:
        raise VerificationBug("unipotent subgroup bookkeeping broken")
    conj = frozenset(
        elem_mul(elem_mul(grp.weyl, x, p), elem_inv(grp.weyl, p), p) for x in grp.lower_unipotent
    )
    if conj != frozenset(grp.upper_unipotent):
        raise VerificationBug("weyl does not conjugate the lower radical onto the upper one")
    if frozenset(grp.upper_unipotent) in grp.opp_radicals:
        raise VerificationBug("opposite radicals must exclude the upper one")
    rng = np.random.default_rng(p)
    idx = rng.integers(0, grp.order, size=(40, 3))
    for i, j, k in idx:
        x, y, zz = grp.elements[i], grp.elements[j], grp.elements[k]
        if grp.mul(grp.mul(x, y), zz) != grp.mul(x, grp.mul(y, zz)):
            raise VerificationBug("associativity spot check failed")
        if grp.mul(x, grp.inv(x)) != IDENT:
            raise VerificationBug("inverse spot check failed")


class GModule:
    """A finite-rank module with an exact matrix action of a fixed group.

    Action matrices are stored for the group generators and extended to
    arbitrary elements by evaluating the BFS factorization word; results
    are memoized per element.
    """

    def __init__(
        self,
        group: GroupData,
        ring: RingSpec,
        gen_mats: dict[Elem, np.ndarray],
        name: str = "",
        marked: Optional[dict[str, np.ndarray]] = None,
    ):
        self.group = group
        self.ring = ring
        self.name = name
        self.marked = dict(marked or {})
        mats = {}
        rank = None
        for g in group.gens:
            if g not in gen_mats:
                raise ValueError("need an action matrix for every group generator")
            m = ring.reduce(gen_mats[g])
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("action matrices must be square")
            if rank is None:
                rank = m.shape[0]
            elif m.shape[0] != rank:
                raise ValueError("inconsistent action ranks")
            mats[g] = m
        self.rank = int(rank if rank is not None else 0)
        self._gen_mats = mats
        self._cache: dict[Elem, np.ndarray] = {IDENT: np.eye(self.rank, dtype=np.int64)}

    def action(self, g: Elem) -> np.ndarray:
        got = self._cache.get(g)
        if got is not None:
            return got
        N = self.ring.modulus
        word = self.group.words[self.group.index[g]]
        m = np.eye(self.rank, dtype=np.int64)
        for gi in word:
            m = (m @ self._gen_mats[self.group.gens[gi]]) % N
        self._cache[g] = m
        return m

    def act_rows(self, X: np.ndarray, g: Elem) -> np.ndarray:
        return (np.atleast_2d(X) @ self.action(g)) % self.ring.modulus

    def verify_action(self, samples: int = 100, seed: int = 0) -> None:
        """Spot-check action(g) @ action(h) = action(gh) and invertibility."""
        rng = np.random.default_rng(seed)
        n = self.group.order
        for _ in range(samples):
            g = self.group.elements[int(rng.integers(0, n))]
            h = self.group.elements[int(rng.integers(0, n))]
            lhs = (self.action(g) @ self.action(h)) % self.ring.modulus
            if not np.array_equal(lhs, self.action(self.group.mul(g, h))):
                raise VerificationBug(f"action law fails at {g}, {h} on {self.name or 'module'}")
        for g in self.group.gens:
            if howell_array(self.ring, self.action(g)).span_log_size() != self.ring.e * self.rank:
                raise VerificationBug("action matrix is not invertible")


def trivial_module(group: GroupData, ring: RingSpec) -> GModule:
    one = np.eye(1, dtype=np.int64)
    return GModule(group, ring, {g: one for g in group.gens}, name="trivial")


def direct_sum(modules: Sequence[GModule], name: str = "") -> GModule:
    group, ring = modules[0].group, modules[0].ring
    mats = {}
    for g in group.gens:
        blocks = [m.action(g) for m in modules]
        total = sum(m.rank for m in modules)
        big = np.zeros((total, total), dtype=np.int64)
        off = 0
        for b in blocks:
            big[off : off + b.shape[0], off : off + b.shape[0]] = b
            off += b.shape[0]
        mats[g] = big
    return GModule(group, ring, mats, name=name or "+".join(m.name for m in modules))


def jbar(group: GroupData, ring: RingSpec) -> GModule:
    """The permutation module on cosets of the upper unipotent subgroup.

    Basis: the cosets ordered by their minimal element; the group acts
    by right coset translation.  The indicator of the identity coset is
    marked as "base_coset"; it is fixed by the inducing subgroup and
    generates the module.
    """
    p = group.p
    upper = group.upper_unipotent
    seen: dict[Elem, int] = {}
    reps: list[Elem] = []
    for g in group.elements:
        if g in seen:
            continue
        coset = sorted(elem_mul(n, g, p) for n in upper)
        for x in coset:
            seen[x] = len(reps)
        reps.append(coset[0])
    n_cosets = len(reps)
    mats = {}
    for g in group.gens:
        m = np.zeros((n_cosets, n_cosets), dtype=np.int64)
        for i, rep in enumerate(reps):
            m[i, seen[elem_mul(rep, g, p)]] = 1
        mats[g] = m
    indicator = np.zeros(n_cosets, dtype=np.int64)
    indicator[seen[IDENT]] = 1
    mod = GModule(group, ring, mats, name="jbar", marked={"base_coset": indicator})
    mod.coset_reps = reps  # type: ignore[attr-defined]
    mod.coset_of = seen  # type: ignore[attr-defined]
    return mod


def invariants(M: GModule, subgroup: Iterable[Elem]) -> CanonicalBasis:
    """Fixed submodule under the listed elements (generators suffice)."""
    blocks = []
    eye = np.eye(M.rank, dtype=np.int64)
    for h in subgroup:
        blocks.append((M.action(h) - eye) % M.ring.modulus)
    if not blocks:
        return howell_array(M.ring, eye)
    return kernel_array(M.ring, np.concatenate(blocks, axis=1))


def generated_submodule(
    M: GModule, vectors: np.ndarray, gens: Optional[Sequence[Elem]] = None
) -> CanonicalBasis:
    """Smallest action-stable submodule containing the given row vectors.

    gens defaults to the full group's generators; passing a subgroup's
    generators closes up under that subgroup only.
    """
    gens = tuple(gens) if gens is not None else M.group.gens
    return span_closure(M.ring, vectors, [M.action(g) for g in gens])


def generated_by_lower_invariants(W: GModule) -> CanonicalBasis:
    """The lower-unipotent invariants of W, checked to generate W.

    This is the hypothesis of the coefficient system and of the
    comparison map; raises ValueError when it fails.
    """
    inv = invariants(W, [W.group.lower_gen])
    if generated_submodule(W, inv.mat).nrows != W.rank:
        raise ValueError("module not generated by lower-unipotent invariants")
    return inv


@dataclass(frozen=True, eq=False)
class QuotientPresentation:
    """A quotient Lambda^n / span(rel) with canonical coset representatives."""

    ring: RingSpec
    ambient: int
    rel: CanonicalBasis

    @property
    def dim(self) -> int:
        """Dimension over k when e = 1; the length (log_size) in general."""
        return self.log_size()

    def log_size(self) -> int:
        """log_p of the number of elements of the quotient."""
        return self.ring.e * self.ambient - self.rel.span_log_size()


def coinvariants(M: GModule, subgroup: Sequence[Elem]) -> QuotientPresentation:
    """Quotient by the span of all v (action(h) - 1); exact cokernel.

    The span of the images of (h - 1) over a generating set, closed
    under the subgroup action, equals the span over the full subgroup.
    """
    eye = np.eye(M.rank, dtype=np.int64)
    ops = [M.action(h) for h in subgroup]
    seed = [np.zeros((0, M.rank), dtype=np.int64)] + [(op - eye) % M.ring.modulus for op in ops]
    return QuotientPresentation(M.ring, M.rank, span_closure(M.ring, np.concatenate(seed), ops))


def _ppower_order(ring: RingSpec, op: np.ndarray, p: int, bound: int = 16) -> int:
    """Smallest p-power k with op^k = 1; raises if none within the bound."""
    N = ring.modulus
    eye = np.eye(op.shape[0], dtype=np.int64)
    cur = op % N
    k = 1
    for _ in range(bound):
        if np.array_equal(cur, eye):
            return k
        cur = _matpow(cur, p, N)
        k *= p
    raise ValueError("c not invertible of p-power order")


def _matpow(m: np.ndarray, k: int, N: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % N
    while k:
        if k & 1:
            out = (out @ base) % N
        base = (base @ base) % N
        k >>= 1
    return out


def translate_stack(ring: RingSpec, rows: np.ndarray, op: np.ndarray, count: int) -> np.ndarray:
    """The translates rows @ op^j for j < count, stacked j-major."""
    blocks = [np.asarray(rows, dtype=np.int64) % ring.modulus]
    for _ in range(count - 1):
        blocks.append((blocks[-1] @ op) % ring.modulus)
    return np.concatenate(blocks, axis=0)


def block_shift(p: int, t: int, u: int = 1) -> np.ndarray:
    """Cyclic shift of p blocks of size t: block j goes to block j + u mod p."""
    return np.kron(np.roll(np.eye(p, dtype=np.int64), u, axis=1), np.eye(t, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ProcyclicH1:
    """H^1 of a procyclic group with topological generator acting as c.

    Realized as the coinvariants M/(c-1)M; this is the identification
    used throughout for continuous cohomology of Z_p in characteristic p.
    """

    ring: RingSpec
    operator: np.ndarray
    quotient: QuotientPresentation

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def log_size(self) -> int:
        return self.quotient.log_size()

    def induced_map(self, f: np.ndarray, target: "ProcyclicH1") -> tuple[bool, bool]:
        """(injective, surjective) for the map induced by f on the two quotients.

        f must intertwine the operators.  Works for any e via span sizes:
        surjective iff image + target relations fill the target, injective
        iff the f-preimage of the target relations lies in the source
        relations.
        """
        ring = self.ring
        f = ring.reduce(f)
        lhs = (self.operator @ f) % ring.modulus
        rhs = (f @ target.operator) % ring.modulus
        if not np.array_equal(lhs, rhs):
            raise ValueError("map does not intertwine the designated operators")
        img = span_sum(ring, [f, target.quotient.rel.mat])
        surj = img.span_log_size() == ring.e * target.quotient.ambient
        pre = preimage_kernel(ring, [f], target.quotient.rel)
        inj = pre.is_subspace_of(self.quotient.rel)
        return inj, surj


def h1_procyclic(ring: RingSpec, operator: np.ndarray, p: int) -> ProcyclicH1:
    """H^1(Z_p, M) = coker(c - 1) for the operator c of p-power order."""
    op = ring.reduce(operator)
    _ppower_order(ring, op, p)
    eye = np.eye(op.shape[0], dtype=np.int64)
    rel = howell_array(ring, (op - eye) % ring.modulus)
    return ProcyclicH1(ring, op, QuotientPresentation(ring, op.shape[0], rel))


def left_torus_translation(J: GModule, t: Elem) -> np.ndarray:
    """Matrix of left translation by a torus element on the coset basis."""
    p = J.group.p
    reps = J.coset_reps  # type: ignore[attr-defined]
    of = J.coset_of  # type: ignore[attr-defined]
    m = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for i, rep in enumerate(reps):
        m[i, of[elem_mul(t, rep, p)]] = 1
    return m


def submodule_gmodule(M: GModule, basis: CanonicalBasis, name: str = "") -> GModule:
    """Action-stable submodule as a module in its own coordinates (e = 1)."""
    if not M.ring.is_field:
        raise ValueError("coordinate submodules require e = 1")
    mats = {}
    for g in M.group.gens:
        img = M.act_rows(basis.mat, g)
        coords = basis.coords_rows(img)
        if coords is None:
            raise ValueError("basis is not action-stable")
        mats[g] = coords
    return GModule(M.group, M.ring, mats, name=name)


def quotient_gmodule(M: GModule, rel: CanonicalBasis, name: str = "") -> GModule:
    """Quotient by an action-stable span, in section coordinates (e = 1)."""
    if not M.ring.is_field:
        raise ValueError("coordinate quotients require e = 1")
    for g in M.group.gens:
        if not rel.contains_rows(M.act_rows(rel.mat, g)):
            raise ValueError("relation span is not action-stable")
    sec = rel.section_cols()
    mats = {}
    for g in M.group.gens:
        rows = rel.reduce_rows(M.action(g)[sec, :])
        mats[g] = rows[:, sec]
    return GModule(M.group, M.ring, mats, name=name)


def decompose_jbar(group: GroupData, ring: RingSpec) -> list[GModule]:
    """Split jbar into its principal-series summands (e = 1, sl2 only).

    Simultaneous eigenspaces of the left torus translation, which
    commutes with the module action; the torus has order p - 1, so all
    eigenvalues live in F_p and the operator is semisimple.
    """
    if group.kind != "sl2":
        raise ValueError("decompose_jbar expects the sl2 group")
    if not ring.is_field:
        raise ValueError("decompose_jbar requires e = 1")
    J = jbar(group, ring)
    p = group.p
    z = primitive_root(p)
    t0: Elem = (z % p, 0, 0, pow(z, -1, p)) if p > 2 else IDENT
    L = left_torus_translation(J, t0)
    for g in group.gens:
        if not np.array_equal((L @ J.action(g)) % p, (J.action(g) @ L) % p):
            raise VerificationBug("left torus translation must commute with the action")
    eye = np.eye(J.rank, dtype=np.int64)
    summands = []
    total = 0
    for i in range(p - 1):
        lam = pow(z, i, p)
        eig = kernel_array(ring, (L - lam * eye) % p)
        sub = submodule_gmodule(J, eig, name=f"ps:{i}")
        sub.eigenbasis = eig  # type: ignore[attr-defined]
        summands.append(sub)
        total += eig.nrows
    if total != J.rank:
        raise VerificationBug("eigenspace dimensions do not fill jbar")
    return summands


def _fixed_lines(M: GModule, perm_seed: Optional[int] = None) -> list[np.ndarray]:
    """All lines of the fixed space of the upper unipotent subgroup (e = 1)."""
    p = M.ring.p
    fix = invariants(M, [M.group.upper_gen])
    f = fix.nrows
    lines = []
    seen = set()
    for coeffs in itertools.product(range(p), repeat=f):
        if not any(coeffs):
            continue
        v = (np.array(coeffs, dtype=np.int64) @ fix.mat) % p
        # normalize the line: scale so the first nonzero coordinate is 1
        nz = np.nonzero(v)[0][0]
        vn = tuple((v * pow(int(v[nz]), -1, p)) % p)
        if vn in seen:
            continue
        seen.add(vn)
        lines.append(np.array(vn, dtype=np.int64))
    if perm_seed is not None:
        rng = np.random.default_rng(perm_seed)
        order = rng.permutation(len(lines))
        lines = [lines[i] for i in order]
    return lines


def is_irreducible(M: GModule, perm_seed: Optional[int] = None) -> bool:
    """Irreducibility over k: every nonzero fixed line must generate.

    Sufficient because any nonzero submodule contains a nonzero vector
    fixed by the unipotent p-group.
    """
    if not M.ring.is_field:
        raise ValueError("irreducibility test requires e = 1")
    if M.rank == 0:
        return False
    full = howell_array(M.ring, np.eye(M.rank, dtype=np.int64))
    for v in _fixed_lines(M, perm_seed):
        if generated_submodule(M, v) != full:
            return False
    return True


def composition_length(M: GModule, perm_seed: Optional[int] = None) -> int:
    """Length of a composition chain found by drilling along fixed lines."""
    if not M.ring.is_field:
        raise ValueError("composition length requires e = 1")
    if M.rank == 0:
        return 0
    full = howell_array(M.ring, np.eye(M.rank, dtype=np.int64))
    for v in _fixed_lines(M, perm_seed):
        sub = generated_submodule(M, v)
        if sub != full:
            S = submodule_gmodule(M, sub)
            Q = quotient_gmodule(M, sub)
            return composition_length(S, perm_seed) + composition_length(Q, perm_seed)
    return 1


@dataclass(frozen=True, eq=False)
class PresentedModule:
    """A module presented as (free carrier with action) / (relation span).

    Works over any e; all operations stay in the ambient coordinates of
    the carrier, so no free section is ever needed.
    """

    base: GModule
    rel: CanonicalBasis
    name: str = ""

    @property
    def ring(self) -> RingSpec:
        return self.base.ring

    def invariants_preimage(self, subgroup: Sequence[Elem]) -> CanonicalBasis:
        """Ambient span of {v : class of v is fixed}; contains the relations."""
        eye = np.eye(self.base.rank, dtype=np.int64)
        blocks = [(self.base.action(h) - eye) % self.ring.modulus for h in subgroup]
        pre = preimage_kernel(self.ring, blocks, self.rel)
        return span_sum(self.ring, [pre.mat, self.rel.mat])

    def is_generated_by_invariants(self, subgroup: Sequence[Elem]) -> bool:
        pre = self.invariants_preimage(subgroup)
        gen = generated_submodule(self.base, pre.mat)
        closed = span_sum(self.ring, [gen.mat, self.rel.mat])
        return closed.span_log_size() == self.ring.e * self.base.rank
