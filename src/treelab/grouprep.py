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
    image_and_preimage,
    kernel_array,
    preimage_kernel,
    span_closure,
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
    coset_reps: np.ndarray  # (n, 2, 2): least element of each coset U g, in increasing order
    coset_index: np.ndarray  # coset of the matrix coded a p^3 + b p^2 + c p + d; -1 off the group

    @property
    def order(self) -> int:
        return len(self.elements)

    def coset_of(self, X: np.ndarray) -> np.ndarray:
        """Coset index of each matrix of X, an integer array of shape (..., 2, 2)."""
        X = np.asarray(X, dtype=np.int64) % self.p
        return self.coset_index[X.reshape(*X.shape[:-2], 4) @ self.p ** np.arange(3, -1, -1)]


@lru_cache(maxsize=None)
def build_group(kind: str, p: int) -> GroupData:
    """Enumerate the group, fix the distinguished subgroups, verify axioms.

    kind is "sl2" or "gl2"; p must be a supported prime.  Group tables
    are immutable after construction and shared via the cache.
    """
    if kind not in ("sl2", "gl2"):
        raise ValueError(f"unknown group kind {kind!r}")
    RingSpec(p)  # refuses a prime it does not support
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

    # the cosets U g, numbered by their least element (elements are sorted by code)
    code = p ** np.arange(3, -1, -1)
    mats = np.array(elements, dtype=np.int64).reshape(-1, 2, 2)
    translates = (np.array(upper, dtype=np.int64).reshape(-1, 1, 2, 2) @ mats) % p
    least, of_elem = np.unique((translates.reshape(p, -1, 4) @ code).min(axis=0), return_inverse=True)
    coset_index = np.full(p**4, -1, dtype=np.int64)
    coset_index[mats.reshape(-1, 4) @ code] = of_elem
    coset_reps = mats[np.searchsorted(mats.reshape(-1, 4) @ code, least)]
    coset_index.flags.writeable = coset_reps.flags.writeable = False

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
        coset_reps=coset_reps,
        coset_index=coset_index,
    )
    _spot_verify(grp)
    return grp


def _spot_verify(grp: GroupData) -> None:
    p = grp.p
    expected = p * (p * p - 1) if grp.kind == "sl2" else (p * p - 1) * (p * p - p)
    if grp.order != expected:
        raise VerificationBug(f"group order {grp.order} != {expected}")
    if len(grp.upper_unipotent) != p:
        raise VerificationBug("unipotent subgroup bookkeeping broken")
    conj = frozenset(
        elem_mul(elem_mul(grp.weyl, x, p), elem_inv(grp.weyl, p), p) for x in grp.lower_unipotent
    )
    if conj != frozenset(grp.upper_unipotent):
        raise VerificationBug("weyl does not conjugate the lower radical onto the upper one")
    rng = np.random.default_rng(p)
    idx = rng.integers(0, grp.order, size=(40, 3))
    for i, j, k in idx:
        x, y, zz = grp.elements[i], grp.elements[j], grp.elements[k]
        if elem_mul(elem_mul(x, y, p), zz, p) != elem_mul(x, elem_mul(y, zz, p), p):
            raise VerificationBug("associativity spot check failed")
        if elem_mul(x, elem_inv(x, p), p) != IDENT:
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
    ):
        self.group = group
        self.ring = ring
        self.name = name
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
        # a generator's one-letter word acts by (a copy of) its matrix; IDENT keeps ()
        self._cache: dict[Elem, np.ndarray] = {g: m.copy() for g, m in mats.items()}
        self._cache[IDENT] = np.eye(self.rank, dtype=np.int64)

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

    def verify_action(self, samples: int = 100, seed: int = 0) -> None:
        """Spot-check action(g) @ action(h) = action(gh) and invertibility."""
        rng = np.random.default_rng(seed)
        n = self.group.order
        for _ in range(samples):
            g = self.group.elements[int(rng.integers(0, n))]
            h = self.group.elements[int(rng.integers(0, n))]
            lhs = (self.action(g) @ self.action(h)) % self.ring.modulus
            if not np.array_equal(lhs, self.action(elem_mul(g, h, self.group.p))):
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

    Basis: the group's coset table, ordered by least element; the group acts
    by right coset translation.  The indicator of the base coset, the one
    of the identity (`group.coset_of(IDENT)`), is fixed by the inducing
    subgroup and generates the module.
    """
    eye = np.eye(len(group.coset_reps), dtype=np.int64)
    mats = {g: eye[group.coset_of(group.coset_reps @ np.reshape(g, (2, 2)))] for g in group.gens}
    return GModule(group, ring, mats, name="jbar")


def invariants(M: GModule, subgroup: Iterable[Elem]) -> CanonicalBasis:
    """Fixed submodule under the listed elements (generators suffice); the list is not empty."""
    eye = np.eye(M.rank, dtype=np.int64)
    blocks = [(M.action(h) - eye) % M.ring.modulus for h in subgroup]
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
    """A quotient Lambda^n / span(rel) with canonical coset representatives.

    Every subspace of the quotient is kept as its ambient preimage, which
    contains rel; Howell forms make those preimages canonical.
    """

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

    def fixed_preimage(self, ops: Sequence[np.ndarray]) -> CanonicalBasis:
        """Ambient span of the classes that every op fixes.

        The relations must be stable under every op; then the span contains them.
        """
        eye = np.eye(self.ambient, dtype=np.int64)
        return preimage_kernel(self.ring, [(op - eye) % self.ring.modulus for op in ops], self.rel)

    def map_verdicts(self, f: np.ndarray, source_rel: Optional[CanonicalBasis] = None) -> tuple[bool, bool]:
        """(injective, surjective) for the map that the rows of f induce into the quotient.

        The source is Lambda^m / span(source_rel), m the row count of f,
        or free when source_rel is None; f must send source_rel into rel.
        Works for any e via span sizes, from one elimination: surjective
        iff image + relations fill the ambient, injective iff the
        f-preimage of the relations lies in the source relations.
        """
        image, pre = image_and_preimage(self.ring, [f], self.rel)
        surj = image.span_log_size() == self.ring.e * self.ambient
        inj = pre.nrows == 0 if source_rel is None else pre.is_subspace_of(source_rel)
        return inj, surj


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


def translates_equivariantly(ring: RingSpec, stack: np.ndarray, op: np.ndarray, t: int) -> bool:
    """Whether block j + 1 of the stack (blocks of t rows) is block j times op, wraparound included.

    This is the statement that the stack carries the cyclic shift of its
    blocks to op, so it sends the relations of H^1 of that shift into those
    of H^1 of op.
    """
    return np.array_equal(np.roll(stack, -t, axis=0), stack @ op % ring.modulus)


def augmentation_kernel(ring: RingSpec, p: int, t: int) -> CanonicalBasis:
    """Kernel of the augmentation tile(I_t, (p, 1)), {x : sum_j x_(j,i) = 0}, in closed form (e = 1).

    Its RREF basis is e_(j,i) - e_(p-1,i) for j < p - 1, that is
    [I_((p-1)t) | (p-1) tile(I_t, (p-1, 1))], one unit pivot per row.  It
    is also the row space of s^u - 1 for the cyclic shift s of p blocks of
    size t and any unit u, so it is the relation span of H^1 of that shift.
    """
    k = (p - 1) * t
    last = (p - 1) * np.tile(np.eye(t, dtype=np.int64), (p - 1, 1))
    mat = np.concatenate([np.eye(k, dtype=np.int64), last], axis=1)
    return CanonicalBasis(ring, p * t, mat, tuple((i, 1) for i in range(k)))


def h1_procyclic(ring: RingSpec, operator: np.ndarray, p: int) -> QuotientPresentation:
    """H^1(Z_p, M) = coker(c - 1) for the operator c of p-power order.

    This is the identification used throughout for continuous cohomology
    of Z_p in characteristic p.  Any topological generator gives the same
    quotient: for u prime to p, c^u - 1 and c - 1 are each the other times
    a polynomial in c, so they have the same row space.
    """
    op = ring.reduce(operator)
    _ppower_order(ring, op, p)
    eye = np.eye(op.shape[0], dtype=np.int64)
    return QuotientPresentation(ring, op.shape[0], howell_array(ring, (op - eye) % ring.modulus))


def submodule_gmodule(M: GModule, basis: CanonicalBasis, name: str = "") -> GModule:
    """Action-stable submodule as a module in its own coordinates (e = 1)."""
    if not M.ring.is_field:
        raise ValueError("coordinate submodules require e = 1")
    # at e = 1 the Howell rows have unit pivots and vanish at each other's
    # pivot columns, so the quotients of an image are its unique coordinates
    mats = {}
    for g in M.group.gens:
        residue, mats[g] = basis.quotients(basis.mat @ M.action(g))
        if residue.any():
            raise ValueError("basis is not action-stable")
    return GModule(M.group, M.ring, mats, name=name)


def quotient_gmodule(M: GModule, rel: CanonicalBasis, name: str = "") -> GModule:
    """Quotient by an action-stable span, in section coordinates (e = 1)."""
    if not M.ring.is_field:
        raise ValueError("coordinate quotients require e = 1")
    for g in M.group.gens:
        if not rel.contains_rows(rel.mat @ M.action(g)):
            raise ValueError("relation span is not action-stable")
    mats = {g: rel.section_action(M.action(g)) for g in M.group.gens}
    return GModule(M.group, M.ring, mats, name=name)


def torus_idempotents(ring: RingSpec, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Joint eigen-idempotents of commuting operators whose orders divide p - 1.

    For a character chi = (i_1, ..., i_M) the idempotent is
    e_chi = prod_m (p - 1)^-1 sum_k w^(-i_m k) op_m^k, the projector onto
    the joint eigenspace where op_m acts as w^(i_m).  Here w = z^(p^(e-1))
    is the Teichmueller lift of the primitive root z: x^(p-1) - 1 has
    p - 1 simple roots mod p, so by Hensel's lemma each lifts to exactly
    one root in Z/p^e, and w is a primitive (p - 1)-th root of unity that
    reduces to z.  Returns the ((p-1)^M, m, m) stack in itertools.product
    order of chi; the operators are checked to commute, and the projectors
    of each one to be orthogonal idempotents that sum to the identity.
    """
    p, N = ring.p, ring.modulus
    q = p - 1
    w = pow(primitive_root(p), p ** (ring.e - 1), N)
    eye = np.eye(len(ops[0]), dtype=np.int64)
    if any(((a @ b - b @ a) % N).any() for a, b in itertools.combinations(ops, 2)):
        raise VerificationBug("torus operators do not commute")
    # coef[i, k] = (p - 1)^-1 w^(-ik), the weight of op^k in the projector of w^i
    coef = np.array([[pow(q * pow(w, i * k, N), -1, N) for k in range(q)] for i in range(q)], dtype=np.int64)
    E = eye[None]
    for op in ops:
        proj = np.tensordot(coef, np.stack([_matpow(op, k, N) for k in range(q)]), axes=1) % N
        # the projectors of commuting operators commute, so products of two
        # orthogonal families that sum to 1 are again such a family
        for i, Pi in enumerate(proj):
            prods = Pi @ proj % N
            prods[i] -= Pi
            if prods.any():
                raise VerificationBug("torus idempotents are not orthogonal idempotents")
        if not np.array_equal(proj.sum(axis=0) % N, eye):
            raise VerificationBug("torus idempotents do not sum to the identity")
        E = (E[:, None] @ proj[None]).reshape(-1, *eye.shape) % N
    return E


def decompose_jbar(group: GroupData, ring: RingSpec) -> list[GModule]:
    """Split jbar into its principal-series summands (e = 1, sl2 only).

    The summands are the images of the eigen-idempotents of the left
    torus translation, which commutes with the module action: summand i
    is the row space of the projector onto the eigenvalue z^i.
    """
    if group.kind != "sl2":
        raise ValueError("decompose_jbar expects the sl2 group")
    if not ring.is_field:
        raise ValueError("decompose_jbar requires e = 1")
    J = jbar(group, ring)
    p = group.p
    z = primitive_root(p)
    t0: Elem = (z, 0, 0, pow(z, -1, p))  # the identity at p = 2, where z = 1
    eye = np.eye(J.rank, dtype=np.int64)
    L = eye[group.coset_of(np.reshape(t0, (2, 2)) @ group.coset_reps)]  # U g -> U t0 g
    for g in group.gens:
        if not np.array_equal((L @ J.action(g)) % p, (J.action(g) @ L) % p):
            raise VerificationBug("left torus translation must commute with the action")
    return [
        submodule_gmodule(J, howell_array(ring, E), name=f"ps:{i}")
        for i, E in enumerate(torus_idempotents(ring, [L]))
    ]


def _fixed_lines(M: GModule) -> list[np.ndarray]:
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
    return lines


def is_irreducible(M: GModule) -> bool:
    """Irreducibility over k: every nonzero fixed line must generate.

    Sufficient because any nonzero submodule contains a nonzero vector
    fixed by the unipotent p-group.
    """
    if not M.ring.is_field:
        raise ValueError("irreducibility test requires e = 1")
    if M.rank == 0:
        return False
    full = howell_array(M.ring, np.eye(M.rank, dtype=np.int64))
    for v in _fixed_lines(M):
        if generated_submodule(M, v) != full:
            return False
    return True

