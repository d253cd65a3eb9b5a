"""The finite Hecke algebra of GL2(F_p) and its module machinery.

The algebra is realized concretely as the equivariant endomorphisms of
the permutation module on cosets of the upper unipotent subgroup: one
basis operator per double coset, sending the base coset indicator to
the indicator sum of its double coset.  The algebra product is operator
composition (apply the right factor first); module elements are rows,
so a right module multiplies coefficient vectors by its action matrices
in algebra order.

The tensor functor pairs a right module M with the permutation module:
K(M) = M (x) J over the algebra, presented as an explicit quotient with
the inherited group action, one central torus block of J at a time.
Flatness of J over the algebra is decided as a split-surjection problem:
finitely generated flat = projective over an Artinian algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exactalg import (
    CanonicalBasis,
    RingSpec,
    RowSolver,
    VerificationBug,
    howell_array,
    image_and_preimage,
    kernel_array,
    span_closure,
    span_sum,
    split_test,
)
from .grouprep import IDENT, GModule, QuotientPresentation, build_group, invariants, jbar, primitive_root
from .grouprep import block_diagonal, torus_idempotents
from .report import RECORDED, LemmaReport, timed


class TorusBlock(NamedTuple):
    """A central torus idempotent e_O, the Howell bases of e_O H and e_O J, and the pivots of the latter."""

    idem: np.ndarray
    H: CanonicalBasis
    J: CanonicalBasis
    jcols: np.ndarray


@dataclass(frozen=True, eq=False)
class HeckeAlgebra:
    """Basis by double cosets, structure constants, and the J-realization.

    dc_table[i, j] is the double coset of rep_j * rep_i^-1: the operator
    of double coset w on J is (dc_table == w), an element with
    coefficients c acts as c[dc_table], and row base_coset_idx lists the
    double coset of each coset.
    gens are the double cosets of T_s and of the torus generators
    diag(z, 1), diag(1, z).  They generate the algebra: the torus
    operators multiply as the torus does, and T_{st} = T_s * T_t.
    """

    ring: RingSpec
    p: int
    J: GModule
    dc_table: np.ndarray  # (n, n): T_w sends coset i to the cosets j with dc_table[i, j] == w
    struct: np.ndarray  # struct[u, v, w]: coefficient of w in T_u * T_v
    unit: int
    base_coset_idx: int
    gens: tuple[int, ...]
    laws: dict[str, bool]  # the exhaustive law verdicts, evaluated once at build

    @property
    def dim(self) -> int:
        return len(self.struct)

    def left_action(self, coeffs: np.ndarray) -> np.ndarray:
        """Operator on J of the algebra element with the given coefficients."""
        return np.asarray(coeffs, dtype=np.int64)[self.dc_table] % self.ring.modulus

    def orbit(self, v: np.ndarray) -> np.ndarray:
        """The rows v @ T_w on J over every w, from one scatter on the table."""
        img = np.zeros((self.dim, len(v)), dtype=np.int64)
        np.add.at(img, (self.dc_table, np.arange(len(v))), v[:, None])
        return img % self.ring.modulus

    def left_regular(self, u: int) -> np.ndarray:
        """Coefficient matrix of x -> T_u * x."""
        return self.struct[u] % self.ring.modulus

    def right_regular(self, u: int) -> np.ndarray:
        """Coefficient matrix of x -> x * T_u."""
        return self.struct[:, u, :] % self.ring.modulus

    @cached_property
    def blocks(self) -> list[TorusBlock]:
        """The torus blocks, built on first use, with compact copies of the bases of e_O H and e_O J."""
        out = []
        for e_O in torus_blocks(self):  # the rows e_O T_v span e_O H, the rows of e_O's operator e_O J
            H = howell_array(self.ring, np.tensordot(e_O, self.struct, axes=1) % self.ring.modulus)
            J = howell_array(self.ring, self.left_action(e_O))
            jcols = np.array([c for c, _ in J.pivots], dtype=np.int64)  # units: the torus acts freely on the cosets
            out.append(TorusBlock(e_O, replace(H, mat=H.mat.copy()), replace(J, mat=J.mat.copy()), jcols))
        return out

    def _generated_subalgebra_full(self, gens: tuple[int, ...]) -> bool:
        unit_vec = np.zeros((1, self.dim), dtype=np.int64)
        unit_vec[0, self.unit] = 1
        ops = [m for g in gens for m in (self.left_regular(g), self.right_regular(g))]
        span = span_closure(self.ring, unit_vec, ops)
        return span.span_log_size() == self.ring.e * self.dim


HECKE_CHECKS = ("dim", "assoc", "vytastra", "flatness")


def build_hecke(p: int, e: int = 1) -> HeckeAlgebra:
    """The algebra over Z/p^e, built once per (p, e): build_hecke(p) is build_hecke(p, 1)."""
    return _build_hecke(p, e)


@lru_cache(maxsize=None)
def _build_hecke(p: int, e: int) -> HeckeAlgebra:
    """Double-coset basis, structure constants, exhaustive associativity.

    All of it is read off one table, tab[x, i] = the coset of rep_x * rep_i.
    U is cyclic, so U g U is the orbit of the coset U g under the upper
    generator, and T_w sends coset i to the sum of tab[x, i] over x in w.
    Right translation by rep_i permutes the cosets, so tab[x, i] = j for
    exactly one x, the coset of rep_j * rep_i^-1: T_w has a one at (i, j)
    when that x lies in w, which is the double-coset table.
    """
    ring = RingSpec(p, e)
    N = ring.modulus
    group = build_group("gl2", p)
    J = jbar(group, ring)
    reps = group.coset_reps
    n = len(reps)
    # numbering the orbits by their least coset lists them in index order
    step = group.coset_of(reps @ np.reshape(group.upper_gen, (2, 2)))  # U g -> U g upper_gen
    iterates = [np.arange(n)]
    for _ in range(p - 1):
        iterates.append(step[iterates[-1]])
    least, dc_of = np.unique(np.min(iterates, axis=0), return_inverse=True)
    d = len(least)
    if d != 2 * (p - 1) ** 2:
        raise VerificationBug(f"double coset count {d} != 2(p-1)^2")

    tab = group.coset_of(reps[:, None] @ reps[None])
    if not (np.sort(tab, axis=0) == np.arange(n)[:, None]).all():
        raise VerificationBug("right translation by a coset representative does not permute the cosets")
    dc_table = np.empty((n, n), dtype=np.int64)
    dc_table[np.arange(n), tab] = dc_of[:, None]
    dc_table.flags.writeable = False
    base_coset_idx = int(group.coset_of(np.reshape(IDENT, (2, 2))))
    unit = int(dc_of[base_coset_idx])
    z = primitive_root(p)
    torus_and_weyl = group.coset_of(np.reshape([(z, 0, 0, 1), (1, 0, 0, z), group.weyl], (-1, 2, 2)))
    gens = tuple(sorted(set(dc_of[torus_and_weyl].tolist()) - {unit}))

    # img[u, v], the base coset under T_u * T_v: T_v sends it (its rep is the
    # identity) to the indicator of v, and T_u sends coset i of v to each j with dc_table[i, j] = u
    img = np.zeros((d, d, n), dtype=np.int64)
    np.add.at(img, (dc_table, dc_of[:, None], np.arange(n)), 1)
    img %= N
    struct = img[:, :, least]
    if not np.array_equal(struct[:, :, dc_of], img):
        raise VerificationBug("composite image is not double-coset invariant")
    del img  # free the (d, d, n) image before the laws, which peak on their own
    laws = _algebra_laws(ring, struct, unit)
    alg = HeckeAlgebra(ring, p, J, dc_table, struct, unit, base_coset_idx, gens, laws)
    _verify_algebra(alg)
    return alg


def _nonzeros(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the nonzeros of each row of a, zero-padded to the longest row, not views of a temporary."""
    idx = np.argsort(a == 0, axis=-1, kind="stable")[..., : (a != 0).sum(axis=-1).max(initial=0)].copy()
    return idx, np.take_along_axis(a, idx, axis=-1)


def _algebra_laws(ring: RingSpec, struct: np.ndarray, unit: int) -> dict[str, bool]:
    """Exhaustive associativity and unit laws, each side a sum of tensor rows over nonzeros, per u."""
    N = ring.modulus
    eye = np.eye(struct.shape[0], dtype=np.int64) % N
    s = (struct % N).astype(np.int32)
    idx, val = _nonzeros(s)
    assert idx.shape[-1] * (N - 1) ** 2 < 2**31, "int32 accumulation bound"
    left = (np.einsum("vk,vkwy->vwy", val[u], s[idx[u]]) for u in range(len(s)))  # (T_u T_v) T_w
    right = (np.einsum("vwk,vwky->vwy", val, s[u][idx]) for u in range(len(s)))  # T_u (T_v T_w)
    return {
        "associative": not any(((a - b) % N).any() for a, b in zip(left, right)),
        "unit_laws": bool(
            np.array_equal(struct[unit] % N, eye) and np.array_equal(struct[:, unit, :] % N, eye)
        ),
    }


def _verify_algebra(alg: HeckeAlgebra) -> None:
    N = alg.ring.modulus
    d = alg.dim
    if not alg.laws["unit_laws"]:
        raise VerificationBug("unit laws fail")
    if not alg.laws["associative"]:
        raise VerificationBug("associativity fails on a basis triple")
    if not alg._generated_subalgebra_full(alg.gens):
        raise VerificationBug("T_s and the torus do not generate the algebra")
    # operators commute with the group action and compose per the tensor;
    # a generator acts by a permutation A = I[perm], and A commutes with
    # every T_w = (dc_table == w) iff A dc_table A^-1, the table with its
    # rows and columns permuted by perm, is the table
    for g in alg.J.group.gens:
        A = alg.J.action(g)
        perm = A.argmax(axis=1)
        if not (np.array_equal(A, np.eye(len(A), dtype=np.int64)[perm]) and (A.sum(axis=0) == 1).all()):
            raise VerificationBug("group generator does not act on J by a permutation")
        if not np.array_equal(alg.dc_table[np.ix_(perm, perm)], alg.dc_table):
            raise VerificationBug("basis operator is not equivariant")
    rng = np.random.default_rng(alg.p)
    for _ in range(20):
        u, v = int(rng.integers(0, d)), int(rng.integers(0, d))
        idx, val = _nonzeros(alg.dc_table == v)
        lhs = (val[..., None] & (alg.dc_table[idx] == u)).sum(axis=1) % N  # T_v @ T_u
        rhs = alg.left_action(alg.struct[u, v])
        if not np.array_equal(lhs, rhs):
            raise VerificationBug("structure constants disagree with composition")


@dataclass(frozen=True, eq=False)
class HeckeModule:
    """A right module over the algebra, by its basis action matrices.

    cyclic may carry a vector known to generate the module; the tensor
    machinery tries it before searching for generators.
    """

    alg: HeckeAlgebra
    rank: int
    action: list[np.ndarray]  # action[w]: m -> m @ action[w]
    name: str = ""
    cyclic: Optional[np.ndarray] = None

    def verify_axioms(self, exhaustive: bool = True, seed: int = 0) -> None:
        alg = self.alg
        N = alg.ring.modulus
        d = alg.dim
        if not np.array_equal(self.action[alg.unit] % N, np.eye(self.rank, dtype=np.int64) % N):
            raise VerificationBug("unit does not act as the identity")
        pairs = (
            [(u, v) for u in range(d) for v in range(d)]
            if exhaustive
            else [tuple(x) for x in np.random.default_rng(seed).integers(0, d, (50, 2))]
        )
        for u, v in pairs:
            lhs = (self.action[u] @ self.action[v]) % N
            rhs = np.zeros((self.rank, self.rank), dtype=np.int64)
            c = alg.struct[u, v] % N
            for w in np.flatnonzero(c):
                rhs = (rhs + int(c[w]) * self.action[w]) % N
            if not np.array_equal(lhs, rhs):
                raise VerificationBug(f"right-module law fails at basis pair ({u}, {v})")


def free_module(alg: HeckeAlgebra, s: int = 1, name: str = "") -> HeckeModule:
    mats = [np.kron(np.eye(s, dtype=np.int64), alg.right_regular(w)) for w in range(alg.dim)]
    cyclic = None
    if s == 1:
        cyclic = np.zeros(alg.dim, dtype=np.int64)
        cyclic[alg.unit] = 1
    return HeckeModule(alg, s * alg.dim, mats, name or f"free^{s}", cyclic)


def quotient_module(M: HeckeModule, rel: CanonicalBasis, name: str = "") -> HeckeModule:
    """Quotient by a right-stable span, in section coordinates (e = 1)."""
    ring = M.alg.ring
    if not ring.is_field:
        raise ValueError("coordinate quotients require e = 1")
    sec = rel.section_cols()
    mats = [rel.section_action(a) for a in M.action]
    cyclic = None if M.cyclic is None else rel.reduce(M.cyclic)[sec]
    return HeckeModule(M.alg, len(sec), mats, name=name, cyclic=cyclic)


def random_modules_hecke(alg: HeckeAlgebra, seed: int, count: int):
    """Seeded right-module quotients of the free rank-1 module (e = 1)."""
    rng = np.random.default_rng(seed)
    free = free_module(alg, 1)
    full = alg.ring.e * alg.dim
    made = 0
    while made < count:
        k = int(rng.integers(1, 3))
        vecs = rng.integers(0, alg.ring.modulus, size=(k, alg.dim))
        span = span_closure(alg.ring, np.asarray(vecs, dtype=np.int64), free.action)
        if not 0 < span.span_log_size() < full:
            continue
        yield quotient_module(free, span, name=f"hq:s{seed}:{made}")
        made += 1


@dataclass(frozen=True, eq=False)
class TensorModule(QuotientPresentation):
    """K(M) = M (x)_H J as an explicit quotient with its group action.

    ambient: per kept torus block, (e_O J)^s on BJ_O for the presentation H^s -> M
    (s = copies); rel: the relation span; base_pairing: M -> K(M), row per M-basis vector.
    """

    alg: HeckeAlgebra
    blocks: tuple[TorusBlock, ...]
    copies: int
    base_pairing: np.ndarray
    presentation: str

    def action(self, g) -> np.ndarray:
        """g on the carrier: BJ_O @ A_g at the pivots per copy, a gather, as g permutes the cosets."""
        src, eye = self.alg.J.action(g).argmax(axis=0), np.eye(self.copies, dtype=np.int64)  # (x A_g)[j] = x[src[j]]
        return block_diagonal([np.kron(eye, b.J.mat[:, src[b.jcols]]) for b in self.blocks])[0]


def _module_generators(
    ring: RingSpec, candidates: np.ndarray, ops: Callable[[np.ndarray], np.ndarray]
) -> tuple[list[int], np.ndarray]:
    """Greedy module generators among the candidate rows, and the presentation.

    The candidates span a module, and a module is spanned by the images
    v @ op of its elements, so each candidate outside the span reached so
    far is kept together with its orbit, until the orbits fill the
    candidates' span.  ops returns the (k, m) images of a row in one product.
    Returns (indices of the kept candidates, P), where P maps the free
    module onto that span: row (j, w) is image w of kept candidate j.
    """
    target = howell_array(ring, candidates).span_log_size()
    chosen: list[int] = []
    orbits = [np.zeros((0, candidates.shape[1]), dtype=np.int64)]
    span = span_sum(ring, orbits)
    for i, v in enumerate(candidates):
        if span.span_log_size() == target:
            break
        if not np.any(v) or span.contains(v):
            continue
        chosen.append(i)
        orbits.append(ops(v) % ring.modulus)
        span = span.extend(orbits[-1])
    if span.span_log_size() != target:
        raise VerificationBug("module generator search failed")
    return chosen, np.concatenate(orbits)


def _relations(ring: RingSpec, P: np.ndarray, struct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Module generators of ker P, and the deterministic preimage under P of every unit vector, from one RowSolver.

    P: H^r -> X presents a module X.  The generators are searched through the rows v @ kron(I_r, struct[u])
    over every u: T_u . v with struct = alg.struct (X a left module), v . T_u with struct.transpose(1, 0, 2).
    """
    d = struct.shape[0]
    r = len(P) // d
    solver = RowSolver(ring, P)
    K = solver.kernel.mat
    rel_gens, _ = _module_generators(ring, K, lambda v: (v.reshape(r, d) @ struct).reshape(d, -1))
    Z, ok = solver.solve_rows(np.eye(solver.n, dtype=np.int64))
    if not ok.all():
        raise VerificationBug("presentation does not reach a basis vector")
    return K[rel_gens], Z


def _block_pairing(alg: HeckeAlgebra, block: TorusBlock, qs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row (q, x) is sum_k e_k (x) q_k x on BJ_O, for q in H^s and rows x of X in e_O J, gathered on X's support."""
    m, s, k = len(qs), qs.shape[1] // alg.dim, len(block.jcols)
    supp, comps = np.flatnonzero(X.any(axis=0)), qs.reshape(m * s, alg.dim)
    nz = np.flatnonzero(comps.any(axis=1))  # only the nonzero q_k are gathered: a balancing relation has few
    rows = np.zeros((m * s, len(X), k), dtype=np.int64)
    rows[nz] = X[:, supp] @ comps[nz][:, alg.dc_table[np.ix_(supp, block.jcols)]]
    return rows.reshape(m, s, len(X), k).transpose(0, 2, 1, 3).reshape(m * len(X), s * k) % alg.ring.modulus


def tensor_K(M: HeckeModule, presentation: str = "auto") -> TensorModule:
    """The tensor of M with J over the algebra, one torus block of J at a time.

    M is H^s modulo the right module generated by the rows of R, Z holds preimages of M's basis,
    and K(M) is J^s modulo the q (x) x for q in R and x in J, as (q a) (x) x = q (x) (a x).  The
    central e_O split J into H-modules e_O J that the group preserves: K(M) is the sum of the
    (e_O J)^s modulo the q (x) x for x in BJ_O, less those with M e_O = 0 (there m (x) x = m e_O (x) x),
    and its relations are the blocks' Howell forms side by side.  "balancing": M by its own basis,
    s = rank(M), and R the e_i T_a - sum_j A_a[i, j] e_j for the algebra generators a; the e_i span
    H^s modulo them, as the a generate H.  "generators": module generators of M, canonically the
    same module and far smaller when rank(M) * rank(J) is large.
    """
    alg, ring = M.alg, M.alg.ring
    N = ring.modulus
    if presentation == "auto":
        presentation = "balancing" if M.rank * len(alg.dc_table) <= 256 else "generators"
    if presentation not in ("balancing", "generators"):
        raise ValueError(f"unknown presentation {presentation!r}")
    images = np.asarray(M.action)  # images[u, i] = m_i T_u
    if presentation == "balancing":
        eye_s, eye_d = np.eye(M.rank, dtype=np.int64), np.eye(alg.dim, dtype=np.int64)
        s, Z = M.rank, np.kron(eye_s, eye_d[alg.unit])  # m_i is e_i
        R = np.concatenate([np.kron(eye_s, eye_d[a]) - np.kron(M.action[a], eye_d[alg.unit]) for a in alg.gens]) % N
    else:
        candidates = np.eye(M.rank, dtype=np.int64)
        if M.cyclic is not None:
            candidates = np.concatenate([np.atleast_2d(M.cyclic) % N, candidates])
        chosen, P = _module_generators(ring, candidates, lambda v: v @ images)
        s = len(chosen)
        R, Z = _relations(ring, P, alg.struct.transpose(1, 0, 2))
        images = P.reshape(s, alg.dim, M.rank).swapaxes(0, 1)  # images[u, j] = g_j T_u
    on_m = np.tensordot([b.idem for b in alg.blocks], images, axes=1) % N  # g e_O per generator g; e_O is central
    blocks = [b for b, act in zip(alg.blocks, on_m) if act.any()]
    rels = [howell_array(ring, _block_pairing(alg, b, R, b.J.mat)) for b in blocks]
    mat, cols = block_diagonal([rel.mat for rel in rels])
    rel = CanonicalBasis(ring, mat.shape[1], mat, tuple((int(j + c), g) for j, r in zip(cols, rels) for c, g in r.pivots))
    pairs = [_block_pairing(alg, b, Z, b.idem[alg.dc_table[[alg.base_coset_idx]]] % N) for b in blocks]  # e_O . base
    base_pairing = np.concatenate([np.zeros((M.rank, 0), dtype=np.int64), *pairs], axis=1)
    return TensorModule(ring, rel.ncols, rel, alg, tuple(blocks), s, base_pairing, presentation)


@timed
def check_vytastra(M: HeckeModule, presentation: str = "auto") -> LemmaReport:
    """Bijectivity of m -> m (x) indicator onto the unipotent invariants of K(M)."""
    alg = M.alg
    ring = alg.ring
    desc = {"module": M.name or "anonymous", "p": alg.p, "e": ring.e, "rank": M.rank}
    K = tensor_K(M, presentation)
    inv_pre = K.fixed_preimage([K.action(alg.J.group.upper_gen)])
    image, ker = image_and_preimage(ring, [K.base_pairing], K.rel)
    injective = ker.nrows == 0
    onto = inv_pre.is_subspace_of(image)
    verdicts = {"injective": injective, "onto_invariants": onto, "bijective": injective and onto}
    dims = {
        "module_log": ring.e * M.rank,
        "invariants_log": inv_pre.span_log_size() - K.rel.span_log_size(),
        "tensor_log": K.log_size(),
    }
    details = {"presentation": K.presentation}
    return LemmaReport("vytastra", desc, verdicts=verdicts, dims=dims, details=details)


@timed
def check_flatness(p: int, e: int = 1, method: str = "auto") -> LemmaReport:
    """Split-test for the permutation module over the algebra.

    Finitely generated flat = projective over an Artinian algebra, so J
    is flat iff some (equivalently any) surjection H^r -> J splits as a
    module map.  Small instances go through the generic dense
    split_test; larger ones solve the equivalent generator-relation
    system one central torus block of the algebra at a time, at every e
    (ten blocks at p = 5; each one kernel of at most 20 x 24 and one
    system of at most 60 x 60).  Any section found is
    re-verified by the exact section and intertwining identities.
    `method` forces one route ("split_test" or "presentation"); the two
    must agree wherever both run.
    """
    alg = build_hecke(p, e)
    ring = alg.ring
    n = len(alg.dc_table)
    d = alg.dim
    desc = {"p": p, "e": e, "dim_algebra": d, "dim_j": n}

    # left-module generators of J over the algebra
    chosen, P = _module_generators(ring, np.eye(n, dtype=np.int64), alg.orbit)
    r = len(chosen)

    if method == "auto":
        method = "split_test" if n * r * d <= 4096 else "presentation"
    section: Optional[np.ndarray] = None
    if method == "split_test":
        eye_r = np.eye(r, dtype=np.int64)
        constraints = [(alg.dc_table == u, np.kron(eye_r, alg.left_regular(u))) for u in alg.gens]
        section = split_test(ring, P, constraints)
    elif method == "presentation":
        section = _section_via_presentation(alg, chosen, P)
    else:
        raise ValueError(f"unknown method {method!r}")

    if section is not None:
        N = ring.modulus
        if not np.array_equal((section @ P) % N, np.eye(n, dtype=np.int64)):
            raise VerificationBug("section identity fails")
        for u in alg.gens:
            idx, val = _nonzeros(alg.dc_table == u)
            lhs = (val[..., None] * section[idx]).sum(axis=1) % N  # (dc_table == u) @ section
            rhs = (section.reshape(n, r, d) @ alg.struct[u]).reshape(n, -1) % N  # section @ kron(I_r, L_u)
            if not np.array_equal(lhs, rhs):
                raise VerificationBug("section is not a module map")
    dims = {"generators": r, "dim_algebra": d, "dim_j": n}
    details: dict = {"method": method}
    if section is not None:
        details["section"] = [int(x) for x in section.reshape(-1)]
    return LemmaReport("flatness", desc, verdicts={"flat": section is not None}, dims=dims, details=details)


def torus_blocks(alg: HeckeAlgebra) -> np.ndarray:
    """The central idempotents e_O of the algebra, one coefficient row each.

    The torus elements T_t (t diagonal) multiply as the torus does, so they
    span a subalgebra on which left multiplication by diag(z, 1) and
    diag(1, z) acts by commuting operators of order dividing p - 1; the
    element e_chi of a character chi = (i, j) is the identity's row of its
    joint eigen-idempotent there.  T_s e_chi = e_(chi^s) T_s, so summing
    over each Weyl orbit O = {(i, j), (j, i)} gives an idempotent that
    commutes with T_s and the torus, which generate the algebra (Vigneras);
    checked here on the generators.
    """
    N, p, q, z = alg.ring.modulus, alg.p, alg.p - 1, primitive_root(alg.p)
    torus = [(pow(z, a, p), 0, 0, pow(z, b, p)) for a in range(q) for b in range(q)]  # diag(z^a, z^b) at a q + b
    tor = alg.dc_table[alg.base_coset_idx, alg.J.group.coset_of(np.reshape(torus, (-1, 2, 2)))]
    ops = [alg.left_regular(t)[np.ix_(tor, tor)] for t in np.take(tor, [q, 1], mode="wrap")]  # diag(z, 1), diag(1, z)
    e_chi = np.zeros((q, q, alg.dim), dtype=np.int64)
    e_chi.reshape(q * q, -1)[:, tor] = torus_idempotents(alg.ring, ops)[:, 0]  # the identity's row
    orbits = [(i, j) for i in range(q) for j in range(i, q)]
    blocks = np.stack([(e_chi[i, j] + e_chi[j, i]) % N if i != j else e_chi[i, i] for i, j in orbits])
    for g in alg.gens:
        if not np.array_equal(blocks @ alg.struct[g] % N, blocks @ alg.struct[:, g, :] % N):
            raise VerificationBug("a torus block idempotent is not central")
    return blocks


def _section_via_presentation(alg: HeckeAlgebra, chosen: list[int], P: np.ndarray) -> Optional[np.ndarray]:
    """Solve for a module-map section through the presentation of J, one torus block at a time.

    A module map out of J is pinned by its values y_k in H^r on the module
    generators x_k: it kills every relation, sum_k q_k . y_k = 0, and it
    is a section iff y_k @ P = x_k.  Module generators q of ker P give the
    same solutions as all of ker P, since the relation for a.q is a times
    the one for q.  A central idempotent e_O splits the system: the parts
    y^O in e_O H solve it with right-hand side e_O x_k, and they add up to
    the solutions.  In block O the unknowns are coordinates a[k, j] on the
    Howell basis of e_O H (y_k^j = a[k, j] @ B), and an equation whose
    sides lie in e_O H (or e_O J) is kept at the pivot columns of its
    Howell form, which decide it.  Component j of the relations reads
    only a[:, j], through one matrix X, and the section equations of y_k
    read only a[k], through one matrix Y: so each a[:, j] is a
    combination lambda_j of the rows Z of ker X, and the system is
    lambda @ M = rhs with M[(j, t), (k, c)] = sum_beta Z[t, k, beta] Y[(j, beta), c].
    The returned y is the canonical residue of the summed solution modulo
    the summed kernel W, the kernel of the whole system: it depends only
    on the solution set, and at e = 1 it is what one RowSolver on the
    whole system returns.  It is reduced one (k, j) slot s at a time, in
    order.  Every slot of W_O lies in e_O H and H is the direct sum of
    the e_O H, so the vectors of W that vanish before s are the sums of
    those of each W_O, which its Howell rows leading at s or later span.
    The Howell form of their parts in slot s is unique, and so is the
    residue reduced at its pivots.
    """
    ring = alg.ring
    N = ring.modulus
    n = len(alg.dc_table)
    d = alg.dim
    r = len(chosen)
    Q, preimages = _relations(ring, P, alg.struct)
    # Lq[g, k] = L(q_k) for relation generator g, where L(c) = sum_u c_u struct[u] is x -> c * x
    Lq = np.tensordot(Q.reshape(-1, r, d), alg.struct, axes=1) % N
    Pj = P.reshape(r, d, n)  # Pj[j] sends c in H to c . x_j
    y = np.zeros(r * r * d, dtype=np.int64)  # the summed solution, in (k, j, coefficient) order
    kernels = []  # per block: B, its kernel's Howell rows as (row, slot, beta), and their leading slots
    for block in alg.blocks:
        B, jcols, hcols = block.H, block.jcols, [c for c, _ in block.H.pivots]  # the rows B @ P_j span e_O J
        BP = np.einsum("bv,jvx->jbx", B.mat, Pj) % N
        b = B.nrows
        # relation column (g, j, c) of sum_k q_k . y_k is a[:, j] @ X, section column (k, c) of y_k @ P is a[k] @ Y
        X = np.einsum("bv,gkvc->kbgc", B.mat, Lq[..., hcols]).reshape(r * b, -1) % N
        Z = kernel_array(ring, X).mat.reshape(-1, r, b)
        M = np.einsum("tkb,jbc->jtkc", Z, BP[..., jcols]).reshape(r * len(Z), -1) % N
        solver = RowSolver(ring, M)
        # e_O x_k is row x_k of the operator of e_O, at the pivot columns
        lam = solver.solve(block.idem[alg.dc_table[np.ix_(chosen, jcols)]].reshape(-1) % N)
        if lam is None:
            return None
        # rows lambda -> a[k, j] = lambda_j @ Z[:, k]
        a = np.einsum("ijt,tkb->ikjb", np.vstack([lam, solver.kernel.mat]).reshape(-1, r, len(Z)), Z) % N
        y = (y + (a[0] @ B.mat).reshape(-1)) % N
        ker = howell_array(ring, a[1:].reshape(-1, r * r * b))
        kernels.append((B.mat, ker.mat.reshape(-1, r * r, b), np.array([c // b for c, _ in ker.pivots], dtype=int)))
    for s in range(r * r):
        # the kernel rows leading at s, mapped to y from slot s on, are eliminated at slot s
        # beside the identity, which records each pivot row there as a combination of them
        rows = np.concatenate([(A[lead == s, s:] @ Bm).reshape(-1, (r * r - s) * d) for Bm, A, lead in kernels]) % N
        H = howell_array(ring, np.concatenate([rows[:, :d], np.eye(len(rows), dtype=np.int64)], axis=1))
        k = sum(c < d for c, _ in H.pivots)
        _, Q = CanonicalBasis(ring, d, H.mat[:k, :d], H.pivots[:k]).quotients(y[s * d : (s + 1) * d])
        y[s * d :] = (y[s * d :] - (Q @ H.mat[:k, d:] % N) @ rows) % N
    # the section on J through deterministic preimages, summed over their few nonzeros:
    # row j is sum_k z_jk . y_k, and row (k, w) of acted is T_w . y_k
    acted = (y.reshape(r, 1, r, d) @ alg.struct).reshape(r * d, r * d) % N
    idx, val = _nonzeros(preimages)
    section = np.zeros((len(idx), r * d), dtype=np.int64)
    for col, v in zip(idx.T, val.T):  # in place: one gathered block is the only temporary
        g = acted[col]
        section += np.multiply(g, v[:, None], out=g)
    return section % N


@timed
def invariants_jbar_star(p: int, e: int = 1) -> LemmaReport:
    """dim of the unipotent invariants of J equals the algebra dimension."""
    alg = build_hecke(p, e)
    lhs = invariants(alg.J, [alg.J.group.upper_gen]).span_log_size()
    return LemmaReport(
        "jbar_star_invariants",
        {"p": p, "e": e},
        verdicts={"invariants_match_algebra_dim": lhs == alg.ring.e * alg.dim},
        dims={"invariants_log": lhs, "dim_algebra": alg.dim},
    )


@timed
def check_dim(p: int, e: int = 1) -> LemmaReport:
    alg = build_hecke(p, e)
    expect = 2 * (p - 1) ** 2
    return LemmaReport(
        "hecke_dim",
        {"p": p, "e": e},
        verdicts={"dim_matches": alg.dim == expect},
        dims={"dim": alg.dim, "expected": expect},
    )


@timed
def check_assoc(p: int, e: int = 1) -> LemmaReport:
    """Exhaustive associativity and unit laws on the structure tensor, as evaluated at build."""
    alg = build_hecke(p, e)
    d = alg.dim
    return LemmaReport(
        "hecke_assoc", {"p": p, "e": e}, verdicts=dict(alg.laws), dims={"dim": d, "triples": d**3}
    )


def _as_recorded(report: LemmaReport) -> LemmaReport:
    report.details["note"] = "open-question regime: verdict recorded, not asserted"
    report.status = RECORDED
    return report


def hecke_suite(
    p: int,
    e: int = 1,
    checks: tuple[str, ...] = HECKE_CHECKS,
    seed: int = 0,
    n_random: int = 0,
) -> list[LemmaReport]:
    """The full algebra suite.

    For e = 1 every verdict is asserted; for e > 1 the flatness and
    comparison-map verdicts are recorded as data without assertion.
    """
    reports: list[LemmaReport] = []
    alg = build_hecke(p, e)
    if "dim" in checks:
        reports.append(check_dim(p, e))
        reports.append(invariants_jbar_star(p, e))
    if "assoc" in checks:
        reports.append(check_assoc(p, e))
    if "vytastra" in checks:
        rep = check_vytastra(free_module(alg, 1, name="free:1"))
        reports.append(rep if e == 1 else _as_recorded(rep))
        if e == 1:
            for M in random_modules_hecke(alg, seed, n_random):
                M.verify_axioms(exhaustive=False, seed=seed)
                reports.append(check_vytastra(M))
    if "flatness" in checks:
        rep = check_flatness(p, e)
        reports.append(rep if e == 1 else _as_recorded(rep))
    return reports
