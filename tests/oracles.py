"""Reference implementations that only the tests call.

`howell_array_sparse` computes the Howell form (Storjohann, *Algorithms
for Matrix Canonical Forms*, 2000) on a dict-of-columns row layout with
gcd merges, independently of the dense elimination `exactalg._howell`;
the two must produce identical canonical forms.  `solve_rows_oracle`
solves x @ A = b by back-substitution one image pivot at a time,
independently of the batched reduction `CanonicalBasis.quotients` that
`RowSolver.solve_rows` reads.  `composition_length`
drills a composition chain along fixed lines; its optional seed shuffles
the lines, so tests can check that the length does not depend on the
order in which they are tried.  `coinvariants` closes the images of
h - 1 under the subgroup, independently of the single Howell form that
`h1_procyclic` takes, and `block_shift` is the cyclic shift of the free
carrier whose H^1 relations `augmentation_kernel` writes in closed form.
`stacked_kernel_residue` solves each torus block of the flatness system
as one generic system and reduces the summed solution modulo the Howell
form of all block kernels stacked, independently of the Kronecker solve
and the slot-by-slot reduction of `hecke._section_via_presentation`.
`ambient_tensor_K` builds K(M) in the whole carrier (M (x) J, or J^s for
the generators presentation) with one Howell form of all its relations,
independently of the torus blocks of J that `hecke.tensor_K` reads, and
`ambient_vytastra` asks it `check_vytastra`'s questions.
"""

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

import numpy as np

from treelab.exactalg import (
    CanonicalBasis,
    RingSpec,
    RowSolver,
    _empty_basis,
    howell_array,
    image_and_preimage,
    span_closure,
    span_sum,
)
from treelab.grouprep import (
    Elem,
    GModule,
    QuotientPresentation,
    _fixed_lines,
    generated_submodule,
    quotient_gmodule,
    submodule_gmodule,
)
from treelab.hecke import (
    HeckeAlgebra,
    HeckeModule,
    _module_generators,
    _relations,
    torus_blocks,
)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def howell_array_sparse(ring: RingSpec, A: np.ndarray) -> CanonicalBasis:
    """Howell form computed on a dict-of-columns row layout.

    Independent of the dense path; must produce identical canonical
    forms.  Used to cross-check the dense implementation.
    """
    N = ring.modulus
    A = np.atleast_2d(ring.reduce(A))
    ncols = A.shape[1]
    piv: dict[int, dict[int, int]] = {}

    def lead(row: dict[int, int]) -> int:
        return min(row)

    queue = []
    for r in A:
        row = {int(j): int(r[j]) for j in np.nonzero(r)[0]}
        if row:
            queue.append(row)
    while queue:
        row = queue.pop()
        row = {j: x % N for j, x in row.items() if x % N}
        if not row:
            continue
        j = lead(row)
        if j not in piv:
            a = row[j]
            g = gcd(a, N)
            u = pow(a // g, -1, N)
            row = {c: (x * u) % N for c, x in row.items() if (x * u) % N}
            piv[j] = row
            if g > 1:
                k = N // g
                queue.append({c: (x * k) % N for c, x in row.items()})
            continue
        r0 = piv[j]
        a, b = r0[j], row[j]
        if b % a == 0:
            q = b // a
            merged = dict(row)
            for c, x in r0.items():
                merged[c] = (merged.get(c, 0) - q * x) % N
            queue.append(merged)
            continue
        d, s, t = _xgcd(a, b)
        new: dict[int, int] = {}
        for c in set(r0) | set(row):
            new[c] = (s * r0.get(c, 0) + t * row.get(c, 0)) % N
        new = {c: x for c, x in new.items() if x}
        piv[j] = new
        for old, coeff in ((r0, a // d), (row, b // d)):
            rem = dict(old)
            for c, x in new.items():
                rem[c] = (rem.get(c, 0) - coeff * x) % N
            queue.append(rem)
        if d > 1:
            k = N // d
            queue.append({c: (x * k) % N for c, x in new.items()})
    cols = sorted(piv)
    if not cols:
        return _empty_basis(ring, ncols)
    M = np.zeros((len(cols), ncols), dtype=np.int64)
    for i, c in enumerate(cols):
        for cc, x in piv[c].items():
            M[i, cc] = x
    for i, c in enumerate(cols):
        g = int(M[i, c])
        if i > 0:
            q = M[:i, c] // g
            if np.any(q):
                M[:i] = (M[:i] - np.outer(q, M[i])) % N
    pivots = tuple((c, int(M[i, c])) for i, c in enumerate(cols))
    return CanonicalBasis(ring, ncols, M, pivots)


def solve_rows_oracle(solver: RowSolver, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, ok) for x @ A = b on every row b of B, one image pivot at a time."""
    N = solver.ring.modulus
    B = np.atleast_2d(np.asarray(B, dtype=np.int64)) % N
    X = np.zeros((B.shape[0], solver.m), dtype=np.int64)
    for i, (c, g) in enumerate(solver.image.pivots):
        q = B[:, c] // g
        if q.any():
            B = (B - np.outer(q, solver.image.mat[i])) % N
            X = (X + np.outer(q, solver.umat[i])) % N
    ok = ~B.any(axis=1)
    X[~ok] = 0
    return X, ok


def composition_length(M: GModule, perm_seed: Optional[int] = None) -> int:
    """Length of a composition chain found by drilling along fixed lines."""
    if not M.ring.is_field:
        raise ValueError("composition length requires e = 1")
    if M.rank == 0:
        return 0
    full = howell_array(M.ring, np.eye(M.rank, dtype=np.int64))
    lines = _fixed_lines(M)
    if perm_seed is not None:
        lines = [lines[i] for i in np.random.default_rng(perm_seed).permutation(len(lines))]
    for v in lines:
        sub = generated_submodule(M, v)
        if sub != full:
            S = submodule_gmodule(M, sub)
            Q = quotient_gmodule(M, sub)
            return composition_length(S, perm_seed) + composition_length(Q, perm_seed)
    return 1


def coinvariants(M: GModule, subgroup: Sequence[Elem]) -> QuotientPresentation:
    """Quotient by the span of all v (action(h) - 1), closed under the subgroup.

    The span of the images of (h - 1) over a generating set, closed
    under the subgroup action, equals the span over the full subgroup.
    """
    eye = np.eye(M.rank, dtype=np.int64)
    ops = [M.action(h) for h in subgroup]
    seed = [np.zeros((0, M.rank), dtype=np.int64)] + [(op - eye) % M.ring.modulus for op in ops]
    return QuotientPresentation(M.ring, M.rank, span_closure(M.ring, np.concatenate(seed), ops))


def block_shift(p: int, t: int, u: int = 1) -> np.ndarray:
    """Cyclic shift of p blocks of size t: block j goes to block j + u mod p."""
    return np.kron(np.roll(np.eye(p, dtype=np.int64), u, axis=1), np.eye(t, dtype=np.int64))


def stacked_kernel_residue(alg: HeckeAlgebra, chosen: list[int], P: np.ndarray) -> Optional[np.ndarray]:
    """The flatness section's unknowns y, in (k, j, coefficient) order, or None.

    Per torus block e_O, one RowSolver on the whole block system: unknowns
    a[k, j, beta] with y_k^j = a[k, j] @ B (B the Howell basis of e_O H),
    relation columns (g, j', c) of sum_k q_k . y_k and section columns
    (k', c) of y_k' @ P at the pivot columns of e_O H and e_O J.  y is the
    summed solution reduced modulo the Howell form of the stacked kernels.
    """
    ring = alg.ring
    N = ring.modulus
    n = len(alg.dc_table)
    d = alg.dim
    r = len(chosen)
    Q, _ = _relations(ring, P, alg.struct)
    Lq = np.tensordot(Q.reshape(-1, r, d), alg.struct, axes=1) % N
    Pj = P.reshape(r, d, n)
    eye_r = np.eye(r, dtype=np.int64)
    particular = np.zeros(r * r * d, dtype=np.int64)
    kernels: list[np.ndarray] = []
    for e_O in torus_blocks(alg):
        B = howell_array(ring, np.tensordot(e_O, alg.struct, axes=1) % N)
        BP = np.einsum("bv,jvx->jbx", B.mat, Pj) % N
        hcols = [c for c, _ in B.pivots]
        jcols = [c for c, _ in howell_array(ring, BP.reshape(-1, n)).pivots]
        b = B.nrows
        rel = np.einsum("bv,gkvc,jJ->kjbgJc", B.mat, Lq[..., hcols], eye_r).reshape(r * r * b, -1)
        sect = np.einsum("jbc,kK->kjbKc", BP[..., jcols], eye_r).reshape(r * r * b, -1)
        solver = RowSolver(ring, np.concatenate([rel, sect], axis=1))
        rhs = np.zeros(rel.shape[1] + sect.shape[1], dtype=np.int64)
        rhs[rel.shape[1] :] = alg.left_action(e_O)[chosen][:, jcols].reshape(-1)
        a = solver.solve(rhs)
        if a is None:
            return None
        Y = np.vstack([a, solver.kernel.mat]).reshape(-1, r, r, b) @ B.mat % N
        particular = (particular + Y[0].reshape(-1)) % N
        kernels.append(Y[1:].reshape(-1, r * r * d))
    return howell_array(ring, np.concatenate(kernels)).reduce(particular)


@dataclass(frozen=True, eq=False)
class AmbientTensor(QuotientPresentation):
    """K(M) as a quotient of the whole carrier: M (x) J (balancing) or J^s (generators)."""

    action_gens: dict
    base_pairing: np.ndarray
    presentation: str


def ambient_tensor_K(M: HeckeModule, presentation: str = "auto") -> AmbientTensor:
    """The tensor of M with J over the algebra, with one elimination of every relation.

    "balancing": carrier M (x) J, relations (m a) (x) x - m (x) (a x) for
    the algebra generators a.  "generators": M as a quotient of a free
    module H^s, carrier J^s, relations q (x) x for the module generators
    q of ker P.  The group acts on every copy of J.
    """
    alg = M.alg
    ring = alg.ring
    n = len(alg.dc_table)
    if presentation == "auto":
        presentation = "balancing" if M.rank * n <= 256 else "generators"
    if presentation == "balancing":
        r = M.rank
        eye_r = np.eye(r, dtype=np.int64)
        eye_n = np.eye(n, dtype=np.int64)
        rel_rows = [np.kron(M.action[u], eye_n) - np.kron(eye_r, alg.dc_table == u) for u in alg.gens]
        rel = howell_array(ring, np.concatenate(rel_rows) % ring.modulus)
        base_pairing = np.kron(eye_r, eye_n[alg.base_coset_idx])  # row i is e_i (x) the base coset
    else:
        candidates = np.eye(M.rank, dtype=np.int64)
        if M.cyclic is not None:
            candidates = np.concatenate([np.atleast_2d(M.cyclic) % ring.modulus, candidates])
        chosen, P = _module_generators(ring, candidates, lambda v: v @ np.asarray(M.action))
        r = len(chosen)
        d = alg.dim

        def pairing(qs: np.ndarray, cosets: np.ndarray) -> np.ndarray:
            """Row (q, x) is sum_k e_k (x) (q_k x), for q in the free module H^r."""
            rows = qs.reshape(len(qs), r, d)[:, :, alg.dc_table[cosets]].transpose(0, 2, 1, 3)
            return rows.reshape(len(qs) * len(cosets), r * n) % ring.modulus

        R, Z = _relations(ring, P, alg.struct.transpose(1, 0, 2))
        rel = span_sum(ring, [pairing(R, np.arange(n))])
        base_pairing = pairing(Z, np.array([alg.base_coset_idx]))
    action = {g: np.kron(np.eye(r, dtype=np.int64), alg.J.action(g)) for g in alg.J.group.gens}
    return AmbientTensor(ring, r * n, rel, action, base_pairing, presentation)


def ambient_vytastra(M: HeckeModule, presentation: str = "auto") -> tuple[dict, dict, str]:
    """(verdicts, dims, presentation) of check_vytastra, asked of the ambient K(M)."""
    ring = M.alg.ring
    K = ambient_tensor_K(M, presentation)
    inv_pre = K.fixed_preimage([K.action_gens[M.alg.J.group.upper_gen]])
    image, ker = image_and_preimage(ring, [K.base_pairing], K.rel)
    injective = ker.nrows == 0
    onto = inv_pre.is_subspace_of(image)
    dims = {
        "module_log": ring.e * M.rank,
        "invariants_log": inv_pre.span_log_size() - K.rel.span_log_size(),
        "tensor_log": K.log_size(),
    }
    return {"injective": injective, "onto_invariants": onto, "bijective": injective and onto}, dims, K.presentation
