"""Depth-truncated half-tree chain complexes with a cyclic p-group action.

Geometry of the truncation at depth D: level-m vertices are indexed by
Z/p^m (level 0 is the base vertex), level-(m, m+1) edges by Z/p^(m+1);
edge b joins vertex (b mod p^m) at level m to vertex b at level m+1.
The cyclic group of order p^D acts by +1 on all indices; the stabilizer
of a level-m vertex is generated by g^(p^m) and acts on the vertex fiber
through a fixed order-p twist operator.

The coefficient system is built from a single module W over k that is
generated by its lower-unipotent invariants: vertex fibers are W, edge
fibers are the lower-invariant subspace, the p child edges of a vertex
embed as the twist-translates of that subspace, and the parent edge
embeds through a gluing isomorphism onto the upper-invariant subspace.
Signs alternate by level (+ even, - odd), so each edge hits its two
endpoints with opposite signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exactalg import (
    CanonicalBasis,
    RowSolver,
    VerificationBug,
    howell_array,
    kernel_array,
)
from .grouprep import (
    Elem,
    GModule,
    _matpow,
    block_shift,
    generated_by_lower_invariants,
    h1_procyclic,
    invariants,
    primitive_root,
    translate_stack,
)
from .report import LemmaReport, rejected, timed


@dataclass(frozen=True, eq=False)
class CoeffSystemSpec:
    """The per-vertex data of the coefficient system built from W."""

    W: GModule
    inv_lower: CanonicalBasis  # edge value space, embedded in W
    inv_upper: CanonicalBasis  # image of the gluing isomorphism
    rho: np.ndarray  # (t x w): edge space -> W, image = upper invariants
    twist: np.ndarray  # (w x w): order-p operator of the vertex stabilizer
    twist_u: int
    rho_choice: str


def parse_rho(rho_choice: str) -> tuple[str, int]:
    """Split a gluing choice into (kind, K); raises ValueError if malformed."""
    if rho_choice == "w0":
        return "w0", 0
    kind, _, arg = rho_choice.partition(":")
    if kind not in ("twist", "scalar"):
        raise ValueError(f"unknown rho choice {rho_choice!r}")
    try:
        return kind, int(arg)
    except ValueError:
        raise ValueError(f"rho choice {rho_choice!r} needs an integer K") from None


def resolve_rho(W: GModule, rho_choice: str) -> np.ndarray:
    """The gluing matrix for a named choice.

    "w0"      : the action of the fixed Weyl representative;
    "twist:K"  : compose with the K-th power of the torus generator
                 (it normalizes the upper unipotent subgroup);
    "scalar:K" : multiply by the unit z^K.
    """
    kind, k = parse_rho(rho_choice)
    group = W.group
    p = group.p
    N = W.ring.modulus
    inv_lower = invariants(W, [group.lower_gen])
    base = (inv_lower.mat @ W.action(group.weyl)) % N
    if kind == "w0":
        return base
    if kind == "twist":
        z = primitive_root(p)
        t: Elem = (z % p, 0, 0, pow(z, -1, p)) if p > 2 else (1, 0, 0, 1)
        power = k % max(p - 1, 1)
        out = base
        for _ in range(power):
            out = (out @ W.action(t)) % N
        return out
    z = primitive_root(p) if p > 2 else 1
    lam = pow(z, k, p) if p > 2 else 1
    return (lam * base) % N


def build_coeff_spec(W: GModule, rho_choice: str = "w0", twist_u: int = 1) -> CoeffSystemSpec:
    ring = W.ring
    group = W.group
    p = group.p
    if not ring.is_field:
        raise ValueError("coefficient systems are built over e = 1")
    if twist_u % p == 0:
        raise ValueError("twist exponent must be a unit mod p")
    inv_lower = generated_by_lower_invariants(W)
    inv_upper = invariants(W, [group.upper_gen])
    rho = resolve_rho(W, rho_choice)
    image = howell_array(ring, rho)
    if image != inv_upper or image.nrows != inv_lower.nrows:
        raise ValueError("rho is not an isomorphism onto the upper invariants")
    twist = _matpow(W.action(group.upper_gen), twist_u % p, ring.modulus)
    return CoeffSystemSpec(W, inv_lower, inv_upper, rho, twist, twist_u % p, rho_choice)


class ChainComplexData:
    """Explicit matrices of the depth-D truncated complex for one W.

    The boundary matrix maps 1-chains (rows) to 0-chains; the cyclic
    generator acts by the index shifts `apply_g0` / `apply_g1`, with the
    vertex-fiber twist applied on index wraparound.
    """

    def __init__(self, spec: CoeffSystemSpec, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.spec = spec
        self.ring = spec.W.ring
        self.p = spec.W.group.p
        self.depth = depth
        p, D = self.p, depth
        w = spec.W.rank
        t = spec.inv_lower.nrows
        self.w, self.t = w, t
        self.off0 = np.cumsum([0] + [w * p**m for m in range(D + 1)])
        self.off1 = np.cumsum([0] + [t * p ** (m + 1) for m in range(D)])
        self.dim0 = int(self.off0[-1])
        self.dim1 = int(self.off1[-1])
        self.signs = [1 if m % 2 == 0 else (self.ring.modulus - 1) for m in range(D + 1)]

        # down blocks: child j of a vertex carries the j-th twist translate
        N = self.ring.modulus
        self.down_stack = translate_stack(self.ring, spec.inv_lower.mat, spec.twist, p)  # (p*t, w)

        D1 = np.zeros((self.dim1, self.dim0), dtype=np.int64)
        for m in range(D):
            sm, sm1 = self.signs[m], self.signs[m + 1]
            pm = p**m
            for b in range(p ** (m + 1)):
                a, j = b % pm, b // pm
                rows = slice(self.off1[m] + b * t, self.off1[m] + (b + 1) * t)
                cols_par = slice(self.off0[m] + a * w, self.off0[m] + (a + 1) * w)
                cols_child = slice(self.off0[m + 1] + b * w, self.off0[m + 1] + (b + 1) * w)
                D1[rows, cols_par] = (sm * self.down_stack[j * t : (j + 1) * t]) % N
                D1[rows, cols_child] = (sm1 * spec.rho) % N
        self.dmat = D1
        self._check_invariants()
        self._rspan: Optional[CanonicalBasis] = None
        self._fixed: Optional[tuple[np.ndarray, list[int]]] = None
        self._solver: Optional[RowSolver] = None
        self._down_solver: Optional[RowSolver] = None
        self._rho_solver: Optional[RowSolver] = None

    # -- index helpers ------------------------------------------------
    def level0_block(self, c: np.ndarray, m: int) -> np.ndarray:
        return c[self.off0[m] : self.off0[m + 1]]

    def level1_block(self, b: np.ndarray, m: int) -> np.ndarray:
        return b[self.off1[m] : self.off1[m + 1]]

    def top_level(self, c: np.ndarray) -> int:
        for m in range(self.depth, -1, -1):
            if np.any(self.level0_block(c, m)):
                return m
        return 0

    # -- group action -------------------------------------------------
    def apply_g0_rows(self, X: np.ndarray) -> np.ndarray:
        N = self.ring.modulus
        X = np.atleast_2d(X)
        out = np.empty_like(X)
        for m in range(self.depth + 1):
            pm = self.p**m
            blk = X[:, self.off0[m] : self.off0[m + 1]].reshape(X.shape[0], pm, self.w)
            rolled = np.roll(blk, 1, axis=1).copy()
            rolled[:, 0, :] = (rolled[:, 0, :] @ self.spec.twist) % N
            out[:, self.off0[m] : self.off0[m + 1]] = rolled.reshape(X.shape[0], pm * self.w)
        return out

    def apply_g0(self, v: np.ndarray) -> np.ndarray:
        return self.apply_g0_rows(v.reshape(1, -1))[0]

    def apply_g1_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.empty_like(X)
        for m in range(self.depth):
            pm1 = self.p ** (m + 1)
            blk = X[:, self.off1[m] : self.off1[m + 1]].reshape(X.shape[0], pm1, self.t)
            out[:, self.off1[m] : self.off1[m + 1]] = np.roll(blk, 1, axis=1).reshape(
                X.shape[0], pm1 * self.t
            )
        return out

    def apply_g1(self, b: np.ndarray) -> np.ndarray:
        return self.apply_g1_rows(b.reshape(1, -1))[0]

    def _g1_image_index(self) -> np.ndarray:
        idx = np.arange(self.dim1)
        out = np.empty(self.dim1, dtype=np.int64)
        for m in range(self.depth):
            pm1 = self.p ** (m + 1)
            blk = idx[self.off1[m] : self.off1[m + 1]].reshape(pm1, self.t)
            out[self.off1[m] : self.off1[m + 1]] = np.roll(blk, -1, axis=0).reshape(-1)
        return out

    def _check_invariants(self) -> None:
        ring = self.ring
        # edge stabilizers act trivially by construction (no twist on edge
        # blocks); the gluing image must be exactly the stabilizer-fixed
        # subspace of the vertex fiber
        fixed = kernel_array(ring, (self.spec.twist - np.eye(self.w, dtype=np.int64)) % ring.modulus)
        if howell_array(ring, self.spec.rho) != fixed:
            raise VerificationBug("edge image differs from the stabilizer-fixed subspace")
        # at a non-leaf vertex the child images must span the whole fiber
        if self.w and howell_array(ring, self.down_stack).nrows != self.w:
            raise VerificationBug("child edge images do not span the vertex fiber")
        # exact equivariance of the boundary map
        lhs = self.dmat[self._g1_image_index(), :]
        rhs = self.apply_g0_rows(self.dmat)
        if not np.array_equal(lhs, rhs):
            raise VerificationBug("boundary map is not equivariant")

    # -- cached solvers ------------------------------------------------
    # The boundary is eliminated leaf first: with the C0 columns reversed,
    # the deepest level comes first, so each edge's rows take their pivots
    # in the edge's private child block, where rho is injective, and the
    # elimination makes no fill-in.  The public C0 layout stays root first.
    def boundary_span(self) -> CanonicalBasis:
        """Canonical basis of the boundary image, reduced in leaf-first order.

        A row's pivot is its last nonzero column; pivot columns still
        increase down the rows, so `reduce_rows`, `coords` and
        `section_cols` apply as usual.  The basis is canonical for this
        order only: do not compare it with `==` against
        `howell_array(ring, dmat)`, which is reduced root first.
        """
        if self._rspan is None:
            H = howell_array(self.ring, self.dmat[:, ::-1])
            n = self.dim0
            pivots = tuple((n - 1 - c, g) for c, g in reversed(H.pivots))
            self._rspan = CanonicalBasis(self.ring, n, np.ascontiguousarray(H.mat[::-1, ::-1]), pivots)
        return self._rspan

    def boundary_solver(self) -> RowSolver:
        """Solver for the leaf-first boundary; `boundary_preimage` takes public coordinates."""
        if self._solver is None:
            self._solver = RowSolver(self.ring, self.dmat[:, ::-1])
        return self._solver

    def boundary_preimage(self, b: np.ndarray) -> Optional[np.ndarray]:
        """The 1-chain x with x @ dmat = b, or None when b is not a boundary."""
        return self.boundary_solver().solve(np.asarray(b).reshape(-1)[::-1])

    def down_solver(self) -> RowSolver:
        if self._down_solver is None:
            self._down_solver = RowSolver(self.ring, self.down_stack)
        return self._down_solver

    def rho_solver(self) -> RowSolver:
        if self._rho_solver is None:
            self._rho_solver = RowSolver(self.ring, self.spec.rho)
        return self._rho_solver

    # -- induced generator on the quotient -----------------------------
    def h0_generator_matrix(self) -> np.ndarray:
        """Matrix of the cyclic generator on the section coordinates of H0.

        Rows of the generator on unit vectors are single shifts (or a
        twist combination on wraparound), so the reduction against the
        boundary span touches only a handful of pivot rows per vertex.
        """
        ring = self.ring
        N = ring.modulus
        R = self.boundary_span()
        sec = R.section_cols()
        sec_pos = {c: i for i, c in enumerate(sec)}
        piv_row = {c: i for i, (c, _) in enumerate(R.pivots)}
        reduced = np.zeros((len(sec), self.dim0), dtype=np.int64)

        def add_entry(row: int, col: int, val: int) -> None:
            if col in piv_row:
                reduced[row] = (reduced[row] - val * R.mat[piv_row[col]]) % N
            else:
                reduced[row, col] = (reduced[row, col] + val) % N

        for r, s in enumerate(sec):
            m = int(np.searchsorted(self.off0, s, side="right")) - 1
            local = s - self.off0[m]
            a, i = divmod(local, self.w)
            pm = self.p**m
            if a + 1 < pm:
                add_entry(r, self.off0[m] + (a + 1) * self.w + i, 1)
            else:
                for k in range(self.w):
                    val = int(self.spec.twist[i, k])
                    if val:
                        add_entry(r, self.off0[m] + k, val)
        return reduced[:, sec]


def build_complex(W: GModule, depth: int, rho_choice: str = "w0", twist_u: int = 1) -> ChainComplexData:
    """The truncated complex for W; asserts every structural invariant."""
    return ChainComplexData(build_coeff_spec(W, rho_choice, twist_u), depth)


def iota_embed(cc: ChainComplexData) -> np.ndarray:
    """Upper-invariant basis of W placed in the level-0 vertex block."""
    out = np.zeros((cc.spec.inv_upper.nrows, cc.dim0), dtype=np.int64)
    out[:, : cc.w] = cc.spec.inv_upper.mat
    return out


def fixed_classes(cc: ChainComplexData) -> tuple[np.ndarray, list[int]]:
    """Basis (section coordinates) of the generator-fixed part of H0.

    Computed once per complex and kept on it, as the boundary span is.
    """
    if cc._fixed is None:
        gq = cc.h0_generator_matrix()
        gq[np.diag_indices_from(gq)] -= 1
        gq %= cc.ring.modulus
        cc._fixed = (kernel_array(cc.ring, gq).mat, cc.boundary_span().section_cols())
    return cc._fixed


@timed
def check_corrpro(
    W: GModule,
    depth: int,
    rho_choice: str = "w0",
    twist_u: int = 1,
    cc: Optional[ChainComplexData] = None,
) -> LemmaReport:
    """The edge space maps bijectively onto the fixed part of H0.

    Verdicts: the level-0 embedding of the upper invariants is injective
    in H0, lands in the generator-fixed part, and spans it exactly.
    """
    desc = {
        "module": W.name or "anonymous",
        "p": W.group.p,
        "depth": depth,
        "rho": rho_choice,
        "twist_u": twist_u,
        "rank": W.rank,
    }
    try:
        cc = cc or build_complex(W, depth, rho_choice, twist_u)
    except ValueError as err:
        return rejected("corrpro", desc, str(err))
    ring = cc.ring
    R = cc.boundary_span()
    iota = iota_embed(cc)
    red = R.reduce_rows(iota)
    inj = kernel_array(ring, red).nrows == 0
    moved = R.reduce_rows((cc.apply_g0_rows(iota) - iota) % ring.modulus)
    lands_fixed = not np.any(moved)
    fix_mat, sec = fixed_classes(cc)
    iota_q = red[:, sec]
    span_i = howell_array(ring, iota_q)
    span_f = howell_array(ring, fix_mat)
    onto = span_f.is_subspace_of(span_i)
    verdicts = {
        "injective": inj,
        "lands_in_fixed_part": lands_fixed,
        "onto_fixed_part": onto,
        "bijective": inj and lands_fixed and onto,
        "dims_equal": span_f.nrows == cc.spec.inv_upper.nrows,
    }
    dims = {
        "dim_c0": cc.dim0,
        "dim_c1": cc.dim1,
        "dim_h0_fixed": span_f.nrows,
        "dim_inv_upper": cc.spec.inv_upper.nrows,
        "dim_h0": cc.dim0 - R.nrows,
    }
    return LemmaReport("corrpro", desc, verdicts=verdicts, dims=dims)


@timed
def check_presentation(
    W: GModule, depth: int, rho_choice: str = "w0", twist_u: int = 1,
    cc: Optional[ChainComplexData] = None,
) -> LemmaReport:
    """Exactness of 0 -> C1 -> C0 -> H0 -> 0 at finite depth (exact ranks)."""
    desc = {"module": W.name or "anonymous", "p": W.group.p, "depth": depth}
    try:
        cc = cc or build_complex(W, depth, rho_choice, twist_u)
    except ValueError as err:
        return rejected("presentation", desc, str(err))
    rank = cc.boundary_span().nrows
    injective = rank == cc.dim1
    verdicts = {
        "boundary_injective": injective,
        "h1_zero": injective,
        "rank_nullity": (cc.dim0 - rank) + rank == cc.dim0,
    }
    dims = {"dim_c0": cc.dim0, "dim_c1": cc.dim1, "rank": rank, "dim_h0": cc.dim0 - rank}
    return LemmaReport("presentation", desc, verdicts=verdicts, dims=dims)


@timed
def check_cogtri_hypothesis(W: GModule, twist_u: int = 1) -> LemmaReport:
    """Per-vertex injectivity of the local H^1 comparison map.

    coker(shift - 1) on the stacked child-edge space maps to coker(c - 1)
    on the fiber; injectivity (in fact bijectivity) is the local input
    for the fixed-part correspondence.
    """
    desc = {"module": W.name or "anonymous", "p": W.group.p, "twist_u": twist_u}
    ring = W.ring
    try:
        spec = build_coeff_spec(W, "w0", twist_u)
    except ValueError as err:
        return rejected("cogtri", desc, str(err))
    p = W.group.p
    t = spec.inv_lower.nrows
    mult = translate_stack(ring, spec.inv_lower.mat, spec.twist, p)
    src = h1_procyclic(ring, block_shift(p, t), p)
    tgt = h1_procyclic(ring, spec.twist, p)
    inj, surj = src.induced_map(mult, tgt)
    dims = {"source_coker": src.dim, "target_coker": tgt.dim}
    verdicts = {"h1_injective": inj, "h1_bijective": inj and surj}
    return LemmaReport("cogtri", desc, verdicts=verdicts, dims=dims)


class NotFixedClassError(ValueError):
    """The 0-chain's class is not fixed by the cyclic generator."""


def reduce_chain(cc: ChainComplexData, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express a generator-fixed class as an edge-space vector plus a boundary.

    Returns (w, B) with c = iota(w) + B @ boundary exactly, where w lies
    in the upper-invariant subspace of the level-0 fiber.  Follows the
    level-peeling induction: push all mass to the top level through the
    child-edge surjections, certify the top level is stabilizer-fixed,
    then peel it through the parent edges; every internal identity the
    argument guarantees is asserted and a failure raises VerificationBug.
    """
    ring = cc.ring
    N = ring.modulus
    c = np.asarray(c, dtype=np.int64).reshape(-1) % N
    if c.shape[0] != cc.dim0:
        raise ValueError("chain dimension mismatch")
    if cc.boundary_preimage((cc.apply_g0(c) - c) % N) is None:
        raise NotFixedClassError("class not fixed by the cyclic generator")
    B = np.zeros(cc.dim1, dtype=np.int64)
    c = c.copy()
    p, w, t = cc.p, cc.w, cc.t

    def subtract_boundary(xi: np.ndarray) -> None:
        nonlocal c, B
        c = (c - xi @ cc.dmat) % N
        B = (B + xi) % N

    while True:
        n = cc.top_level(c)
        if n == 0:
            break
        # push every value below the top down through the child edges
        down_solver = cc.down_solver()
        for m in range(n):
            sm = cc.signs[m]
            blk = cc.level0_block(c, m)
            if not np.any(blk):
                continue
            pm = p**m
            xi = np.zeros(cc.dim1, dtype=np.int64)
            for a in range(pm):
                val = blk[a * w : (a + 1) * w]
                if not np.any(val):
                    continue
                u = down_solver.solve(val)
                if u is None:
                    raise VerificationBug("child edges fail to span a vertex fiber")
                u = (sm * u) % N
                for j in range(p):
                    b = a + j * pm
                    xi[cc.off1[m] + b * t : cc.off1[m] + (b + 1) * t] = u[j * t : (j + 1) * t]
            subtract_boundary(xi)
        n = cc.top_level(c)
        if n == 0:
            break
        # unique 1-chain moving c to its translate; levels >= n must vanish
        b = cc.boundary_preimage((cc.apply_g0(c) - c) % N)
        if b is None:
            raise VerificationBug("fixedness certificate disappeared during reduction")
        for m in range(n, cc.depth):
            if np.any(cc.level1_block(b, m)):
                raise VerificationBug("certificate chain has support above the top level")
        # telescoping sums vanish levelwise below the top
        acc = b.copy()
        cur = b
        for i in range(1, p**n):
            cur = cc.apply_g1(cur)
            acc = (acc + cur) % N
            m = 0
            step = i + 1
            while m < n and step == p ** (m + 1):
                if np.any(cc.level1_block(acc, m)):
                    raise VerificationBug("telescoping identity fails")
                m += 1
        # the top level is fixed by the stabilizer generator
        top = cc.level0_block(c, n).reshape(p**n, w)
        if not np.array_equal((top @ cc.spec.twist) % N, top):
            raise VerificationBug("top level is not stabilizer-fixed")
        # peel the top level through the parent edges
        rho_solver = cc.rho_solver()
        sn = cc.signs[n]
        xi = np.zeros(cc.dim1, dtype=np.int64)
        for a in range(p**n):
            val = top[a]
            if not np.any(val):
                continue
            u = rho_solver.solve((sn * val) % N)
            if u is None:
                raise VerificationBug("top value escapes the parent edge image")
            xi[cc.off1[n - 1] + a * t : cc.off1[n - 1] + (a + 1) * t] = u
        subtract_boundary(xi)
        if cc.top_level(c) >= n and np.any(cc.level0_block(c, n)):
            raise VerificationBug("peeling did not clear the top level")
    wvec = cc.level0_block(c, 0).copy()
    if not np.array_equal((wvec @ cc.spec.twist) % N, wvec):
        raise VerificationBug("reduced vector is not stabilizer-fixed")
    if not cc.spec.inv_upper.contains(wvec):
        raise VerificationBug("reduced vector left the edge-space image")
    residue = c.copy()
    residue[:w] = (residue[:w] - wvec) % N
    if np.any(residue):
        raise VerificationBug("reduction left mass outside the level-0 edge image")
    return wvec, B


def sample_fixed_class(cc: ChainComplexData, rng: np.random.Generator) -> np.ndarray:
    """A random 0-chain whose class is generator-fixed (via the fixed basis)."""
    fix_mat, sec = fixed_classes(cc)
    out = np.zeros(cc.dim0, dtype=np.int64)
    if fix_mat.shape[0] == 0:
        return out
    coeffs = rng.integers(0, cc.ring.modulus, size=fix_mat.shape[0])
    combo = (coeffs @ fix_mat) % cc.ring.modulus
    out[np.array(sec, dtype=np.int64)] = combo
    # add a random boundary so the representative is not already reduced
    noise = rng.integers(0, cc.ring.modulus, size=cc.dim1)
    out = (out + noise @ cc.dmat) % cc.ring.modulus
    return out
