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
from functools import cached_property
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
    augmentation_kernel,
    h1_procyclic,
    invariants,
    primitive_root,
    translate_stack,
    translates_equivariantly,
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
    twist_u: int  # as given; twist is its power mod p
    rho_choice: str
    down_stack: np.ndarray  # (p*t x w): block j = inv_lower @ twist^j, the child j embedding


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


def resolve_rho(W: GModule, rho_choice: str, inv_lower: CanonicalBasis) -> np.ndarray:
    """The gluing matrix for a named choice, on the lower invariants inv_lower of W.

    "w0"      : the action of the fixed Weyl representative;
    "twist:K"  : compose with the K-th power of the torus generator
                 (it normalizes the upper unipotent subgroup);
    "scalar:K" : multiply by the unit z^K.
    """
    kind, k = parse_rho(rho_choice)
    group = W.group
    p = group.p
    N = W.ring.modulus
    base = (inv_lower.mat @ W.action(group.weyl)) % N
    if kind == "w0":
        return base
    z = primitive_root(p)  # 1 at p = 2, where both choices are the identity
    if kind == "twist":
        t: Elem = (z, 0, 0, pow(z, -1, p))
        return (base @ _matpow(W.action(t), k % (p - 1), N)) % N
    return (pow(z, k, p) * base) % N


def build_coeff_spec(W: GModule, rho_choice: str = "w0", twist_u: int = 1) -> CoeffSystemSpec:
    ring = W.ring
    group = W.group
    p = group.p
    if not ring.is_field:
        raise ValueError("coefficient systems are built over e = 1")
    if twist_u % p == 0:
        raise ValueError("twist exponent must be a unit mod p")
    inv_lower = W.lower_invariants
    inv_upper = invariants(W, [group.upper_gen])
    rho = resolve_rho(W, rho_choice, inv_lower)
    image = howell_array(ring, rho)
    if image != inv_upper or image.nrows != inv_lower.nrows:
        raise ValueError("rho is not an isomorphism onto the upper invariants")
    N = ring.modulus
    twist = _matpow(W.action(group.upper_gen), twist_u % p, N)
    down_stack = translate_stack(ring, inv_lower.mat, twist, p)
    # the boundary is equivariant iff the generator moves child block j to
    # block j + 1 (the twist on wraparound included) and fixes the gluing
    shifts = translates_equivariantly(ring, down_stack, twist, inv_lower.nrows)
    if not (shifts and np.array_equal(rho @ twist % N, rho)):
        raise VerificationBug("boundary map is not equivariant")
    # the gluing image must be exactly the stabilizer-fixed subspace of the
    # vertex fiber, and at a non-leaf vertex the child images span the fiber
    if image != kernel_array(ring, (twist - np.eye(W.rank, dtype=np.int64)) % N):
        raise VerificationBug("edge image differs from the stabilizer-fixed subspace")
    if W.rank and howell_array(ring, down_stack).nrows != W.rank:
        raise VerificationBug("child edge images do not span the vertex fiber")
    return CoeffSystemSpec(W, inv_lower, inv_upper, rho, twist, twist_u, rho_choice, down_stack)


class ChainComplexData:
    """The depth-D truncated complex for one W, kept in its tree structure.

    The boundary maps 1-chains (rows) to 0-chains.  `boundary_rows`
    applies it one edge level at a time, and `peel` reduces 0-chains
    modulo its image leaf first: every edge owns its child vertex, where
    the gluing rho is injective, so at the local pivot columns P of rho
    (its Howell form with the columns reversed) a vertex block fixes the
    coefficients of the vertex's parent edge.  `boundary_span` and
    `reduce_chain` are read off the peel, and `fixed_classes` off its
    closed form on the vertex-0 path.  The dense boundary matrix `dmat`
    is assembled only when read; the tests use it as the oracle.
    The cyclic generator acts on 0-chains by the index shift `apply_g0`,
    with the vertex-fiber twist applied on index wraparound, and on
    1-chains by the edge-index shift, which carries no twist.
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
        # the leaf-first pivots of rho, and the inverse of rho on them
        H = howell_array(self.ring, spec.rho[:, ::-1])
        self.local_pivots = np.sort(w - 1 - np.array([c for c, _ in H.pivots], dtype=np.int64))
        self.local_free = np.delete(np.arange(w), self.local_pivots)
        self._rho_inv = RowSolver(self.ring, spec.rho[:, self.local_pivots]).solve_rows(np.eye(t, dtype=np.int64))[0]
        self._fixed: Optional[tuple[CanonicalBasis, np.ndarray]] = None
        self._solver: Optional[RowSolver] = None

    @cached_property
    def dmat(self) -> np.ndarray:
        """The dense dim C1 x dim C0 boundary matrix, assembled edge by edge on first read."""
        p, t, w, N = self.p, self.t, self.w, self.ring.modulus
        D1 = np.zeros((self.dim1, self.dim0), dtype=np.int64)
        for m in range(self.depth):
            sm, sm1 = self.signs[m], self.signs[m + 1]
            pm = p**m
            for b in range(p ** (m + 1)):
                a, j = b % pm, b // pm
                rows = slice(self.off1[m] + b * t, self.off1[m] + (b + 1) * t)
                cols_par = slice(self.off0[m] + a * w, self.off0[m] + (a + 1) * w)
                cols_child = slice(self.off0[m + 1] + b * w, self.off0[m + 1] + (b + 1) * w)
                D1[rows, cols_par] = (sm * self.spec.down_stack[j * t : (j + 1) * t]) % N
                D1[rows, cols_child] = (sm1 * self.spec.rho) % N
        return D1

    # -- group action -------------------------------------------------
    def _g0_level(self, X: np.ndarray, m: int) -> np.ndarray:
        """The generator on rows of level-m vertex values: shift, twist on wraparound."""
        k, pm = X.shape[0], self.p**m
        rolled = np.roll(X.reshape(k, pm, self.w), 1, axis=1)
        rolled[:, 0, :] = (rolled[:, 0, :] @ self.spec.twist) % self.ring.modulus
        return rolled.reshape(k, pm * self.w)

    def apply_g0_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        out = np.empty_like(X)
        for m in range(self.depth + 1):
            out[:, self.off0[m] : self.off0[m + 1]] = self._g0_level(X[:, self.off0[m] : self.off0[m + 1]], m)
        return out

    def apply_g0(self, v: np.ndarray) -> np.ndarray:
        return self.apply_g0_rows(v.reshape(1, -1))[0]

    # -- the boundary, level by level -----------------------------------
    def _edge_images(self, Xm: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundaries of rows of level-m edge values, in the level-m and level-(m+1) vertex blocks.

        Edge a + j·p^m carries the j-th block of `down_stack` into parent
        vertex a and rho into its own child vertex, each with its level's sign.
        """
        N = self.ring.modulus
        p, t, w = self.p, self.t, self.w
        k, pm = Xm.shape[0], p**m
        par = Xm.reshape(k, p, pm, t).transpose(0, 2, 1, 3).reshape(k * pm, p * t) @ self.spec.down_stack
        child = Xm.reshape(k * p * pm, t) @ self.spec.rho
        return (
            (self.signs[m] * par).reshape(k, pm * w) % N,
            (self.signs[m + 1] * child).reshape(k, p * pm * w) % N,
        )

    def boundary_rows(self, X: np.ndarray) -> np.ndarray:
        """X @ dmat mod N for rows of 1-chains, one edge level at a time."""
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        out = np.zeros((X.shape[0], self.dim0), dtype=np.int64)
        for m in range(self.depth):
            par, child = self._edge_images(X[:, self.off1[m] : self.off1[m + 1]], m)
            out[:, self.off0[m] : self.off0[m + 1]] += par
            out[:, self.off0[m + 1] : self.off0[m + 2]] += child
        return out % self.ring.modulus

    def peel(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of 0-chains reduced modulo the boundary image, leaf first.

        For m = D ... 1, the level-m block of each vertex at the local
        pivot columns fixes the coefficients of its parent edge (of level
        m - 1), whose boundary is then subtracted from both vertex levels
        it meets.  Returns (residue, coeffs) with X = residue + coeffs @ dmat;
        the residue is zero at the local pivot columns of every non-root
        vertex, which makes it the canonical representative of X.
        """
        N = self.ring.modulus
        X = np.atleast_2d(np.asarray(X, dtype=np.int64)) % N
        k = X.shape[0]
        coeffs = np.zeros((k, self.dim1), dtype=np.int64)
        for m in range(self.depth, 0, -1):
            lo, mid, hi = self.off0[m - 1 : m + 2]
            at_pivots = X[:, mid:hi].reshape(-1, self.w)[:, self.local_pivots]
            z = (self.signs[m] * at_pivots @ self._rho_inv % N).reshape(k, -1)
            par, child = self._edge_images(z, m - 1)
            X[:, lo:mid] = (X[:, lo:mid] - par) % N
            X[:, mid:hi] = (X[:, mid:hi] - child) % N
            coeffs[:, self.off1[m - 1] : self.off1[m]] = z
        return X, coeffs

    def boundary_span(self) -> TreeBasis:
        """The boundary image as a tree basis on the leaf-first `peel`."""
        return TreeBasis(self)

    def boundary_solver(self) -> RowSolver:
        """Dense solver for the leaf-first boundary, the oracle of the `peel` coefficients.

        It takes C0 coordinates reversed: `boundary_solver().solve(b[::-1])`.
        """
        if self._solver is None:
            self._solver = RowSolver(self.ring, self.dmat[:, ::-1])
        return self._solver

    # -- induced generator on the quotient -----------------------------
    def h0_generator_matrix(self) -> np.ndarray:
        """Matrix of the cyclic generator on the section coordinates of H0.

        Row i is the reduced image of the i-th section unit vector.  The
        tests use it as the dense oracle of `fixed_classes`.
        """
        R = self.boundary_span()
        sec = R.section_cols()
        unit = np.zeros((len(sec), self.dim0), dtype=np.int64)
        unit[np.arange(len(sec)), sec] = 1
        return R.reduce_rows(self.apply_g0_rows(unit))[:, sec]


class TreeBasis:
    """The boundary image of a complex, reduced by its leaf-first peel.

    It agrees with the dense Howell form of `dmat` with its columns
    reversed: the same residues, the same section columns (every root
    column, then the columns outside the local pivots at every other
    vertex) and the same rank, one per local pivot of a non-root vertex.
    """

    def __init__(self, cc: ChainComplexData):
        self.cc = cc
        self.nonroot = sum(cc.p**m for m in range(1, cc.depth + 1))
        self.nrows = cc.local_pivots.size * self.nonroot

    def reduce_rows(self, X: np.ndarray) -> np.ndarray:
        """Canonical residues of the rows of X modulo the boundary image."""
        return self.cc.peel(X)[0]

    def section_cols(self) -> np.ndarray:
        """Columns without a pivot, increasing: a section basis of H0."""
        cc = self.cc
        below = cc.w * np.arange(1, self.nonroot + 1)[:, None] + cc.local_free
        return np.concatenate([np.arange(cc.w), below.ravel()])


def build_complex(W: GModule, depth: int, rho_choice: str = "w0", twist_u: int = 1) -> ChainComplexData:
    """The truncated complex for W; asserts every structural invariant."""
    return ChainComplexData(build_coeff_spec(W, rho_choice, twist_u), depth)


def fixed_classes(cc: ChainComplexData) -> tuple[CanonicalBasis, np.ndarray]:
    """Basis of the generator-fixed part of H0, in orbit coordinates.

    The tree basis leaves every root column as a section column and, at
    every other vertex, the columns S outside the local pivots.  The
    generator moves the section unit vector at vertex a < p^m - 1 to the
    one at vertex a + 1, so a fixed class is constant on each level's
    shift orbit, with one unknown per orbit; `owner` names the orbit of
    each section column.  Only the wrap rows (vertex p^m - 1 to vertex 0
    through the twist) constrain the unknowns, and each stays on the
    vertex-0 path while it is peeled: at level l its parent-edge
    coefficient is z = x[P]·rho^-1 (the level signs cancel), it leaves
    (x - z·rho)[S] on the orbits of level l and passes x = z·inv_lower
    up to level l - 1; the x that reaches the root meets the first w
    orbits.  The fixed basis is the kernel of M - I for this orbit
    system M.  At e = 1, expanding it over the orbits (`.mat[:, owner]`)
    gives the Howell form that `kernel_array` gives for the dense gq - I
    of `h0_generator_matrix`: each pivot lands on its orbit's first
    column, and those columns keep the orbit order.

    Computed once per complex and kept on it.
    """
    if cc._fixed is None:
        N, w = cc.ring.modulus, cc.w
        levels = [np.arange(w)] + [cc.local_free] * cc.depth  # S_m: the section columns of a level-m vertex
        start = np.cumsum([0] + [local.size for local in levels])
        owner = np.concatenate(
            [s + np.tile(np.arange(local.size), cc.p**m) for m, (s, local) in enumerate(zip(start, levels))]
        )
        M = np.zeros((start[-1], start[-1]), dtype=np.int64)
        for m, local in enumerate(levels):
            x = cc.spec.twist[local]  # the wrap rows of level m, moved to vertex 0
            for lvl in range(m, 0, -1):
                z = x[:, cc.local_pivots] @ cc._rho_inv % N
                residue = (x - z @ cc.spec.rho) % N
                M[start[m] : start[m + 1], start[lvl] : start[lvl + 1]] = residue[:, levels[lvl]]
                x = z @ cc.spec.down_stack[: cc.t] % N
            M[start[m] : start[m + 1], :w] = x
        M[np.diag_indices_from(M)] -= 1
        cc._fixed = (kernel_array(cc.ring, M), owner)
    return cc._fixed


def _tree_desc(lemma: str, W: GModule, depth: int, rho_choice: str, twist_u: int) -> dict:
    desc = {"module": W.name or "anonymous", "p": W.group.p}
    if lemma == "cogtri":
        return {**desc, "twist_u": twist_u}
    desc["depth"] = depth
    if lemma == "corrpro":
        desc.update(rho=rho_choice, twist_u=twist_u, rank=W.rank)
    return desc


@timed
def check_corrpro(cc: ChainComplexData) -> LemmaReport:
    """The edge space maps bijectively onto the fixed part of H0.

    Verdicts: the level-0 embedding iota of the upper invariants is
    injective in H0, lands in the generator-fixed part, and spans it
    exactly.  iota and g·iota - iota lie in the root block, whose columns
    are all section columns, so each is its own residue: injectivity is
    read off inv_upper, fixedness off inv_upper·twist - inv_upper.  The
    root columns are the first w orbits of `fixed_classes`, and expanding
    over the orbits is injective, so "onto" and the rank are tested in
    orbit coordinates against [inv_upper | 0].
    """
    desc = _tree_desc("corrpro", cc.spec.W, cc.depth, cc.spec.rho_choice, cc.spec.twist_u)
    ring = cc.ring
    upper = cc.spec.inv_upper.mat
    inj = kernel_array(ring, upper).nrows == 0
    lands_fixed = not np.any((upper @ cc.spec.twist - upper) % ring.modulus)
    fixed, _ = fixed_classes(cc)
    iota = np.zeros((upper.shape[0], fixed.ncols), dtype=np.int64)
    iota[:, : cc.w] = upper
    onto = fixed.is_subspace_of(howell_array(ring, iota))
    verdicts = {
        "injective": inj,
        "lands_in_fixed_part": lands_fixed,
        "onto_fixed_part": onto,
        "bijective": inj and lands_fixed and onto,
        "dims_equal": fixed.nrows == cc.spec.inv_upper.nrows,
    }
    dims = {
        "dim_c0": cc.dim0,
        "dim_c1": cc.dim1,
        "dim_h0_fixed": fixed.nrows,
        "dim_inv_upper": cc.spec.inv_upper.nrows,
        "dim_h0": cc.dim0 - cc.boundary_span().nrows,
    }
    return LemmaReport("corrpro", desc, verdicts=verdicts, dims=dims)


@timed
def check_presentation(cc: ChainComplexData) -> LemmaReport:
    """Exactness of 0 -> C1 -> C0 -> H0 -> 0 at finite depth.

    The rank is that of the tree basis, t per non-root vertex, which is
    dim C1 on every complex that builds: `build_coeff_spec` refuses a rho
    that is not injective, so the verdicts cannot read false here.
    """
    desc = _tree_desc("presentation", cc.spec.W, cc.depth, cc.spec.rho_choice, cc.spec.twist_u)
    rank = cc.boundary_span().nrows
    injective = rank == cc.dim1
    verdicts = {
        "boundary_injective": injective,
        "h1_zero": injective,
        "rank_nullity": (cc.dim0 - rank) + rank == cc.dim0,
    }
    dims = {"dim_c0": cc.dim0, "dim_c1": cc.dim1, "rank": rank, "dim_h0": cc.dim0 - rank}
    return LemmaReport("presentation", desc, verdicts=verdicts, dims=dims)


def tree_reports(
    W: GModule, depth: int, rho_choice: str, twist_u: int, lemmas: tuple[str, ...]
) -> list[LemmaReport]:
    """The named checks ("corrpro", "presentation", "cogtri") on one shared
    build of the complex, or one rejection per check when W fails the
    hypotheses."""
    if not set(lemmas) <= {"corrpro", "presentation", "cogtri"}:
        raise ValueError(f"unknown tree checks {lemmas}")
    try:
        cc = build_complex(W, depth, rho_choice, twist_u)
    except ValueError as err:
        return [rejected(lem, _tree_desc(lem, W, depth, rho_choice, twist_u), str(err)) for lem in lemmas]
    checks = {"corrpro": check_corrpro, "presentation": check_presentation}
    return [check_cogtri_hypothesis(cc.spec) if lem == "cogtri" else checks[lem](cc) for lem in lemmas]


@timed
def check_cogtri_hypothesis(spec: CoeffSystemSpec) -> LemmaReport:
    """Per-vertex injectivity of the local H^1 comparison map.

    coker(shift - 1) on the stacked child-edge space maps to coker(c - 1)
    on the fiber; injectivity (in fact bijectivity) is the local input
    for the fixed-part correspondence.  It reads no rho: every valid
    gluing is an isomorphism exactly when w0 is.  The relations of the
    source are the augmentation kernel, and `build_coeff_spec` checked
    that down_stack carries the shift to the twist, so it sends them into
    the relations of the target.
    """
    W = spec.W
    desc = _tree_desc("cogtri", W, 0, spec.rho_choice, spec.twist_u)
    p = W.group.p
    t = spec.inv_lower.nrows
    tgt = h1_procyclic(W.ring, spec.twist, p)
    inj, surj = tgt.map_verdicts(spec.down_stack, augmentation_kernel(W.ring, p, t))
    # coker of the augmentation kernel in p * t coordinates has dimension t
    dims = {"source_coker": t, "target_coker": tgt.dim}
    verdicts = {"h1_injective": inj, "h1_bijective": inj and surj}
    return LemmaReport("cogtri", desc, verdicts=verdicts, dims=dims)


class NotFixedClassError(ValueError):
    """The 0-chain's class is not fixed by the cyclic generator."""


def reduce_chain(cc: ChainComplexData, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express a generator-fixed class as an edge-space vector plus a boundary.

    Returns (w, B) with c = iota(w) + B @ boundary exactly, where w lies
    in the upper-invariant subspace of the level-0 fiber.  One leaf-first
    `peel` of c and of g·c - c: the class is fixed iff the second residue
    vanishes.  The first residue is the canonical representative of c,
    which the fixed-part correspondence makes iota(w), and B is its peel
    coefficients, unique because the boundary is injective.  A residue off
    the root block or a w outside the stabilizer-fixed edge image raises
    VerificationBug.
    """
    N = cc.ring.modulus
    c = np.asarray(c, dtype=np.int64).reshape(-1) % N
    if c.shape[0] != cc.dim0:
        raise ValueError("chain dimension mismatch")
    residue, coeffs = cc.peel(np.stack([c, (cc.apply_g0(c) - c) % N]))
    if residue[1].any():
        raise NotFixedClassError("class not fixed by the cyclic generator")
    if residue[0, cc.w :].any():
        raise VerificationBug("reduction left mass outside the level-0 edge image")
    wvec = residue[0, : cc.w]
    if not np.array_equal((wvec @ cc.spec.twist) % N, wvec):
        raise VerificationBug("reduced vector is not stabilizer-fixed")
    if not cc.spec.inv_upper.contains(wvec):
        raise VerificationBug("reduced vector left the edge-space image")
    return wvec, coeffs[0]


def sample_fixed_class(cc: ChainComplexData, rng: np.random.Generator) -> np.ndarray:
    """A random 0-chain whose class is generator-fixed: a random combination
    of the fixed basis, expanded over the orbits, plus a random boundary."""
    fixed, owner = fixed_classes(cc)
    N = cc.ring.modulus
    out = np.zeros(cc.dim0, dtype=np.int64)
    coeffs = rng.integers(0, N, size=fixed.nrows)
    out[cc.boundary_span().section_cols()] = (coeffs @ fixed.mat % N)[owner]
    # add a random boundary so the representative is not already reduced
    noise = rng.integers(0, N, size=cc.dim1)
    return (out + cc.boundary_rows(noise)[0]) % N
