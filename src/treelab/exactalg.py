"""Exact linear algebra over the rings Z/p^e.

Everything in this package reduces to row-space computations over Z/p^e
(e = 1 gives the prime field F_p).  The canonical representative of a
row space is its Howell form: an echelon form with p-power pivots,
entries above each pivot reduced modulo the pivot, and the span closed
under the annihilator rows (N/g) * row.  Two submodules of (Z/p^e)^n are
equal iff their Howell forms are identical arrays, which is what makes
submodule equality, membership and quotient bookkeeping bit-exact.

Vectors are rows throughout; a linear map is a matrix acting by right
multiplication, so `kernel_array` and `RowSolver.solve` are left-sided
(x @ A = 0 and x @ A = b).  Kernels, preimages and images come from one
Howell form of [[A | I], [rel | 0]], split at the column of I: the rows
pivoting in A give span(A) + span(rel), the others give
{x : x @ A in span(rel)}.  `kernel_array` and `RowSolver` read that one
split at every e, and so do `preimage_kernel` and `image_and_preimage`
at e > 1.  At e = 1 a Howell form is an RREF, and the quotient by its
span is free on its section columns S (the columns without a pivot), so
questions about the quotient are asked there: the preimage and the image
of A come from one elimination of s = |S| rows (`_section_split`),
membership in the span is one product at S (`contains_rows`), and a span
grows by eliminating only the new residues (`extend`).  Rows are reduced
against a Howell basis in one place, `CanonicalBasis.quotients`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)
MAX_E = 3  # the advertised bound; int64 products of residues mod 7^12 overflow


class VerificationBug(AssertionError):
    """An identity the underlying theory guarantees failed to hold."""


@dataclass(frozen=True)
class RingSpec:
    """The coefficient ring Z/p^e.

    e = 1 identifies the ring with the residue field F_p; e > 1 keeps
    the full torsion structure (non-unit pivots, annihilators).
    """

    p: int
    e: int = 1

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {self.p}; supported: {SUPPORTED_PRIMES}")
        if not 1 <= self.e <= MAX_E:
            raise ValueError(f"exponent e must lie in 1..{MAX_E}")

    @property
    def modulus(self) -> int:
        return self.p**self.e

    @property
    def is_field(self) -> bool:
        return self.e == 1

    def reduce(self, a) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) % self.modulus


@dataclass(frozen=True, eq=False)
class CanonicalBasis:
    """Howell-form basis of a row space in (Z/p^e)^ncols.

    pivots[i] = (column, value) of row i; pivot values are p-powers and
    strictly increase in column.  Bit-identical arrays <=> equal spans.
    """

    ring: RingSpec
    ncols: int
    mat: np.ndarray
    pivots: tuple[tuple[int, int], ...]

    @property
    def nrows(self) -> int:
        return self.mat.shape[0]

    def span_log_size(self) -> int:
        """log_p of the number of elements of the span."""
        total = 0
        for _, g in self.pivots:
            k = 0
            gg = g
            while gg > 1:
                gg //= self.ring.p
                k += 1
            total += self.ring.e - k
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CanonicalBasis)
            and self.ring == other.ring
            and self.ncols == other.ncols
            and self.mat.shape == other.mat.shape
            and np.array_equal(self.mat, other.mat)
        )

    def quotients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(residues, Q) with X = residues + Q @ mat mod N, the residues canonical.

        Row i of Q holds the multiples of the basis rows that the Howell
        reduction order subtracts from row i of X.
        """
        N = self.ring.modulus
        X = np.atleast_2d(np.asarray(X, dtype=np.int64)) % N
        if self.nrows == 0 or X.size == 0:
            return X, np.zeros((X.shape[0], self.nrows), dtype=np.int64)
        if self.ring.is_field:  # every pivot is 1
            # only the pivot rows X touches contribute to X[:, pivcols] @ mat
            Q = X[:, [c for c, _ in self.pivots]]
            hit = np.flatnonzero(Q.any(axis=0))
            return (X - Q[:, hit] @ self.mat[hit]) % N, Q
        Q = np.zeros((X.shape[0], self.nrows), dtype=np.int64)
        for i, (c, g) in enumerate(self.pivots):
            q = X[:, c] // g
            if q.any():
                Q[:, i] = q
                X = (X - np.outer(q, self.mat[i])) % N
        return X, Q

    def reduce_rows(self, X: np.ndarray) -> np.ndarray:
        """Canonical residues of the rows of X modulo the span."""
        return self.quotients(X)[0]

    def reduce(self, v: np.ndarray) -> np.ndarray:
        return self.reduce_rows(v)[0]

    def contains(self, v) -> bool:
        return self.contains_rows(v)

    def contains_rows(self, X) -> bool:
        """Whether every row of X lies in the span.

        At e = 1 a row's residue vanishes at the pivot columns, and at the
        section columns it is x[S] - x[pivots] @ mat[:, S].
        """
        if not self.ring.is_field:
            return not np.any(self.reduce_rows(X))
        N = self.ring.modulus
        X = np.atleast_2d(np.asarray(X, dtype=np.int64)) % N
        piv = self.pivot_mask()
        R = X[:, piv] @ self.mat[:, ~piv]  # updated in place: fewer temporaries, lower peak RSS
        R -= X[:, ~piv]
        R %= N
        return not R.any()

    def is_subspace_of(self, other: "CanonicalBasis") -> bool:
        return other.contains_rows(self.mat)

    def extend(self, X: np.ndarray) -> "CanonicalBasis":
        """Howell basis of the span plus the rows of X; only their nonzero residues are eliminated.

        At e = 1 the RREF of the residues is zero at the old pivot
        columns, so clearing its pivot columns from the old rows (one
        product) and merging both by pivot column gives the RREF of the
        sum.  At e > 1 the old rows and the residues are eliminated together.
        """
        res = self.reduce_rows(X)
        res = res[res.any(axis=1)]
        if not res.shape[0]:
            return self
        if not self.ring.is_field:
            return howell_array(self.ring, np.concatenate([self.mat, res]))
        new = howell_array(self.ring, res)
        old = self.mat[:, [c for c, _ in new.pivots]] @ new.mat
        np.subtract(self.mat, old, out=old)
        old %= self.ring.modulus
        return _merge(self.ring, (old, self.pivots), (new.mat, new.pivots))

    def pivot_mask(self) -> np.ndarray:
        """Boolean mask of the pivot columns."""
        mask = np.zeros(self.ncols, dtype=bool)
        mask[[c for c, _ in self.pivots]] = True
        return mask

    def section_cols(self) -> list[int]:
        """Columns without a pivot: a section basis of the quotient (e = 1)."""
        return np.flatnonzero(~self.pivot_mask()).tolist()

    def section_action(self, A: np.ndarray) -> np.ndarray:
        """Matrix of x -> x @ A on the quotient by the span, in section coordinates (e = 1).

        The span must be stable under A; row i is the reduced image of
        the i-th section unit vector.
        """
        sec = self.section_cols()
        return self.reduce_rows(np.asarray(A)[sec, :])[:, sec]


def _empty_basis(ring: RingSpec, ncols: int) -> CanonicalBasis:
    return CanonicalBasis(ring, ncols, np.zeros((0, ncols), dtype=np.int64), ())


def _merge(ring: RingSpec, *parts: tuple[np.ndarray, Sequence[tuple[int, int]]]) -> CanonicalBasis:
    """One RREF basis from RREF row sets, each zero at the others' pivot columns (e = 1)."""
    pivots = [pv for _, pvs in parts for pv in pvs]
    order = np.argsort([c for c, _ in pivots])  # the pivot columns are distinct
    rows = np.concatenate([mat for mat, _ in parts])[order]
    return CanonicalBasis(ring, rows.shape[1], rows, tuple(pivots[i] for i in order))


def _howell(ring: RingSpec, A: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Howell form of the row space of A by one column elimination (any e).

    Over the local ring Z/p^e the entry of least valuation in a column
    divides every other entry of it, so no gcd merges are needed.  The
    pivot is that entry (the first nonzero one, which is a unit, when
    e = 1), scaled by a unit to g = p^k; every other row subtracts
    (entry // g) times the pivot row, which clears the column below the
    pivot and reduces it modulo g above.  A non-unit pivot appends its
    annihilator row (N // g) * row, zero up to its column, to a tail of n
    spare rows (e > 1 only: there are at most n pivots).  Each step
    updates only the pivot row's support, since the other columns would
    subtract zero.  Later pivot rows are zero at earlier pivot columns, so
    no back-reduction pass is needed.  Columns that are zero in A stay
    zero under row operations and annihilator rows, so they are skipped.
    """
    N = ring.modulus
    A = np.asarray(A, dtype=np.int64)
    m, n = A.shape
    if ring.is_field:
        W = A % N
    else:
        W = np.zeros((m + n, n), dtype=np.int64)
        np.remainder(A, N, out=W[:m])
    end = m  # rows from end on are zero
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in W[:m].any(axis=0).nonzero()[0].tolist():
        if r == end:
            break
        col = W[:end, c]  # a view: it follows the swap below
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if col[i] % ring.p == 0:  # not a unit: the first entry of least valuation
            i = r + int(nz[np.gcd(col[r + nz], N).argmin()])
        if i != r:
            W[[r, i]] = W[[i, r]]
        a = int(col[r])
        g = gcd(a, N)
        nzc = W[r].nonzero()[0]
        prow = W[r, nzc]
        if a != g:
            prow = prow * pow(a // g, -1, N) % N
            W[r, nzc] = prow
        rows = col.nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            q = col[rows] // g
            rows = rows[:, None]
            W[rows, nzc] = (W[rows, nzc] - q[:, None] * prow) % N
        if g > 1:
            ann = prow * (N // g) % N
            if ann.any():
                W[end, nzc] = ann
                end += 1
        pivots.append((c, g))
        r += 1
    return W[:r], pivots


def howell_array(ring: RingSpec, A: np.ndarray) -> CanonicalBasis:
    """Canonical (Howell) basis of the row space of A."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    if A.shape[0] == 0:
        return _empty_basis(ring, A.shape[1])
    rows, pivots = _howell(ring, A)
    return CanonicalBasis(ring, A.shape[1], rows, tuple(pivots))


def span_sum(ring: RingSpec, parts: Iterable[np.ndarray]) -> CanonicalBasis:
    """Howell basis of the sum of the row spaces of the given arrays."""
    mats = [np.atleast_2d(np.asarray(p, dtype=np.int64)) for p in parts]
    if not mats:
        raise ValueError("span_sum of no parts: ambient dimension unknown")
    ncols = mats[0].shape[1]
    filled = [m for m in mats if m.shape[0]]
    if not filled:
        return _empty_basis(ring, ncols)
    return howell_array(ring, np.concatenate(filled, axis=0))


def span_closure(ring: RingSpec, seed: np.ndarray, ops: Sequence[np.ndarray]) -> CanonicalBasis:
    """Smallest span containing the rows of seed and stable under x -> x @ op.

    Semi-naive fixpoint: each round maps only a frontier through the
    operators and extends the span by the images; when every residue is
    zero the span is stable and no elimination is needed.  Otherwise the
    next frontier is the rows of the new Howell form whose (column, pivot
    value) is not a pivot of the old one.  By the Howell property such an old-pivot row
    differs from the old span's row with that pivot by a vector zero up
    to its column, so the frontier spans the new span modulo the old one
    at every e.  The first frontier is the Howell basis of the seed.
    """
    span = howell_array(ring, np.atleast_2d(seed))
    front = span.mat
    while len(ops) and front.shape[0]:
        old = set(span.pivots)
        span = span.extend(np.concatenate([front @ op for op in ops]))
        front = span.mat[[i for i, pv in enumerate(span.pivots) if pv not in old]]
    return span


def _split(
    ring: RingSpec, A: np.ndarray, rel: Optional[np.ndarray] = None
) -> tuple[CanonicalBasis, np.ndarray, CanonicalBasis]:
    """(image, U, preimage) from one Howell form H of [[A | I], [rel | 0]].

    H's rows that pivot in the A part come first; restricted to A they
    are the Howell form of span(A) + span(rel) (the image), and their I
    part U gives each image row as U[i] @ A modulo rel.  The other rows,
    restricted to the I part, are the Howell form of {x : x @ A in
    span(rel)} (the preimage; the left kernel when rel is None).  Both
    by the Howell property: the rows of H pivoting at or after a column
    span every vector of the row space that is zero before it.
    """
    m, n = A.shape
    aug = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)
    if rel is not None:
        aug = np.concatenate([aug, np.pad(rel, ((0, 0), (0, m)))])
    H = howell_array(ring, aug)
    k = sum(c < n for c, _ in H.pivots)
    image = CanonicalBasis(ring, n, H.mat[:k, :n], H.pivots[:k])
    pre = CanonicalBasis(ring, m, H.mat[k:, n:], tuple((c - n, g) for c, g in H.pivots[k:]))
    return image, H.mat[:k, n:], pre


def kernel_array(ring: RingSpec, A: np.ndarray) -> CanonicalBasis:
    """Left kernel {x : x @ A = 0} as a canonical basis."""
    return _split(ring, np.atleast_2d(ring.reduce(A)))[2]


class RowSolver:
    """Prepared solver for repeated x @ A = b queries against a fixed A.

    Built once from the split Howell form of [A | I]; each solve is a
    single back-substitution pass through the image rows.  The returned
    x is the deterministic choice of the Howell-form reduction order (at
    e = 1, the canonical residue of the solution set modulo the kernel).
    The preimage part of the split is the left kernel, kept as `kernel`.
    """

    def __init__(self, ring: RingSpec, A: np.ndarray):
        self.ring = ring
        A = np.atleast_2d(ring.reduce(A))
        self.m, self.n = A.shape
        self.image, self.umat, self.kernel = _split(ring, A)

    def solve(self, b) -> Optional[np.ndarray]:
        X, ok = self.solve_rows(np.asarray(b).reshape(1, -1))
        return X[0] if ok[0] else None

    def solve_rows(self, B) -> tuple[np.ndarray, np.ndarray]:
        """Solve x @ A = b for every row b of B in one pass.

        Returns (X, ok): where ok[i], X[i] is the solution `solve` gives
        for row i; where row i is outside the row space, X[i] is zero.
        """
        B = np.atleast_2d(np.asarray(B, dtype=np.int64))
        if B.shape[1] != self.n:
            raise ValueError("dimension mismatch")
        residues, Q = self.image.quotients(B)
        ok = ~residues.any(axis=1)
        X = (Q @ self.umat) % self.ring.modulus
        X[~ok] = 0
        return X, ok


def _null_rref(ring: RingSpec, R: np.ndarray, pivcols: list[int], width: int) -> CanonicalBasis:
    """RREF basis of {x : R @ x[::-1] = 0} for an RREF matrix R with the given pivot columns (e = 1).

    The null space of R has one vector per free column f: e_f minus
    column f of R at the pivot columns, which lie before f.  Reversed,
    that vector leads with 1 at width - 1 - f and is zero at every other
    reversed free column, so the reversed vectors are an RREF basis.
    """
    free = np.ones(width, dtype=bool)
    free[pivcols] = False
    f = np.flatnonzero(free)[::-1]
    K = np.zeros((len(f), width), dtype=np.int64)
    K[np.arange(len(f)), width - 1 - f] = 1
    K[:, width - 1 - np.asarray(pivcols, dtype=np.int64)] = -R[:, f].T % ring.modulus
    return CanonicalBasis(ring, width, K, tuple((int(c), 1) for c in width - 1 - f))


def _section_split(
    ring: RingSpec, blocks: list[np.ndarray], rel: CanonicalBasis
) -> tuple[CanonicalBasis, CanonicalBasis]:
    """image_and_preimage at e = 1, asked at the section columns S of rel.

    Over F_p the quotient by span(rel) is free on S: a row x has the
    coordinates x[S] - x[pivots] @ rel[:, S] there.  With B the
    coordinates of the rows of [M_1 | M_2 | ...], block by block, the
    preimage is the left kernel of B and the image is span(B), lifted
    to S, plus rel in every block.  One Howell form H of
    [B.T[:, ::-1] | I[:, ::-1]], with s = |S| rows, gives both: its rows
    pivoting in the left part are the RREF of the column space of B, in
    reversed row order, whose null space is the left kernel of B; the
    other rows, restricted to the right part, are the RREF of the right
    null space of B in reversed column order, whose null space is span(B).
    """
    N = ring.modulus
    piv = rel.pivot_mask()
    sec = ~piv
    B = np.concatenate([M[:, sec] - M[:, piv] @ rel.mat[:, sec] for M in blocks], axis=1) % N
    m, s = B.shape
    Is = np.eye(s, dtype=np.int64)[:, ::-1]
    H = howell_array(ring, np.concatenate([B.T[:, ::-1], Is], axis=1))
    k = sum(c < m for c, _ in H.pivots)
    pre = _null_rref(ring, H.mat[:k, :m], [c for c, _ in H.pivots[:k]], m)
    span_b = _null_rref(ring, H.mat[k:, m:], [c - m for c, _ in H.pivots[k:]], s)
    # lift span(B) to S in every block and clear its pivot columns from the relations
    S = (np.flatnonzero(sec) + rel.ncols * np.arange(len(blocks))[:, None]).reshape(-1)
    lifted = np.zeros((span_b.nrows, rel.ncols * len(blocks)), dtype=np.int64)
    lifted[:, S] = span_b.mat
    R = np.kron(np.eye(len(blocks), dtype=np.int64), rel.mat)
    R = (R - R[:, S[[c for c, _ in span_b.pivots]]] @ lifted) % N
    rel_pivots = [(c + rel.ncols * b, g) for b in range(len(blocks)) for c, g in rel.pivots]
    new_pivots = [(int(S[c]), g) for c, g in span_b.pivots]
    return _merge(ring, (R, rel_pivots), (lifted, new_pivots)), pre


def image_and_preimage(
    ring: RingSpec, blocks: Sequence[np.ndarray], rel: Optional[CanonicalBasis] = None
) -> tuple[CanonicalBasis, CanonicalBasis]:
    """(span of [M_1 | M_2 | ...] plus rel in every block, preimage_kernel) from one elimination.

    At e = 1 with relations the question is asked at their section
    columns (`_section_split`); otherwise it is read off the split of
    [[M | I], [diag(rel, ...) | 0]].
    """
    blocks = [np.atleast_2d(ring.reduce(B)) for B in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    if rel is not None and ring.is_field:
        return _section_split(ring, blocks, rel)
    R = None if rel is None else np.kron(np.eye(len(blocks), dtype=np.int64), rel.mat)
    image, _, pre = _split(ring, np.concatenate(blocks, axis=1), R)
    return image, pre


def preimage_kernel(
    ring: RingSpec,
    blocks: Sequence[np.ndarray],
    rel: Optional[CanonicalBasis] = None,
) -> CanonicalBasis:
    """{x : x @ M_i in span(rel) for every block M_i}, as a canonical basis.

    With rel = None the conditions are x @ M_i = 0 (a joint kernel).
    """
    return image_and_preimage(ring, blocks, rel)[1]


def split_test(
    ring: RingSpec,
    P: np.ndarray,
    constraints: Sequence[tuple[np.ndarray, np.ndarray]] = (),
) -> Optional[np.ndarray]:
    """Search for a section S of the surjection P, as an exact linear system.

    P is an (a x b) matrix, a map Lambda^a -> Lambda^b (rows act on the
    right).  A section is S (b x a) with S @ P = I, intertwining every
    constraint pair (L_i, R_i): L_i @ S = S @ R_i.  Returns the section
    or None; raises ValueError when P is not surjective.
    """
    N = ring.modulus
    P = np.atleast_2d(ring.reduce(P))
    a, b = P.shape
    if howell_array(ring, P).span_log_size() != ring.e * b:
        raise ValueError("not a surjection")
    Ia = np.eye(a, dtype=np.int64)
    Ib = np.eye(b, dtype=np.int64)
    # unknowns: S row-major; S @ P = I_b, then L_i @ S - S @ R_i = 0
    eq_blocks = [np.kron(Ib, P)] + [np.kron(L.T, Ia) - np.kron(Ib, R) for L, R in constraints]
    rhs = np.concatenate([Ib.reshape(-1), np.zeros(len(constraints) * b * a, dtype=np.int64)])
    x = RowSolver(ring, np.concatenate(eq_blocks, axis=1) % N).solve(rhs)
    return None if x is None else x.reshape(b, a)
