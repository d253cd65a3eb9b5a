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
(x @ A = 0 and x @ A = b).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)


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
        if self.e < 1:
            raise ValueError("exponent e must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p**self.e

    @property
    def is_field(self) -> bool:
        return self.e == 1

    def reduce(self, a) -> np.ndarray:
        return np.asarray(a, dtype=np.int64) % self.modulus


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

    def reduce_rows(self, X: np.ndarray) -> np.ndarray:
        """Canonical residues of the rows of X modulo the span."""
        N = self.ring.modulus
        X = np.atleast_2d(np.asarray(X, dtype=np.int64)) % N
        if self.nrows == 0 or X.size == 0:
            return X
        if self.ring.is_field:
            pivcols = [c for c, _ in self.pivots]
            return (X - (X[:, pivcols] @ self.mat)) % N
        X = X.copy()
        for i, (c, g) in enumerate(self.pivots):
            q = X[:, c] // g
            if np.any(q):
                X = (X - np.outer(q, self.mat[i])) % N
        return X

    def reduce(self, v: np.ndarray) -> np.ndarray:
        return self.reduce_rows(np.asarray(v, dtype=np.int64).reshape(1, -1))[0]

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def contains_rows(self, X) -> bool:
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        if X.shape[0] == 0:
            return True
        return not np.any(self.reduce_rows(X))

    def is_subspace_of(self, other: "CanonicalBasis") -> bool:
        return other.contains_rows(self.mat)

    def coords(self, v) -> Optional[np.ndarray]:
        """Coefficients c with c @ mat = v, or None if v is not in the span.

        Deterministic: c is read off by the Howell back-substitution order.
        """
        N = self.ring.modulus
        v = np.asarray(v, dtype=np.int64).reshape(-1) % N
        c = np.zeros(self.nrows, dtype=np.int64)
        for i, (col, g) in enumerate(self.pivots):
            q = int(v[col]) // g
            if q:
                c[i] = q
                v = (v - q * self.mat[i]) % N
        if np.any(v):
            return None
        return c

    def coords_rows(self, X) -> Optional[np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=np.int64))
        out = np.zeros((X.shape[0], self.nrows), dtype=np.int64)
        for i, row in enumerate(X):
            c = self.coords(row)
            if c is None:
                return None
            out[i] = c
        return out

    def section_cols(self) -> list[int]:
        """Columns without a pivot: a section basis of the quotient (e = 1)."""
        pivset = {c for c, _ in self.pivots}
        return [j for j in range(self.ncols) if j not in pivset]


def _empty_basis(ring: RingSpec, ncols: int) -> CanonicalBasis:
    return CanonicalBasis(ring, ncols, np.zeros((0, ncols), dtype=np.int64), ())


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
    no back-reduction pass is needed.
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
    for c in range(n):
        if r == end:
            break
        nz = np.flatnonzero(W[r:end, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if W[i, c] % ring.p == 0:  # not a unit: the first entry of least valuation
            i = r + int(nz[np.argmin(np.gcd(W[r + nz, c], N))])
        if i != r:
            W[[r, i]] = W[[i, r]]
        a = int(W[r, c])
        g = gcd(a, N)
        nzc = np.flatnonzero(W[r])
        if a != g:
            W[r, nzc] = W[r, nzc] * pow(a // g, -1, N) % N
        rows = np.flatnonzero(W[:end, c])
        rows = rows[rows != r]
        if rows.size:
            block = np.ix_(rows, nzc)
            W[block] = (W[block] - np.outer(W[rows, c] // g, W[r, nzc])) % N
        if g > 1:
            ann = W[r, nzc] * (N // g) % N
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

    Fixpoint iteration: add the images of the current Howell basis under
    every operator until the canonical form stops changing.
    """
    span = howell_array(ring, np.atleast_2d(seed))
    while True:
        bigger = span_sum(ring, [span.mat] + [(span.mat @ op) % ring.modulus for op in ops])
        if bigger == span:
            return span
        span = bigger


def kernel_array(ring: RingSpec, A: np.ndarray) -> CanonicalBasis:
    """Left kernel {x : x @ A = 0} as a canonical basis."""
    A = np.atleast_2d(ring.reduce(A))
    m, n = A.shape
    if m == 0:
        return _empty_basis(ring, 0)
    if ring.is_field:
        # right kernel of A^T, extracted from its reduced echelon form
        R, pivots = _howell(ring, A.T)
        pivcols = [c for c, _ in pivots]
        pivset = set(pivcols)
        free = [j for j in range(m) if j not in pivset]
        if not free:
            return _empty_basis(ring, m)
        K = np.zeros((len(free), m), dtype=np.int64)
        for idx, f in enumerate(free):
            K[idx, f] = 1
            for i, c in enumerate(pivcols):
                K[idx, c] = (-int(R[i, f])) % ring.p
        return howell_array(ring, K)
    aug = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)
    H = howell_array(ring, aug)
    keep = [i for i in range(H.nrows) if not np.any(H.mat[i, :n])]
    if not keep:
        return _empty_basis(ring, m)
    return howell_array(ring, H.mat[keep, n:])


class RowSolver:
    """Prepared solver for repeated x @ A = b queries against a fixed A.

    Built once from the Howell form of [A | I]; each solve is a single
    back-substitution pass.  The returned x is the deterministic choice
    of the Howell-form reduction order.
    """

    def __init__(self, ring: RingSpec, A: np.ndarray):
        self.ring = ring
        A = np.atleast_2d(ring.reduce(A))
        self.m, self.n = A.shape
        aug = np.concatenate([A, np.eye(self.m, dtype=np.int64)], axis=1)
        H = howell_array(ring, aug)
        # rows pivoting inside A come first, since pivot columns increase
        self.pivots = [(c, g) for c, g in H.pivots if c < self.n]
        self.hmat = H.mat[: len(self.pivots), : self.n]
        self.umat = H.mat[: len(self.pivots), self.n :]
        self._unit = all(g == 1 for _, g in self.pivots)
        self._pivcols = [c for c, _ in self.pivots]

    def solve(self, b) -> Optional[np.ndarray]:
        N = self.ring.modulus
        b = np.asarray(b, dtype=np.int64).reshape(-1) % N
        if b.shape[0] != self.n:
            raise ValueError("dimension mismatch")
        if self._unit and self.ring.is_field:
            q = b[self._pivcols]
            rem = (b - q @ self.hmat) % N
            if np.any(rem):
                return None
            return (q @ self.umat) % N
        x = np.zeros(self.m, dtype=np.int64)
        for i, (c, g) in enumerate(self.pivots):
            q = int(b[c]) // g
            if q:
                b = (b - q * self.hmat[i]) % N
                x = (x + q * self.umat[i]) % N
        if np.any(b):
            return None
        return x


def preimage_kernel(
    ring: RingSpec,
    blocks: Sequence[np.ndarray],
    rel: Optional[CanonicalBasis] = None,
) -> CanonicalBasis:
    """{x : x @ M_i in span(rel) for every block M_i}, as a canonical basis.

    With rel = None the conditions are x @ M_i = 0 (a joint kernel).
    """
    blocks = [np.atleast_2d(ring.reduce(B)) for B in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    n = blocks[0].shape[0]
    wide = np.concatenate(blocks, axis=1)
    if rel is None or rel.nrows == 0:
        return kernel_array(ring, wide)
    r = rel.nrows
    k = len(blocks)
    stacked = np.zeros((n + k * r, wide.shape[1]), dtype=np.int64)
    stacked[:n] = wide
    off = 0
    for i, B in enumerate(blocks):
        w = B.shape[1]
        stacked[n + i * r : n + (i + 1) * r, off : off + w] = rel.mat
        off += w
    K = kernel_array(ring, stacked)
    if K.nrows == 0:
        return _empty_basis(ring, n)
    return howell_array(ring, K.mat[:, :n])


def split_test(
    ring: RingSpec,
    P: np.ndarray,
    constraints: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    target_relations: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Search for a section S of the surjection P, as an exact linear system.

    P is an (a x b) matrix, a map Lambda^a -> Lambda^b (rows act on the
    right); target_relations R presents the target as Lambda^b / span(R).
    A section is S (b x a) with S @ P = I modulo the relations, killing
    the relations, and intertwining every constraint pair (L_i, R_i):
    L_i @ S = S @ R_i.  Returns the section or None; raises ValueError
    when P is not surjective onto the presented target.
    """
    N = ring.modulus
    P = np.atleast_2d(ring.reduce(P))
    a, b = P.shape
    relmat = (
        np.zeros((0, b), dtype=np.int64)
        if target_relations is None
        else np.atleast_2d(ring.reduce(target_relations))
    )
    onto = howell_array(ring, np.concatenate([P, relmat], axis=0))
    if onto.span_log_size() != ring.e * b:
        raise ValueError("not a surjection")
    nun = b * a
    Ia = np.eye(a, dtype=np.int64)
    Ib = np.eye(b, dtype=np.int64)
    eq_blocks = []
    rhs_blocks = []
    # S @ P + Y @ relmat = I_b   (Y are auxiliary unknowns when relations exist)
    eq_blocks.append(np.kron(Ib, P))
    rhs_blocks.append(np.eye(b, dtype=np.int64).reshape(-1))
    for L, R in constraints:
        eq_blocks.append((np.kron(L.T, Ia) - np.kron(Ib, R)) % N)
        rhs_blocks.append(np.zeros(b * a, dtype=np.int64))
    r = relmat.shape[0]
    if r:
        eq_blocks.append(np.kron(relmat.T, Ia) % N)  # relmat @ S = 0
        rhs_blocks.append(np.zeros(r * a, dtype=np.int64))
    E = np.concatenate(eq_blocks, axis=1) % N
    rhs = np.concatenate(rhs_blocks)
    if r:
        # widen with the Y unknowns, touching only the first equation block
        Ey = np.zeros((r * b, E.shape[1]), dtype=np.int64)
        Ey[:, : b * b] = np.kron(Ib, relmat)
        E = np.concatenate([E, Ey], axis=0)
    x = RowSolver(ring, E).solve(rhs)
    if x is None:
        return None
    return x[:nun].reshape(b, a) % N
