"""Exact dense linear algebra over a prime field F_p.

Conventions used by the whole package:

* a "matrix" is a 2-d ``numpy.int64`` array with entries in ``0..p-1``,
  row-major, and a "vector" is a 1-d array; maps act on column vectors
  from the left,
* every operation is exact and deterministic; "canonical" always means
  the unique object produced by the reduced row echelon form (RREF),
* the modulus satisfies ``2 <= p < 2**31`` so that single products fit in
  64-bit integers; every matrix product, including a contraction that is
  one, runs through one exact kernel: float64 BLAS while the sums stay
  below 2**53, and past that float64 BLAS on 16-bit halves of the operands,
* ``PrimeField.rref`` has two loops: over F_2 rows are packed 64 entries to
  a word and eliminated by XOR, and for p > 2 column panels of int64 entries
  are reduced with one matrix product per panel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# a float64 matmul is exact while every accumulated sum stays below 2**53
_FLOAT_SAFE = 2**53
_INT_SAFE = 2**62
# inner indices per float64 product of 16-bit halves (see ``_product``): sums
# stay below 2**53 up to 2**21 of them; 2**14 keeps the halves of a long inner
# dimension small while each product stays long enough for BLAS
_HALVES_CHUNK = 2**14
# a contraction that is one matrix product runs as one when it has at least
# this many multiply-adds; below that, one einsum call costs less than the
# conversions around a BLAS call (half as much at 1024 multiply-adds, while
# the product is faster past 10**4)
_GEMM_MIN = 2**13
# largest slice, in entries, of an operand or product that a contraction
# routed as a matrix product converts to float64 at once
_SLICE = 2**20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@functools.lru_cache(maxsize=None)
def _summed_axes(subscripts: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each index letter that einsum ``subscripts`` sums over (present in
    an input, absent from the output), its (operand, axis) positions."""
    inputs, arrow, output = subscripts.replace(" ", "").partition("->")
    if not arrow or "." in subscripts:
        raise ValidationError(f"contract needs explicit subscripts, got {subscripts!r}")
    positions: dict[str, list[tuple[int, int]]] = {}
    for k, term in enumerate(inputs.split(",")):
        for axis, letter in enumerate(term):
            if letter not in output:
                positions.setdefault(letter, []).append((k, axis))
    return tuple(tuple(where) for where in positions.values())


class _Gemm(NamedTuple):
    """A two-operand contraction as out = A[X, K] @ B[K, Y] (see
    ``_gemm_plan``)."""

    swap: bool                  # A is the second operand
    perm_a: tuple[int, ...]     # axes of A in X+K order
    perm_b: tuple[int, ...]     # axes of B in K+Y order
    nk: int                     # len(K)
    axes: tuple[int, ...]       # output axis of each letter of X+Y
    order: tuple[int, ...]      # position in X+Y of each output letter


@functools.lru_cache(maxsize=None)
def _gemm_plan(subscripts: str) -> _Gemm | None:
    """How a two-operand contraction runs as one matrix product, or None.

    It is one product when no letter repeats within a term, no letter is
    kept in the output by both operands, and every summed letter is in both.
    An outer product (no summed letter) is left to einsum, which writes it
    faster.
    Then out = A[X, K] @ B[K, Y]: A is the operand holding the first output
    letter, X and Y the letters that A and B keep, in output order, and K
    the summed letters."""
    inputs, _, out = subscripts.replace(" ", "").partition("->")
    terms = inputs.split(",")
    if len(terms) != 2 or any(len(set(t)) < len(t) for t in (*terms, out)):
        return None
    first, second, kept = set(terms[0]), set(terms[1]), set(out)
    shared = first & second
    if not shared or shared & kept or (first ^ second) - kept or kept - (first | second):
        return None
    swap = bool(out) and out[0] in second
    a, b = terms[::-1] if swap else terms
    x = [c for c in out if c in a]
    y = [c for c in out if c in b]
    k = [c for c in a if c not in out]
    return _Gemm(swap=swap,
                 perm_a=tuple(a.index(c) for c in x + k),
                 perm_b=tuple(b.index(c) for c in k + y),
                 nk=len(k),
                 axes=tuple(out.index(c) for c in x + y),
                 order=tuple((x + y).index(c) for c in out))


def _gemm_pays(plan: _Gemm, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether to run a contraction that is one matrix product as one: at
    least ``_GEMM_MIN`` multiply-adds, and no summed axis of length 1
    broadcast against a longer one (einsum's rule, which a product lacks)."""
    if plan.swap:
        a, b = b, a
    nx = len(plan.perm_a) - plan.nk
    if any(a.shape[i] != b.shape[j] for i, j in zip(plan.perm_a[nx:], plan.perm_b)):
        return False
    return a.size * math.prod(b.shape[i] for i in plan.perm_b[plan.nk:]) >= _GEMM_MIN


class PrimeField:
    """Arithmetic mod a prime p, with canonical representatives 0..p-1."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, (int, np.integer)) or not (2 <= p < 2**31):
            raise ValidationError(f"modulus must satisfy 2 <= p < 2**31, got {p!r}")
        if not _is_prime(int(p)):
            raise ValidationError(f"modulus {p} is not prime")
        self.p = int(p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- element / array construction -------------------------------------

    def arr(self, data) -> np.ndarray:
        """Copy ``data`` into an int64 array reduced mod p in place."""
        out = np.array(data, dtype=np.int64)
        return np.remainder(out, self.p, out=out)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    # -- products ----------------------------------------------------------

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b mod p of two matrices, the one product kernel: float64
        BLAS while every sum stays below 2**53.  Past that the operands are
        split into 16-bit halves, a = a_hi * 2**16 + a_lo with a_hi < 2**15,
        and a @ b = (a_hi b_hi * 2**16 + a_hi b_lo + a_lo b_hi) * 2**16 +
        a_lo b_lo: three float64 products, each summing at most 2k terms
        below 2**31 or k terms below 2**32 for k = ``_HALVES_CHUNK`` inner
        indices at a time, combined mod p in int64."""
        p = self.p
        if a.shape[1] * (p - 1) ** 2 < _FLOAT_SAFE:
            out = _float_product(a, b)
            out %= p
            return out
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for lo in range(0, a.shape[1], _HALVES_CHUNK):
            ak, bk = a[:, lo:lo + _HALVES_CHUNK], b[lo:lo + _HALVES_CHUNK]
            k = ak.shape[1]
            # [a_hi | a_lo] and [b_lo ; b_hi]
            ha = np.concatenate([ak >> 16, ak & 0xFFFF], axis=1, dtype=np.float64)
            hb = np.concatenate([bk & 0xFFFF, bk >> 16], dtype=np.float64)
            part = _float_product(ha[:, :k], hb[k:]) % p
            part = (part * 2**16 + _float_product(ha, hb)) % p
            out += (part * 2**16 + _float_product(ha[:, k:], hb[:k])) % p
            out %= p
            del ha, hb      # before the next chunk's halves are made
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact a @ b mod p, for a matrix a and a matrix or vector b."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if b.ndim == 2:
            return self._product(a, b)
        return self._product(a, b[:, None])[:, 0]

    def _contract_product(self, plan: _Gemm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A two-operand contraction run as the matrix product of ``plan``.
        The operand A is converted and multiplied a slice of its first axis
        at a time, each slice written into the output, so a large A is never
        copied whole."""
        if plan.swap:
            a, b = b, a
        a, b = a.transpose(plan.perm_a), b.transpose(plan.perm_b)
        nx, ks, ys = a.ndim - plan.nk, b.shape[:plan.nk], b.shape[plan.nk:]
        inner = math.prod(ks)
        floats = inner * (self.p - 1) ** 2 < _FLOAT_SAFE      # as _product decides
        if floats:
            b = np.ascontiguousarray(b, dtype=np.float64)
        b = b.reshape(inner, math.prod(ys))
        xy = a.shape[:nx] + ys
        out = np.empty([xy[i] for i in plan.order], dtype=np.int64)
        view = out.transpose(plan.axes)
        if not nx:
            a, view = a[None], view[None]
        width = math.prod(a.shape[1:])
        step = max(1, _SLICE // max(1, width, math.prod(view.shape[1:])))
        for lo in range(0, a.shape[0], step):
            part, into = a[lo:lo + step], view[lo:lo + step]
            if floats:
                part = np.ascontiguousarray(part, dtype=np.float64)
            rows = math.prod(into.shape[:max(nx, 1)])
            into[...] = self._product(part.reshape(rows, inner), b).reshape(into.shape)
        return out

    def contract(self, subscripts: str, *ops: np.ndarray) -> np.ndarray:
        """np.einsum reduced mod p, exact for every operand size.

        ``subscripts`` must name the output (``->``) and use no ellipsis.
        A two-operand contraction that is one matrix product (see
        ``_gemm_plan``) of at least ``_GEMM_MIN`` multiply-adds runs through
        the exact product kernel.  Otherwise each summed term is a product of
        len(ops) entries below p, so the int64 einsum is exact while
        (p-1)**len(ops) times the number of terms per output entry stays
        below 2**62.  Past that bound the
        longest summed index is split in halves that are reduced mod p
        separately, and a single product that overflows int64 is computed
        with Python integers."""
        ops = tuple(np.asarray(o, dtype=np.int64) for o in ops)
        summed = _summed_axes(subscripts)
        if len(ops) == 2 and ops[0].size * ops[1].size >= _GEMM_MIN:
            plan = _gemm_plan(subscripts)
            if plan is not None and _gemm_pays(plan, *ops):
                return self._contract_product(plan, *ops)
        sizes = [max(ops[k].shape[axis] for k, axis in where) for where in summed]
        top = (self.p - 1) ** len(ops)
        if top * math.prod(sizes) < _INT_SAFE:
            return np.einsum(subscripts, *ops) % self.p
        if top >= _INT_SAFE:
            out = np.einsum(subscripts, *(o.astype(object) for o in ops)) % self.p
            return np.asarray(out, dtype=object).astype(np.int64)[()]
        longest = max(range(len(sizes)), key=sizes.__getitem__)
        half = sizes[longest] // 2
        parts = []
        for part in (slice(None, half), slice(half, None)):
            cut = list(ops)
            for k, axis in summed[longest]:
                if cut[k].shape[axis] > 1:      # a length-1 axis broadcasts
                    cut[k] = cut[k][(slice(None),) * axis + (part,)]
            parts.append(self.contract(subscripts, *cut))
        return (parts[0] + parts[1]) % self.p

    def kronecker(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Kronecker product in row-major lexicographic basis order."""
        return np.kron(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)) % self.p

    # -- elimination ---------------------------------------------------------

    def rref(self, mat: np.ndarray, block_size: int = 256):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where R is the unique RREF of ``mat`` (int64,
        its zero rows last) and ``pivots`` is the ascending list of pivot
        columns.  There are two loops, because an F_2 entry is one bit: over
        F_2 the rows are packed 64 entries to a word and eliminated by XOR
        (``_rref_packed``), in a sixty-fourth of the memory and a fraction of
        the time of int64 rows, and ``block_size`` is unused.  For p > 2 an
        entry needs a wider word and a row operation a multiply, so the
        loop runs on int64 column panels of ``block_size`` columns
        (``_rref_panels``), whose trailing update is one BLAS product.
        """
        if self.p == 2:
            return self._rref_packed(mat)
        return self._rref_panels(mat, block_size)

    def _rref_packed(self, mat: np.ndarray):
        """``rref`` over F_2 on rows packed 64 entries to a ``uint64`` word
        (bit c % 64 of word c // 64 is column c).  For each column the first
        non-pivot row that has the bit is swapped up to the next pivot row
        and XORed into every other row that has the bit, from the pivot's
        word onward: the words before it are zero in the pivot row."""
        m = np.asarray(mat, dtype=np.int64)
        if m.ndim != 2:
            raise ValidationError("rref expects a 2-d array")
        rows, cols = m.shape
        bits = np.packbits(m & 1, axis=1, bitorder="little")
        packed = np.zeros((rows, 8 * -(-cols // 64)), dtype=np.uint8)
        packed[:, :bits.shape[1]] = bits
        P = packed.view("<u8")
        pivots: list[int] = []
        pr = 0
        for c in range(cols):
            if pr == rows:
                break
            w = c >> 6
            has = (P[:, w] & np.uint64(1 << (c & 63))) != 0
            r = pr + int(has[pr:].argmax())
            if not has[r]:
                continue
            if r != pr:     # row pr lacks the bit, so row r ends without it
                P[[pr, r]] = P[[r, pr]]
                has[r] = False
            has[pr] = False
            others = np.flatnonzero(has)
            if others.size:
                P[others, w:] ^= P[pr, w:]
            pivots.append(c)
            pr += 1
        bits = np.unpackbits(packed, axis=1, count=cols, bitorder="little")
        return bits.astype(np.int64), pivots

    def _rref_panels(self, mat: np.ndarray, block_size: int = 256):
        """``rref`` on int64 entries, blocked by column panels.  Within a
        panel rows are reduced directly, and every row operation also acts on
        multiplier columns beside the panel: when a row becomes the panel's
        j-th pivot its multiplier j is set to 1, so each row's multipliers
        record the combination of the pivot rows, as they were at the panel's
        start, that it gained.  The trailing columns then take one exact
        matrix product per panel: a pivot row's new trailing part is its
        multipliers times the pivot rows' start trailing parts, and any other
        row's is its own start plus that product.  Over F_2 it is the packed
        loop's oracle in the tests."""
        p = self.p
        R = self.arr(mat)
        if R.ndim != 2:
            raise ValidationError("rref expects a 2-d array")
        rows, cols = R.shape
        pivots: list[int] = []
        pr = 0
        # the last panel takes a remainder narrower than block_size, so no
        # input narrower than two panels gets multiplier columns
        for c0 in range(0, max(cols - block_size, 0) + 1, block_size):
            if pr >= rows:
                break
            c1 = cols if c0 + 2 * block_size > cols else c0 + block_size
            w = c1 - c0
            # the panel, then (before the last panel) its multiplier columns
            work = np.zeros((rows, 2 * w if c1 < cols else w), dtype=np.int64)
            work[:, :w] = R[:, c0:c1]
            is_piv = np.zeros(rows, dtype=bool)
            piv_rows: list[int] = []
            for lc in range(w):
                cand = np.flatnonzero((work[pr:, lc] != 0) & ~is_piv[pr:])
                if not cand.size:
                    continue
                r = pr + int(cand[0])
                if c1 < cols:
                    work[r, w + len(piv_rows)] = 1
                work[r] = (work[r] * self.inv(work[r, lc])) % p
                mask = work[:, lc] != 0
                mask[r] = False
                if mask.any():
                    work[mask] = (work[mask] - np.outer(work[mask, lc], work[r])) % p
                is_piv[r] = True
                piv_rows.append(r)
                pivots.append(c0 + lc)
            if not piv_rows:
                continue
            if c1 < cols:
                gained = self.matmul(work[:, w:w + len(piv_rows)], R[piv_rows, c1:])
                R[piv_rows, c1:] = 0
                trail = R[:, c1:]       # a view, so no trailing-size temporary
                trail += gained
                trail %= p
                del gained      # before the row permutation below copies R
            R[:, c0:c1] = work[:, :w]
            rest = np.flatnonzero(~is_piv)
            R = R[np.concatenate([rest[:pr], piv_rows, rest[pr:]])]
            pr += len(piv_rows)
        return R, pivots

    def rank(self, mat: np.ndarray) -> int:
        return len(self.rref(mat)[1])

    def solve(self, mat: np.ndarray, rhs: np.ndarray):
        """Canonical solution of mat @ x = rhs (free variables 0), or None if
        any column is inconsistent.  ``rhs`` is a vector or a matrix of
        right-hand-side columns, and x has the same form."""
        m = self.arr(mat)
        b = self.arr(rhs)
        vec = b.ndim == 1
        if vec:
            b = b[:, None]
        if m.ndim != 2 or b.ndim != 2 or m.shape[0] != b.shape[0]:
            raise ValidationError(
                f"solve: incompatible shapes {m.shape} and {np.shape(rhs)}"
            )
        cols = m.shape[1]
        R, piv = self.rref(np.concatenate([m, b], axis=1))
        if piv and piv[-1] >= cols:
            return None
        x = self.zeros((cols, b.shape[1]))
        x[piv] = R[:len(piv), cols:]
        return x[:, 0] if vec else x

    def inverse(self, mat: np.ndarray):
        """Inverse of a square matrix, or None if singular (a singular matrix
        leaves a pivot in the identity block of [mat | I])."""
        m = self.arr(mat)
        n = m.shape[0]
        if m.shape[1] != n:
            raise ValidationError("inverse expects a square matrix")
        return self.solve(m, self.eye(n))

    def kernel(self, mat: np.ndarray) -> "Subspace":
        """RREF basis of the right kernel {v : mat @ v = 0}."""
        R, pivots = self.rref(mat)
        return self.kernel_from_rref(np.delete(R[:len(pivots)], pivots, axis=1), pivots, R.shape[1])

    def kernel_from_rref(self, rest: np.ndarray, pivots, cols: int) -> "Subspace":
        """RREF basis of the right kernel of a matrix with ``cols`` columns,
        read off its RREF: row i of ``rest`` is the row with pivot
        ``pivots[i]`` (in any order) on the non-pivot columns."""
        free = self._free_columns(cols, pivots)
        basis = self.zeros((len(free), cols))
        basis[np.arange(len(free)), free] = 1
        basis[:, list(pivots)] = (-rest).T % self.p
        return subspace_from_rows(self, basis, cols)

    def quotient(self, sub: "Subspace") -> "QuotientPresentation":
        """Quotient of the ambient space by ``sub``, with the complement given
        by the non-pivot standard coordinates (deterministic)."""
        n = sub.ambient_dim
        piv = list(sub.pivots)
        free = self._free_columns(n, piv)
        section = self.zeros((n, len(free)))
        section[free, np.arange(len(free))] = 1
        projection = section.T.copy()
        projection[:, piv] = (-sub.basis[:, free]).T % self.p
        return QuotientPresentation(
            field=self, ambient_dim=n, sub=sub,
            projection=projection, section=section,
        )

    @staticmethod
    def _free_columns(cols: int, pivots) -> np.ndarray:
        free = np.ones(cols, dtype=bool)
        free[list(pivots)] = False
        return np.flatnonzero(free)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace given by its unique RREF basis (rows)."""

    field: PrimeField
    ambient_dim: int
    basis: np.ndarray
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce_rows(self, mat: np.ndarray) -> np.ndarray:
        """Remainder of every row after subtracting its component in the
        subspace."""
        m = self.field.arr(mat)
        if self.dim == 0 or m.shape[0] == 0:
            return m
        coeff = m[:, list(self.pivots)]
        return (m - self.field.matmul(coeff, self.basis)) % self.field.p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of F_{self.field.p}^{self.ambient_dim})"


def _float_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through float64 BLAS, as int64, exact while every sum stays below
    2**53.  The product is written into the int64 output a slice of rows of
    a at a time (at most ``_SLICE`` outputs), so the two are never held whole
    at once."""
    fb = b.astype(np.float64, copy=False)
    if a.shape[0] * b.shape[1] <= _SLICE:
        return (a.astype(np.float64, copy=False) @ fb).astype(np.int64)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, _SLICE // b.shape[1])
    for lo in range(0, a.shape[0], step):
        out[lo:lo + step] = a[lo:lo + step].astype(np.float64, copy=False) @ fb
    return out


def subspace_from_rows(field: PrimeField, rows, ambient_dim: int | None = None) -> Subspace:
    """Span of the given row vectors, as a canonical Subspace."""
    m = field.arr(rows)
    if m.ndim == 1:
        if m.size == 0 and ambient_dim is not None:
            m = m.reshape(0, ambient_dim)
        else:
            m = m[None, :]
    if m.ndim != 2:
        raise ValidationError("subspace_from_rows expects rows of vectors")
    if ambient_dim is not None and m.shape[1] != ambient_dim:
        raise ValidationError("row length does not match ambient_dim")
    R, piv = field.rref(m)
    return Subspace(field=field, ambient_dim=int(m.shape[1]),
                    basis=R[: len(piv)].copy(), pivots=tuple(piv))


def read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that a cache hands out as read-only, so that an in-place
    write by one caller raises instead of changing what later callers get."""
    for arr in arrays:
        arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class QuotientPresentation:
    """Presentation of ambient/sub with a chosen complement.

    projection @ section = identity on the quotient and projection
    annihilates sub; section lifts quotient coordinates into the ambient
    space along the non-pivot standard coordinates.
    """

    field: PrimeField
    ambient_dim: int
    sub: Subspace
    projection: np.ndarray
    section: np.ndarray

    def __post_init__(self):
        f = self.field
        q = self.quotient_dim
        if not np.array_equal(f.matmul(self.projection, self.section), f.eye(q)):
            raise ValidationError("projection @ section is not the identity")
        if self.sub.dim and f.matmul(self.projection, self.sub.basis.T).any():
            raise ValidationError("projection does not annihilate the subspace")

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.sub.dim

    def to_quotient(self, vec: np.ndarray) -> np.ndarray:
        return self.field.matmul(self.projection, self.field.arr(vec))
