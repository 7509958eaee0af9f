"""Hochschild cochain complexes, cohomology with chosen representatives, and
transfer maps between the Hochschild cohomology of symmetric algebras.

The transfer attached to an A-B bimodule M (projective on both sides, with
symmetrizing forms s_A, s_B) is realized by

* a dual basis (m_j, phi_j) for the right-B structure, read off the
  canonical splitting of the free cover built on the module basis,
* the Casimir unit eta(1) = sum_j m_j ox (s_B . phi_j) in M ox_B M*,
* the counit eps: M ox_B M* -> A obtained by inverting psi -> s_A . psi
  between left-module maps M -> A and the linear dual,
* a chain lift of eta through Bar(A) and X_n = M ox B^(ox n) ox M*.

eta(1) and eps are held on M ox_k M*, beside the balancing relations of
M ox_B M* (``bimod.balancing_relations``): the quotient module is never
built, and every check on them reduces modulo the relations.

The lift is built degree by degree by the contracting homotopy
s(m ox w) = sum_j m_j ox phi_j(m) ox w of the dual basis, so no linear
system is solved on the relative complexes.  Almost every coordinate of a
lift is zero (over every carrier of S3/F_2 at degrees up to 3, 5,556 of
2,686,560), so lift(n) is held as its nonzero entries, built from those of
lift(n-1) by ``_contract``.  Every step is checked: the Casimir unit is
central, each right-hand side is a cycle, and the differential of the
solution equals it entry for entry.  A transfer gathers the
representatives, the right action and the counit at the lift's entries.

A cochain f: A^(ox n) -> A is stored as a (d, d^n) matrix and vectorized
row-major.  The differential is
(delta f)(a_1,...,a_{n+1}) = a_1 f(a_2,...) + sum (-1)^i f(...,a_i a_{i+1},...)
+ (-1)^{n+1} f(...,a_n) a_{n+1}.

The matrix of delta(n) is d^(n+2) x d^(n+1) but has at most n+2 nonzeros
per row, so a ``Differential`` holds its nonzero entries, built like the
lift by ``_contract``, split into the connected components of their
pattern.  On a homogeneous basis of a graded algebra each component lies
inside one twist class, the conjugacy class of deg(out) (deg a_1...a_n)^-1.
The coboundaries B = im delta(n-1) are held as one RREF basis per block of
delta(n-1), on its rows; F is the set of coordinates that none has as a
pivot.  B lies in Z = ker delta(n) and Z = B + (cocycles on F), a direct
sum, so HH^n is represented by the kernel of delta(n) on the columns F.
Both are row spaces of blocks, the image's of transposed blocks, and one
loop per field eliminates them all: over F_2 on RREF rows packed 64 entries
to a word, reduced by XORs, for p > 2 on int64 batches reduced by products.
The blocks are disjoint, so representatives and class coordinates are those
of the dense elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bimod, galg
from .errors import BudgetError, ValidationError
from .exactfield import PrimeField, Subspace, packed_rref, read_only

DEFAULT_MEMORY_MB = 1024
# arrays of its input's size that ``PrimeField.rref`` holds at once, at most
# (the int64 loop for p > 2; the packed F_2 loop holds under three)
RREF_COPIES = 5
# packed batches of a block that the F_2 row-space loop holds at once, at
# most: the held row space, a batch, its nonzero rows and one temporary of an XOR
PACKED_COPIES = 4
# bytes per entry that the row-space loop holds on a block, at most: the
# entries' positions in delta, block-local rows, columns and values, over
# F_2 their bits, and five temporaries of their lookup or of a batch's entries
ENTRY_BYTES = 10 * 8
# products and outputs that a chunk of ``Differential.images`` forms, at most
_CHUNK = 2**15


def _check_budget(byte_count: int, memory_mb: int, what: str) -> None:
    if byte_count > memory_mb * 1024 * 1024:
        raise BudgetError(
            f"{what} needs about {byte_count // (1024 * 1024)} MiB, "
            f"budget is {memory_mb} MiB"
        )


# -- sparse contraction ------------------------------------------------------


# bytes that ``_contract`` holds per pair while it forms a step's pairs: the
# entry and table column of the pair, its value, the row and column that
# place it, and three temporaries of the index arithmetic
PAIR_BYTES = 8 * 8
# bytes that ``_contract`` holds per pair while it sums them: the row, column
# and value of each, the keys, the sort order, the sorted keys and values,
# and the run boundaries
TERM_BYTES = 8 * 8


@dataclass(frozen=True, eq=False)
class Entries:
    """A matrix of ``shape`` held as its nonzero entries: ``rows``, ``cols``
    and ``vals`` (in 1..p-1), sorted by row * shape[1] + col."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.vals.nbytes

    def equals(self, other: "Entries") -> bool:
        return self.shape == other.shape and all(
            np.array_equal(x, y) for x, y in zip((self.rows, self.cols, self.vals),
                                                 (other.rows, other.cols, other.vals)))


def _contract(p: int, shape: tuple[int, int], vals: np.ndarray, steps, held: int,
              memory_mb: int, what: str) -> Entries:
    """A sum of contractions of entries (values ``vals``) with small dense
    tables, as the entries of a matrix of ``shape``.  Each step of ``steps``
    is (key, table, place): entry e meets every column o with table[key[e],
    o] != 0, and the pair has value vals[e] * table[key[e], o] mod p at the
    (rows, cols) that place(e, o) gives.  The pairs of all steps are summed
    mod p with one sort of the keys row * shape[1] + col and one
    ``np.add.reduceat`` over each run of equal keys.

    Exact for every p < 2^31: each product is below p^2 < 2^62 and is
    reduced before any sum, and a run sums at most as many values below p
    as there are pairs, far fewer than 2^32, so every sum stays below 2^63.
    The budget is checked before each step forms its pairs (``held`` bytes,
    the pairs so far, the table with its nonzeros, ``PAIR_BYTES`` per new
    pair and per entry) and before the sum (``TERM_BYTES`` per pair)."""
    if shape[0] * shape[1] >= 2**63:
        raise BudgetError(f"{what} has {shape[0]} x {shape[1]} positions, past int64 keys")
    terms = []
    for key, table, place in steps:
        k, o = np.nonzero(table)                # sorted by k
        w = table[k, o]
        ptr = np.searchsorted(k, np.arange(len(table) + 1))
        count = ptr[key + 1] - ptr[key]
        total = int(count.sum())
        _check_budget(held + sum(x.nbytes for t in terms for x in t) + 4 * table.nbytes
                      + PAIR_BYTES * (total + len(key)), memory_mb, what)
        src = np.repeat(np.arange(len(key)), count)
        at = np.repeat(ptr[key] - np.cumsum(count) + count, count)
        at += np.arange(total)
        val = vals[src] * w[at]
        val %= p
        terms.append((*place(src, o[at]), val))
        del src, at, val
    _check_budget(held + TERM_BYTES * sum(len(t[2]) for t in terms), memory_mb, what)
    key = np.concatenate([rows * shape[1] + cols for rows, cols, _ in terms])
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = np.concatenate([t[2] for t in terms])[order]
    del order, terms
    start = np.flatnonzero(np.diff(key, prepend=-1))
    total = np.add.reduceat(vals, start)
    total %= p
    keep = total != 0
    rows, cols = np.divmod(key[start[keep]], shape[1])
    return Entries(shape, rows, cols, total[keep])


def _splice(idx: np.ndarray, lo: int, size: int, digit: np.ndarray, width: int) -> np.ndarray:
    """idx with its mixed-radix digit idx // lo % size, of radix ``size``,
    replaced by ``digit`` of radix ``width``."""
    return (idx // (lo * size) * width + digit) * lo + idx % lo


# -- cochain complex ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Differential:
    """The matrix of delta(n): C^n -> C^(n+1), stored sparse.

    ``rows``, ``cols`` and ``vals`` hold the nonzero entries, ordered by
    block, then row, then column.  The blocks are the connected components of
    the nonzero pattern (two columns meet when they share a row), so after
    permuting rows and columns the matrix is block-diagonal: block k owns the
    entries ``offsets[k]:offsets[k+1]``, the sorted rows ``block_rows[k]`` and
    the sorted columns ``block_cols[k]``.  A column without a nonzero entry
    is a block of its own, with no rows."""

    field: PrimeField
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    offsets: np.ndarray
    block_rows: tuple[np.ndarray, ...]
    block_cols: tuple[np.ndarray, ...]

    @property
    def nbytes(self) -> int:
        arrays = (self.rows, self.cols, self.vals, self.offsets,
                  *self.block_rows, *self.block_cols)
        return sum(x.nbytes for x in arrays)

    def images(self, parts):
        """delta of the cochains in ``parts``, pairs (index, rows) whose rows
        are cochains on the ascending columns ``index``, from the nonzero
        entries of both: yields the images of consecutive chunks of each
        part's rows, in order.  A chunk forms at most ``_CHUNK`` products and
        outputs, or one row; a caller that drops each chunk holds one at a
        time.  delta's columns are sorted once per call, so pass every part
        to one call."""
        p, height = self.field.p, self.shape[0]
        by_col = np.argsort(self.cols, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(self.cols, minlength=self.shape[1]))])
        step = max(1, _CHUNK // max(height, len(self.rows)))
        for index, cochains in parts:
            for lo in range(0, len(cochains), step):
                which, j = np.nonzero(cochains[lo:lo + step])
                col = index[j]
                n = ptr[col + 1] - ptr[col]
                # the entries of delta in each nonzero's column, one run each
                entry = by_col[np.repeat(ptr[col] - np.cumsum(n) + n, n) + np.arange(n.sum())]
                at = np.repeat(which, n) * height + self.rows[entry]
                out = np.zeros((min(step, len(cochains) - lo), height), dtype=np.int64)
                terms = np.repeat(cochains[lo + which, j], n) * self.vals[entry] % p
                np.add.at(out.reshape(-1), at, terms)
                out.reshape(-1)[at] %= p
                del which, j, col, n, entry, at, terms
                yield out
                del out

    def _row_spaces(self, kept, finish, memory_mb: int, what: str) -> list:
        """One part per block with columns, ``finish(lead, rows, c, cols,
        check)`` of the row space of the block on the columns the mask
        ``kept`` marks, or of the transposed block if ``kept`` is None, as
        ``_rows_packed`` (F_2) or ``_rows_batches`` gives it; ``check``
        charges bytes beside those held.  Up front and before each block,
        ``memory_mb`` is charged the differential, the parts so far and the
        loop: entries at ``ENTRY_BYTES``, ``PACKED_COPIES`` packed or
        ``RREF_COPIES`` int64 batches of min(c, nr) rows (the rank bound);
        up front a p > 2 kernel also charges each block's basis, c x c."""
        p = self.field.p
        shapes = [(len(r), len(c)) if kept is None else (np.count_nonzero(kept[c]), len(r))
                  for r, c in zip(self.block_rows, self.block_cols)]
        loop = [ENTRY_BYTES * e + 8 * min(c, nr) * (
            PACKED_COPIES * -(-c // 64) if p == 2 else RREF_COPIES * c)
            for e, (c, nr) in zip(np.diff(self.offsets).tolist(), shapes)]
        held = self.nbytes + (0 if kept is None else kept.nbytes)
        bases = sum(8 * c * c for c, _ in shapes) if p > 2 and kept is not None else 0
        _check_budget(held + max(loop, default=0) + bases, memory_mb, what)
        parts = []
        for k, (c, nr) in enumerate(shapes):
            if not c:
                continue
            _check_budget(held + loop[k], memory_mb, what)
            # the entries part, at rows r and columns q of the matrix eliminated
            part = np.arange(self.offsets[k], self.offsets[k + 1])
            r, q, rows, cols = self.rows, self.cols, self.block_rows[k], self.block_cols[k]
            if kept is None:        # the transpose, its entries by row, then column
                part = part[np.lexsort((r[part], q[part]))]
                r, q, rows, cols = q, r, cols, rows
            else:
                part, cols = part[kept[q[part]]], cols[kept[cols]]
            lr, lc = np.searchsorted(rows, r[part]), np.searchsorted(cols, q[part])
            lead, out = (self._rows_packed if p == 2 else self._rows_batches)(
                lr, lc, self.vals[part], c, nr)
            parts.append(finish(lead, out, c, cols, lambda count: _check_budget(
                held + ENTRY_BYTES * len(lr) + count, memory_mb, what)))
            held += parts[-1][0].nbytes + parts[-1][1].basis.nbytes
        return parts

    def kernel(self, keep: np.ndarray, memory_mb: int = DEFAULT_MEMORY_MB) -> Subspace:
        """RREF basis of the kernel of delta on the ascending columns
        ``keep``, in F_p^len(keep): each block's row space on its kept
        columns (``_row_spaces``), pivots ``lead`` and ``rest`` on the
        others, gives its kernel; the disjoint block kernels in pivot order
        are the RREF basis.  Each unpacking and basis is charged first."""
        f = self.field
        what = f"kernel of the {self.shape[0]} x {self.shape[1]} cochain differential"
        kept = np.zeros(self.shape[1], dtype=bool)
        kept[keep] = True

        def finish(lead, rest, c, cols, check):
            if f.p == 2:
                loose = f._free_columns(c, lead)
                # the packed rows, their unpacked bits, those bits on loose and as int64
                check(rest.nbytes + len(lead) * (c + 9 * len(loose)))
                rest = np.unpackbits(rest[:len(lead)].view(np.uint8), axis=1, count=c,
                                     bitorder="little")[:, loose].astype(np.int64)
            # ``kernel_from_rref``: rest and two temporaries of it, and its
            # basis, which ``subspace_from_rows`` copies, eliminates and copies
            check(3 * rest.nbytes + (3 + RREF_COPIES) * 8 * (c - len(lead)) * c)
            return np.searchsorted(keep, cols), f.kernel_from_rref(rest, lead, c)

        parts = self._row_spaces(kept, finish, memory_mb, what)
        pivots = np.array([index[q] for index, sub in parts for q in sub.pivots], dtype=np.int64)
        sizes = [sub.basis.nbytes for _, sub in parts]
        _check_budget(self.nbytes + sum(sizes) + 2 * max(sizes, default=0)
                      + 8 * len(pivots) * len(keep), memory_mb, what)
        basis = f.zeros((len(pivots), len(keep)))
        at = np.split(np.argsort(np.argsort(pivots)), np.cumsum([sub.dim for _, sub in parts]))
        for (index, sub), rows in zip(parts, at):
            basis[np.ix_(rows, index)] = sub.basis
        return Subspace(field=f, ambient_dim=len(keep), basis=basis,
                        pivots=tuple(sorted(pivots.tolist())))

    def _rows_batches(self, lr, lc, v, c: int, nr: int):
        """(lead, rest) of a block's row space from its entries (rows ``lr``
        of ``nr``, ascending, columns ``lc`` of ``c``, values ``v``): pivot
        columns, and RREF rows on the others, row i with pivot lead[i].  An
        int64 batch of c rows is reduced on ``lead`` with one product,
        ``rref`` runs on that residual, and its pivot rows fold back into
        ``rest`` with one product.  Over F_2 it is the packed loop's oracle."""
        f, p = self.field, self.field.p
        lead, loose, rest = [], np.arange(c), f.zeros((0, c))
        for lo in range(0, nr, c):
            a, b = np.searchsorted(lr, (lo, lo + c))
            batch = f.zeros((min(c, nr - lo), c))
            batch[lr[a:b] - lo, lc[a:b]] = v[a:b]
            residual = batch[:, loose] if lead else batch
            if lead:
                residual -= f.matmul(batch[:, lead], rest)
                residual %= p
            del batch
            if residual.any():
                new_rows, new = f.rref(residual)
                stay = f._free_columns(len(loose), new)
                new_rows = new_rows[:len(new), stay]
                rest = np.concatenate([(rest[:, stay] - f.matmul(rest[:, new], new_rows)) % p,
                                       new_rows])
                lead += loose[new].tolist()
                loose = loose[stay]
                if not len(loose):
                    break
        return lead, rest

    def _rows_packed(self, lr, lc, v, c: int, nr: int):
        """``_rows_batches`` over F_2 on rows packed 64 entries to a
        ``uint64`` word, as (lead, held): RREF rows over all c columns, row i
        with pivot lead[i], in min(c, nr) rows (the rank bound).  A batch is
        packed from the entries of odd value, each entry on a lead column
        XORs in that column's held row, ``packed_rref`` reduces the residual
        in place, and each new pivot row is XORed into the held rows."""
        words = -(-c // 64)
        held = np.zeros((min(c, nr), words), dtype="<u8")
        at = np.full(c, -1)                 # held row of each lead column
        lead: list[int] = []
        bit = (v % 2).astype(np.uint64) << (lc & 63).astype(np.uint64)     # 0 if even
        for lo in range(0, nr, c):
            a, b = np.searchsorted(lr, (lo, lo + c))
            r, col = lr[a:b] - lo, lc[a:b]
            batch = np.zeros((min(c, nr - lo), words), dtype="<u8")
            key = r * words + (col >> 6)     # ascending: entries are by row, then column
            start = np.flatnonzero(np.diff(key, prepend=-1))
            batch.reshape(-1)[key[start]] = np.bitwise_or.reduceat(bit[a:b], start)
            on = (at[col] >= 0) & (bit[a:b] != 0)
            r, row = r[on], at[col[on]]
            layer = np.arange(len(r)) - np.searchsorted(r, r)   # rank within its row
            for j in range(layer.max(initial=-1) + 1):          # at most one XOR per row
                batch[r[layer == j]] ^= held[row[layer == j]]
            del r, col, key, start, on, row, layer
            batch = batch[batch.any(axis=1)]
            new = packed_rref(batch, c)
            for i, q in enumerate(new if lead else ()):
                w = q >> 6          # the new row is zero before its pivot
                has = np.flatnonzero(held[:len(lead), w] & np.uint64(1 << (q & 63)))
                held[has, w:] ^= batch[i, w:]
            held[len(lead):len(lead) + len(new)] = batch[:len(new)]
            at[new] = np.arange(len(lead), len(lead) + len(new))
            lead += new
            del batch
            if len(lead) == c:
                break
        return lead, held

    def image(self, memory_mb: int = DEFAULT_MEMORY_MB) -> list[tuple[np.ndarray, Subspace]]:
        """The column space as one part per block with rows: (block rows,
        RREF basis of the transposed block's row space, ``_row_spaces``),
        over F_2 the packed rows unpacked in pivot order, for p > 2 the
        identity on ``lead`` and ``rest`` on the others.  ``memory_mb`` is
        also checked before each basis is written, from its rank."""
        f = self.field
        what = f"image of the {self.shape[0]} x {self.shape[1]} cochain differential"

        def finish(lead, rows, c, block_rows, check):
            if f.p == 2:
                # the packed rows in pivot order, their unpacked bits, the basis
                check(2 * rows.nbytes + 9 * len(lead) * c)
                basis = np.unpackbits(rows[np.argsort(lead)].view(np.uint8), axis=1, count=c,
                                      bitorder="little").astype(np.int64)
            else:
                check(rows.nbytes + 8 * len(lead) * c)
                at = np.argsort(np.argsort(lead))       # each row's place in pivot order
                basis = f.zeros((len(lead), c))
                basis[at, lead] = 1
                basis[np.ix_(at, f._free_columns(c, lead))] = rows
            return block_rows, Subspace(field=f, ambient_dim=c, basis=basis,
                                        pivots=tuple(sorted(lead)))

        return self._row_spaces(None, finish, memory_mb, what)


def _components(rows: np.ndarray, cols: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """Label each column by the smallest column of its connected component,
    two columns being connected when they share a row: min-label hooking
    with pointer jumping, repeated until nothing changes."""
    label = np.arange(ncols)
    while True:
        row_min = np.full(nrows, ncols)
        np.minimum.at(row_min, rows, label[cols])
        low = row_min[rows]
        new = label.copy()
        np.minimum.at(new, cols, low)
        np.minimum.at(new, label[cols], low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


class CochainComplex:
    """Hochschild cochain spaces C^n = Hom(A^(ox n), A) with differentials."""

    def __init__(self, a: galg.Algebra):
        self.algebra = a
        self._deltas: dict[int, Differential] = {}

    def dim(self, n: int) -> int:
        return self.algebra.dim ** (n + 1)

    def delta(self, n: int, memory_mb: int = DEFAULT_MEMORY_MB) -> Differential:
        """The differential at degree n, built once; ``memory_mb`` bounds the
        call that builds it."""
        if n in self._deltas:
            return self._deltas[n]
        if n < 0:
            raise ValidationError(f"no cochain differential at negative degree {n}")
        a = self.algebra
        f, p, d = a.field, a.field.p, a.dim
        dn = d ** n
        shape = (d * d * dn, d * dn)
        what = f"cochain differential at degree {n}"
        # entry [(k, a_1..a_{n+1}), (m, b_1..b_n)] is the coefficient of
        # f(b_1..b_n)_m in (delta f)(a_1..a_{n+1})_k: each column (m, t) of the
        # identity meets the structure constants of one term at a time
        col = np.arange(shape[1])

        def steps():
            # left term a_1 f(a_2, ..., a_{n+1}): sc[i, m, k] at row (k, i, t)
            yield (col // dn, a.sc.transpose(1, 2, 0).reshape(d, d * d),
                   lambda src, o: (o * dn + src % dn, src))
            # middle terms f(..., a_i a_{i+1}, ...): digit b_i = k splits into (i, j)
            for i in range(1, n + 1):
                lo = d ** (n - i)
                yield (col // lo % d, (-1) ** i * a.sc.transpose(2, 0, 1).reshape(d, d * d) % p,
                       lambda src, o, lo=lo: (_splice(src, lo, d, o, d * d), src))
            # right term f(a_1, ..., a_n) a_{n+1}: sc[m, j, k] at row (k, t, j)
            yield (col // dn, (-1) ** (n + 1) * a.sc.transpose(0, 2, 1).reshape(d, d * d) % p,
                   lambda src, o: ((o // d * dn + src % dn) * d + o % d, src))

        entries = _contract(p, shape, np.ones(shape[1], dtype=np.int64), steps(),
                            2 * col.nbytes, memory_mb, what)
        rows, cols, vals = entries.rows, entries.cols, entries.vals
        # blocks: order the entries by component, keeping row-major order inside
        _, col_block = np.unique(_components(rows, cols, *shape), return_inverse=True)
        block = col_block[cols]
        order = np.argsort(block, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        ends = np.cumsum(np.bincount(block, minlength=col_block.max() + 1))
        offsets = np.concatenate([[0], ends])
        # a block's rows ascend, so its distinct rows are where they step
        block_rows = tuple(r[np.diff(r, prepend=-1) != 0]
                           for r in (rows[lo:hi] for lo, hi in zip(offsets, ends)))
        block_cols = tuple(np.split(np.argsort(col_block, kind="stable"),
                                    np.cumsum(np.bincount(col_block))[:-1]))
        out = Differential(field=f, shape=shape, rows=rows, cols=cols, vals=vals,
                           offsets=offsets, block_rows=block_rows, block_cols=block_cols)
        _check_budget(out.nbytes, memory_mb, what)
        self._deltas[n] = out
        return out


@dataclass(eq=False)
class HHClasses:
    """Chosen representatives for HH^n: a complement of the coboundaries
    inside the cocycles, in RREF-canonical form.

    ``_b`` holds the coboundaries B^n as parts (index, sub), one per block of
    delta(n-1): the RREF basis of B^n on the coordinates ``index``.  A
    cochain is reduced by each part on its own coordinates and read on the
    coordinates ``_free`` that no part has as a pivot."""

    algebra: galg.Algebra
    degree: int
    reps: np.ndarray            # (dim, d^(n+1)) rows are representative cocycles
    dim: int
    _b: list[tuple[np.ndarray, Subspace]]
    _free: np.ndarray
    _w: Subspace

    def coords(self, cochains: np.ndarray) -> np.ndarray:
        """Class coordinates of a cocycle, or of each row of a matrix of
        cocycles, in the representative basis."""
        rows = self.algebra.field.arr(np.atleast_2d(cochains))
        for index, sub in self._b:
            rows[:, index] = sub.reduce_rows(rows[:, index])
        w = rows[:, self._free]
        if self._w.reduce_rows(w).any():
            raise ValidationError("cochain is not a cocycle modulo coboundaries")
        out = w[:, list(self._w.pivots)]
        return out[0] if np.ndim(cochains) == 1 else out


def cohomology(a: galg.Algebra, n: int,
               memory_mb: int = DEFAULT_MEMORY_MB) -> HHClasses:
    """HH^n with RREF-canonical complement representatives: the RREF basis of
    the kernel of delta(n) on the columns F that the coboundaries B leave
    free, since the cocycles are B + (cocycles on F), a direct sum.  Degree 0
    has B = 0 and F every column: the center."""
    cache = a._cache.setdefault("hh", {})
    if n in cache:
        return cache[n]
    f = a.field
    cc = a._cache.setdefault("cochain", CochainComplex(a))
    b = cc.delta(n - 1, memory_mb).image(memory_mb) if n else []
    delta = cc.delta(n, memory_mb)
    free = f._free_columns(cc.dim(n), [index[q] for index, sub in b for q in sub.pivots])
    # the kernel first: a run its budget check refuses pays for no image pass
    w = delta.kernel(free, memory_mb)
    for out in delta.images((index, sub.basis) for index, sub in b):
        if out.any():
            raise ValidationError("coboundaries are not cocycles (bug)")
        del out         # before the next chunk is built
    for out in delta.images([(free, w.basis)]):
        if out.any():
            raise ValidationError("representative is not a cocycle (bug)")
        del out
    reps = f.zeros((w.dim, cc.dim(n)))
    reps[:, free] = w.basis
    out = HHClasses(algebra=a, degree=n, reps=reps, dim=w.dim, _b=b, _free=free, _w=w)
    cache[n] = out
    return out


# -- transfer maps -----------------------------------------------------------


@dataclass(eq=False)
class TransferData:
    """Everything needed to push cocycles along an A-B bimodule, and the
    chain lift and transfer matrix at each degree computed so far."""

    m: bimod.Bimodule
    phi: np.ndarray              # (r, dimB, r): phi[k, :, i] = phi_k(e_i)
    eps_amb: np.ndarray          # (dimA, r*r)
    eta_raw: np.ndarray          # (r*r,) representative of eta(1) in M ox M*
    relations: Subspace          # the balancing relations of M ox_B M* in M ox_k M*
    memory_mb: int = DEFAULT_MEMORY_MB
    _lifts: list = field(default_factory=list, repr=False)
    _matrices: dict = field(default_factory=dict, repr=False)

    # ---- X_n = M ox B^(ox n) ox M* ---------------------------------------

    @property
    def field(self):
        return self.m.field

    def x_dim(self, n: int) -> int:
        return self.m.dim ** 2 * self.m.right.dim ** n

    def _dx(self, n: int, x: Entries, held: int, what: str) -> Entries:
        """The relative-bar differential X_n -> X_{n-1} on the entries of x.
        A column of X_n is (i, b_1..b_n, l) in C order.  The terms are the
        right action of b_1 on m_i, the products b_j b_(j+1) with sign
        (-1)^j, and the right action of b_n on the dual factor with sign
        (-1)^n; each pairs a digit group of the column with a small table."""
        p, r, db = self.field.p, self.m.dim, self.m.right.dim
        racts = self.m.right_action
        tables = [(db ** (n - 1) * r, racts.transpose(2, 0, 1).reshape(r * db, r))]
        tables += [(db ** (n - 1 - j) * r, (-1) ** j * self.m.right.sc.reshape(db * db, db) % p)
                   for j in range(1, n)]
        tables.append((1, (-1) ** n * racts.reshape(db * r, r) % p))
        steps = ((x.cols // lo % len(t), t,
                  lambda src, o, lo=lo, t=t: (x.rows[src],
                                              _splice(x.cols[src], lo, len(t), o, t.shape[1])))
                 for lo, t in tables)
        return _contract(p, (x.shape[0], self.x_dim(n - 1)), x.vals, steps, held,
                         self.memory_mb, what)

    def lift(self, n: int) -> Entries:
        """Generator images of the chain lift at degree n, as the entries of
        a (dimA^n, x_dim(n)) matrix; row order is C-order over generator
        tuples.

        lift(n) is built from the entries of lift(n-1).  The right-hand side
        is the previous lift applied to the bar differential of each
        generator tuple (a_1..a_n); its terms are a_1 acting on M, the
        products a_j a_(j+1) with sign (-1)^j, and a_n acting on M* with
        sign (-1)^n.  The contracting homotopy maps it to the solution,
        which is checked against the chain condition.  Each step checks the
        budget before it allocates: the lifts below n, what the step keeps,
        and its pairs."""
        while len(self._lifts) <= n:
            self._lifts.append(None)
        if self._lifts[n] is not None:
            return self._lifts[n]
        if n == 0:
            cols = np.flatnonzero(self.eta_raw)
            self._lifts[0] = Entries((1, self.x_dim(0)), np.zeros_like(cols), cols,
                                     self.eta_raw[cols])
            return self._lifts[0]
        prev = self.lift(n - 1)
        p, r = self.field.p, self.m.dim
        a, lm = self.m.left, self.m.left_action
        da, gens, width = a.dim, a.dim ** (n - 1), self.x_dim(n - 1)
        lo = width // r
        what = f"chain lift at degree {n}"
        held = sum(x.nbytes for x in self._lifts[:n])

        def steps():
            yield (prev.cols // lo, lm.transpose(2, 0, 1).reshape(r, da * r),
                   lambda src, o: (o // r * gens + prev.rows[src],
                                   _splice(prev.cols[src], lo, r, o % r, r)))
            for j in range(1, n):
                step = da ** (n - 1 - j)
                yield (prev.rows // step % da,
                       (-1) ** j * a.sc.transpose(2, 0, 1).reshape(da, da * da) % p,
                       lambda src, o, step=step: (_splice(prev.rows[src], step, da, o, da * da),
                                                  prev.cols[src]))
            yield (prev.cols % r, (-1) ** n * lm.transpose(1, 2, 0).reshape(r, r * da) % p,
                   lambda src, o: (prev.rows[src] * da + o % da,
                                   _splice(prev.cols[src], 1, r, o // da, r)))

        rhs = _contract(p, (da ** n, width), prev.vals, steps(), held, self.memory_mb, what)
        held += rhs.nbytes
        # solvability: rhs must die one step further down
        if n == 1:
            # the dense rows, and those ``reduce_rows`` holds: their copy, the
            # product and the difference with float64 copies of both factors
            rel = self.relations
            _check_budget(held + 8 * (6 * da * width + 2 * da * rel.dim + rel.basis.size),
                          self.memory_mb, what)
            dense = self.field.zeros((da, width))
            dense[rhs.rows, rhs.cols] = rhs.vals
            if rel.reduce_rows(dense).any():
                raise ValidationError("Casimir unit is not central (bug)")
            del dense
        elif len(self._dx(n - 1, rhs, held, what).vals):
            raise ValidationError("chain lift right-hand side is not a cycle (bug)")
        # the contracting homotopy s(m_i ox w) = sum_j m_j ox phi_j(m_i) ox w
        steps = [(rhs.cols // lo, self.phi.transpose(2, 0, 1).reshape(r, -1),
                  lambda src, o: (rhs.rows[src], o * lo + rhs.cols[src] % lo))]
        x = _contract(p, (da ** n, self.x_dim(n)), rhs.vals, steps, held, self.memory_mb, what)
        if not self._dx(n, x, held + x.nbytes, what).equals(rhs):
            raise ValidationError("chain lift does not satisfy the chain condition")
        self._lifts[n] = x
        return x


def transfer_data(
    m: bimod.Bimodule,
    s_a: np.ndarray,
    s_b: np.ndarray,
    generator_order=None,
    memory_mb: int = DEFAULT_MEMORY_MB,
) -> TransferData:
    """Assemble dual basis, Casimir unit, counit, and lift machinery for the
    transfer along M.  Both-sided projectivity is checked up front, and the
    counit and the Casimir unit by ``_validate_transfer_data``.  The counit
    reads only A, L_M and s_A, so once it has passed its bimodule-map check
    it is kept in L_M's side cache, by s_A, and a hit skips that check."""
    f = m.field
    r = m.dim
    a, b = m.left, m.right
    for side, order in (("left", None), ("right", generator_order)):
        split = bimod.is_projective(m, side, generator_order=order)
        if not split.projective:
            raise ValidationError(f"bimodule is not projective as a {side} module")
    # the dual basis: phi of the j-th generator is the j-th block of the right splitting
    phi = f.zeros((r, b.dim, r))
    phi[split.generated_by] = split.splitting.reshape(r, b.dim, r)
    # Casimir representative in M ox M*
    eta_raw = f.contract("x,kxl->kl", f.arr(s_b), phi).reshape(-1)
    relations = bimod.balancing_relations(m, bimod.dual(m))
    # counit: invert psi -> s_a . psi between Hom_A(M, A) and M*
    cache, key = bimod.side_token(m, "left").cache, ("counit", f.arr(s_a).tobytes())
    eps_amb = cache.get(key)
    if eps_amb is None:
        homs = bimod.module_hom_basis(m, "left")
        if homs.shape[0] != r:
            raise ValidationError(
                f"left-module hom space has dim {homs.shape[0]}, expected {r}; "
                "the left algebra is not acting as a symmetric algebra here"
            )
        v = f.contract("x,txk->tk", f.arr(s_a), homs)
        c = f.inverse(v.T)
        if c is None:
            raise ValidationError("the symmetrizing pairing on Hom(M, A) is degenerate")
        psis = f.contract("tl,txk->lxk", c, homs)
        eps_amb = np.ascontiguousarray(psis.transpose(1, 2, 0)).reshape(a.dim, r * r)
    data = TransferData(m=m, phi=phi, eps_amb=eps_amb, eta_raw=eta_raw,
                        relations=relations, memory_mb=memory_mb)
    _validate_transfer_data(data, counit_checked=key in cache)
    read_only(eps_amb)
    cache[key] = eps_amb
    return data


def _validate_transfer_data(data: TransferData, counit_checked: bool = False) -> None:
    """Check on M ox_k M*, for the generators S of A (``galg.generators``),
    that eps kills the balancing relations; that eps is an A-A bimodule map
    there (``bimod.check_tensor_map``: each psi_l is left A-linear, and
    phi -> psi_phi is right A-linear as s_A is symmetric), which with the
    first check makes it one on M ox_B M*; and that s eta - eta s lies in
    the relations, so eta(1) is central in M ox_B M*.  The a that pass
    either of the last two checks form a subalgebra (the relations are
    stable under both actions), so S suffices.  ``counit_checked`` skips
    the second check."""
    f, m, rel = data.field, data.m, data.relations
    a, r, gens = m.left, m.dim, galg.generators(m.left)
    ls = m.left_action[gens]
    if rel.dim and f.matmul(data.eps_amb, rel.basis.T).any():
        raise ValidationError("counit does not factor through the tensor quotient")
    # the left action of s on M ox_k M* is L_s ox 1, the right one 1 ox L_s^T
    if not counit_checked:
        bimod.check_tensor_map(f, data.eps_amb.reshape(a.dim, r, r),
                               (ls, a.basis_left_mults[gens]),
                               (ls.transpose(0, 2, 1), a.basis_right_mults[gens]), "counit")
    eta = data.eta_raw.reshape(r, r)
    commutators = (f.contract("sik,kl->sil", ls, eta) - f.contract("ik,skl->sil", eta, ls)) % f.p
    if rel.reduce_rows(commutators.reshape(len(gens), r * r)).any():
        raise ValidationError("Casimir unit is not central")


def transfer_cochain(data: TransferData, zeta: np.ndarray, n: int) -> np.ndarray:
    """Image cochain (a_1..a_n) -> eps((1 ox zeta ox 1)(lift(1 ox a ox 1))) of
    a cochain zeta, or of each row of a matrix of cochains.  Each entry of
    the lift, at generator tuple g and column (i, t, l), adds its value
    times the sum over b, k of zeta(t)_b (m_i e_b)_k eps(m_k ox m*_l) to
    row g of every image: the representatives, the right action and the
    counit are gathered at the entry's indices and contracted in two
    batches, and the contributions are summed into the generator rows."""
    f, p = data.field, data.field.p
    r, da, db = data.m.dim, data.m.left.dim, data.m.right.dim
    lift = data.lift(n)
    z = np.reshape(zeta, (-1, db, db ** n))
    i, t, l = np.unravel_index(lift.cols, (r, db ** n, r))
    # the gathered slices, both products, the sums by row and the images
    _check_budget(8 * len(lift.vals) * (len(z) * (db + r + 2 * da) + r * (db + da))
                  + 16 * len(z) * da * lift.shape[0], data.memory_mb, f"transfer at degree {n}")
    u = f.contract("sbe,bke->esk", z[:, :, t], data.m.right_action[:, :, i])
    u *= lift.vals[:, None, None]
    u %= p
    w = f.contract("esk,cke->esc", u, data.eps_amb.reshape(da, r, r)[:, :, l])
    del u
    start = np.flatnonzero(np.diff(lift.rows, prepend=-1))
    out = np.zeros((lift.shape[0],) + w.shape[1:], dtype=np.int64)
    out[lift.rows[start]] = np.add.reduceat(w, start) % p
    out = out.transpose(1, 2, 0).reshape(len(z), -1)
    return out[0] if np.ndim(zeta) == 1 else out


def transfer(data: TransferData, n: int) -> np.ndarray:
    """Matrix of the transfer HH^n(B) -> HH^n(A) on the class coordinates of
    ``cohomology`` at the budget of ``data``: all representatives of HH^n(B)
    pushed along at once, and the class coordinates of every image taken in
    one pass.  Built once per degree and kept on ``data``, read-only."""
    if n not in data._matrices:
        classes_b = cohomology(data.m.right, n, data.memory_mb)
        classes_a = cohomology(data.m.left, n, data.memory_mb)
        if classes_b.dim == 0:
            mat = data.field.zeros((classes_a.dim, 0))
        else:
            images = transfer_cochain(data, classes_b.reps, n)
            mat = np.ascontiguousarray(classes_a.coords(images).T)
        read_only(mat)
        data._matrices[n] = mat
    return data._matrices[n]
