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

The lift is produced degree by degree by the explicit contracting homotopy
s(m ox w) = sum_j m_j ox phi_j(m) ox w that the dual basis provides, so no
linear system is solved on the relative complexes.  The lift at degree n
has dim(A)^n generator images in X_n, of dimension r^2 dim(B)^n, but almost
all of its coordinates are zero (over every carrier of S3/F_2 at degrees up
to 3, 5,556 of 2,686,560), so each lift is held as its nonzero entries and
no dense X_n array is made.  lift(n) is built from the entries of
lift(n-1): each entry is paired with the nonzeros of the small tensor it
contracts with (the left action of A, A's structure constants or the dual
basis; the right action of B or B's structure constants for the
differential of X), and equal positions are summed mod p after one sort.
Every step is checked: the Casimir unit is central, each right-hand side is
a cycle, and the differential of the solution equals the right-hand side
entry for entry.  A transfer gathers the representatives, the right action
and the counit at the lift's entries.

A cochain f: A^(ox n) -> A is stored as a (d, d^n) matrix and vectorized
row-major.  The differential is
(delta f)(a_1,...,a_{n+1}) = a_1 f(a_2,...) + sum (-1)^i f(...,a_i a_{i+1},...)
+ (-1)^{n+1} f(...,a_n) a_{n+1}.

The matrix of delta(n) is d^(n+2) x d^(n+1) but has at most n+2 nonzeros
per row, so it is never built dense: a ``Differential`` holds its nonzero
entries, split into the connected components of its nonzero pattern.  They
are built like the lift, by ``_contract``: the identity entries of C^n meet
the structure constants once per term of the differential.  On a
homogeneous basis of a graded algebra every component lies inside one twist
class, the conjugacy class of deg(out) (deg a_1...a_n)^-1.  The coboundaries
B = im delta(n-1) are eliminated first; F is the set of non-pivot
coordinates of their RREF basis.  B lies in the cocycles Z = ker delta(n),
and a cocycle reduced modulo B is a cocycle supported on F, so Z is the
direct sum of B and the cocycles supported on F, and HH^n is represented by
the kernel of delta(n) on the columns F: Z is never eliminated whole.
Blocks are eliminated one by one and their RREF bases merge into the global
ones, so representatives and class coordinates are those of the dense
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bimod, galg
from .errors import BudgetError, ValidationError
from .exactfield import (_SLICE, PrimeField, QuotientPresentation,
                         Subspace, subspace_from_rows)

DEFAULT_MEMORY_MB = 1024
# arrays of its input's size that ``PrimeField.rref`` holds at once, at most
# (the int64 loop for p > 2; the packed F_2 loop holds under three)
RREF_COPIES = 5


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

    def _block(self, k: int, kept=None):
        """Entries of block k on the columns that the mask ``kept`` marks
        (all by default): block-local row and column indices, values, columns."""
        part = np.arange(self.offsets[k], self.offsets[k + 1])
        cols = self.block_cols[k]
        if kept is not None:
            part, cols = part[kept[self.cols[part]]], cols[kept[cols]]
        return (np.searchsorted(self.block_rows[k], self.rows[part]),
                np.searchsorted(cols, self.cols[part]), self.vals[part], cols)

    def images(self, cochains: np.ndarray):
        """delta of every row of ``cochains``, from the nonzero entries of
        both: yields the images of consecutive chunks of rows, in order.  A
        chunk forms at most ``_SLICE`` products and outputs, or one row."""
        p, height = self.field.p, self.shape[0]
        by_col = np.argsort(self.cols, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(self.cols, minlength=self.shape[1]))])
        step = max(1, _SLICE // max(height, len(self.rows)))
        for lo in range(0, len(cochains), step):
            which, col = np.nonzero(cochains[lo:lo + step])
            n = ptr[col + 1] - ptr[col]
            # the entries of delta in each nonzero's column, one run each
            entry = by_col[np.repeat(ptr[col] - np.cumsum(n) + n, n) + np.arange(n.sum())]
            at = np.repeat(which, n) * height + self.rows[entry]
            out = np.zeros((min(step, len(cochains) - lo), height), dtype=np.int64)
            terms = np.repeat(cochains[lo + which, col], n) * self.vals[entry] % p
            np.add.at(out.reshape(-1), at, terms)
            out.reshape(-1)[at] %= p
            yield out

    def kernel(self, keep: np.ndarray, memory_mb: int = DEFAULT_MEMORY_MB) -> Subspace:
        """RREF basis of the kernel of delta on the ascending columns
        ``keep``, in F_p^len(keep).  A block with c kept columns is fed to
        ``rref`` c rows at a time.  The row space found so far is held as its
        pivot columns ``lead`` and its entries ``rest`` on the others; a batch
        is reduced on those with one product, ``rref`` runs on that residual
        alone, and its pivot rows fold back into ``rest`` with one product.
        Block kernels have disjoint supports, so their union sorted by pivot
        is the RREF basis of the kernel.  ``memory_mb`` bounds the call: the
        differential, a c x c batch in ``RREF_COPIES`` copies and every
        block's basis (at most c x c), then the merge."""
        f, p = self.field, self.field.p
        what = f"kernel of the {self.shape[0]} x {self.shape[1]} cochain differential"
        kept = np.isin(np.arange(self.shape[1]), keep)
        sizes = [8 * np.count_nonzero(kept[c]) ** 2 for c in self.block_cols]
        _check_budget(self.nbytes + RREF_COPIES * max(sizes, default=0) + sum(sizes), memory_mb, what)
        parts = []
        for k, nr in enumerate(map(len, self.block_rows)):
            lr, lc, v, cols = self._block(k, kept)
            c = len(cols)
            if not c:
                continue
            lead, loose, rest = [], np.arange(c), f.zeros((0, c))
            for lo in range(0, nr, c):
                a, b = np.searchsorted(lr, (lo, lo + c))
                batch = f.zeros((min(c, nr - lo), c))
                batch[lr[a:b] - lo, lc[a:b]] = v[a:b]
                residual = batch[:, loose]
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
            parts.append((np.searchsorted(keep, cols), f.kernel_from_rref(rest, lead, c)))
        return self._merge(len(keep), parts, memory_mb, what)

    def image(self, memory_mb: int = DEFAULT_MEMORY_MB) -> Subspace:
        """RREF basis of the column space: the row space of each transposed
        block, merged like the block kernels.  ``memory_mb`` bounds the call
        as for ``kernel``, a block's c x r transpose standing for the batch."""
        f = self.field
        what = f"image of the {self.shape[0]} x {self.shape[1]} cochain differential"
        sizes = [8 * len(r) * len(c) for r, c in zip(self.block_rows, self.block_cols)]
        _check_budget(self.nbytes + RREF_COPIES * max(sizes, default=0) + sum(sizes), memory_mb, what)
        parts = []
        for k, rows in enumerate(self.block_rows):
            if len(rows):
                lr, lc, v, cols = self._block(k)
                t = f.zeros((len(cols), len(rows)))
                t[lc, lr] = v
                parts.append((rows, subspace_from_rows(f, t)))
        return self._merge(self.shape[0], parts, memory_mb, what)

    def _merge(self, dim: int, parts, memory_mb: int, what: str) -> Subspace:
        """One RREF basis of F_p^dim from subspaces (``index``, sub) on
        disjoint coordinate sets, where sub lives on the coordinates
        ``index``.  Each part's rows are written once, at their rows in pivot
        order.  The budget counts the differential, the parts, the merged
        basis and the index arrays of one write (twice the part's size)."""
        pivots = np.array([index[p] for index, sub in parts for p in sub.pivots], dtype=np.int64)
        sizes = [sub.basis.nbytes for _, sub in parts]
        held = self.nbytes + sum(sizes) + 2 * max(sizes, default=0) + 8 * len(pivots) * dim
        _check_budget(held, memory_mb, what)
        order = np.argsort(pivots)
        at = np.empty_like(order)
        at[order] = np.arange(len(order))
        basis = self.field.zeros((len(pivots), dim))
        top = 0
        for index, sub in parts:
            basis[np.ix_(at[top:top + sub.dim], index)] = sub.basis
            top += sub.dim
        return Subspace(field=self.field, ambient_dim=dim, basis=basis,
                        pivots=tuple(int(p) for p in pivots[order]))


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
        block_rows = tuple(np.unique(rows[lo:hi]) for lo, hi in zip(offsets, ends))
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

    Cochains are taken modulo the coboundaries B^n through the non-pivot
    coordinates of B^n's RREF basis: v maps to ``_b.reduce_rows(v)[:, _free]``."""

    algebra: galg.Algebra
    degree: int
    reps: np.ndarray            # (dim, d^(n+1)) rows are representative cocycles
    dim: int
    _b: Subspace
    _free: np.ndarray
    _w: Subspace

    def coords(self, cochains: np.ndarray) -> np.ndarray:
        """Class coordinates of a cocycle, or of each row of a matrix of
        cocycles, in the representative basis."""
        rows = np.atleast_2d(cochains)
        w = self._b.reduce_rows(rows)[:, self._free]
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
    b = cc.delta(n - 1, memory_mb).image(memory_mb) if n else subspace_from_rows(
        f, [], ambient_dim=cc.dim(0))
    delta = cc.delta(n, memory_mb)
    if any(out.any() for out in delta.images(b.basis)):
        raise ValidationError("coboundaries are not cocycles (bug)")
    free = f._free_columns(cc.dim(n), b.pivots)
    w = delta.kernel(free, memory_mb)
    reps = f.zeros((w.dim, cc.dim(n)))
    reps[:, free] = w.basis
    if any(out.any() for out in delta.images(reps)):
        raise ValidationError("representative is not a cocycle (bug)")
    out = HHClasses(algebra=a, degree=n, reps=reps, dim=w.dim, _b=b, _free=free, _w=w)
    cache[n] = out
    return out


# -- transfer maps -----------------------------------------------------------


def _row_sums(p: int, rows: np.ndarray, terms: np.ndarray, nrows: int) -> np.ndarray:
    """The (nrows, ...) array whose row g is the sum mod p of the ``terms``
    at the entries of the ascending ``rows`` equal to g: the scatter-add of a
    product of entries with dense slices."""
    out = np.zeros((nrows,) + terms.shape[1:], dtype=np.int64)
    start = np.flatnonzero(np.diff(rows, prepend=-1))
    out[rows[start]] = np.add.reduceat(terms, start) % p
    return out


@dataclass(eq=False)
class TransferData:
    """Everything needed to push cocycles along an A-B bimodule."""

    m: bimod.Bimodule
    phi: np.ndarray              # (r, dimB, r): phi[k, :, i] = phi_k(e_i)
    eps_amb: np.ndarray          # (dimA, r*r)
    eta_raw: np.ndarray          # (r*r,) representative of eta(1) in M ox M*
    dualpres: QuotientPresentation     # M ox_B M* as a quotient of M ox_k M*
    dual_quotient: bimod.Bimodule
    memory_mb: int = DEFAULT_MEMORY_MB
    _lifts: list = field(default_factory=list, repr=False)

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
            proj = self.dualpres.projection
            _check_budget(held + 8 * (2 * len(rhs.vals) + da) * len(proj), self.memory_mb, what)
            if _row_sums(p, rhs.rows, rhs.vals[:, None] * proj.T[rhs.cols] % p, da).any():
                raise ValidationError("Casimir unit is not central (bug)")
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
    transfer along M.  Both-sided projectivity is checked up front."""
    f = m.field
    r = m.dim
    a, b = m.left, m.right
    left_split = bimod.is_projective(m, "left")
    if not left_split.projective:
        raise ValidationError("bimodule is not projective as a left module")
    right_split = bimod.is_projective(m, "right", generator_order=generator_order)
    if not right_split.projective:
        raise ValidationError("bimodule is not projective as a right module")
    sigma = right_split.splitting
    gens = right_split.generated_by
    phi = f.zeros((r, b.dim, r))
    for j, gen in enumerate(gens):
        phi[int(gen)] = sigma[j * b.dim:(j + 1) * b.dim, :]
    # Casimir representative in M ox M*
    eta_mat = f.contract("x,kxl->kl", f.arr(s_b), phi)
    eta_raw = eta_mat.reshape(-1)
    dual_quotient, dualpres = bimod.tensor_over(m, bimod.dual(m))
    # counit: invert psi -> s_a . psi between Hom_A(M, A) and M*
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
    if dualpres.sub.dim and f.matmul(eps_amb, dualpres.sub.basis.T).any():
        raise ValidationError("counit does not factor through the tensor quotient")
    data = TransferData(
        m=m, phi=phi,
        eps_amb=eps_amb, eta_raw=eta_raw,
        dualpres=dualpres, dual_quotient=dual_quotient,
        memory_mb=memory_mb,
    )
    _validate_transfer_data(data)
    return data


def _validate_transfer_data(data: TransferData) -> None:
    """Counit and unit are bimodule maps; the Casimir class is central."""
    f = data.field
    a = data.m.left
    reg = bimod.regular(a)
    pres = data.dualpres
    eps_q = f.matmul(data.eps_amb, pres.section)
    bimod.BimoduleMap(data.dual_quotient, reg, eps_q).validate()
    eta_q = pres.to_quotient(data.eta_raw)
    cols = f.contract("aij,j->ai", data.dual_quotient.left_action, eta_q).T
    bimod.BimoduleMap(reg, data.dual_quotient, cols).validate()
    # eps(eta(1)) is the relative-trace image of the unit; both maps being
    # bimodule maps is what the verification above pins down.


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
    out = _row_sums(p, lift.rows, w, lift.shape[0]).transpose(1, 2, 0).reshape(len(z), -1)
    return out[0] if np.ndim(zeta) == 1 else out


def transfer(
    data: TransferData,
    n: int,
    classes_b: HHClasses | None = None,
    classes_a: HHClasses | None = None,
    memory_mb: int = DEFAULT_MEMORY_MB,
) -> np.ndarray:
    """Matrix of the transfer HH^n(B) -> HH^n(A) on class coordinates: all
    representatives of HH^n(B) pushed along at once, and the class
    coordinates of every image taken in one pass."""
    if classes_b is None:
        classes_b = cohomology(data.m.right, n, memory_mb)
    if classes_a is None:
        classes_a = cohomology(data.m.left, n, memory_mb)
    if classes_b.dim == 0:
        return data.field.zeros((classes_a.dim, 0))
    images = transfer_cochain(data, classes_b.reps, n)
    return np.ascontiguousarray(classes_a.coords(images).T)
