"""Independent oracles used to pin expected values before freezing them.

These deliberately avoid the cochain/transfer pipeline: the truncated
polynomial algebra dimensions come from its 2-periodic bimodule resolution,
the degree-0 transfer on group algebras comes from direct summation of
conjugates over coset representatives, the bar resolution, from which
the cochain differential is derived, is built from its face maps, the dense
cochain differential and cohomology are the Kronecker-product construction
that the sparse complex replaced, the split of HH^n(kG) over conjugacy
classes is a table of centralizer cohomology, and the transfer matrix is
the loop that pushed one class representative at a time.
"""

from __future__ import annotations

import numpy as np

from gradedhh import bimod, galg, groups, hh
from gradedhh.exactfield import PrimeField, subspace_from_rows


def truncated_poly_hh_dims(p: int, m: int, max_degree: int) -> list[int]:
    """dim HH^n of k[x]/(x^m) over F_p for n = 0..max_degree, computed from
    the periodic resolution ... -> Ae -> Ae -> Ae -> A with the maps
    multiplication by (x ox 1 - 1 ox x) and by sum_{i+j=m-1} x^i ox x^j.

    Applying Hom over the enveloping algebra, both induced maps on A are
    u*(a) = x a - a x and v*(a) = (m x^{m-1}) a.
    """
    f = PrimeField(p)
    x_mat = f.zeros((m, m))
    for i in range(m - 1):
        x_mat[i + 1, i] = 1
    u_star = f.zeros((m, m))          # commutative: xa - ax = 0
    power = f.eye(m)
    for _ in range(m - 1):
        power = f.matmul(x_mat, power)
    v_star = (m % p) * power % p
    dims = []
    for n in range(max_degree + 1):
        if n == 0:
            dims.append(f.kernel(u_star).dim)
        elif n % 2 == 1:
            dims.append(f.kernel(v_star).dim - f.rank(u_star))
        else:
            dims.append(f.kernel(u_star).dim - f.rank(v_star))
    return dims


def relative_trace_matrix(
    rg: galg.GradedAlgebra,
    h: groups.Subgroup,
    center_sub: np.ndarray,
    center_full: "object",
) -> np.ndarray:
    """Degree-0 transfer on a group algebra by direct summation: each center
    representative of kH (rows of ``center_sub``, in subalgebra coordinates)
    is sent to sum over left coset representatives of g z g^-1, expressed in
    the coordinate functional ``center_full.coords``."""
    grp = rg.group
    f = rg.field
    sub = galg.component_subalgebra(rg, h)
    reps = groups.cosets(h, "left")
    cols = []
    for row in center_sub:
        amb = f.zeros(rg.dim)
        amb[sub.parent_indices] = row
        total = f.zeros(rg.dim)
        for g in reps:
            conj = f.zeros(rg.dim)
            for idx in np.nonzero(amb)[0]:
                conj[grp.conj(g, int(idx))] = amb[idx]
            total = (total + conj) % f.p
        cols.append(center_full.coords(total))
    if not cols:
        return f.zeros((center_full.dim, 0))
    return np.stack(cols, axis=1)


def bar_differential(a: galg.Algebra, n: int) -> np.ndarray:
    """Bar_n -> Bar_{n-1} of the bar resolution Bar_n = A^(ox n+2): the
    alternating sum of the faces that multiply tensor factors i and i+1."""
    f = a.field
    d = a.dim
    mat = f.zeros((d ** (n + 1), d ** (n + 2)))
    for i in range(n + 1):
        face = f.kronecker(f.eye(d ** i), f.kronecker(a.mult_matrix, f.eye(d ** (n - i))))
        mat = (mat + (-1) ** i * face) % f.p
    return mat


def bar_bimodule(a: galg.Algebra, n: int) -> bimod.Bimodule:
    """Bar_n with A acting on the outer tensor factors, as a Bimodule."""
    f = a.field
    d = a.dim
    inner = d ** (n + 1)
    left = np.stack([f.kronecker(a.basis_left_mults[i], f.eye(inner)) for i in range(d)])
    right = np.stack([f.kronecker(f.eye(inner), a.basis_right_mults[i]) for i in range(d)])
    m = bimod.Bimodule(left=a, right=a, dim=d ** (n + 2),
                       left_action=left, right_action=right, label=f"bar_{n}")
    m.validate()
    return m


def as_dense(delta) -> np.ndarray:
    """The sparse ``hh.Differential`` as a dense array."""
    out = np.zeros(delta.shape, dtype=np.int64)
    out[delta.rows, delta.cols] = delta.vals
    return out


def dense_delta(a: galg.Algebra, n: int) -> np.ndarray:
    """delta(n) built densely from Kronecker products: the left action, the n
    contractions of neighbouring arguments, and the right action."""
    f = a.field
    d = a.dim
    sc = a.sc
    mu = a.mult_matrix
    # left term: a_1 f(a_2, ..., a_{n+1})
    mul_left = np.ascontiguousarray(sc.transpose(2, 0, 1)).reshape(d * d, d)
    mat = f.kronecker(mul_left, f.eye(d ** n))
    # middle terms: f(..., a_i a_{i+1}, ...)
    for i in range(1, n + 1):
        w = f.kronecker(f.eye(d ** (i - 1)), f.kronecker(mu, f.eye(d ** (n - i))))
        mat = (mat + (-1) ** i * f.kronecker(f.eye(d), w.T)) % f.p
    # right term: f(a_1, ..., a_n) a_{n+1}
    r3 = np.ascontiguousarray(sc.transpose(2, 1, 0))   # r3[k, a, m] = sc[m, a, k]
    last = np.einsum("kam,tu->ktamu", r3, np.eye(d ** n, dtype=np.int64))
    last = last.reshape(d ** (n + 2), d ** (n + 1)) % f.p
    return (mat + (-1) ** (n + 1) * last) % f.p


class DenseClasses:
    """HH^n from the dense differentials: cocycles are the kernel of
    delta(n), and cochains are taken modulo the coboundaries through the
    quotient presentation of their span."""

    def __init__(self, a: galg.Algebra, n: int):
        f = a.field
        self.field = f
        self.delta = dense_delta(a, n)
        z = f.kernel(self.delta)
        if n == 0:
            b = subspace_from_rows(f, [], ambient_dim=a.dim)
        else:
            b = subspace_from_rows(f, dense_delta(a, n - 1).T, ambient_dim=a.dim ** (n + 1))
        assert z.contains_space(b)
        self._bq = f.quotient(b)
        images = (f.matmul(z.basis, self._bq.projection.T) if z.dim
                  else f.zeros((0, self._bq.quotient_dim)))
        self._w = subspace_from_rows(f, images, ambient_dim=self._bq.quotient_dim)
        self.dim = self._w.dim
        self.reps = (f.matmul(self._w.basis, self._bq.section.T) if self.dim
                     else f.zeros((0, a.dim ** (n + 1))))

    def coords(self, cochain_vec: np.ndarray) -> np.ndarray:
        w = self._bq.to_quotient(cochain_vec)
        assert not self._w.reduce(w).any(), "not a cocycle modulo coboundaries"
        return w[list(self._w.pivots)] if self.dim else self.field.zeros(0)


# dim H^n(C_G(g), F_p) for n = 0..3, keyed by the smallest element g of each
# conjugacy class: HH^n(kG) is the direct sum of these over the classes
# (the centralizer decomposition), each summand on the cochains whose twist
# out (a_1...a_n)^-1 lies in the class of g.  S3 elements are the one-line
# permutations in lexicographic order (1 = (12), 3 = (123)); D4 has the
# rotations r^k at k and the reflections r^k s at 4 + k, so 2 = r^2, 1 = r,
# 4 = s and 5 = rs.
CENTRALIZER_HH = {
    # C_G(e) = S3, C_G((12)) = C2, C_G((123)) = C3
    ("s3", 2): {0: (1, 1, 1, 1), 1: (1, 1, 1, 1), 3: (1, 0, 0, 0)},
    ("s3", 3): {0: (1, 0, 0, 1), 1: (1, 0, 0, 0), 3: (1, 1, 1, 1)},
    # abelian: every centralizer is C2 x C2
    ("v4", 2): {g: (1, 2, 3, 4) for g in range(4)},
    # C_G(e) = C_G(r^2) = D4, C_G(r) = C4, C_G(s) = C_G(rs) = C2 x C2
    ("d4", 2): {0: (1, 2, 3, 4), 2: (1, 2, 3, 4), 1: (1, 1, 1, 1),
                4: (1, 2, 3, 4), 5: (1, 2, 3, 4)},
}


def group_cohomology_dims(grp: groups.FiniteGroup, p: int, top: int) -> list[int]:
    """dim H^n(G, F_p) for n = 0..top from the inhomogeneous bar complex:
    C^n is the functions G^n -> F_p and (df)(g_1..g_{n+1}) = f(g_2..g_{n+1})
    + sum_i (-1)^i f(.., g_i g_{i+1}, ..) + (-1)^(n+1) f(g_1..g_n)."""
    f = PrimeField(p)
    m = grp.order

    def index(args):                    # C-order index of argument tuples
        out = np.zeros(args.shape[1], dtype=np.int64)
        for a in args:
            out = out * m + a
        return out

    ranks = []
    for n in range(top + 1):
        args = np.indices((m,) * (n + 1)).reshape(n + 1, -1)
        terms = [(args[1:], 1), (args[:-1], (-1) ** (n + 1))]
        for i in range(n):
            merged = grp.table[args[i], args[i + 1]][None]
            terms.append((np.concatenate([args[:i], merged, args[i + 2:]]), (-1) ** (i + 1)))
        d = f.zeros((m ** (n + 1), m ** n))
        for cols, sign in terms:
            np.add.at(d, (np.arange(m ** (n + 1)), index(cols)), sign)
        ranks.append(f.rank((d % p).T))     # the transpose has fewer rows
    return [m ** n - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]


def centralizer(grp: groups.FiniteGroup, g: int) -> groups.FiniteGroup:
    """C_G(g) as a group in its own right."""
    elems = [x for x in range(grp.order) if grp.mul(x, g) == grp.mul(g, x)]
    return groups.Subgroup(grp, tuple(elems)).as_group()[0]


def twist_class_counts(rg: galg.GradedAlgebra, reps: np.ndarray, n: int) -> dict[int, int]:
    """Number of HH^n representatives (rows of ``reps``) supported in each
    twist class of the homogeneous basis of ``rg``, keyed by the class's
    smallest element; a representative whose support meets two classes fails
    an assertion."""
    grp, deg = rg.group, rg.grading
    word = np.zeros(1, dtype=np.int64)          # deg(a_1...a_k), C-order
    for _ in range(n):
        word = grp.table[word[:, None], deg].ravel()
    twist = grp.table[deg[:, None], grp.inverse[word]].ravel()
    label = np.zeros(grp.order, dtype=np.int64)
    for cls in grp.conjugacy_classes():
        label[list(cls)] = cls[0]
    counts = dict.fromkeys(sorted(set(label.tolist())), 0)
    for row in reps:
        hit = sorted(set(label[twist[np.flatnonzero(row)]].tolist()))
        assert len(hit) == 1, f"an HH^{n} representative meets the classes of g = {hit}"
        counts[hit[0]] += 1
    return counts


def transfer_by_representative(data: hh.TransferData, n: int,
                               classes_b: hh.HHClasses, classes_a: hh.HHClasses) -> np.ndarray:
    """The transfer HH^n(B) -> HH^n(A) on class coordinates, one
    representative of HH^n(B) at a time: its image cochain through three
    contractions of its own, then the class coordinates of that image."""
    f = data.field
    r, da, db = data.m.dim, data.m.left.dim, data.m.right.dim
    lift = data.lift(n)
    l4 = lift.reshape(lift.shape[0], r, db ** n, r)
    eps3 = data.eps_amb.reshape(da, r, r)
    cols = f.zeros((classes_a.dim, classes_b.dim))
    for i, zeta in enumerate(classes_b.reps):
        u = f.contract("gitl,bt->gibl", l4, zeta.reshape(db, db ** n))
        w = f.contract("gibl,bki->gkl", u, data.m.right_action)
        image = f.contract("gkl,ckl->gc", w, eps3).T.reshape(-1)
        cols[:, i] = classes_a.coords(image)
    return cols
