"""Independent oracles used to pin expected values before freezing them.

These deliberately avoid the cochain/transfer pipeline: the truncated
polynomial algebra dimensions come from its 2-periodic bimodule resolution,
the degree-0 transfer on group algebras comes from direct summation of
conjugates over coset representatives, the bar resolution, from which the
cochain differential is derived, is built from its face maps, the dense
cochain differential and cohomology are the Kronecker-product construction
that the sparse complex replaced, the image of a differential is the dense
elimination of each transposed block that the row-space loop replaced, the
split of HH^n(kG) over conjugacy classes is a table of centralizer
cohomology, the chain lift is the dense array of generator images that the
lift held as nonzero entries replaced, the image cochains of a transfer are
whole-array contractions with that array, and the transfer matrix is the
loop that pushed one class representative at a time through it.

The module also holds what only the tests use: the multiplication matrix
and the center of an algebra, the conjugacy classes of a group, quotient
presentations of a subspace, bimodule maps checked on every basis element
and a test that one is invertible, the regular bimodule, the composition
and direct-sum checks of transfers, hom spaces and a three-valued
isomorphism test for bimodules, the trivial grading, a chain lift by linear
solve, the whole-basis forms of the bimodule identities that ``bimod``
checks and solves on generators (``Bimodule.validate``, the checks of a
transfer's counit and Casimir unit and of a multiplication isomorphism, the
balancing relations and the one-sided hom basis), the tensor product as a
quotient bimodule with actions induced from Kronecker matrices, the
per-element and per-vector constructions that the batched multiplication
map and unit-decomposition inverse of ``bimod`` replaced, and the
per-decomposition loop that the inverse's one gather replaced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from gradedhh import bimod, galg, groups, hh
from gradedhh.errors import ValidationError
from gradedhh.exactfield import PrimeField, Subspace, subspace_from_rows


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
        face = f.kronecker(f.eye(d ** i), f.kronecker(mult_matrix(a), f.eye(d ** (n - i))))
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


def as_dense(delta, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The sparse ``hh.Differential`` as a dense array, or its rows lo:hi."""
    hi = delta.shape[0] if hi is None else min(hi, delta.shape[0])
    out = np.zeros((hi - lo, delta.shape[1]), dtype=np.int64)
    mine = (delta.rows >= lo) & (delta.rows < hi)
    out[delta.rows[mine] - lo, delta.cols[mine]] = delta.vals[mine]
    return out


def dense_image(delta) -> list[tuple[np.ndarray, Subspace]]:
    """``Differential.image`` by the route it replaced: each block with rows
    written as its dense int64 transpose and eliminated by
    ``subspace_from_rows``, one part (block rows, basis) per block."""
    f, parts = delta.field, []
    for k, (rows, cols) in enumerate(zip(delta.block_rows, delta.block_cols)):
        if len(rows):
            part = slice(delta.offsets[k], delta.offsets[k + 1])
            t = f.zeros((len(cols), len(rows)))
            t[np.searchsorted(cols, delta.cols[part]),
              np.searchsorted(rows, delta.rows[part])] = delta.vals[part]
            parts.append((rows, subspace_from_rows(f, t)))
    return parts


def dense_delta(a: galg.Algebra, n: int) -> np.ndarray:
    """delta(n) built densely from Kronecker products: the left action, the n
    contractions of neighbouring arguments, and the right action."""
    f = a.field
    d = a.dim
    sc = a.sc
    mu = mult_matrix(a)
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


@dataclass(frozen=True, eq=False)
class Quotient:
    """The quotient of the ambient space of ``sub`` by it (``quotient``):
    projection @ section is the identity on the quotient and projection
    annihilates sub; section lifts quotient coordinates along the non-pivot
    standard coordinates."""

    sub: Subspace
    projection: np.ndarray
    section: np.ndarray

    def __post_init__(self):
        f = self.sub.field
        if not np.array_equal(f.matmul(self.projection, self.section), f.eye(self.quotient_dim)):
            raise ValidationError("projection @ section is not the identity")
        if self.sub.dim and f.matmul(self.projection, self.sub.basis.T).any():
            raise ValidationError("projection does not annihilate the subspace")

    @property
    def ambient_dim(self) -> int:
        return self.sub.ambient_dim

    @property
    def quotient_dim(self) -> int:
        return self.ambient_dim - self.sub.dim


def quotient(sub: Subspace) -> Quotient:
    """Quotient of the ambient space by ``sub``, with the complement given by
    the non-pivot standard coordinates (deterministic)."""
    f, n = sub.field, sub.ambient_dim
    piv = list(sub.pivots)
    free = f._free_columns(n, piv)
    section = f.zeros((n, len(free)))
    section[free, np.arange(len(free))] = 1
    projection = section.T.copy()
    projection[:, piv] = (-sub.basis[:, free]).T % f.p
    return Quotient(sub=sub, projection=projection, section=section)


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
        assert not z.reduce_rows(b.basis).any()
        self._bq = quotient(b)
        images = (f.matmul(z.basis, self._bq.projection.T) if z.dim
                  else f.zeros((0, self._bq.quotient_dim)))
        self._w = subspace_from_rows(f, images, ambient_dim=self._bq.quotient_dim)
        self.dim = self._w.dim
        self.reps = (f.matmul(self._w.basis, self._bq.section.T) if self.dim
                     else f.zeros((0, a.dim ** (n + 1))))

    def coords(self, cochain_vec: np.ndarray) -> np.ndarray:
        w = self.field.matmul(self._bq.projection, self.field.arr(cochain_vec))
        assert not self._w.reduce_rows(w[None]).any(), "not a cocycle modulo coboundaries"
        return w[list(self._w.pivots)] if self.dim else self.field.zeros(0)


# dim H^n(C_G(g), F_p) for n = 0..4, or n = 0..3 where HH^4 would cost too
# much tier-1 time (about 5.8 s for S3/F_3 and 4.9 s for D4/F_2, against
# 0.8 s for S3/F_2 and 0.1 s for C2 x C2/F_2), keyed by the smallest element
# g of each conjugacy class: HH^n(kG) is the direct sum of these over the
# classes (the centralizer decomposition), each summand on the cochains whose
# twist out (a_1...a_n)^-1 lies in the class of g.  S3 elements are the
# one-line permutations in lexicographic order (1 = (12), 3 = (123)); D4 has
# the rotations r^k at k and the reflections r^k s at 4 + k, so 2 = r^2,
# 1 = r, 4 = s and 5 = rs.
CENTRALIZER_HH = {
    # C_G(e) = S3, C_G((12)) = C2, C_G((123)) = C3
    ("s3", 2): {0: (1, 1, 1, 1, 1), 1: (1, 1, 1, 1, 1), 3: (1, 0, 0, 0, 0)},
    ("s3", 3): {0: (1, 0, 0, 1), 1: (1, 0, 0, 0), 3: (1, 1, 1, 1)},
    # abelian: every centralizer is C2 x C2
    ("v4", 2): {g: (1, 2, 3, 4, 5) for g in range(4)},
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


def twist_classes(rg: galg.GradedAlgebra, reps: np.ndarray, n: int) -> list[int]:
    """The twist class of each HH^n representative (row of ``reps``) of the
    homogeneous basis of ``rg``, by the class's smallest element; a
    representative whose support meets two classes fails an assertion."""
    grp, deg = rg.group, rg.grading
    word = np.zeros(1, dtype=np.int64)          # deg(a_1...a_k), C-order
    for _ in range(n):
        word = grp.table[word[:, None], deg].ravel()
    twist = grp.table[deg[:, None], grp.inverse[word]].ravel()
    label = np.zeros(grp.order, dtype=np.int64)
    for cls in conjugacy_classes(grp):
        label[list(cls)] = cls[0]
    out = []
    for row in reps:
        hit = sorted(set(label[twist[np.flatnonzero(row)]].tolist()))
        assert len(hit) == 1, f"an HH^{n} representative meets the classes of g = {hit}"
        out.append(hit[0])
    return out


def twist_class_counts(rg: galg.GradedAlgebra, reps: np.ndarray, n: int) -> dict[int, int]:
    """Number of HH^n representatives in each twist class (``twist_classes``),
    keyed by the class's smallest element."""
    counts = dict.fromkeys(sorted(cls[0] for cls in conjugacy_classes(rg.group)), 0)
    for g in twist_classes(rg, reps, n):
        counts[g] += 1
    return counts


def dense_transfer_cochain(data: "DenseLift", zeta: np.ndarray, n: int) -> np.ndarray:
    """``hh.transfer_cochain`` of each row of ``zeta`` through the dense lift:
    three contractions of whole arrays."""
    f = data.field
    r, da, db = data.m.dim, data.m.left.dim, data.m.right.dim
    lift = data.dense(n)
    l4 = lift.reshape(lift.shape[0], r, db ** n, r)
    z = np.reshape(zeta, (-1, db, db ** n))
    u = f.contract("gitl,sbt->glsbi", l4, z)
    w = f.contract("glsbi,bki->glsk", u, data.m.right_action)
    return f.contract("glsk,ckl->scg", w, data.eps_amb.reshape(da, r, r)).reshape(len(z), -1)


def transfer_by_representative(data: hh.TransferData, n: int,
                               classes_b: hh.HHClasses, classes_a: hh.HHClasses) -> np.ndarray:
    """The transfer HH^n(B) -> HH^n(A) on class coordinates, one
    representative of HH^n(B) at a time: its image cochain through three
    contractions of its own with the dense lift of ``DenseLift``, then the
    class coordinates of that image."""
    f = data.field
    r, da, db = data.m.dim, data.m.left.dim, data.m.right.dim
    lift = (data if isinstance(data, DenseLift) else DenseLift.of(data)).dense(n)
    l4 = lift.reshape(lift.shape[0], r, db ** n, r)
    eps3 = data.eps_amb.reshape(da, r, r)
    cols = f.zeros((classes_a.dim, classes_b.dim))
    for i, zeta in enumerate(classes_b.reps):
        u = f.contract("gitl,bt->gibl", l4, zeta.reshape(db, db ** n))
        w = f.contract("gibl,bki->gkl", u, data.m.right_action)
        image = f.contract("gkl,ckl->gc", w, eps3).T.reshape(-1)
        cols[:, i] = classes_a.coords(image)
    return cols


# -- test-only members: multiplication matrix, center, conjugacy classes ------


def mult_matrix(a: galg.Algebra) -> np.ndarray:
    """Multiplication as a matrix k^(d*d) -> k^d, mu[k, i*d+j] = sc[i,j,k]."""
    d = a.dim
    return np.ascontiguousarray(a.sc.transpose(2, 0, 1).reshape(d, d * d))


def center(a: galg.Algebra):
    """RREF basis of {z : z*b = b*z for all b} (exact subspace)."""
    # z central iff for every basis b: (L_b - R_b) z = 0
    rows = (a.basis_left_mults - a.basis_right_mults).reshape(a.dim * a.dim, a.dim)
    return a.field.kernel(rows % a.field.p)


def conjugacy_classes(grp: groups.FiniteGroup) -> list[tuple[int, ...]]:
    seen = set()
    classes = []
    for x in range(grp.order):
        if x in seen:
            continue
        orbit = {grp.conj(g, x) for g in range(grp.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


@dataclass(eq=False)
class BimoduleMap:
    """A linear map commuting with both actions."""

    source: bimod.Bimodule
    target: bimod.Bimodule
    matrix: np.ndarray

    def validate(self) -> None:
        """Check the shape, that source and target are over the same two
        algebras, and that the map commutes with the action of every basis
        element of both."""
        f = self.source.field
        m = self.matrix
        src, tgt = self.source, self.target
        if m.shape != (tgt.dim, src.dim):
            raise ValidationError("bimodule map has the wrong shape")
        if not all(x is y or x.structurally_equal(y)
                   for x, y in ((src.left, tgt.left), (src.right, tgt.right))):
            raise ValidationError("source and target are over different algebras")
        for name, src_act, tgt_act in (("left", src.left_action, tgt.left_action),
                                       ("right", src.right_action, tgt.right_action)):
            lhs = f.contract("pq,aqr->apr", m, src_act)
            rhs = f.contract("apq,qr->apr", tgt_act, m)
            if not np.array_equal(lhs, rhs):
                raise ValidationError(f"map does not commute with the {name} action")


def is_isomorphism(fmap: BimoduleMap) -> bool:
    return (fmap.source.dim == fmap.target.dim
            and fmap.source.field.inverse(fmap.matrix) is not None)


def induces_isomorphism(iso: bimod.MultIso) -> bool:
    """Whether the multiplication map of ``iso`` kills the relations and
    induces an invertible map on the quotient of M ox_k N by them."""
    f, rel = iso.carrier.field, iso.relations
    if rel.dim and f.matmul(iso.forward, rel.basis.T).any():
        return False
    on_quotient = f.matmul(iso.forward, quotient(rel).section)
    return on_quotient.shape[0] == on_quotient.shape[1] and f.inverse(on_quotient) is not None


# -- test-only constructions: composition, direct sums, hom spaces, isomorphism


@dataclass(frozen=True)
class ComposeReport:
    ok: bool
    degree: int
    lhs: np.ndarray
    rhs: np.ndarray


def compose_check(
    m: bimod.Bimodule,
    n_mod: bimod.Bimodule,
    degree: int,
    s_a: np.ndarray,
    s_b: np.ndarray,
    s_c: np.ndarray,
    memory_mb: int = hh.DEFAULT_MEMORY_MB,
) -> ComposeReport:
    """Check matrix(t_M) @ matrix(t_N) = matrix(t_{M ox_B N}) at one degree."""
    tensor_module, _ = kron_tensor_over(m, n_mod)
    data_m = hh.transfer_data(m, s_a, s_b, memory_mb=memory_mb)
    data_n = hh.transfer_data(n_mod, s_b, s_c, memory_mb=memory_mb)
    data_t = hh.transfer_data(tensor_module, s_a, s_c, memory_mb=memory_mb)
    f = m.field
    lhs = f.matmul(hh.transfer(data_m, degree), hh.transfer(data_n, degree))
    rhs = hh.transfer(data_t, degree)
    return ComposeReport(ok=bool(np.array_equal(lhs, rhs)), degree=degree,
                         lhs=lhs, rhs=rhs)


def trivially_graded(alg: galg.Algebra) -> galg.GradedAlgebra:
    """View a plain algebra as graded by the trivial group."""
    return galg.GradedAlgebra(
        algebra=alg, group=groups.cyclic(1),
        grading=np.zeros(alg.dim, dtype=np.int64),
    )


def direct_sum(*parts: bimod.Bimodule) -> bimod.Bimodule:
    """Block direct sum of bimodules over the same algebra pair."""
    if not parts:
        raise ValidationError("direct_sum needs at least one part")
    first = parts[0]
    f = first.field
    for p in parts[1:]:
        if not (p.left.structurally_equal(first.left) and p.right.structurally_equal(first.right)):
            raise ValidationError("direct summands must share the algebra pair")
    dim = sum(p.dim for p in parts)
    left_action = f.zeros((first.left.dim, dim, dim))
    right_action = f.zeros((first.right.dim, dim, dim))
    off = 0
    for p in parts:
        sl = slice(off, off + p.dim)
        left_action[:, sl, sl] = p.left_action
        right_action[:, sl, sl] = p.right_action
        off += p.dim
    out = bimod.Bimodule(left=first.left, right=first.right, dim=dim,
                         left_action=left_action, right_action=right_action,
                         label="(+)".join(p.label or "?" for p in parts))
    out.validate()
    return out


def hom_space(m: bimod.Bimodule, n: bimod.Bimodule) -> list[BimoduleMap]:
    """RREF-canonical basis of the space of bimodule maps M -> N."""
    if not (m.left.structurally_equal(n.left) and m.right.structurally_equal(n.right)):
        raise ValidationError("hom space needs the same algebra pair")
    pairs = ((m.left_action, n.left_action), (m.right_action, n.right_action))
    out = []
    for x in bimod._intertwiners(m.field, pairs, m.dim, n.dim):
        bm = BimoduleMap(m, n, x)
        bm.validate()
        out.append(bm)
    return out


def decompose_by_double_cosets(rg: galg.GradedAlgebra, k: groups.Subgroup,
                               h: groups.Subgroup):
    """Internal direct-sum decomposition of R_G as an R_K - R_H bimodule by
    double cosets: returns [(rep, summand, inclusion map)] and the whole."""
    whole = bimod.side_restricted(rg, k, h)
    f = rg.field
    out = []
    total = 0
    for rep in groups.double_coset_reps(k, h):
        part = bimod.truncation(rg, k, rep, h)
        incl = f.zeros((whole.dim, part.dim))
        for local, parent in enumerate(part.parent_indices):
            incl[parent, local] = 1
        bm = BimoduleMap(part, whole, incl)
        bm.validate()
        out.append((rep, part, bm))
        total += part.dim
    if total != whole.dim:
        raise ValidationError("double-coset pieces do not fill the module (bug)")
    return whole, out


@dataclass(frozen=True)
class IsoVerdict:
    status: str                  # "isomorphic" | "not isomorphic" | "inconclusive"
    reason: str
    witness: np.ndarray | None = None


def iso_check(m: bimod.Bimodule, n: bimod.Bimodule, seed: int = 0,
              budget: int = 128) -> IsoVerdict:
    """Three-valued isomorphism test: dimension, hom space, then a scan of
    basis homs followed by seeded random combinations for an invertible one."""
    if m.dim != n.dim:
        return IsoVerdict("not isomorphic", "dimension mismatch")
    homs = hom_space(m, n)
    if not homs:
        if m.dim == 0:
            return IsoVerdict("isomorphic", "both zero",
                              witness=m.field.zeros((0, 0)))
        return IsoVerdict("not isomorphic", "empty hom space")
    f = m.field
    for bm in homs:
        if f.inverse(bm.matrix) is not None:
            return IsoVerdict("isomorphic", "basis hom", witness=bm.matrix)
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        coeff = rng.integers(0, f.p, size=len(homs))
        cand = sum(int(c) * bm.matrix for c, bm in zip(coeff, homs)) % f.p
        if f.inverse(cand) is not None:
            return IsoVerdict("isomorphic", "random combination", witness=cand)
    return IsoVerdict("inconclusive", f"budget {budget} exhausted")


# -- the dense chain lift, and the chain lift by a linear solve ---------------


def _add_signed(p: int, acc: np.ndarray, sign: int, term: np.ndarray) -> None:
    """acc <- acc + sign * term mod p in place, for entries in 0..p-1; term is
    overwritten, so no temporary of their size is made."""
    if sign < 0:
        np.subtract(p, term, out=term)
    acc += term
    acc %= p


def entries_of(dense: np.ndarray) -> hh.Entries:
    """The nonzero entries of a dense matrix, in row-major order."""
    rows, cols = np.nonzero(dense)
    return hh.Entries(dense.shape, rows, cols, dense[rows, cols])


def dense_of(entries: hh.Entries) -> np.ndarray:
    out = np.zeros(entries.shape, dtype=np.int64)
    out[entries.rows, entries.cols] = entries.vals
    return out


@dataclass(eq=False)
class DenseLift(hh.TransferData):
    """Transfer data whose chain lift is built dense, by whole-array
    contractions: ``dense(n)`` is the (dimA^n, x_dim(n)) array of generator
    images, and ``lift(n)`` hands its nonzero entries to ``hh``, so that
    ``hh.transfer`` runs on it unchanged."""

    _dense: list = dataclasses.field(default_factory=list, repr=False)

    @classmethod
    def of(cls, data: hh.TransferData):
        return cls(**{fld.name: getattr(data, fld.name)
                      for fld in dataclasses.fields(hh.TransferData)
                      if not fld.name.startswith("_")})

    def _dx_apply(self, n: int, arr: np.ndarray) -> np.ndarray:
        """Apply the relative-bar differential X_n -> X_{n-1} to a batch of
        vectors (rows)."""
        f = self.field
        r = self.m.dim
        db = self.m.right.dim
        batch = arr.shape[0]
        racts = self.m.right_action
        scb = self.m.right.sc
        v = arr.reshape(batch, r, db, db ** (n - 1), r)
        out = f.contract("aki,ziatl->zktl", racts, v).reshape(batch, -1)
        for i in range(1, n):
            vi = arr.reshape(batch, r, db ** (i - 1), db, db, db ** (n - i - 1), r)
            term = f.contract("ijm,zkpijql->zkpmql", scb, vi).reshape(batch, -1)
            _add_signed(f.p, out, (-1) ** i, term)
        vlast = arr.reshape(batch, r, db ** (n - 1), db, r)
        term = f.contract("amk,zitam->zitk", racts, vlast).reshape(batch, -1)
        _add_signed(f.p, out, (-1) ** n, term)
        return out

    def _s_apply(self, n: int, arr: np.ndarray) -> np.ndarray:
        """Apply the contracting homotopy X_n -> X_{n+1} to a batch of rows."""
        f = self.field
        r = self.m.dim
        batch = arr.shape[0]
        v = arr.reshape(batch, r, -1)
        out = f.contract("jbi,zit->zjbt", self.phi, v)
        return out.reshape(batch, -1)

    def lift(self, n: int) -> hh.Entries:
        return entries_of(self.dense(n))

    def dense(self, n: int) -> np.ndarray:
        """Generator images of the chain lift at degree n, shape
        (dimA^n, x_dim(n)); row order is C-order over generator tuples."""
        while len(self._dense) <= n:
            self._dense.append(None)
        if self._dense[n] is not None:
            return self._dense[n]
        f = self.field
        a = self.m.left
        da = a.dim
        r = self.m.dim
        db = self.m.right.dim
        if n == 0:
            out = self.eta_raw[None, :].copy()
            self._dense[0] = out
            return out
        prev = self.dense(n - 1)
        lm = self.m.left_action
        gens_prev = da ** (n - 1)
        # rhs = image of the bar differential of each generator under the
        # previous lift, extended by the outer actions
        p4 = prev.reshape(gens_prev, r, db ** (n - 1), r)
        rhs = f.contract("aij,gjtl->agitl", lm, p4).reshape(da * gens_prev, -1)
        for i in range(1, n):
            pi = prev.reshape(da ** (i - 1), da, da ** (n - 1 - i), self.x_dim(n - 1))
            term = f.contract("ijm,pmqx->pijqx", a.sc, pi).reshape(da ** n, -1)
            _add_signed(f.p, rhs, (-1) ** i, term)
        term = f.contract("amk,gitm->gaitk", lm, p4).reshape(da ** n, -1)
        _add_signed(f.p, rhs, (-1) ** n, term)
        del term
        # solvability: rhs must die one step further down
        if n == 1:
            if self.relations.reduce_rows(rhs).any():
                raise ValidationError("Casimir unit is not central (bug)")
        else:
            if self._dx_apply(n - 1, rhs).any():
                raise ValidationError("chain lift right-hand side is not a cycle (bug)")
        x = self._s_apply(n - 1, rhs)
        if not np.array_equal(self._dx_apply(n, x), rhs):
            raise ValidationError("chain lift does not satisfy the chain condition")
        self._dense[n] = x
        return x


class SolvedLift(DenseLift):
    """Transfer data whose chain lift solves the relative-bar differential
    instead of applying the contracting homotopy: each generator image is the
    canonical solution (free variables 0) of d_n x = rhs.  Both are chain
    lifts of the same map, so the transfers must agree on classes."""

    def _s_apply(self, n: int, arr: np.ndarray) -> np.ndarray:
        dx = self._dx_apply(n + 1, self.field.eye(self.x_dim(n + 1))).T
        sol = self.field.solve(dx, arr.T)
        if sol is None:
            raise ValidationError("chain lift system inconsistent (bug)")
        return sol.T.copy()


# -- the bimodule identities on the whole basis of the acting algebra ---------


def validate_bimodule(m: bimod.Bimodule) -> None:
    """``Bimodule.validate`` with every identity checked on the whole basis of
    each algebra: d_A^2 * dim^2 entries per side of each identity."""
    f = m.field
    d = m.dim
    L, R = m.left_action, m.right_action
    if L.shape != (m.left.dim, d, d) or R.shape != (m.right.dim, d, d):
        raise ValidationError("action tensor shapes inconsistent")
    if not np.array_equal(f.contract("i,ipq->pq", m.left.unit, L), f.eye(d)):
        raise ValidationError("left unit does not act as the identity")
    if not np.array_equal(f.contract("j,jpq->pq", m.right.unit, R), f.eye(d)):
        raise ValidationError("right unit does not act as the identity")
    lhs = f.contract("ipq,jqr->ijpr", L, L)
    rhs = f.contract("ijk,kpr->ijpr", m.left.sc, L)
    if not np.array_equal(lhs, rhs):
        raise ValidationError("left action is not an algebra map")
    lhs = f.contract("jpq,iqr->ijpr", R, R)
    rhs = f.contract("ijk,kpr->ijpr", m.right.sc, R)
    if not np.array_equal(lhs, rhs):
        raise ValidationError("right action is not a right representation")
    lhs = f.contract("ipq,jqr->ijpr", L, R)
    rhs = f.contract("jpq,iqr->ijpr", R, L)
    if not np.array_equal(lhs, rhs):
        raise ValidationError("left and right actions do not commute")


def regular(a: galg.Algebra) -> bimod.Bimodule:
    """The algebra as a bimodule over itself by multiplication, validated;
    its actions are the algebra's read-only multiplication tensors."""
    m = bimod.Bimodule(left=a, right=a, dim=a.dim, left_action=a.basis_left_mults,
                       right_action=a.basis_right_mults, label="regular")
    m.validate()
    return m


def validate_transfer_data(data: hh.TransferData) -> None:
    """``hh._validate_transfer_data`` for every basis element of A, one at a
    time: eps kills the relations and commutes with a ox 1 and 1 ox a^T on
    M ox_k M*, and a eta - eta a reduces to 0 modulo the relations."""
    f, m = data.field, data.m
    a, r = m.left, m.dim
    rel = data.relations
    eye = f.eye(r)
    if rel.dim and f.matmul(data.eps_amb, rel.basis.T).any():
        raise ValidationError("counit does not factor through the tensor quotient")
    for x in range(a.dim):
        lx = m.left_action[x]
        left, right = f.kronecker(lx, eye), f.kronecker(eye, lx.T)
        if not np.array_equal(f.matmul(data.eps_amb, left),
                              f.matmul(a.basis_left_mults[x], data.eps_amb)):
            raise ValidationError("counit does not commute with the left action")
        if not np.array_equal(f.matmul(data.eps_amb, right),
                              f.matmul(a.basis_right_mults[x], data.eps_amb)):
            raise ValidationError("counit does not commute with the right action")
        moved = (f.matmul(left, data.eta_raw) - f.matmul(right, data.eta_raw)) % f.p
        if rel.reduce_rows(moved[None]).any():
            raise ValidationError("Casimir unit is not central")


def balancing_relations(m: bimod.Bimodule, n: bimod.Bimodule):
    """The relation space of ``bimod.tensor_over`` spanned by one relation
    block per basis element of the middle algebra."""
    f = m.field
    dm, dn, db = m.dim, n.dim, m.right.dim
    rel = (
        f.contract("bki,jl->bijkl", m.right_action, f.eye(dn))
        - f.contract("ik,blj->bijkl", f.eye(dm), n.left_action)
    ) % f.p
    return subspace_from_rows(f, rel.reshape(db * dm * dn, dm * dn), ambient_dim=dm * dn)


def module_hom_basis(m: bimod.Bimodule, side: str) -> np.ndarray:
    """``bimod.module_hom_basis`` from the intertwiner system of every basis
    element of the acting algebra."""
    if side == "left":
        alg, act, reg = m.left, m.left_action, m.left.basis_left_mults
    else:
        alg, act, reg = m.right, m.right_action, m.right.basis_right_mults
    return bimod._intertwiners(m.field, ((act, reg),), m.dim, alg.dim)


# -- bimodule constructions one basis element or vector at a time -------------


def kron_intertwiners(f: PrimeField, pairs, dm: int, dn: int) -> np.ndarray:
    """``bimod._intertwiners`` with the system stacked from Kronecker
    products kron(I, src^T) - kron(tgt, I), one per action matrix."""
    system = np.concatenate([
        (f.kronecker(f.eye(dn), src.T) - f.kronecker(tgt, f.eye(dm))) % f.p
        for src_act, tgt_act in pairs
        for src, tgt in zip(src_act, tgt_act)
    ])
    ker = f.kernel(system)
    return ker.basis.reshape(ker.dim, dn, dm)


def kron_tensor_over(m: bimod.Bimodule, n: bimod.Bimodule):
    """M ox_B N as the quotient bimodule of M ox_k N by the whole-basis
    balancing relations, with its presentation (``quotient``): each outer
    action is induced separately from its Kronecker matrix on M ox_k N, and
    the module is validated on the whole basis."""
    f = m.field
    eye_m, eye_n = f.eye(m.dim), f.eye(n.dim)
    relations = balancing_relations(m, n)
    pres = quotient(relations)
    proj, sect = pres.projection, pres.section

    def induced(ambient_ops):
        q = pres.quotient_dim
        out = f.zeros((len(ambient_ops), q, q))
        for a, op in enumerate(ambient_ops):
            if relations.dim:
                moved = f.matmul(op, relations.basis.T)
                if relations.reduce_rows(moved.T).any():
                    raise ValidationError("relations not stable under outer action")
            out[a] = f.matmul(proj, f.matmul(op, sect))
        return out

    left_ops = [f.kronecker(m.left_action[a], eye_n) for a in range(m.left.dim)]
    right_ops = [f.kronecker(eye_m, n.right_action[c]) for c in range(n.right.dim)]
    module = bimod.Bimodule(
        left=m.left, right=n.right, dim=pres.quotient_dim,
        left_action=induced(left_ops), right_action=induced(right_ops),
        label=f"({m.label})ox({n.label})",
    )
    validate_bimodule(module)
    return module, pres


def loop_mult_forward(rg, m: bimod.Bimodule, n: bimod.Bimodule,
                      target: bimod.Bimodule) -> np.ndarray:
    """Matrix of ``bimod._mult_forward``, filled one product of basis vectors
    at a time."""
    f = rg.field
    sc = rg.algebra.sc
    tgt_idx = {int(pidx): pos for pos, pidx in enumerate(target.parent_indices)}
    amb = f.zeros((target.dim, m.dim * n.dim))
    for i, pi in enumerate(m.parent_indices):
        for j, pj in enumerate(n.parent_indices):
            prod = sc[pi, pj]
            for kk in np.nonzero(prod)[0]:
                if int(kk) not in tgt_idx:
                    raise ValidationError("product leaves the target carrier")
                amb[tgt_idx[int(kk)], i * n.dim + j] = prod[kk]
    return amb


def per_vector_psi_matrix(rg, m: bimod.Bimodule, n: bimod.Bimodule,
                          source: bimod.Bimodule, degree_for) -> np.ndarray:
    """``bimod._psi_matrix`` with a unit decomposition solved for each source
    basis vector and its column summed pair by pair."""
    f = rg.field
    mpos = {int(pi): i for i, pi in enumerate(m.parent_indices)}
    npos = {int(pj): j for j, pj in enumerate(n.parent_indices)}
    amb_cols = f.zeros((m.dim * n.dim, source.dim))
    for y, py in enumerate(source.parent_indices):
        x = int(rg.grading[py])
        dec = galg.unit_decomposition(rg, degree_for(x))
        basis_vec = f.zeros(rg.dim)
        basis_vec[py] = 1
        col = f.zeros(m.dim * n.dim)
        for av, bv in dec.pairs:
            br = rg.algebra.multiply(bv, basis_vec)
            left = f.zeros(m.dim)
            for pidx in np.nonzero(av)[0]:
                if int(pidx) not in mpos:
                    raise ValidationError("unit decomposition leaves the left carrier")
                left[mpos[int(pidx)]] = av[pidx]
            rightv = f.zeros(n.dim)
            for pidx in np.nonzero(br)[0]:
                if int(pidx) not in npos:
                    raise ValidationError("unit decomposition leaves the right carrier")
                rightv[npos[int(pidx)]] = br[pidx]
            col = (col + np.outer(left, rightv).reshape(-1)) % f.p
        amb_cols[:, y] = col
    return amb_cols


def per_decomposition_psi_matrix(rg, m: bimod.Bimodule, n: bimod.Bimodule,
                                 source: bimod.Bimodule, decs) -> np.ndarray:
    """``bimod._psi_matrix`` with the source basis vectors that share a
    decomposition pushed through together, one decomposition at a time."""
    f = rg.field
    first = {}
    owner = np.array([first.setdefault(id(dec), y) for y, dec in enumerate(decs)], dtype=np.int64)
    amb_cols = f.zeros((m.dim * n.dim, source.dim))
    for y0 in first.values():
        ys = np.flatnonzero(owner == y0)
        a = np.stack([av for av, _ in decs[y0].pairs])
        if a[:, bimod._outside(rg, m.parent_indices)].any():
            raise ValidationError("unit decomposition leaves the left carrier")
        # br[k, y] = b_k times the y-th source basis vector
        rmul = rg.algebra.basis_right_mults[source.parent_indices[ys]]
        br = f.contract("ki,yzi->kyz", np.stack([bv for _, bv in decs[y0].pairs]), rmul)
        if br[:, :, bimod._outside(rg, n.parent_indices)].any():
            raise ValidationError("unit decomposition leaves the right carrier")
        cols = f.contract("ki,kyj->ijy", a[:, m.parent_indices], br[:, :, n.parent_indices])
        amb_cols[:, ys] = cols.reshape(m.dim * n.dim, len(ys))
    return amb_cols


def validate_mult_iso(m: bimod.Bimodule, n: bimod.Bimodule, iso: bimod.MultIso) -> None:
    """``bimod._verify_mult_iso`` with every basis element of both outer
    algebras, one at a time, acting on M ox_k N through its Kronecker matrix
    a ox 1 or 1 ox c; the checks run in ``_verify_mult_iso``'s order."""
    f, carrier, rel = m.field, iso.carrier, iso.relations
    if not (m.left.structurally_equal(carrier.left)
            and n.right.structurally_equal(carrier.right)):
        raise ValidationError("source and target are over different algebras")
    fwd, inv = iso.forward, iso.inverse
    if rel.dim and f.matmul(fwd, rel.basis.T).any():
        raise ValidationError("multiplication does not kill the balancing relations")
    eye_m, eye_n = f.eye(m.dim), f.eye(n.dim)
    outer = (("left", [f.kronecker(x, eye_n) for x in m.left_action], carrier.left_action),
             ("right", [f.kronecker(eye_m, x) for x in n.right_action], carrier.right_action))
    for name, ops, acts in outer:
        for op, act in zip(ops, acts):
            if not np.array_equal(f.matmul(fwd, op), f.matmul(act, fwd)):
                raise ValidationError(f"map does not commute with the {name} action")
    for name, ops, acts in outer:
        for op, act in zip(ops, acts):
            moved = (f.matmul(op, inv) - f.matmul(inv, act)) % f.p
            if rel.reduce_rows(moved.T).any():
                raise ValidationError(f"map does not commute with the {name} action")
    if not np.array_equal(f.matmul(fwd, inv), f.eye(carrier.dim)):
        raise ValidationError("multiplication map and its inverse do not compose to id")
    moved = (f.matmul(inv, fwd) - f.eye(m.dim * n.dim)) % f.p
    if rel.reduce_rows(moved.T).any():
        raise ValidationError("inverse and multiplication map do not compose to id")
