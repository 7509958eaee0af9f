"""Finite-dimensional fully group-graded algebras over F_p with
symmetrizing forms.

An Algebra is a structure-constant algebra: sc[i, j, k] is the coefficient
of basis vector k in the product b_i * b_j.  A GradedAlgebra attaches a
group and a grading map basis index -> group element; the basis is kept in
group-element-major order so every graded component is a contiguous index
slice.  The one constructor is the crossed product over a full matrix ring;
a group algebra, or a twisted one, is the crossed product over a 1x1
matrix base.  The symmetrizing form is read off the structure constants
and the grading alone.  ``generators`` picks basis elements whose words span
an algebra, on which ``bimod`` checks every identity over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups as _groups
from .errors import SpecError, ValidationError
from .exactfield import PrimeField, read_only

# a group algebra's dimension is its group's order, so the group order bound
# also bounds the dimension of a crossed product, checked before allocation
MAX_DIM = _groups.MAX_ORDER

@dataclass(eq=False)
class Algebra:
    """Unital associative algebra given by structure constants."""

    field: PrimeField
    dim: int
    sc: np.ndarray          # shape (d, d, d)
    unit: np.ndarray        # shape (d,)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        d = self.dim
        if self.sc.shape != (d, d, d) or self.unit.shape != (d,):
            raise ValidationError("structure constant shapes inconsistent")

    # -- products ----------------------------------------------------------

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.field.matmul(self.left_mult(x), y)

    def left_mult(self, x: np.ndarray) -> np.ndarray:
        """Matrix of y -> x*y."""
        return self.field.contract("i,ijk->kj", x, self.sc)

    @property
    def basis_left_mults(self) -> np.ndarray:
        """L[i] = matrix of left multiplication by b_i; L[i][k, j] = sc[i, j, k];
        cached, read-only."""
        if "lmul" not in self._cache:
            self._cache["lmul"] = np.ascontiguousarray(self.sc.transpose(0, 2, 1))
            read_only(self._cache["lmul"])
        return self._cache["lmul"]

    @property
    def basis_right_mults(self) -> np.ndarray:
        """R[j] = matrix of right multiplication by b_j; R[j][k, i] = sc[i, j, k];
        cached, read-only."""
        if "rmul" not in self._cache:
            self._cache["rmul"] = np.ascontiguousarray(self.sc.transpose(1, 2, 0))
            read_only(self._cache["rmul"])
        return self._cache["rmul"]

    def validate(self) -> None:
        f = self.field
        d = self.dim
        # (e_i e_j) e_l = e_i (e_j e_l), one first index i at a time: d^3
        # entries per side instead of d^4
        for i in range(d):
            lhs = f.matmul(self.sc[i], self.sc.reshape(d, d * d)).reshape(d, d, d)
            rhs = f.matmul(self.sc.reshape(d * d, d), self.sc[i]).reshape(d, d, d)
            if not np.array_equal(lhs, rhs):
                j, l = (int(v) for v in np.argwhere((lhs != rhs).any(axis=2))[0])
                raise ValidationError(f"not associative at basis triple ({i},{j},{l})")
        left_unit = f.contract("i,ijk->kj", self.unit, self.sc)
        right_unit = f.contract("j,ijk->ki", self.unit, self.sc)
        if not np.array_equal(left_unit, f.eye(d)) or not np.array_equal(right_unit, f.eye(d)):
            raise ValidationError("unit vector is not a two-sided identity")

    def structurally_equal(self, other: "Algebra") -> bool:
        return (
            self.field == other.field
            and self.dim == other.dim
            and np.array_equal(self.sc, other.sc)
            and np.array_equal(self.unit, other.unit)
        )


def generators(a: Algebra) -> np.ndarray:
    """Basis indices S whose words span ``a``, ascending; cached on ``a``,
    read-only.  Picked greedily: the lowest basis index outside the span,
    then the span of the unit closed under left multiplication by the chosen
    elements, by exact RREF, until it is all of ``a``.  So the spanning is
    proved at run time, and a subalgebra that holds S is all of ``a``."""
    if "generators" not in a._cache:
        f, d = a.field, a.dim
        chosen: list[int] = []
        span, pivots = f.rref(a.unit[None, :])
        while len(pivots) < d:
            # e_i lies in the span iff it is the pivot row of column i
            inside = np.zeros(d, dtype=bool)
            inside[pivots] = np.count_nonzero(span[:len(pivots)], axis=1) == 1
            chosen.append(int(np.flatnonzero(~inside)[0]))
            while True:
                held = span[:len(pivots)]
                moved = f.contract("rj,skj->srk", held, a.basis_left_mults[chosen])
                span, grown = f.rref(np.concatenate([held, moved.reshape(-1, d)]))
                if len(grown) == len(pivots):
                    break
                pivots = grown
        a._cache["generators"] = np.array(chosen, dtype=np.int64)
        read_only(a._cache["generators"])
    return a._cache["generators"]


def matrix_algebra(field: PrimeField, n: int) -> Algebra:
    """M_n(k) with the elementary-matrix basis E_ab, row-major index a*n+b."""
    d = n * n
    sc = field.zeros((d, d, d))
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    sc[a * n + b, b * n + c, a * n + c] = 1
    unit = field.zeros(d)
    unit[np.arange(n) * (n + 1)] = 1
    alg = Algebra(field=field, dim=d, sc=sc, unit=unit)
    alg.validate()
    return alg


@dataclass(eq=False)
class GradedAlgebra:
    """Algebra with a group grading; basis blocks follow group index order."""

    algebra: Algebra
    group: _groups.FiniteGroup
    grading: np.ndarray          # basis index -> group element, non-decreasing
    parent_indices: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.grading) != self.algebra.dim:
            raise ValidationError("grading length must equal the algebra dimension")
        if self.algebra.dim and (np.diff(self.grading) < 0).any():
            raise ValidationError("basis must be ordered group-element-major")
        if self.algebra.dim and (self.grading.min() < 0 or self.grading.max() >= self.group.order):
            raise ValidationError("grading values out of range")
        self._validate_containment()

    @property
    def field(self) -> PrimeField:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def component_indices(self, g: int) -> np.ndarray:
        return np.nonzero(self.grading == g)[0]

    def indices_for(self, elements) -> np.ndarray:
        mask = np.isin(self.grading, np.array(sorted(elements), dtype=np.int64))
        return np.nonzero(mask)[0]

    def _validate_containment(self) -> None:
        """R_g * R_h lands inside R_{gh}, and the unit sits in R_1."""
        grad = self.grading
        i, j, k = np.nonzero(self.algebra.sc)
        target = self.group.table[grad[i], grad[j]]
        bad = np.flatnonzero(grad[k] != target)
        if bad.size:
            b = bad[0]
            raise ValidationError(
                f"product of basis {i[b]} and {j[b]} leaves component {target[b]}"
            )
        unit_support = np.nonzero(self.algebra.unit)[0]
        if unit_support.size and (self.grading[unit_support] != 0).any():
            raise ValidationError("unit is not homogeneous of degree 1")


@dataclass(frozen=True)
class FullyGradedReport:
    ok: bool
    failures: tuple            # (g, h, expected_dim, achieved_rank)


def check_fully_graded(a: GradedAlgebra) -> FullyGradedReport:
    """Check R_g * R_h = R_{gh} (equality of spans) for every pair g, h."""
    f = a.field
    failures = []
    idx = {g: a.component_indices(g) for g in range(a.group.order)}
    for g in range(a.group.order):
        for h in range(a.group.order):
            gh = a.group.mul(g, h)
            target = idx[gh]
            rows = []
            for i in idx[g]:
                for j in idx[h]:
                    rows.append(a.algebra.sc[i, j][target])
            if rows:
                rank = f.rank(np.array(rows, dtype=np.int64))
            else:
                rank = 0
            if rank != len(target):
                failures.append((g, h, len(target), rank))
    return FullyGradedReport(ok=not failures, failures=tuple(failures))


def group_algebra(group: _groups.FiniteGroup, p: int) -> GradedAlgebra:
    """kG with basis the group elements and grading the identity map: the
    crossed product over k with trivial action and cocycle."""
    return crossed_product(group, matrix_algebra(PrimeField(p), 1))


def _base_products(f: PrimeField, base: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[g, h, l] * y[g, h, l] in the base algebra, for every triple at once."""
    left = f.contract("ghli,ijk->ghljk", x, base.sc)
    return f.contract("ghlj,ghljk->ghlk", y, left)


def crossed_product(
    group: _groups.FiniteGroup,
    base: Algebra,
    action: list[np.ndarray] | None = None,
    cocycle: list[list[np.ndarray]] | None = None,
) -> GradedAlgebra:
    """Crossed product of a base algebra by a group action and a 2-cocycle.

    Basis is base-basis x group, ordered group-element-major: index
    g*dim(base) + i carries degree g.  Multiplication:
    (a ox g)(b ox h) = a * action[g](b) * cocycle[g][h] ox gh.

    With trivial action and trivial cocycle and base = k this is the group
    algebra; a nontrivial cocycle over a 1-dim base gives a twisted group
    algebra.

    The checks run on whole arrays: the automorphism checks once per
    distinct action matrix, the unit check once per distinct cocycle value,
    and the cocycle identity on all triples at once.  A failure names the
    first element, pair or triple in index order.
    """
    f = base.field
    n = group.order
    db = base.dim
    if action is None:
        action = [f.eye(db) for _ in range(n)]
    action = [f.arr(m) for m in action]
    if len(action) != n or any(m.shape != (db, db) for m in action):
        raise ValidationError("action must give one base automorphism matrix per group element")
    act = np.stack(action)
    if not np.array_equal(act[0], f.eye(db)):
        raise ValidationError("action of the identity must be the identity map")
    _, first = np.unique(act.reshape(n, -1), axis=0, return_index=True)
    for g in np.sort(first):
        if f.inverse(act[g]) is None:
            raise ValidationError(f"action not automorphism: matrix for element {g} is singular")
        if not np.array_equal(f.matmul(act[g], base.unit), base.unit):
            raise ValidationError(f"action not automorphism: element {g} moves the unit")
        prod_of_images = f.contract("ri,sj,ijk->rsk", act[g], act[g], base.sc)
        # image_of_prod[i,j,k] = action[g](b_i b_j)_k
        image_of_prod = f.contract("ijm,km->ijk", base.sc, act[g])
        if not np.array_equal(prod_of_images, image_of_prod):
            raise ValidationError(f"action not automorphism: element {g} is not multiplicative")

    if cocycle is None:
        cocycle = np.broadcast_to(base.unit, (n, n, db))
    if len(cocycle) != n or any(len(row) != n for row in cocycle):
        raise ValidationError("cocycle must be an n x n array of base elements")
    coc = f.arr(cocycle)
    if coc.shape != (n, n, db):
        raise ValidationError("cocycle must be an n x n array of base elements")
    values, which = np.unique(coc.reshape(n * n, db), axis=0, return_inverse=True)
    is_unit = np.array([f.inverse(base.left_mult(v)) is not None for v in values])
    not_unit = ~is_unit[which.reshape(n, n)]
    not_normal = (coc[0] != base.unit).any(axis=1) | (coc[:, 0] != base.unit).any(axis=1)
    bad = np.flatnonzero(not_normal | not_unit.any(axis=1))
    if bad.size:
        g = bad[0]
        if not_normal[g]:
            raise ValidationError("cocycle is not normalized at the identity")
        raise ValidationError(
            f"cocycle value at ({g},{np.flatnonzero(not_unit[g])[0]}) is not a unit")
    # action[g](c[h][l]) * c[g][hl] = c[g][h] * c[gh][l] for every triple (g, h, l)
    table = group.table
    moved = f.contract("gij,hlj->ghli", act, coc)
    lhs = _base_products(f, base, moved, coc[np.arange(n)[:, None, None], table])
    rhs = _base_products(f, base, np.broadcast_to(coc[:, :, None], (n, n, n, db)), coc[table])
    bad = (lhs != rhs).any(axis=3)
    if bad.any():
        g, h, l = np.argwhere(bad)[0]
        raise ValidationError(f"cocycle condition violated at triple ({g},{h},{l})")

    # (E_i ox g)(E_j ox h) = E_i * action[g](E_j) * cocycle[g][h] ox gh, where
    # twisted[g,i,j,:] = E_i * action[g](E_j) and right[g,h] is the matrix of
    # right multiplication by cocycle[g][h]
    twisted = f.contract("grj,irk->gijk", act, base.sc)
    right = f.contract("ghs,msk->ghmk", coc, base.sc)
    blocks = f.contract("gijm,ghmk->ghijk", twisted, right)
    d = db * n
    sc = f.zeros((n, db, n, db, n, db))
    g, h = np.indices((n, n))
    sc[g, :, h, :, table, :] = blocks
    unit = f.zeros(d)
    unit[:db] = base.unit
    alg = Algebra(field=f, dim=d, sc=sc.reshape(d, d, d), unit=unit)
    alg.validate()
    ga = GradedAlgebra(algebra=alg, group=group, grading=np.repeat(np.arange(n), db))
    report = check_fully_graded(ga)
    if not report.ok:
        raise ValidationError(f"crossed product is not fully graded: {report.failures[:3]}")
    return ga


def component_subalgebra(a: GradedAlgebra, h: _groups.Subgroup) -> GradedAlgebra:
    """R_H: the sum of the components over a subgroup, as a graded algebra
    over the subgroup relabelled to 0..|H|-1.  Results are cached on ``a``,
    keyed by the subgroup.

    The ungraded algebra is interned on ``a`` by its dimension and the bytes
    of its structure constants and unit: subgroups whose R_H have equal
    structure constants (the order-2 subgroups of a dihedral group algebra,
    say) share one read-only ``Algebra``, validated once, and with it every
    cache that hangs on it (the cochain complex, HH^n, the regular bimodule
    and the bimodule caches keyed by content)."""
    if h.group is not a.group:
        raise ValidationError("subgroup belongs to a different group")
    cache = a._cache.setdefault("subalgebras", {})
    if h.key in cache:
        return cache[h.key]
    idx = a.indices_for(h.elements)
    local_group, to_parent = h.as_group()
    pos = {int(e): i for i, e in enumerate(to_parent)}
    sub_sc = a.algebra.sc[np.ix_(idx, idx, idx)]
    unit = a.algebra.unit[idx]
    interned = a._cache.setdefault("algebras", {})
    content = (len(idx), sub_sc.tobytes(), unit.tobytes())
    alg = interned.get(content)
    if alg is None:
        alg = Algebra(field=a.field, dim=len(idx), sc=sub_sc, unit=unit)
        alg.validate()
        read_only(sub_sc, unit)
        interned[content] = alg
    grading = np.array([pos[int(a.grading[i])] for i in idx], dtype=np.int64)
    sub = GradedAlgebra(algebra=alg, group=local_group, grading=grading, parent_indices=idx)
    cache[h.key] = sub
    return sub


@dataclass(frozen=True, eq=False)
class SymmetrizingForm:
    """Linear functional s with s(ab) = s(ba) and invertible Gram matrix."""

    vector: np.ndarray
    gram: np.ndarray
    source: str


def _is_symmetric_nondegenerate(a: Algebra, s: np.ndarray):
    gram = a.field.contract("ijk,k->ij", a.sc, s)
    if not np.array_equal(gram, gram.T):
        return None
    if a.field.inverse(gram) is None:
        return None
    return gram


def symmetrizing_form(a: GradedAlgebra, seed: int = 0) -> SymmetrizingForm:
    """A symmetrizing form of ``a`` that vanishes off the identity component.

    The candidates are the symmetric functionals supported on R_1: the
    kernel of the rows s . (c_ij - c_ji) = 0 restricted to R_1's
    coordinates.  Their RREF basis, extended by zero, is scanned for the
    first vector with an invertible Gram matrix (source ``"canonical"``),
    then seeded random combinations of it (source ``"search"``).  On kG this
    is the coefficient of the identity, on a crossed product over M_n with
    trivial action the trace of the R_1 part.

    Since the product of R_g and R_h lands in R_gh, the Gram matrix of a
    form supported on R_1 pairs each R_g with R_(g^-1) only, so the form
    restricts to a symmetrizing form, still supported on R_1, of every R_H:
    restriction and transfer between the R_H meet compatible forms.  An
    algebra whose only symmetrizing forms reach outside R_1 raises
    ValidationError.
    """
    f = a.field
    d = a.dim
    sc = a.algebra.sc
    one = a.component_indices(0)
    rows = (sc - sc.transpose(1, 0, 2))[:, :, one].reshape(d * d, len(one)) % f.p
    space = f.kernel(rows)
    basis = f.zeros((space.dim, d))
    basis[:, one] = space.basis
    for row in basis:
        gram = _is_symmetric_nondegenerate(a.algebra, row)
        if gram is not None:
            return SymmetrizingForm(vector=row, gram=gram, source="canonical")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        coeff = rng.integers(0, f.p, size=space.dim)
        s = f.matmul(coeff[None, :], basis)[0]
        gram = _is_symmetric_nondegenerate(a.algebra, s)
        if gram is not None:
            return SymmetrizingForm(vector=s, gram=gram, source="search")
    raise ValidationError("not symmetric (within search budget)")


@dataclass(frozen=True, eq=False)
class UnitDecomposition:
    """Pairs (a_i, b_i), homogeneous of degree g and g^-1, with sum a_i b_i = 1."""

    degree: int
    pairs: tuple          # tuple of (vector, vector) in full algebra coordinates


def unit_decomposition(a: GradedAlgebra, g: int, variant: int = 0) -> UnitDecomposition:
    """Solve sum_i a_i b_i = 1 over R_g x R_{g^-1} pairs.

    ``variant`` > 0 adds the given kernel basis vector of the pairing system
    to the canonical solution, producing a different valid decomposition
    (used to verify choice independence downstream).  Results are cached on
    ``a``, keyed by (g, variant); their vectors are read-only.
    """
    cache = a._cache.setdefault("unit_decompositions", {})
    if (g, variant) in cache:
        return cache[g, variant]
    f = a.field
    ginv = a.group.inv(g)
    gi = a.component_indices(g)
    hi = a.component_indices(ginv)
    cols = [(i, j) for i in gi for j in hi]
    if not cols:
        raise ValidationError(f"components at degree {g} or its inverse are zero")
    sys = np.stack([a.algebra.sc[i, j] for (i, j) in cols], axis=1) % f.p
    x = f.solve(sys, a.algebra.unit)
    if x is None:
        raise ValidationError(
            f"no unit decomposition at degree {g}: algebra is not fully graded"
        )
    if variant:
        ker = f.kernel(sys)
        if variant > ker.dim:
            raise ValidationError(f"only {ker.dim} independent variants available")
        x = (x + ker.basis[variant - 1]) % f.p
    pairs = []
    for c, (i, j) in enumerate(cols):
        if x[c]:
            av = f.zeros(a.dim)
            av[i] = x[c]
            bv = f.zeros(a.dim)
            bv[j] = 1
            pairs.append((av, bv))
    left, right = (np.stack(side) for side in zip(*pairs))
    total = f.contract("ki,kj,ijz->z", left, right, a.algebra.sc)
    if not np.array_equal(total, a.algebra.unit):
        raise ValidationError("unit decomposition failed the substitution check (bug)")
    read_only(*(v for pair in pairs for v in pair))
    cache[g, variant] = UnitDecomposition(degree=g, pairs=tuple(pairs))
    return cache[g, variant]


# -- specification files ---------------------------------------------------

def algebra_from_spec(spec: dict) -> GradedAlgebra:
    """Build a graded algebra from the JSON description format.

    {"field": {"p": 2}, "group": {"kind": ..., ...},
     "algebra": {"kind": "group_algebra"} |
                {"kind": "crossed_product", "base": {"kind": "matrix", "n": 2},
                 "action": [...], "cocycle": [[...]]}}

    Structural problems (missing keys, unknown kinds, a modulus, size or
    array entry that is not a JSON integer, a modulus that is not prime,
    misshapen crossed-product fields, a group above the order bound, a
    crossed product above the dimension bound) raise SpecError; mathematical
    ones (a table that is not a group, a bad action or cocycle) raise
    ValidationError.
    """
    try:
        f = PrimeField(_groups.spec_int(spec["field"]["p"]))
        gspec = dict(spec["group"])
        aspec = dict(spec["algebra"])
        akind = aspec.pop("kind")
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SpecError(f"malformed specification: {type(exc).__name__}: {exc}") from exc
    if "kind" not in gspec and "table" in gspec:
        gspec["kind"] = "table"
    group = _groups.build(gspec.pop("kind", None), **gspec)
    if akind == "group_algebra":
        return group_algebra(group, f.p)
    if akind != "crossed_product":
        raise SpecError(f"unknown algebra kind {akind!r}")
    try:
        bspec = dict(aspec.get("base") or {})
        if bspec.get("kind") != "matrix":
            raise SpecError(f"unsupported crossed-product base kind {bspec.get('kind')!r}")
        bn = _groups.spec_int(bspec["n"])
        if bn < 1:
            raise ValueError(f"base n = {bn} is below 1")
        n, db = group.order, bn * bn
        if db * n > MAX_DIM:
            raise ValueError(f"crossed-product dimension {bn}^2 * {n} exceeds "
                             f"the supported bound {MAX_DIM}")
        fields = {}
        for key, shape in (("action", (n, db, db)), ("cocycle", (n, n, db))):
            if aspec.get(key) is not None:
                fields[key] = _groups.spec_array(aspec[key])
                if fields[key].shape != shape:
                    raise ValueError(f"{key} must have shape {shape}, got {fields[key].shape}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed crossed-product spec: {type(exc).__name__}: {exc}") from exc
    return crossed_product(group, matrix_algebra(f, bn), **fields)
