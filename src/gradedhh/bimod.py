"""Bimodules over pairs of structure-constant algebras.

Covers everything the verification pipeline needs: carriers cut out of a
graded algebra by cosets and double cosets, the balancing relations of a
tensor product over the middle algebra, linear duals, one-sided module
maps, projectivity via explicit splittings of free covers, and the explicit
mutually inverse multiplication/unit-decomposition isomorphisms between a
double-coset carrier and the corresponding tensor product.

A tensor product M (x)_B N is held as M (x)_k N together with its balancing
relations, an RREF subspace; no quotient module is built.  A map out of
M (x)_B N is a map out of M (x)_k N that kills the relations
(``check_tensor_map`` checks that it commutes with both outer actions), and
a map into it, or an identity in it, is read modulo the relations.

Carriers are cached on the graded algebra, keyed by the carrier and the
two subgroups.  Each side of a module, its acting algebra (interned by
``galg.component_subalgebra``) with its action, is interned as one token
(``side_token``), and a module's content is the interned pair of its two
side tokens (``content``).  What reads one side is built once per side
token (in its ``cache``): the side's unit and algebra-map checks, hom basis
and splittings, the relations of M (x)_B N (on R_M, by L_N) and the
transfer's counit (``hh.transfer_data``).  What reads both sides is built
once per content (``_shared``): a carrier's commutation check, a tensor
product's stable relations and each verified multiplication isomorphism,
which also reads the graded algebra at its modules' indices, so it is
cached on its left module, by the other two modules.  Each cache is keyed
by exactly what its entry is built from, hands out read-only arrays and
never keeps a failure; a shared entry keeps the first module's label.

Every construction works on whole tensors: actions are (dim algebra, dim,
dim) arrays, and the balancing relations, an intertwiner system, the
multiplication map and its inverse are slices of the structure constants
and ``PrimeField.contract`` calls on those arrays, never one basis element
or one basis vector at a time.

Every identity that quantifies over an acting algebra is checked or solved
on its generators (``galg.generators``: 2 of kD4's 8 basis elements, 3 of
kS4's 24), with the same outcome as on the whole basis, for the reason each
site's docstring gives; so every basis, relation space and splitting is
unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from . import galg, groups as _groups
from .errors import ValidationError
from .exactfield import PrimeField, Subspace, read_only, subspace_from_rows


@dataclass(eq=False)
class Bimodule:
    """A vector space with commuting left and right algebra actions.

    left_action[i] is the matrix of the i-th left-algebra basis element,
    right_action[j] of the j-th right-algebra basis element; both act on
    column vectors from the left.
    """

    left: galg.Algebra
    right: galg.Algebra
    dim: int
    left_action: np.ndarray      # (dim left, dim, dim)
    right_action: np.ndarray     # (dim right, dim, dim)
    label: str = ""
    parent_indices: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def field(self) -> PrimeField:
        return self.left.field

    def validate(self) -> None:
        """Check the shapes and the units, then L(e_s e_j) = L_s L_j and
        R(e_s e_j) = R_j R_s for s in the generators S (``galg.generators``)
        and every j, and L_s R_t = R_t L_s on S_A x S_B.  Each is equivalent
        to its whole-basis form, and they run in its order: with L(1) = I,
        L(s x) = L_s L(x) gives L(w x) = L(w) L(x) for every word w in S, and
        words span A (likewise for R); then L(A) and R(B) are spanned by
        products of the L_s and of the R_t, which commute.  A side's unit
        and algebra-map checks read it alone, so they are skipped once they
        have passed on its side token, which keeps the first failing check."""
        f = self.field
        d = self.dim
        L, R = self.left_action, self.right_action
        if L.shape != (self.left.dim, d, d) or R.shape != (self.right.dim, d, d):
            raise ValidationError("action tensor shapes inconsistent")
        unchecked = {}
        for side in ("left", "right"):
            cache, key = side_token(self, side).cache, ("validate",)
            if key not in cache:
                unchecked[side] = cache
        for side, alg, act in (("left", self.left, L), ("right", self.right, R)):
            if side in unchecked and not np.array_equal(
                    f.contract("i,ipq->pq", alg.unit, act), f.eye(d)):
                raise ValidationError(f"{side} unit does not act as the identity")
        sa, sb = galg.generators(self.left), galg.generators(self.right)
        # one generator at a time: d_A * dim^2 entries per side
        for s in sa if "left" in unchecked else ():
            if not np.array_equal(f.contract("pq,jqr->jpr", L[s], L),
                                  f.contract("jk,kpr->jpr", self.left.sc[s], L)):
                raise ValidationError("left action is not an algebra map")
        for s in sb if "right" in unchecked else ():
            if not np.array_equal(f.contract("jpq,qr->jpr", R, R[s]),
                                  f.contract("jk,kpr->jpr", self.right.sc[s], R)):
                raise ValidationError("right action is not a right representation")
        for cache in unchecked.values():
            cache[key] = True
        lhs = f.contract("spq,tqr->stpr", L[sa], R[sb])
        rhs = f.contract("tpq,sqr->stpr", R[sb], L[sa])
        if not np.array_equal(lhs, rhs):
            raise ValidationError("left and right actions do not commute")

    def __repr__(self) -> str:
        return f"Bimodule({self.label or 'dim %d' % self.dim})"


def _crc(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(a))


@dataclass(eq=False)
class Side:
    """One side of a bimodule, interned by ``side_token``; ``cache`` holds
    what is built from it alone, keyed as ``_shared`` is."""

    action: np.ndarray = field(repr=False)
    cache: dict = field(default_factory=dict, repr=False)


def side_token(m: Bimodule, side: str) -> Side:
    """The token of M's action on ``side`` with its algebra, the first such
    seen: found in a bucket on the algebra by the side, the dtype and the
    crc32 of the action, and confirmed by ``np.array_equal`` (so no action
    is copied).  Over a commutative algebra, a right module is the left one
    of the same matrices (R(e_s e_j) = R_j R_s = R(e_j e_s)) and both
    regular actions are equal, so the two sides share buckets.  Marks the
    action read-only; computed once per module and side."""
    sides = m._cache.setdefault("sides", {})
    if side not in sides:
        if side not in ("left", "right"):
            raise ValidationError("side must be 'left' or 'right'")
        alg, act = (m.left, m.left_action) if side == "left" else (m.right, m.right_action)
        read_only(act)
        commutative = np.array_equal(alg.sc, alg.sc.transpose(1, 0, 2))
        key = (None if commutative else side, act.dtype.str, _crc(act))
        bucket = alg._cache.setdefault("sides", {}).setdefault(key, [])
        token = next((t for t in bucket if np.array_equal(t.action, act)), None)
        if token is None:
            token = Side(act)
            bucket.append(token)
        sides[side] = token
    return sides[side]


def content(m: Bimodule) -> Bimodule:
    """The token of what every construction on M reads of it (its two
    algebras by identity, ``dim``, and its two actions): the first module
    seen with M's two side tokens.  Computed once per module."""
    if "content" not in m._cache:
        cache, key = side_token(m, "left").cache, ("content", side_token(m, "right"))
        m._cache["content"] = cache.setdefault(key, m)
    return m._cache["content"]


def _shared(m: Bimodule) -> dict:
    """The cache shared by every module with M's content, held by its token.
    Its keys are tuples led by a tag naming the entry's kind."""
    return content(m)._cache.setdefault("shared", {})


def graded_carrier(
    rg: galg.GradedAlgebra,
    carrier: tuple[int, ...],
    left_sub: _groups.Subgroup,
    right_sub: _groups.Subgroup,
) -> Bimodule:
    """The sum of the graded components over ``carrier`` with the left/right
    component subalgebras acting by multiplication.  Requires the carrier set
    to be stable: left_sub * carrier * right_sub inside carrier.  Results are
    cached on ``rg``, keyed by the carrier and the two subgroups; their
    arrays are read-only."""
    grp = rg.group
    if left_sub.group is not grp or right_sub.group is not grp:
        raise ValidationError("subgroup belongs to a different group")
    key = (tuple(carrier), left_sub.key, right_sub.key)
    cache = rg._cache.setdefault("carriers", {})
    if key in cache:
        return cache[key]
    cset = set(carrier)
    for l in left_sub.elements:
        for x in carrier:
            if grp.mul(l, x) not in cset:
                raise ValidationError("carrier is not stable under the left subgroup")
    for x in carrier:
        for r in right_sub.elements:
            if grp.mul(x, r) not in cset:
                raise ValidationError("carrier is not stable under the right subgroup")
    idx = rg.indices_for(carrier)
    left_alg = galg.component_subalgebra(rg, left_sub)
    right_alg = galg.component_subalgebra(rg, right_sub)
    li = left_alg.parent_indices
    ri = right_alg.parent_indices
    m = Bimodule(
        left=left_alg.algebra, right=right_alg.algebra, dim=len(idx),
        left_action=rg.algebra.basis_left_mults[np.ix_(li, idx, idx)],
        right_action=rg.algebra.basis_right_mults[np.ix_(ri, idx, idx)],
        label=f"carrier {key[0]} over {key[1]}-{key[2]}", parent_indices=idx,
    )
    shared, valid = _shared(m), ("validate",)
    if valid not in shared:
        m.validate()
        shared[valid] = True
    read_only(idx)
    cache[key] = m
    return m


def side_restricted(
    rg: galg.GradedAlgebra,
    left_sub: _groups.Subgroup,
    right_sub: _groups.Subgroup,
) -> Bimodule:
    """The whole graded algebra with multiplication actions restricted to the
    chosen left and right component subalgebras."""
    return graded_carrier(rg, tuple(range(rg.group.order)), left_sub, right_sub)


def truncation(
    rg: galg.GradedAlgebra,
    k: _groups.Subgroup,
    g: int,
    h: _groups.Subgroup,
    left_sub: _groups.Subgroup | None = None,
    right_sub: _groups.Subgroup | None = None,
) -> Bimodule:
    """The double-coset carrier: components over KgH with R_K acting on the
    left and R_H on the right (overridable with smaller subgroups)."""
    carrier = _groups.double_coset(k, g, h)
    return graded_carrier(rg, carrier, left_sub or k, right_sub or h)


def dual(m: Bimodule) -> Bimodule:
    """The linear dual with actions (b . f . a)(x) = f(a x b)."""
    left_action = np.ascontiguousarray(m.right_action.transpose(0, 2, 1))
    right_action = np.ascontiguousarray(m.left_action.transpose(0, 2, 1))
    out = Bimodule(
        left=m.right, right=m.left, dim=m.dim,
        left_action=left_action, right_action=right_action,
        label=f"dual({m.label})" if m.label else "dual",
    )
    out.validate()
    return out


def balancing_relations(m: Bimodule, n: Bimodule) -> Subspace:
    """The balancing relations r(b, x, y) = x b (x) y - x (x) b y of M (x)_B N,
    as an RREF subspace of M (x)_k N; the ambient index of (i, j) is
    i * dim(N) + j.  The relations for b in the generators S_B
    (``galg.generators``) span them all, since r(b1 b2, x, y) =
    r(b2, x b1, y) + r(b1, x, b2 y); their stability is checked under the
    generators of the outer algebras, since the elements whose action keeps
    a subspace form a subalgebra.  The relations read only R_M and L_N, so
    they are cached by those side tokens, read-only; the stability check
    runs on every call."""
    if not (m.right is n.left or m.right.structurally_equal(n.left)):
        raise ValidationError("inner algebras do not match")
    f = m.field
    dm, dn = m.dim, n.dim
    cache, key = side_token(m, "right").cache, ("relations", side_token(n, "left"))
    if key not in cache:
        sb = galg.generators(m.right)
        # relation (s, i, j): (e_i . b_s) ox e_j - e_i ox (b_s . e_j)
        rel = (
            f.contract("bki,jl->bijkl", m.right_action[sb], f.eye(dn))
            - f.contract("ik,blj->bijkl", f.eye(dm), n.left_action[sb])
        ) % f.p
        cache[key] = subspace_from_rows(f, rel.reshape(len(sb) * dm * dn, dm * dn),
                                        ambient_dim=dm * dn)
        read_only(cache[key].basis)
    relations = cache[key]
    # the outer actions a ox 1 and 1 ox c of the generators on M ox_k N,
    # applied to the relations
    if relations.dim:
        basis = relations.basis.reshape(relations.dim, dm, dn)
        gens_a, gens_c = galg.generators(m.left), galg.generators(n.right)
        for moved in (f.contract("aik,skj->asij", m.left_action[gens_a], basis),
                      f.contract("cjl,sil->csij", n.right_action[gens_c], basis)):
            if relations.reduce_rows(moved.reshape(-1, dm * dn)).any():
                raise ValidationError("relations not stable under outer action")
    return relations


def tensor_over(m: Bimodule, n: Bimodule) -> Subspace:
    """M (x)_B N as M (x)_k N modulo its balancing relations: the relations
    (``balancing_relations``), cached by the content of M and of N."""
    cache, key = _shared(m), ("tensor_over", content(n))
    if key not in cache:
        cache[key] = balancing_relations(m, n)
    return cache[key]


def check_tensor_map(f: PrimeField, x: np.ndarray, left, right, what: str) -> None:
    """Check that x, a linear map M (x)_k N -> T held as a (dim T, dim M,
    dim N) array, commutes with both outer actions: x (L_s (x) 1) = L^T_s x
    for the pair of stacked arrays ``left`` = (L_s, L^T_s), and
    x (1 (x) R_t) = R^T_t x for ``right`` = (R_t, R^T_t), each stacked over
    a generating set (``galg.generators``): the elements x commutes with
    form a subalgebra.  A map that also kills the balancing relations is
    then a bimodule map out of M (x)_B N."""
    for name, moved, act in (
        ("left", f.contract("ckl,ski->scil", x, left[0]), left[1]),
        ("right", f.contract("cik,skl->scil", x, right[0]), right[1]),
    ):
        if not np.array_equal(moved, f.contract("scd,dil->scil", act, x)):
            raise ValidationError(f"{what} does not commute with the {name} action")


def _intertwiners(f: PrimeField, pairs, dm: int, dn: int) -> np.ndarray:
    """RREF basis, stacked as (k, dn, dm) matrices, of the linear maps
    X: F^dm -> F^dn with X src = tgt X for every pair of actions in
    ``pairs``; X is vectorized row-major.  Actions of a generating set of
    the algebra suffice: the elements that X intertwines form a subalgebra."""
    # row (a, r, s) of the system is entry (r, s) of X src_a - tgt_a X
    system = np.concatenate([
        f.contract("ru,avs->arsuv", f.eye(dn), src_act)
        - f.contract("aru,sv->arsuv", tgt_act, f.eye(dm))
        for src_act, tgt_act in pairs
    ])
    ker = f.kernel(system.reshape(len(system) * dn * dm, dn * dm))
    return ker.basis.reshape(ker.dim, dn, dm)


def module_hom_basis(m: Bimodule, side: str) -> np.ndarray:
    """RREF basis, stacked as (k, dim alg, dim M), of the one-sided module
    maps M -> alg into the regular module, where alg is the algebra acting on
    ``side``: the maps that intertwine the actions of ``galg.generators`` of
    alg, which is the same space.  Cached by M's side, read-only."""
    cache, key = side_token(m, side).cache, ("module_homs",)
    if key not in cache:
        if side == "left":
            alg, act, reg = m.left, m.left_action, m.left.basis_left_mults
        else:
            alg, act, reg = m.right, m.right_action, m.right.basis_right_mults
        gens = galg.generators(alg)
        cache[key] = _intertwiners(m.field, ((act[gens], reg[gens]),), m.dim, alg.dim)
        read_only(cache[key])
    return cache[key]


@dataclass(eq=False)
class SplittingResult:
    """Outcome of the free-cover splitting search."""

    projective: bool
    generated_by: np.ndarray        # generator order used (module basis indices)
    splitting: np.ndarray | None    # sigma: M -> F splitting the cover F -> M, or None


def is_projective(m: Bimodule, side: str, generator_order=None) -> SplittingResult:
    """Decide one-sided projectivity by splitting the free cover built on the
    module's own basis vectors (in index order unless overridden).

    The splitting is sought blockwise: each block of sigma is a one-sided
    module map M -> algebra, so sigma is a combination of the hom basis and
    pi sigma = id becomes a small inhomogeneous system with the canonical
    (free variables 0) solution.  Results are cached by M's side and the
    generator order; their arrays are read-only."""
    gens = np.arange(m.dim) if generator_order is None else np.array(generator_order)
    cache, key = side_token(m, side).cache, ("is_projective", tuple(gens.tolist()))
    if key in cache:
        return cache[key]
    homs = module_hom_basis(m, side)
    f = m.field
    alg = m.left if side == "left" else m.right
    act = m.left_action if side == "left" else m.right_action
    da, dm, nh = alg.dim, m.dim, homs.shape[0]
    if sorted(int(x) for x in gens) != list(range(dm)):
        raise ValidationError("generator_order must be a permutation of the basis")
    # F = alg^{#gens}, basis (gen position j, algebra basis a) -> j * da + a
    at_gens = act[:, :, gens]
    pi = at_gens.transpose(1, 2, 0).reshape(dm, dm * da)
    # columns of the small system: vec(pi_j @ hom_t) over (j, t)
    cols = f.contract("apj,taq->pqjt", at_gens, homs).reshape(dm * dm, dm * nh)
    x = f.solve(cols, f.eye(dm).reshape(-1))
    sigma = None
    if x is not None:
        sigma = f.contract("jt,tak->jak", x.reshape(dm, nh), homs).reshape(dm * da, dm)
        if not np.array_equal(f.matmul(pi, sigma), f.eye(dm)):
            raise ValidationError("splitting verification failed (bug)")
        read_only(sigma)
    read_only(gens)
    cache[key] = SplittingResult(x is not None, gens, sigma)
    return cache[key]


# -- multiplication isomorphisms for the double-coset carriers --------------


def _outside(rg, indices: np.ndarray) -> np.ndarray:
    """Mask of the basis vectors of rg that are not at ``indices``."""
    mask = np.ones(rg.dim, dtype=bool)
    mask[indices] = False
    return mask


def _mult_forward(rg, m: Bimodule, n: Bimodule, target: Bimodule) -> np.ndarray:
    """Matrix of the multiplication M (x)_k N -> target carrier, unverified."""
    prods = rg.algebra.sc[np.ix_(m.parent_indices, n.parent_indices)]
    if prods[:, :, _outside(rg, target.parent_indices)].any():
        raise ValidationError("product leaves the target carrier")
    return np.ascontiguousarray(
        prods[:, :, target.parent_indices].reshape(m.dim * n.dim, target.dim).T)


def _psi_matrix(rg, m: Bimodule, n: Bimodule, source: Bimodule, decs) -> np.ndarray:
    """Matrix of r -> sum_i a_i ox (b_i r) into M ox_k N, with decs[y] the
    unit decomposition for the y-th source basis vector: one gather over
    every (source basis vector, decomposition pair)."""
    f = rg.field
    ys = [y for y, dec in enumerate(decs) for _ in dec.pairs]
    a = np.stack([av for dec in decs for av, _ in dec.pairs])
    if a[:, _outside(rg, m.parent_indices)].any():
        raise ValidationError("unit decomposition leaves the left carrier")
    # br[k] = b_k times the source basis vector of pair k
    rmul = rg.algebra.basis_right_mults[source.parent_indices[ys]]
    br = f.contract("ki,kzi->kz", np.stack([bv for dec in decs for _, bv in dec.pairs]), rmul)
    if br[:, _outside(rg, n.parent_indices)].any():
        raise ValidationError("unit decomposition leaves the right carrier")
    cols = f.contract("ki,kj,ky->ijy", a[:, m.parent_indices], br[:, n.parent_indices],
                      f.eye(source.dim)[ys])
    return cols.reshape(m.dim * n.dim, source.dim)


@dataclass(eq=False)
class MultIso:
    """A mutually inverse pair between M ox_B N, held as M ox_k N modulo
    ``relations``, and a double-coset carrier: the multiplication map and its
    unit-decomposition inverse, both on M ox_k N."""

    relations: Subspace           # balancing relations of M ox_B N in M ox_k N
    carrier: Bimodule
    forward: np.ndarray           # (dim carrier, dim M * dim N): r1 ox r2 -> r1 r2
    inverse: np.ndarray           # (dim M * dim N, dim carrier)


def _verify_mult_iso(m: Bimodule, n: Bimodule, iso: MultIso) -> None:
    """Check that iso's two matrices are mutually inverse bimodule maps
    between M ox_B N and the carrier C, on M ox_k N and modulo the relations
    W, for the generators S_A, S_C of the outer algebras: M ox_B N and C are
    over the same two algebras; forward F kills W; F (L_s ox 1) = L^C_s F
    and F (1 ox R_t) = R^C_t F (``check_tensor_map``); the columns of
    (L_s ox 1) G - G L^C_s and (1 ox R_t) G - G R^C_t lie in W for the
    inverse G; F G = I; and the columns of G F - I lie in W, which after
    the checks before it holds iff dim W + dim C = dim M ox_k N.

    Each is the check on the quotient Q = (M ox_k N) / W with projection P
    and section S (P S = I, P kills W, the columns of S P - I lie in W):
    since W is stable under both outer actions, the induced action on Q is
    L^Q = P (L ox 1) S with P (L ox 1) = L^Q P, and F = F S P as F kills W.
    So F S L^Q = L^C F S iff F (L ox 1) = L^C F, P G L^C = L^Q P G iff
    P ((L ox 1) G - G L^C) = 0, F S P G = F G, and P G F S = I iff
    P (G F - I) = 0; and ker P = W.  The elements passing a commutation
    check form a subalgebra, so S_A and S_C suffice."""
    f, carrier, rel = m.field, iso.carrier, iso.relations
    if not all(x is y or x.structurally_equal(y)
               for x, y in ((m.left, carrier.left), (n.right, carrier.right))):
        raise ValidationError("source and target are over different algebras")
    dm, dn, dc = m.dim, n.dim, carrier.dim
    if rel.dim and f.matmul(iso.forward, rel.basis.T).any():
        raise ValidationError("multiplication does not kill the balancing relations")
    sa, sc = galg.generators(m.left), galg.generators(n.right)
    left = (m.left_action[sa], carrier.left_action[sa])
    right = (n.right_action[sc], carrier.right_action[sc])
    check_tensor_map(f, iso.forward.reshape(dc, dm, dn), left, right, "map")
    inv = iso.inverse.reshape(dm, dn, dc)
    for name, moved, act in (
        ("left", f.contract("sik,kjy->syij", left[0], inv), left[1]),
        ("right", f.contract("sjl,ily->syij", right[0], inv), right[1]),
    ):
        # column y of (L_s ox 1) G - G L^C_s is row (s, y)
        diff = (moved - f.contract("ijz,szy->syij", inv, act)) % f.p
        if rel.reduce_rows(diff.reshape(-1, dm * dn)).any():
            raise ValidationError(f"map does not commute with the {name} action")
    if not np.array_equal(f.matmul(iso.forward, iso.inverse), f.eye(dc)):
        raise ValidationError("multiplication map and its inverse do not compose to id")
    # F G = I and F W = 0, so ker F = W, which holds all columns of G F - I
    # as F (G F - I) = 0, exactly when dim W = dim M ox_k N - dim C
    if rel.dim + dc != dm * dn:
        raise ValidationError("inverse and multiplication map do not compose to id")


def _build_mult_iso(rg, left_mod, right_mod, carrier, degree_for) -> MultIso:
    """The multiplication isomorphism left_mod ox right_mod ~ carrier, with the
    unit decomposition at degree_for(x) for a carrier basis vector of degree x.
    Cached on left_mod, keyed by right_mod, carrier and the decomposition
    each carrier basis vector uses, all compared by identity.  The modules
    come from ``graded_carrier``, one per carrier and subgroups on ``rg``, so
    they fix the graded algebra and the indices at which the multiplication
    and the decomposition are read off its structure constants.  The
    decompositions are fetched through the module attribute first, so a
    replaced ``galg.unit_decomposition`` gives a new key.  That both
    matrices are mutually inverse bimodule maps depends only on the three
    contents and the matrices, so it is verified (``_verify_mult_iso``) once
    per distinct such tuple, found on ``_shared(left_mod)`` by crc32 and
    confirmed by ``np.array_equal``; a hit reuses the verified read-only
    matrices."""
    degrees = [int(degree_for(int(x))) for x in rg.grading[carrier.parent_indices]]
    by_degree = {t: galg.unit_decomposition(rg, t) for t in dict.fromkeys(degrees)}
    decs = tuple(by_degree[t] for t in degrees)
    cache = left_mod._cache.setdefault("mult_isos", {})
    key = (right_mod, carrier, decs)
    if key in cache:
        return cache[key]
    iso = MultIso(relations=tensor_over(left_mod, right_mod), carrier=carrier,
                  forward=_mult_forward(rg, left_mod, right_mod, carrier),
                  inverse=_psi_matrix(rg, left_mod, right_mod, carrier, decs))
    verified, vkey = _shared(left_mod), ("mult_iso", content(right_mod), content(carrier),
                                         _crc(iso.forward), _crc(iso.inverse))
    for fwd, inv in verified.get(vkey, ()):
        if np.array_equal(fwd, iso.forward) and np.array_equal(inv, iso.inverse):
            iso.forward, iso.inverse = fwd, inv
            break
    else:
        _verify_mult_iso(left_mod, right_mod, iso)
        read_only(iso.forward, iso.inverse)
        verified.setdefault(vkey, []).append((iso.forward, iso.inverse))
    cache[key] = iso
    return iso


def mult_iso_double_coset(
    rg: galg.GradedAlgebra,
    k: _groups.Subgroup,
    g: int,
    h: _groups.Subgroup,
) -> MultIso:
    """R_K (x)_{R_[K cap gHg^-1]} R_[gH]  ~  R_[KgH] as R_K - R_H bimodules.

    The inverse is assembled componentwise: a basis vector of degree x = t g z
    (t in K, z in H) goes to sum a_i ox b_i x with 1 = sum a_i b_i taken at the
    minimal such t."""
    grp = rg.group
    meet = _groups.intersect(k, _groups.conjugate_subgroup(g, h))
    left_mod = truncation(rg, k, 0, k, left_sub=k, right_sub=meet)
    coset_gh = tuple(sorted(grp.mul(g, e) for e in h.elements))
    right_mod = graded_carrier(rg, coset_gh, meet, h)
    carrier = truncation(rg, k, g, h)
    gh_set = set(coset_gh)

    def degree_for(x: int) -> int:
        for t in k.elements:
            if grp.mul(grp.inv(t), x) in gh_set:
                return t
        raise ValidationError("carrier element misses the double coset (bug)")

    return _build_mult_iso(rg, left_mod, right_mod, carrier, degree_for)


def mult_iso_conjugate_chain(
    rg: galg.GradedAlgebra,
    g: int,
    h_elt: int,
    h: _groups.Subgroup,
) -> MultIso:
    """R_[g(hHh^-1)] (x)_{R_[hHh^-1]} R_[hH]  ~  R_[ghH], with the inverse
    r -> sum a_i ox b_i r built from a unit decomposition at degree g."""
    grp = rg.group
    conj_h = _groups.conjugate_subgroup(h_elt, h)
    gh = grp.mul(g, h_elt)
    conj_gh = _groups.conjugate_subgroup(gh, h)
    left_carrier = tuple(sorted(grp.mul(g, e) for e in conj_h.elements))
    left_mod = graded_carrier(rg, left_carrier, conj_gh, conj_h)
    right_carrier = tuple(sorted(grp.mul(h_elt, e) for e in h.elements))
    right_mod = graded_carrier(rg, right_carrier, conj_h, h)
    target_carrier = tuple(sorted(grp.mul(gh, e) for e in h.elements))
    carrier = graded_carrier(rg, target_carrier, conj_gh, h)
    return _build_mult_iso(rg, left_mod, right_mod, carrier, lambda x: g)
