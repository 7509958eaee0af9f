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

The lift is produced degree by degree.  The default path applies the
explicit contracting homotopy s(m ox w) = sum_j m_j ox phi_j(m) ox w that
the dual basis provides, so no linear solve is needed; the alternative
"solve" path finds every generator image with one canonical solve per
degree.  Both satisfy the same chain contract and must agree on cohomology
classes.

A cochain f: A^(ox n) -> A is stored as a (d, d^n) matrix and vectorized
row-major.  The differential is
(delta f)(a_1,...,a_{n+1}) = a_1 f(a_2,...) + sum (-1)^i f(...,a_i a_{i+1},...)
+ (-1)^{n+1} f(...,a_n) a_{n+1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bimod, galg
from .errors import BudgetError, ValidationError
from .exactfield import QuotientPresentation, Subspace, subspace_from_rows

DEFAULT_MEMORY_MB = 1024


def _check_budget(byte_count: int, memory_mb: int, what: str) -> None:
    if byte_count > memory_mb * 1024 * 1024:
        raise BudgetError(
            f"{what} needs about {byte_count // (1024 * 1024)} MiB, "
            f"budget is {memory_mb} MiB"
        )


# -- cochain complex ---------------------------------------------------------


class CochainComplex:
    """Hochschild cochain spaces C^n = Hom(A^(ox n), A) with differentials."""

    def __init__(self, a: galg.Algebra, memory_mb: int = DEFAULT_MEMORY_MB):
        self.algebra = a
        self.memory_mb = memory_mb
        self._deltas: dict[int, np.ndarray] = {}

    def dim(self, n: int) -> int:
        return self.algebra.dim ** (n + 1)

    def delta(self, n: int) -> np.ndarray:
        if n in self._deltas:
            return self._deltas[n]
        a = self.algebra
        f = a.field
        d = a.dim
        _check_budget(2 * 8 * d ** (n + 2) * d ** (n + 1), self.memory_mb,
                      f"cochain differential at degree {n}")
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
        mat = (mat + (-1) ** (n + 1) * last) % f.p
        self._deltas[n] = mat
        return mat


def _cochain_complex(a: galg.Algebra, memory_mb: int) -> CochainComplex:
    cc = a._cache.get("cochain")
    if cc is None or cc.memory_mb < memory_mb:
        cc = CochainComplex(a, memory_mb)
        a._cache["cochain"] = cc
    return cc


@dataclass(eq=False)
class HHClasses:
    """Chosen representatives for HH^n: a complement of the coboundaries
    inside the cocycles, in RREF-canonical form."""

    algebra: galg.Algebra
    degree: int
    reps: np.ndarray            # (dim, d^(n+1)) rows are representative cocycles
    dim: int
    _bquot: object
    _w: Subspace

    def coords(self, cochain_vec: np.ndarray) -> np.ndarray:
        """Class coordinates of a cocycle in the representative basis."""
        w = self._bquot.to_quotient(cochain_vec)
        if self._w.reduce(w).any():
            raise ValidationError("cochain is not a cocycle modulo coboundaries")
        if self.dim == 0:
            return self.algebra.field.zeros(0)
        return w[list(self._w.pivots)]


def cohomology(a: galg.Algebra, n: int,
               memory_mb: int = DEFAULT_MEMORY_MB) -> HHClasses:
    """HH^n with RREF-canonical complement representatives.

    Degree 0 is the kernel of delta^0, i.e. the center of the algebra; this
    agrees with the independent center solve (tested)."""
    cache = a._cache.setdefault("hh", {})
    if n in cache:
        return cache[n]
    f = a.field
    cc = _cochain_complex(a, memory_mb)
    z = f.kernel(cc.delta(n))
    if n == 0:
        b = subspace_from_rows(f, [], ambient_dim=cc.dim(0))
    else:
        b = subspace_from_rows(f, cc.delta(n - 1).T, ambient_dim=cc.dim(n))
    if not z.contains_space(b):
        raise ValidationError("coboundaries are not cocycles (bug)")
    bq = f.quotient(b)
    images = f.matmul(z.basis, bq.projection.T) if z.dim else f.zeros((0, bq.quotient_dim))
    w = subspace_from_rows(f, images, ambient_dim=bq.quotient_dim)
    reps = f.matmul(w.basis, bq.section.T) if w.dim else f.zeros((0, cc.dim(n)))
    for row in reps:
        if not z.contains(row):
            raise ValidationError("representative is not a cocycle (bug)")
    out = HHClasses(algebra=a, degree=n, reps=reps, dim=w.dim, _bquot=bq, _w=w)
    cache[n] = out
    return out


# -- transfer maps -----------------------------------------------------------


@dataclass(eq=False)
class TransferData:
    """Everything needed to push cocycles along an A-B bimodule."""

    m: bimod.Bimodule
    s_a: np.ndarray
    s_b: np.ndarray
    phi: np.ndarray              # (r, dimB, r): phi[k, :, i] = phi_k(e_i)
    eps_amb: np.ndarray          # (dimA, r*r)
    eta_raw: np.ndarray          # (r*r,) representative of eta(1) in M ox M*
    dualpres: QuotientPresentation     # M ox_B M* as a quotient of M ox_k M*
    dual_quotient: bimod.Bimodule
    lift_method: str = "homotopy"
    memory_mb: int = DEFAULT_MEMORY_MB
    _lifts: list = field(default_factory=list, repr=False)

    # ---- X_n = M ox B^(ox n) ox M* ---------------------------------------

    @property
    def field(self):
        return self.m.field

    def x_dim(self, n: int) -> int:
        return self.m.dim ** 2 * self.m.right.dim ** n

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
            out = (out + (-1) ** i * term) % f.p
        vlast = arr.reshape(batch, r, db ** (n - 1), db, r)
        term = f.contract("amk,zitam->zitk", racts, vlast).reshape(batch, -1)
        out = (out + (-1) ** n * term) % f.p
        return out

    def _s_apply(self, n: int, arr: np.ndarray) -> np.ndarray:
        """Apply the contracting homotopy X_n -> X_{n+1} to a batch of rows."""
        f = self.field
        r = self.m.dim
        batch = arr.shape[0]
        v = arr.reshape(batch, r, -1)
        out = f.contract("jbi,zit->zjbt", self.phi, v)
        return out.reshape(batch, -1)

    def _dx_matrix(self, n: int) -> np.ndarray:
        ident = self.field.eye(self.x_dim(n))
        return self._dx_apply(n, ident).T.copy()

    def lift(self, n: int) -> np.ndarray:
        """Generator images of the chain lift at degree n, shape
        (dimA^n, x_dim(n)); row order is C-order over generator tuples."""
        while len(self._lifts) <= n:
            self._lifts.append(None)
        if self._lifts[n] is not None:
            return self._lifts[n]
        f = self.field
        a = self.m.left
        da = a.dim
        r = self.m.dim
        db = self.m.right.dim
        if n == 0:
            out = self.eta_raw[None, :].copy()
            self._lifts[0] = out
            return out
        prev = self.lift(n - 1)
        _check_budget(8 * da ** n * self.x_dim(n), self.memory_mb,
                      f"chain lift at degree {n}")
        lm = self.m.left_action
        gens_prev = da ** (n - 1)
        # rhs = image of the bar differential of each generator under the
        # previous lift, extended by the outer actions
        p4 = prev.reshape(gens_prev, r, db ** (n - 1), r)
        rhs = f.contract("aij,gjtl->agitl", lm, p4).reshape(da * gens_prev, -1)
        sign = 1
        for i in range(1, n):
            sign = -sign
            pi = prev.reshape(da ** (i - 1), da, da ** (n - 1 - i), self.x_dim(n - 1))
            term = f.contract("ijm,pmqx->pijqx", a.sc, pi).reshape(da ** n, -1)
            rhs = (rhs + sign * term) % f.p
        sign = -sign
        term = f.contract("amk,gitm->gaitk", lm, p4).reshape(da ** n, -1)
        rhs = (rhs + sign * term) % f.p
        # solvability: rhs must die one step further down
        if n == 1:
            img = f.matmul(rhs, self.dualpres.projection.T)
            if img.any():
                raise ValidationError("Casimir unit is not central (bug)")
        else:
            if self._dx_apply(n - 1, rhs).any():
                raise ValidationError("chain lift right-hand side is not a cycle (bug)")
        if self.lift_method == "homotopy":
            x = self._s_apply(n - 1, rhs)
        elif self.lift_method == "solve":
            sol = f.solve(self._dx_matrix(n), rhs.T)
            if sol is None:
                raise ValidationError("chain lift system inconsistent (bug)")
            x = sol.T.copy()
        else:
            raise ValidationError(f"unknown lift method {self.lift_method!r}")
        if not np.array_equal(self._dx_apply(n, x), rhs):
            raise ValidationError("chain lift does not satisfy the chain condition")
        self._lifts[n] = x
        return x


def transfer_data(
    m: bimod.Bimodule,
    s_a: np.ndarray,
    s_b: np.ndarray,
    lift_method: str = "homotopy",
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
        m=m, s_a=f.arr(s_a), s_b=f.arr(s_b), phi=phi,
        eps_amb=eps_amb, eta_raw=eta_raw,
        dualpres=dualpres, dual_quotient=dual_quotient,
        lift_method=lift_method, memory_mb=memory_mb,
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
    """Image cochain: (a_1..a_n) -> eps((1 ox zeta ox 1)(lift(1 ox a ox 1)))."""
    f = data.field
    r = data.m.dim
    da = data.m.left.dim
    db = data.m.right.dim
    lift = data.lift(n)
    gens = lift.shape[0]
    l4 = lift.reshape(gens, r, db ** n, r)
    z = zeta.reshape(db, db ** n)
    u = f.contract("gitl,bt->gibl", l4, z)
    w = f.contract("gibl,bki->gkl", u, data.m.right_action)
    eps3 = data.eps_amb.reshape(da, r, r)
    out = f.contract("gkl,ckl->gc", w, eps3)
    return np.ascontiguousarray(out.T).reshape(-1)


def transfer(
    data: TransferData,
    n: int,
    classes_b: HHClasses | None = None,
    classes_a: HHClasses | None = None,
    memory_mb: int = DEFAULT_MEMORY_MB,
) -> np.ndarray:
    """Matrix of the transfer HH^n(B) -> HH^n(A) on class coordinates."""
    if classes_b is None:
        classes_b = cohomology(data.m.right, n, memory_mb)
    if classes_a is None:
        classes_a = cohomology(data.m.left, n, memory_mb)
    f = data.field
    cols = f.zeros((classes_a.dim, classes_b.dim))
    for i in range(classes_b.dim):
        image = transfer_cochain(data, classes_b.reps[i], n)
        cols[:, i] = classes_a.coords(image)
    return cols


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
    memory_mb: int = DEFAULT_MEMORY_MB,
) -> ComposeReport:
    """Check matrix(t_M) @ matrix(t_N) = matrix(t_{M ox_B N}) at one degree."""
    tensor_module, _ = bimod.tensor_over(m, n_mod)
    data_m = transfer_data(m, s_a, s_b, memory_mb=memory_mb)
    data_n = transfer_data(n_mod, s_b, s_c, memory_mb=memory_mb)
    data_t = transfer_data(tensor_module, s_a, s_c, memory_mb=memory_mb)
    f = m.field
    lhs = f.matmul(
        transfer(data_m, degree, memory_mb=memory_mb),
        transfer(data_n, degree, memory_mb=memory_mb),
    )
    rhs = transfer(data_t, degree, memory_mb=memory_mb)
    return ComposeReport(ok=bool(np.array_equal(lhs, rhs)), degree=degree,
                         lhs=lhs, rhs=rhs)
