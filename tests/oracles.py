"""Independent oracles used to pin expected values before freezing them.

These deliberately avoid the cochain/transfer pipeline: the truncated
polynomial algebra dimensions come from its 2-periodic bimodule resolution,
the degree-0 transfer on group algebras comes from direct summation of
conjugates over coset representatives, and the bar resolution, from which
the cochain differential is derived, is built from its face maps.
"""

from __future__ import annotations

import numpy as np

from gradedhh import bimod, galg, groups
from gradedhh.exactfield import PrimeField


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
