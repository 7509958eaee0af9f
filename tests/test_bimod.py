import numpy as np
import pytest

from gradedhh import bimod, galg, groups
from gradedhh.exactfield import PrimeField


def s3():
    return groups.symmetric(3)


def involution(grp):
    return next(x for x in range(1, grp.order) if grp.mul(x, x) == 0)


@pytest.fixture(scope="module")
def ks3_p2():
    return galg.group_algebra(s3(), 2)


@pytest.fixture(scope="module")
def ex11():
    f = PrimeField(2)
    return galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f, 2))


def test_regular_bimodules_validate():
    f = PrimeField(3)
    one = galg.trivially_graded(galg.matrix_algebra(f, 1))
    assert bimod.regular(one.algebra).dim == 1
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    assert bimod.regular(c2.algebra).dim == 2
    ks3 = galg.group_algebra(s3(), 7)
    bimod.regular(ks3.algebra).validate()


def test_side_restricted(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    whole = bimod.side_restricted(ks3_p2, full, full)
    assert whole.dim == 6
    reg = bimod.regular(ks3_p2.algebra)
    assert np.array_equal(whole.left_action, reg.left_action)
    assert np.array_equal(whole.right_action, reg.right_action)
    h = groups.subgroup_generated(grp, [involution(grp)])
    m = bimod.side_restricted(ks3_p2, h, full)
    assert m.dim == 6
    assert m.left.dim == 2
    x = bimod.side_restricted(ks3_p2, h, h)
    assert x.dim == 6


def test_truncation_dims(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    triv = groups.trivial_subgroup(grp)
    assert bimod.truncation(ks3_p2, full, 3, full).dim == 6
    h = groups.subgroup_generated(grp, [involution(grp)])
    # R_[gH] over the trivial left subgroup has the coset size
    for g in range(6):
        assert bimod.truncation(ks3_p2, triv, g, h).dim == 2
    g = next(x for x in range(1, 6) if x not in h.elements)
    assert bimod.truncation(ks3_p2, h, g, h).dim == 4


def test_unstable_carrier_rejected(ks3_p2):
    from gradedhh.errors import ValidationError

    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    triv = groups.trivial_subgroup(grp)
    with pytest.raises(ValidationError, match="stable"):
        bimod.graded_carrier(ks3_p2, (0,), full, triv)


def test_tensor_inner_algebra_mismatch(ks3_p2):
    from gradedhh.errors import ValidationError

    c2 = galg.group_algebra(groups.cyclic(2), 2)
    with pytest.raises(ValidationError, match="inner"):
        bimod.tensor_over(bimod.regular(ks3_p2.algebra), bimod.regular(c2.algebra))


def test_tensor_unit_constraints(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    m = bimod.side_restricted(ks3_p2, h, full)
    a_reg = bimod.regular(m.left)
    prod, pres = bimod.tensor_over(a_reg, m)
    assert prod.dim == m.dim
    # multiplication map is an isomorphism
    f = ks3_p2.field
    amb = f.zeros((m.dim, pres.ambient_dim))
    for i in range(a_reg.dim):
        for j in range(m.dim):
            amb[:, i * m.dim + j] = m.left_action[i][:, j]
    mat = f.matmul(amb, pres.section)
    fwd = bimod.BimoduleMap(prod, m, mat)
    fwd.validate()
    assert fwd.is_isomorphism()

    b_reg = bimod.regular(m.right)
    prod2, pres2 = bimod.tensor_over(m, b_reg)
    assert prod2.dim == m.dim
    amb2 = f.zeros((m.dim, pres2.ambient_dim))
    for i in range(m.dim):
        for j in range(b_reg.dim):
            amb2[:, i * b_reg.dim + j] = m.right_action[j][:, i]
    fwd2 = bimod.BimoduleMap(prod2, m, f.matmul(amb2, pres2.section))
    fwd2.validate()
    assert fwd2.is_isomorphism()


def test_tensor_dimension_count_double_coset(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    meet = groups.intersect(h, groups.conjugate_subgroup(g, h))
    assert meet.order == 1
    iso = bimod.mult_iso_double_coset(ks3_p2, h, g, h)
    assert iso.tensor_module.dim == 4
    assert iso.carrier.dim == 4


def test_tensor_associativity(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    f = ks3_p2.field
    l = bimod.side_restricted(ks3_p2, h, h)
    m = bimod.side_restricted(ks3_p2, h, full)
    n = bimod.side_restricted(ks3_p2, full, h)
    lm, lm_pres = bimod.tensor_over(l, m)
    lm_n, lmn_pres = bimod.tensor_over(lm, n)
    mn, mn_pres = bimod.tensor_over(m, n)
    l_mn, lmn2_pres = bimod.tensor_over(l, mn)
    assert lm_n.dim == l_mn.dim
    # canonical map (l ox m) ox n -> l ox (m ox n) through the presentations
    dl, dm, dn = l.dim, m.dim, n.dim
    cols = f.zeros((l_mn.dim, lm_n.dim))
    for q in range(lm_n.dim):
        amb_outer = lmn_pres.section[:, q].reshape(lm.dim, dn)
        acc = f.zeros(dl * mn.dim)
        for t in range(lm.dim):
            inner = lm_pres.section[:, t].reshape(dl, dm)
            for j in range(dn):
                c = amb_outer[t, j]
                if not c:
                    continue
                for a in range(dl):
                    row = inner[a]
                    if not row.any():
                        continue
                    mnvec = f.zeros(dm * dn)
                    mnvec[j::dn] = row * c % f.p
                    # wait: (m_i ox n_j): index i*dn + j
                    acc[a * mn.dim:(a + 1) * mn.dim] = (
                        acc[a * mn.dim:(a + 1) * mn.dim]
                        + mn_pres.to_quotient(mnvec)
                    ) % f.p
        cols[:, q] = lmn2_pres.to_quotient(acc)
    fwd = bimod.BimoduleMap(lm_n, l_mn, cols)
    fwd.validate()
    assert fwd.is_isomorphism()


def test_dual(ks3_p2):
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    m = bimod.regular(c2.algebra)
    dm = bimod.dual(m)
    assert dm.dim == m.dim
    verdict = bimod.iso_check(dm, m)
    assert verdict.status == "isomorphic"
    ddm = bimod.dual(dm)
    assert np.array_equal(ddm.left_action, m.left_action)
    assert np.array_equal(ddm.right_action, m.right_action)


def test_hom_space(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    d = bimod.truncation(ks3_p2, h, g, h)
    homs = bimod.hom_space(d, d)
    f = ks3_p2.field
    ident_found = any(np.array_equal(bm.matrix, f.eye(d.dim)) for bm in homs)
    coeffs = f.solve(
        np.stack([bm.matrix.reshape(-1) for bm in homs], axis=1), f.eye(d.dim).reshape(-1)
    )
    assert ident_found or coeffs is not None
    # regression: this carrier is a free rank-1 bimodule, End has dim 4
    assert len(homs) == 4

    zero = bimod.Bimodule(
        left=d.left, right=d.right, dim=0,
        left_action=f.zeros((d.left.dim, 0, 0)),
        right_action=f.zeros((d.right.dim, 0, 0)),
    )
    zero.validate()
    assert bimod.hom_space(d, zero) == []


def test_is_projective(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    reg = bimod.regular(ks3_p2.algebra)
    res = bimod.is_projective(reg, "left")
    assert res.projective
    m = bimod.side_restricted(ks3_p2, h, full)
    res_left = bimod.is_projective(m, "left")
    assert res_left.projective  # free of rank 3 over the order-2 subalgebra
    res_right = bimod.is_projective(m, "right")
    assert res_right.projective
    # P = R_[gH] as a right R_H module: projective of rank 1
    triv = groups.trivial_subgroup(grp)
    g = next(x for x in range(1, 6) if x not in h.elements)
    p_mod = bimod.truncation(ks3_p2, groups.conjugate_subgroup(g, h), g, h)
    assert bimod.is_projective(p_mod, "right").projective
    assert bimod.is_projective(p_mod, "left").projective

    # a non-projective case: the trivial module over F_2[C2]
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    f = c2.field
    triv_mod = bimod.Bimodule(
        left=c2.algebra, right=galg.matrix_algebra(f, 1),
        dim=1,
        left_action=f.arr([[[1]], [[1]]]),
        right_action=f.arr([[[1]]]),
    )
    triv_mod.validate()
    assert not bimod.is_projective(triv_mod, "left").projective


def test_decompose_by_double_cosets(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    triv = groups.trivial_subgroup(grp)
    whole, parts = bimod.decompose_by_double_cosets(ks3_p2, full, full)
    assert len(parts) == 1 and parts[0][1].dim == 6
    whole, parts = bimod.decompose_by_double_cosets(ks3_p2, triv, triv)
    assert len(parts) == 6 and all(p.dim == 1 for _, p, _ in parts)
    h = groups.subgroup_generated(grp, [involution(grp)])
    whole, parts = bimod.decompose_by_double_cosets(ks3_p2, h, h)
    assert sorted(p.dim for _, p, _ in parts) == [2, 4]
    for _, part, incl in parts:
        incl.validate()


@pytest.mark.parametrize("p", [2, 3])
def test_mult_iso_all_instances_s3(p):
    rg = galg.group_algebra(s3(), p)
    grp = rg.group
    subs = groups.all_subgroups(grp)
    for k in subs:
        for h in subs:
            for g in groups.double_coset_reps(k, h):
                iso = bimod.mult_iso_double_coset(rg, k, g, h)
                assert iso.forward.is_isomorphism()
    h = groups.subgroup_generated(grp, [involution(grp)])
    for g in range(6):
        for h_elt in range(6):
            iso = bimod.mult_iso_conjugate_chain(rg, g, h_elt, h)
            assert iso.forward.is_isomorphism()


@pytest.mark.parametrize(
    "grp,p",
    [
        (groups.cyclic(2), 2),
        (groups.cyclic(3), 3),
        (groups.dihedral(4), 2),
    ],
)
def test_carriers_across_corpus(grp, p):
    # projectivity of the standard carriers plus the multiplication
    # isomorphisms, with coset-transversal instance enumeration
    rg = galg.group_algebra(grp, p)
    full = groups.full_subgroup(grp)
    subs = groups.all_subgroups(grp)
    for h in subs:
        for mod in (bimod.side_restricted(rg, h, full),
                    bimod.side_restricted(rg, full, h)):
            assert bimod.is_projective(mod, "left").projective
            assert bimod.is_projective(mod, "right").projective
    for k in subs:
        for h in subs:
            for g in groups.double_coset_reps(k, h):
                p_mod = bimod.truncation(rg, groups.conjugate_subgroup(g, h), g, h)
                assert bimod.is_projective(p_mod, "left").projective
                assert bimod.is_projective(p_mod, "right").projective
                bimod.mult_iso_double_coset(rg, k, g, h)
    for h in subs[:3]:
        for he in groups.cosets(h, "left"):
            conj_h = groups.conjugate_subgroup(he, h)
            for g in groups.cosets(conj_h, "left"):
                bimod.mult_iso_conjugate_chain(rg, g, he, h)


def test_mult_iso_group_algebra_single_pair():
    rg = galg.group_algebra(groups.cyclic(3), 3)
    grp = rg.group
    h = groups.full_subgroup(grp)
    iso = bimod.mult_iso_conjugate_chain(rg, 1, 2, h)
    assert iso.carrier.dim == 3
    # case with g = h = identity: both maps are the unit isomorphism
    iso0 = bimod.mult_iso_conjugate_chain(rg, 0, 0, groups.trivial_subgroup(grp))
    assert iso0.carrier.dim == 1


def test_mult_iso_example_instance(ex11):
    grp = ex11.group
    h = groups.full_subgroup(grp)
    triv = groups.trivial_subgroup(grp)
    for k_sub in (h, triv):
        for g in groups.double_coset_reps(k_sub, h):
            iso = bimod.mult_iso_double_coset(ex11, k_sub, g, h)
            assert iso.forward.is_isomorphism()
    for g in range(2):
        for he in range(2):
            iso = bimod.mult_iso_conjugate_chain(ex11, g, he, h)
            assert iso.forward.is_isomorphism()


def test_psi_independent_of_unit_decomposition(ex11, monkeypatch):
    # two distinct unit decompositions induce the same map into the quotient
    grp = ex11.group
    h = groups.full_subgroup(grp)
    base = bimod.mult_iso_conjugate_chain(ex11, 1, 0, h)

    original = galg.unit_decomposition

    def variant_decomposition(a, g, variant=0):
        return original(a, g, variant=1 if g == 1 else 0)

    monkeypatch.setattr(galg, "unit_decomposition", variant_decomposition)
    alt = bimod.mult_iso_conjugate_chain(ex11, 1, 0, h)
    assert np.array_equal(base.inverse.matrix, alt.inverse.matrix)


def test_direct_sum(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    _, parts = bimod.decompose_by_double_cosets(ks3_p2, h, h)
    sum_mod = bimod.direct_sum(parts[0][1], parts[1][1])
    assert sum_mod.dim == 6
    sum_mod.validate()


def test_iso_check_negative():
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    reg = bimod.regular(c2.algebra)
    f = c2.field
    triv = bimod.Bimodule(
        left=c2.algebra, right=c2.algebra, dim=2,
        left_action=np.stack([f.eye(2), f.eye(2)]),
        right_action=np.stack([f.eye(2), f.eye(2)]),
    )
    triv.validate()
    verdict = bimod.iso_check(reg, triv)
    assert verdict.status == "not isomorphic" or verdict.status == "inconclusive"
    small = bimod.Bimodule(
        left=c2.algebra, right=c2.algebra, dim=1,
        left_action=f.arr([[[1]], [[1]]]), right_action=f.arr([[[1]], [[1]]]),
    )
    assert bimod.iso_check(reg, small).status == "not isomorphic"
