import collections
import dataclasses
import json
import pathlib
import zlib

import numpy as np
import pytest

import oracles
from gradedhh import bimod, cli, galg, groups, hh
from gradedhh.exactfield import PrimeField

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"


def _load(spec):
    return galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))


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
    one = oracles.trivially_graded(galg.matrix_algebra(f, 1))
    assert oracles.regular(one.algebra).dim == 1
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    assert oracles.regular(c2.algebra).dim == 2
    ks3 = galg.group_algebra(s3(), 7)
    reg = oracles.regular(ks3.algebra)
    reg.validate()
    # the actions are the algebra's read-only multiplication tensors
    assert reg.left_action is ks3.algebra.basis_left_mults
    for arr in (reg.left_action, reg.right_action):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1


def test_side_restricted(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    whole = bimod.side_restricted(ks3_p2, full, full)
    assert whole.dim == 6
    reg = oracles.regular(ks3_p2.algebra)
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
    # a failure is not cached: the second call raises too
    for _ in range(2):
        with pytest.raises(ValidationError, match="not stable under the left"):
            bimod.graded_carrier(ks3_p2, (0,), full, triv)
    assert ((0,), full.key, triv.key) not in ks3_p2._cache["carriers"]


def test_tensor_inner_algebra_mismatch(ks3_p2):
    from gradedhh.errors import ValidationError

    c2 = galg.group_algebra(groups.cyclic(2), 2)
    with pytest.raises(ValidationError, match="inner"):
        bimod.tensor_over(oracles.regular(ks3_p2.algebra), oracles.regular(c2.algebra))


def test_tensor_unit_constraints(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    m = bimod.side_restricted(ks3_p2, h, full)
    a_reg = oracles.regular(m.left)
    prod, pres = oracles.kron_tensor_over(a_reg, m)
    assert pres.sub == bimod.tensor_over(a_reg, m)
    assert prod.dim == m.dim
    # multiplication map is an isomorphism
    f = ks3_p2.field
    amb = f.zeros((m.dim, pres.ambient_dim))
    for i in range(a_reg.dim):
        for j in range(m.dim):
            amb[:, i * m.dim + j] = m.left_action[i][:, j]
    mat = f.matmul(amb, pres.section)
    fwd = oracles.BimoduleMap(prod, m, mat)
    fwd.validate()
    assert oracles.is_isomorphism(fwd)

    b_reg = oracles.regular(m.right)
    prod2, pres2 = oracles.kron_tensor_over(m, b_reg)
    assert pres2.sub == bimod.tensor_over(m, b_reg)
    assert prod2.dim == m.dim
    amb2 = f.zeros((m.dim, pres2.ambient_dim))
    for i in range(m.dim):
        for j in range(b_reg.dim):
            amb2[:, i * b_reg.dim + j] = m.right_action[j][:, i]
    fwd2 = oracles.BimoduleMap(prod2, m, f.matmul(amb2, pres2.section))
    fwd2.validate()
    assert oracles.is_isomorphism(fwd2)


def test_tensor_dimension_count_double_coset(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    meet = groups.intersect(h, groups.conjugate_subgroup(g, h))
    assert meet.order == 1
    iso = bimod.mult_iso_double_coset(ks3_p2, h, g, h)
    assert iso.relations.ambient_dim - iso.relations.dim == 4
    assert iso.carrier.dim == 4


def test_tensor_associativity(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    f = ks3_p2.field
    l = bimod.side_restricted(ks3_p2, h, h)
    m = bimod.side_restricted(ks3_p2, h, full)
    n = bimod.side_restricted(ks3_p2, full, h)
    lm, lm_pres = oracles.kron_tensor_over(l, m)
    lm_n, lmn_pres = oracles.kron_tensor_over(lm, n)
    mn, mn_pres = oracles.kron_tensor_over(m, n)
    l_mn, lmn2_pres = oracles.kron_tensor_over(l, mn)
    for (a, b), pres in (((l, m), lm_pres), ((lm, n), lmn_pres), ((m, n), mn_pres),
                         ((l, mn), lmn2_pres)):
        assert pres.sub == bimod.tensor_over(a, b)
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
                        + f.matmul(mn_pres.projection, mnvec)
                    ) % f.p
        cols[:, q] = f.matmul(lmn2_pres.projection, acc)
    fwd = oracles.BimoduleMap(lm_n, l_mn, cols)
    fwd.validate()
    assert oracles.is_isomorphism(fwd)


def test_dual(ks3_p2):
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    m = oracles.regular(c2.algebra)
    dm = bimod.dual(m)
    assert dm.dim == m.dim
    verdict = oracles.iso_check(dm, m)
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
    homs = oracles.hom_space(d, d)
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
    assert oracles.hom_space(d, zero) == []


def test_is_projective(ks3_p2):
    grp = ks3_p2.group
    full = groups.full_subgroup(grp)
    h = groups.subgroup_generated(grp, [involution(grp)])
    reg = oracles.regular(ks3_p2.algebra)
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
    whole, parts = oracles.decompose_by_double_cosets(ks3_p2, full, full)
    assert len(parts) == 1 and parts[0][1].dim == 6
    whole, parts = oracles.decompose_by_double_cosets(ks3_p2, triv, triv)
    assert len(parts) == 6 and all(p.dim == 1 for _, p, _ in parts)
    h = groups.subgroup_generated(grp, [involution(grp)])
    whole, parts = oracles.decompose_by_double_cosets(ks3_p2, h, h)
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
                assert oracles.induces_isomorphism(iso)
    h = groups.subgroup_generated(grp, [involution(grp)])
    for g in range(6):
        for h_elt in range(6):
            iso = bimod.mult_iso_conjugate_chain(rg, g, h_elt, h)
            assert oracles.induces_isomorphism(iso)


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
            assert oracles.induces_isomorphism(iso)
    for g in range(2):
        for he in range(2):
            iso = bimod.mult_iso_conjugate_chain(ex11, g, he, h)
            assert oracles.induces_isomorphism(iso)


def test_psi_independent_of_unit_decomposition(ex11, monkeypatch):
    # two distinct unit decompositions give inverses on M ox_k N that differ
    # by relations only, so they induce the same map into M ox_B N
    grp = ex11.group
    h = groups.full_subgroup(grp)
    base = bimod.mult_iso_conjugate_chain(ex11, 1, 0, h)

    original = galg.unit_decomposition

    def variant_decomposition(a, g, variant=0):
        return original(a, g, variant=1 if g == 1 else 0)

    variant = original(ex11, 1, variant=1)
    assert variant is not original(ex11, 1)
    psi, used = bimod._psi_matrix, []

    def recording_psi(*args):
        used.extend(args[-1])
        return psi(*args)

    monkeypatch.setattr(galg, "unit_decomposition", variant_decomposition)
    monkeypatch.setattr(bimod, "_psi_matrix", recording_psi)
    alt = bimod.mult_iso_conjugate_chain(ex11, 1, 0, h)
    # the base isomorphism is cached on this algebra: the variant must give a
    # new key and reach the build, not be answered by the cached entry
    assert alt is not base
    assert used and all(dec is variant for dec in used)
    assert alt.relations is base.relations
    diff = (base.inverse - alt.inverse) % ex11.field.p
    assert diff.any() and not base.relations.reduce_rows(diff.T).any()


def test_direct_sum(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    _, parts = oracles.decompose_by_double_cosets(ks3_p2, h, h)
    sum_mod = oracles.direct_sum(parts[0][1], parts[1][1])
    assert sum_mod.dim == 6
    sum_mod.validate()


def test_iso_check_negative():
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    reg = oracles.regular(c2.algebra)
    f = c2.field
    triv = bimod.Bimodule(
        left=c2.algebra, right=c2.algebra, dim=2,
        left_action=np.stack([f.eye(2), f.eye(2)]),
        right_action=np.stack([f.eye(2), f.eye(2)]),
    )
    triv.validate()
    verdict = oracles.iso_check(reg, triv)
    assert verdict.status == "not isomorphic" or verdict.status == "inconclusive"
    small = bimod.Bimodule(
        left=c2.algebra, right=c2.algebra, dim=1,
        left_action=f.arr([[[1]], [[1]]]), right_action=f.arr([[[1]], [[1]]]),
    )
    assert oracles.iso_check(reg, small).status == "not isomorphic"


# -- error branches of the tensor product and the multiplication isomorphism


def test_tensor_over_rejects_relations_unstable_under_outer_action():
    # the left and right actions on M do not commute, so a ox 1 moves the
    # balancing relations m b ox n - m ox b n off their span
    from gradedhh.errors import ValidationError

    c2 = galg.group_algebra(groups.cyclic(2), 2).algebra
    f = c2.field
    swap, shear = f.arr([[0, 1], [1, 0]]), f.arr([[1, 1], [0, 1]])
    m = bimod.Bimodule(left=c2, right=c2, dim=2,
                       left_action=np.stack([f.eye(2), swap]),
                       right_action=np.stack([f.eye(2), shear]))
    n = oracles.regular(c2)
    for _ in range(2):
        with pytest.raises(ValidationError, match="relations not stable under outer action"):
            bimod.tensor_over(m, n)


def _double_coset_factors(rg, k, g, h):
    """The two factors and the carrier that mult_iso_double_coset tensors."""
    grp = rg.group
    meet = groups.intersect(k, groups.conjugate_subgroup(g, h))
    left_mod = bimod.truncation(rg, k, 0, k, left_sub=k, right_sub=meet)
    coset = tuple(sorted(grp.mul(g, e) for e in h.elements))
    right_mod = bimod.graded_carrier(rg, coset, meet, h)
    return left_mod, right_mod


def test_mult_forward_rejects_a_product_outside_the_target(ks3_p2):
    from gradedhh.errors import ValidationError

    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    left_mod, right_mod = _double_coset_factors(ks3_p2, h, g, h)
    wrong = bimod.truncation(ks3_p2, h, 0, h)     # HH, disjoint from HgH
    with pytest.raises(ValidationError, match="product leaves the target carrier"):
        bimod._mult_forward(ks3_p2, left_mod, right_mod, wrong)


def test_mult_forward_rejects_relations_it_does_not_kill(ks3_p2):
    # relations that contain e_0 ox e_0, which multiplies to a group element,
    # not to zero
    from gradedhh.errors import ValidationError
    from gradedhh.exactfield import subspace_from_rows

    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    left_mod, right_mod = _double_coset_factors(ks3_p2, h, g, h)
    iso = bimod.mult_iso_double_coset(ks3_p2, h, g, h)
    f = ks3_p2.field
    amb = left_mod.dim * right_mod.dim
    bad = dataclasses.replace(iso, relations=subspace_from_rows(f, f.eye(amb)[:1], ambient_dim=amb))
    for check in (bimod._verify_mult_iso, oracles.validate_mult_iso):
        with pytest.raises(ValidationError, match="multiplication does not kill the balancing"):
            check(left_mod, right_mod, bad)


@pytest.mark.parametrize("side,k_full,forced", [
    # K trivial: a decomposition at a degree outside K leaves R_K
    ("left", False, 1),
    # K = G, H trivial: the decomposition at degree 1 for every x sends
    # b r_x to degree x, outside the coset gH = {1}
    ("right", True, 0),
])
def test_psi_rejects_a_decomposition_outside_the_carrier(ks3_p2, monkeypatch, side, k_full,
                                                         forced):
    from gradedhh.errors import ValidationError

    grp = ks3_p2.group
    full, triv = groups.full_subgroup(grp), groups.trivial_subgroup(grp)
    k, h = (full, triv) if k_full else (triv, full)
    # the same instance, built unpatched first, is cached on this algebra
    bimod.mult_iso_double_coset(ks3_p2, k, 0, h)
    original = galg.unit_decomposition
    monkeypatch.setattr(galg, "unit_decomposition",
                        lambda a, g, variant=0: original(a, forced, variant))
    # a failure is not cached: the second call raises too
    for _ in range(2):
        with pytest.raises(ValidationError,
                           match=f"unit decomposition leaves the {side} carrier"):
            bimod.mult_iso_double_coset(ks3_p2, k, 0, h)


# -- the batched constructions against the per-element ones -------------------


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("spec", ["s3_p2", "c2xc2_p2", "matrix_crossed_c2_p2"])
def test_mult_iso_matches_per_element_oracle(spec, monkeypatch):
    # every instance lemma2 checks: the relations, the multiplication map and
    # its inverse equal the whole-basis / loop / per-vector constructions
    # array for array, and pass the whole-basis check
    rg = _load(spec)
    grp = rg.group
    seen = []
    build = bimod._build_mult_iso

    def recording(*args):
        iso = build(*args)
        seen.append((args, iso))
        return iso

    monkeypatch.setattr(bimod, "_build_mult_iso", recording)
    subs = groups.all_subgroups(grp)
    for k in subs:
        for h in subs:
            for g in range(grp.order):
                bimod.mult_iso_double_coset(rg, k, g, h)
    for h in subs:
        for g in range(grp.order):
            for he in range(grp.order):
                bimod.mult_iso_conjugate_chain(rg, g, he, h)
    assert len(seen) == len(subs) ** 2 * grp.order + len(subs) * grp.order ** 2
    for (_, left_mod, right_mod, carrier, degree_for), iso in seen:
        want = oracles.balancing_relations(left_mod, right_mod)
        assert iso.relations == want and _same_bytes(iso.relations.basis, want.basis)
        assert _same_bytes(iso.forward,
                           oracles.loop_mult_forward(rg, left_mod, right_mod, carrier))
        assert _same_bytes(iso.inverse, oracles.per_vector_psi_matrix(
            rg, left_mod, right_mod, carrier, degree_for))
        decs = [galg.unit_decomposition(rg, degree_for(int(x)))
                for x in rg.grading[carrier.parent_indices]]
        assert _same_bytes(iso.inverse, oracles.per_decomposition_psi_matrix(
            rg, left_mod, right_mod, carrier, decs))
        oracles.validate_mult_iso(left_mod, right_mod, iso)
    if spec == "matrix_crossed_c2_p2":
        # components of dimension 4: one decomposition serves four vectors
        assert all(len(rg.component_indices(x)) == 4 for x in range(grp.order))


def test_intertwiners_and_tensor_match_kronecker_oracle_with_zero_modules(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    d = bimod.truncation(ks3_p2, h, g, h)
    f = ks3_p2.field
    zero = bimod.Bimodule(
        left=d.left, right=d.right, dim=0,
        left_action=f.zeros((d.left.dim, 0, 0)),
        right_action=f.zeros((d.right.dim, 0, 0)),
    )
    for src, tgt in ((d, d), (d, zero), (zero, d), (zero, zero)):
        pairs = ((src.left_action, tgt.left_action), (src.right_action, tgt.right_action))
        assert _same_bytes(bimod._intertwiners(f, pairs, src.dim, tgt.dim),
                           oracles.kron_intertwiners(f, pairs, src.dim, tgt.dim))
    for side, reg in (("left", d.left.basis_left_mults), ("right", d.right.basis_right_mults)):
        act = d.left_action if side == "left" else d.right_action
        assert _same_bytes(bimod.module_hom_basis(d, side),
                           oracles.kron_intertwiners(f, ((act, reg),), d.dim, len(reg)))
    # tensor products with a zero factor, over R_H in the middle
    m = bimod.side_restricted(ks3_p2, h, h)
    zero_left = bimod.Bimodule(left=m.left, right=m.right, dim=0,
                               left_action=f.zeros((m.left.dim, 0, 0)),
                               right_action=f.zeros((m.right.dim, 0, 0)))
    for a, b in ((m, m), (zero_left, m), (m, zero_left)):
        rel = bimod.tensor_over(a, b)
        want = oracles.balancing_relations(a, b)
        assert rel == want and _same_bytes(rel.basis, want.basis)
        module, _ = oracles.kron_tensor_over(a, b)
        assert module.dim == rel.ambient_dim - rel.dim == (0 if 0 in (a.dim, b.dim) else module.dim)


# -- the carrier, tensor-product and unit-decomposition caches ----------------


def _iso_arrays(iso):
    return [iso.relations.basis, iso.carrier.left_action, iso.carrier.right_action,
            iso.carrier.parent_indices, iso.forward, iso.inverse]


@pytest.mark.parametrize("spec", ["s3_p2", "s3_p3", "c2xc2_p2", "matrix_crossed_c2_p2"])
def test_lemma2_caches_equal_fresh_builds(spec, monkeypatch, capsys):
    # every carrier, tensor product, splitting and multiplication isomorphism
    # that lemma2 gets, from a cache or not, equals one built afresh on a newly
    # loaded algebra, and the relations their whole-basis oracle, array for array
    built = {name: getattr(bimod, name) for name in (
        "graded_carrier", "tensor_over", "is_projective",
        "mult_iso_double_coset", "mult_iso_conjugate_chain")}
    carriers, tensors, calls = {}, {}, []

    def recording(name):
        def wrapper(*args):
            out = built[name](*args)
            calls.append((name, args, out))
            if name == "graded_carrier":
                carriers[id(out)] = (out, (tuple(args[1]), args[2].key, args[3].key))
            elif name == "tensor_over":
                tensors[id(args[0]), id(args[1])] = (*args, out)
            return out
        return wrapper

    for name in built:
        monkeypatch.setattr(bimod, name, recording(name))
    assert cli.main(["lemma2", "--spec", str(SPECS / f"{spec}.json")]) == 0
    capsys.readouterr()
    counts = {name: sum(1 for c in calls if c[0] == name) for name in built}
    assert len(carriers) < counts["graded_carrier"]
    assert len(tensors) < counts["tensor_over"]
    results = [c for c in calls if c[0] not in ("graded_carrier", "tensor_over")]
    assert len({id(out) for _, _, out in results}) < len(results)

    def fresh(rg, module):
        c, left, right = carriers[id(module)][1]
        return built["graded_carrier"](rg, c, groups.Subgroup(rg.group, left),
                                       groups.Subgroup(rg.group, right))

    rg = _load(spec)
    for cached, _ in carriers.values():
        new = fresh(rg, cached)
        for name in ("left_action", "right_action", "parent_indices"):
            assert _same_bytes(getattr(cached, name), getattr(new, name))
    for m, n, rel in tensors.values():
        fm, fn = fresh(rg, m), fresh(rg, n)
        for new in (built["tensor_over"](fm, fn), oracles.balancing_relations(fm, fn)):
            assert rel == new and _same_bytes(rel.basis, new.basis)
    # one newly loaded algebra per instance, so that no cache can answer
    for name, args, out in results:
        rg = _load(spec)
        if name == "is_projective":
            new = built[name](fresh(rg, args[0]), *args[1:])
            assert new.projective == out.projective
            assert _same_bytes(new.generated_by, out.generated_by)
            assert (new.splitting is None and out.splitting is None
                    or _same_bytes(new.splitting, out.splitting))
        else:
            new = built[name](rg, *(groups.Subgroup(rg.group, a.key)
                                    if isinstance(a, groups.Subgroup) else a
                                    for a in args[1:]))
            assert all(_same_bytes(x, y) for x, y in zip(_iso_arrays(out), _iso_arrays(new)))


def test_unit_decomposition_cache_keys_the_variant():
    cp = _load("matrix_crossed_c2_p2")
    canonical = galg.unit_decomposition(cp, 1)
    variant = galg.unit_decomposition(cp, 1, 1)
    assert galg.unit_decomposition(cp, 1) is canonical
    assert galg.unit_decomposition(cp, 1, 1) is variant
    flat = lambda d: np.concatenate([np.concatenate(pair) for pair in d.pairs])
    assert not _same_bytes(flat(variant), flat(canonical))
    new = _load("matrix_crossed_c2_p2")
    assert _same_bytes(flat(variant), flat(galg.unit_decomposition(new, 1, 1)))
    assert _same_bytes(flat(canonical), flat(galg.unit_decomposition(new, 1)))
    # a failure is not cached: the second call raises too
    from gradedhh.errors import ValidationError

    c2 = galg.group_algebra(groups.cyclic(2), 2)
    for _ in range(2):
        with pytest.raises(ValidationError, match="only 0 independent variants"):
            galg.unit_decomposition(c2, 1, variant=1)


def test_cached_arrays_are_read_only(ks3_p2):
    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    g = next(x for x in range(1, 6) if x not in h.elements)
    iso = bimod.mult_iso_double_coset(ks3_p2, h, g, h)
    dec = galg.unit_decomposition(ks3_p2, g)
    split = bimod.is_projective(iso.carrier, "right")
    arrays = [iso.carrier.left_action, iso.carrier.right_action, iso.carrier.parent_indices,
              iso.relations.basis, dec.pairs[0][0], dec.pairs[0][1],
              iso.forward, iso.inverse, split.generated_by, split.splitting]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1
    # the next instance gets the same, unchanged carrier, isomorphism and splitting
    assert bimod.truncation(ks3_p2, h, g, h) is iso.carrier
    assert bimod.mult_iso_double_coset(ks3_p2, h, g, h) is iso
    assert bimod.is_projective(iso.carrier, "right") is split


def test_is_projective_keys_the_generator_order_and_caches_no_failure(ks3_p2):
    from gradedhh.errors import ValidationError

    grp = ks3_p2.group
    h = groups.subgroup_generated(grp, [involution(grp)])
    m = bimod.side_restricted(ks3_p2, h, h)
    order = list(range(m.dim))[::-1]
    plain = bimod.is_projective(m, "right")
    reordered = bimod.is_projective(m, "right", generator_order=order)
    assert reordered is not plain
    assert bimod.is_projective(m, "right", generator_order=np.array(order)) is reordered
    assert reordered.generated_by.tolist() == order
    for _ in range(2):
        with pytest.raises(ValidationError, match="must be a permutation"):
            bimod.is_projective(m, "right", generator_order=[0] * m.dim)
        with pytest.raises(ValidationError, match="side must be"):
            bimod.is_projective(m, "middle")


def test_lemma2_builds_each_isomorphism_and_splitting_once_per_input(monkeypatch, capsys,
                                                                      tmp_path):
    # D4 over F_2: the 1,440 isomorphism instances of parts b and c need 595
    # builds (one tensor_over call each), of 68 distinct tensor products (one
    # relation space each), and 213 distinct pairs of matrices on M ox_k N
    # (one verification each; 171 on the quotients, where inverses that
    # differ by relations coincide); the 195 carriers have 78 distinct contents (one
    # module validation each); the 200 projectivity checks of part a need 52
    # splittings (one hom basis each), one per distinct module content
    counts = {}

    def counting(owner, name, label):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[label] = counts.get(label, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_build_mult_iso", "tensor_over", "is_projective", "module_hom_basis",
                 "subspace_from_rows", "_verify_mult_iso"):
        counting(bimod, name, name)
    counting(bimod.Bimodule, "validate", "Bimodule.validate")
    spec = tmp_path / "d4_p2.json"
    spec.write_text(json.dumps({"field": {"p": 2}, "group": {"kind": "dihedral", "n": 4},
                                "algebra": {"kind": "group_algebra"}}))
    assert cli.main(["lemma2", "--spec", str(spec)]) == 0
    capsys.readouterr()
    assert counts == {"_build_mult_iso": 1440, "tensor_over": 595, "subspace_from_rows": 68,
                      "is_projective": 200, "module_hom_basis": 52,
                      "Bimodule.validate": 78, "_verify_mult_iso": 213}


def test_mult_isos_of_equal_content_at_other_indices_are_built_apart(monkeypatch):
    # F_3C2 twisted by t * t = 2: over the trivial subgroup every component
    # R_x is the 1-dimensional module k, so all the modules below have equal
    # content, but R_g ox R_h -> R_gh multiplies by the structure constant at
    # their indices: 2 at g = h = t and 1 otherwise
    f3 = PrimeField(3)
    coc = [[f3.arr([1]), f3.arr([1])], [f3.arr([1]), f3.arr([2])]]
    tw = galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f3, 1), cocycle=coc)
    triv = groups.trivial_subgroup(tw.group)
    builds = []
    forward = bimod._mult_forward
    monkeypatch.setattr(bimod, "_mult_forward",
                        lambda *args: builds.append(args) or forward(*args))
    isos = {(g, h): bimod.mult_iso_conjugate_chain(tw, g, h, triv)
            for g in range(2) for h in range(2)}
    mods = [m for args in builds for m in args[1:]]
    assert len({bimod.content(m) for m in mods}) == 1
    assert len(builds) == 4 and len({id(iso) for iso in isos.values()}) == 4
    for (g, h), iso in isos.items():
        assert iso.carrier.parent_indices.tolist() == [tw.group.mul(g, h)]
        assert iso.forward.tolist() == [[2 if g == h == 1 else 1]]
        assert iso.inverse.tolist() == [[2 if g == h == 1 else 1]]
    # a second round is answered from the cache
    for (g, h), iso in isos.items():
        assert bimod.mult_iso_conjugate_chain(tw, g, h, triv) is iso
    assert len(builds) == 4


@pytest.mark.parametrize("spec", ["s3_p2", "s3_p3"])
def test_crc_collisions_keep_contents_and_isomorphisms_apart(spec, capsys):
    # with every crc32 equal, a content bucket holds every module over the
    # same algebras and of the same dim, so only np.array_equal tells
    # contents and verified matrices apart: the run must give the same
    # report after the same validations, and one token per exact content
    runs = []
    for collide in (False, True):
        taken, counts = [], collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            if collide:
                mp.setattr(zlib, "crc32", lambda *args: 0)
            content = bimod.content
            mp.setattr(bimod, "content", lambda m: taken.append(m) or content(m))
            validate, verify = bimod.Bimodule.validate, bimod._verify_mult_iso

            def counted(self):
                counts["Bimodule.validate"] += 1
                validate(self)

            mp.setattr(bimod.Bimodule, "validate", counted)
            mp.setattr(bimod, "_verify_mult_iso",
                       lambda *args: counts.update(["_verify_mult_iso"]) or verify(*args))
            assert cli.main(["lemma2", "--spec", str(SPECS / f"{spec}.json"),
                             "--format", "json"]) == 0
        runs.append((capsys.readouterr().out, counts, taken))
    (report, counts, _), (collided, collided_counts, taken) = runs
    assert collided == report and collided_counts == counts
    tokens = collections.defaultdict(set)
    for m in taken:
        exact = (m.left, m.right, m.dim, m.left_action.dtype.str, m.left_action.tobytes(),
                 m.right_action.dtype.str, m.right_action.tobytes())
        tokens[exact].add(bimod.content(m))
    assert all(len(t) == 1 for t in tokens.values())
    assert len(set().union(*tokens.values())) == len(tokens) > 1
    buckets = [b for m in taken for b in m.left._cache["contents"].values()]
    assert max(map(len, buckets)) > 1


def test_one_content_with_other_matrices_is_verified_apart_under_crc_collision(monkeypatch):
    # the twisted F_3C2 of the built-apart test: four isomorphisms on one
    # content with matrices [[1]] (three) and [[2]] (one), so two verified
    # pairs, even when every crc32 is equal
    monkeypatch.setattr(zlib, "crc32", lambda *args: 0)
    f3 = PrimeField(3)
    coc = [[f3.arr([1]), f3.arr([1])], [f3.arr([1]), f3.arr([2])]]
    tw = galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f3, 1), cocycle=coc)
    triv = groups.trivial_subgroup(tw.group)
    checked = []
    verify = bimod._verify_mult_iso
    monkeypatch.setattr(bimod, "_verify_mult_iso", lambda m, n, iso: checked.append(
        (iso.forward.tolist(), iso.inverse.tolist())) or verify(m, n, iso))
    for g in range(2):
        for h in range(2):
            iso = bimod.mult_iso_conjugate_chain(tw, g, h, triv)
            assert iso.forward.tolist() == [[2 if g == h == 1 else 1]]
            assert iso.inverse.tolist() == [[2 if g == h == 1 else 1]]
    assert sorted(checked) == [([[1]], [[1]]), ([[2]], [[2]])]


# -- the generator checks against the whole-basis oracles ---------------------


def _d4_spec(tmp_path):
    spec = tmp_path / "d4_p2.json"
    spec.write_text(json.dumps({"field": {"p": 2}, "group": {"kind": "dihedral", "n": 4},
                                "algebra": {"kind": "group_algebra"}}))
    return spec


@pytest.mark.parametrize("run", [
    (command, spec) for command in ("lemma2", "verify")
    for spec in [*sorted(p.stem for p in SPECS.glob("*.json")), "d4_p2"]
], ids="-".join)
def test_generator_checks_agree_with_whole_basis_oracles(run, monkeypatch, capsys, tmp_path):
    # every module validated, and every relation space, tensor product and
    # hom basis built by the run, passes the whole-basis check or equals the
    # whole-basis construction; so does every multiplication isomorphism
    # lemma2 builds.  verify builds no tensor product, and the counit and
    # Casimir unit of every transfer it builds pass the whole-basis checks
    command, spec = run
    modules, isos, tensors, relations, homs, transfers = {}, {}, {}, {}, {}, {}
    calls = collections.Counter()
    validate_module, build_mult_iso = bimod.Bimodule.validate, bimod._build_mult_iso
    tensor_over, module_hom_basis = bimod.tensor_over, bimod.module_hom_basis
    balancing_relations, transfer_data = bimod.balancing_relations, hh.transfer_data

    def recording_module(self):
        validate_module(self)
        modules[id(self)] = self

    def recording_iso(rg, m, n, *args):
        out = build_mult_iso(rg, m, n, *args)
        isos[id(out)] = (m, n, out)
        return out

    def recording_tensor(m, n):
        calls["tensor_over"] += 1
        out = tensor_over(m, n)
        tensors[id(m), id(n)] = (m, n, out)
        return out

    def recording_relations(m, n):
        out = balancing_relations(m, n)
        relations[id(out)] = (m, n, out)
        return out

    def recording_homs(m, side):
        out = module_hom_basis(m, side)
        homs[id(m), side] = (m, side, out)
        return out

    def recording_transfer(*args, **kwargs):
        out = transfer_data(*args, **kwargs)
        transfers[id(out)] = out
        return out

    monkeypatch.setattr(bimod.Bimodule, "validate", recording_module)
    monkeypatch.setattr(bimod, "_build_mult_iso", recording_iso)
    monkeypatch.setattr(bimod, "tensor_over", recording_tensor)
    monkeypatch.setattr(bimod, "balancing_relations", recording_relations)
    monkeypatch.setattr(bimod, "module_hom_basis", recording_homs)
    monkeypatch.setattr(hh, "transfer_data", recording_transfer)
    path = _d4_spec(tmp_path) if spec == "d4_p2" else SPECS / f"{spec}.json"
    args = ["--degree", "2"] if command == "verify" else []
    assert cli.main([command, "--spec", str(path), *args]) == 0
    capsys.readouterr()
    assert modules and relations and homs
    if command == "verify":
        assert calls["tensor_over"] == 0 and not isos and transfers
    else:
        assert calls["tensor_over"] and isos and not transfers
    for m in modules.values():
        oracles.validate_bimodule(m)
    for m, n, sub in relations.values():
        assert sub == oracles.balancing_relations(m, n)
    for m, n, sub in tensors.values():
        assert sub == oracles.balancing_relations(m, n)
    for m, n, iso in isos.values():
        oracles.validate_mult_iso(m, n, iso)
    for m, side, basis in homs.values():
        assert _same_bytes(basis, oracles.module_hom_basis(m, side))
    for data in transfers.values():
        oracles.validate_transfer_data(data)


def _algebra(spec):
    return galg.group_algebra(groups.dihedral(4), 2) if spec == "d4_p2" else _load(spec)


def _verdict(check, *args):
    """The message ``check(*args)`` rejects with, or None if it accepts."""
    from gradedhh.errors import ValidationError

    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("spec", ["d4_p2", "s3_p3", "matrix_crossed_c2_p2"])
def test_perturbing_a_non_generator_fails_both_checks_alike(spec):
    rg = _algebra(spec)
    full = groups.full_subgroup(rg.group)
    m = bimod.side_restricted(rg, full, full)
    f = rg.field
    for side, message in (("left", "left action is not an algebra map"),
                          ("right", "right action is not a right representation")):
        alg = m.left if side == "left" else m.right
        # off the generators and off the unit's support, so both unit checks pass
        outside = np.setdiff1d(np.arange(alg.dim), np.concatenate(
            [galg.generators(alg), np.flatnonzero(alg.unit)]))
        assert outside.size
        for j in (outside[0], outside[-1]):
            bad = bimod.Bimodule(left=m.left, right=m.right, dim=m.dim,
                                 left_action=m.left_action.copy(),
                                 right_action=m.right_action.copy())
            act = bad.left_action if side == "left" else bad.right_action
            act[j, 0, -1] = (act[j, 0, -1] + 1) % f.p
            assert (_verdict(bimod.Bimodule.validate, bad)
                    == _verdict(oracles.validate_bimodule, bad) == message)


@pytest.mark.parametrize("spec", ["d4_p2", "s3_p3", "matrix_crossed_c2_p2"])
def test_perturbing_one_map_entry_fails_both_checks_alike(spec):
    # one entry of the multiplication map or of its inverse moved: the check
    # on generators and the whole-basis check reject it with the same message
    rg = _algebra(spec)
    subs = groups.all_subgroups(rg.group)
    f = rg.field
    verdicts = []
    for k in subs:
        for h in subs:
            iso = bimod.mult_iso_double_coset(rg, k, 0, h)
            left_mod, right_mod = _double_coset_factors(rg, k, 0, h)
            for name in ("forward", "inverse"):
                matrix = getattr(iso, name)
                for r, c in ((0, 0), (matrix.shape[0] - 1, matrix.shape[1] - 1)):
                    moved = matrix.copy()
                    moved[r, c] = (moved[r, c] + 1) % f.p
                    bad = dataclasses.replace(iso, **{name: moved})
                    verdict = _verdict(bimod._verify_mult_iso, left_mod, right_mod, bad)
                    assert verdict == _verdict(oracles.validate_mult_iso, left_mod, right_mod, bad)
                    verdicts.append(verdict)
    # moved off the relations or off a bimodule map, no entry passes, and
    # the checks before the compositions reject most
    assert len(verdicts) == 4 * len(subs) ** 2 and None not in verdicts
    assert {"multiplication does not kill the balancing relations",
            "map does not commute with the left action"} <= set(verdicts)


def test_inverse_is_checked_modulo_the_relations(ks3_p2):
    # the inverse is a map into M ox_B N: moving one of its columns by a
    # nonzero relation changes nothing, moving it off the relations fails
    f = ks3_p2.field
    full = groups.full_subgroup(ks3_p2.group)
    h = groups.subgroup_generated(ks3_p2.group, [involution(ks3_p2.group)])
    left_mod, right_mod = _double_coset_factors(ks3_p2, full, 0, h)
    iso = bimod.mult_iso_double_coset(ks3_p2, full, 0, h)
    rel = iso.relations
    assert rel.dim
    # a standard basis vector off the pivots has no component in the span
    off = np.flatnonzero(~np.isin(np.arange(rel.ambient_dim), rel.pivots))[0]
    verdicts = []
    for shift in (rel.basis[-1], f.eye(rel.ambient_dim)[off]):
        inverse = iso.inverse.copy()
        inverse[:, 0] = (inverse[:, 0] + shift) % f.p
        bad = dataclasses.replace(iso, inverse=inverse)
        verdicts.append(_verdict(bimod._verify_mult_iso, left_mod, right_mod, bad))
        assert verdicts[-1] == _verdict(oracles.validate_mult_iso, left_mod, right_mod, bad)
    assert verdicts == [None, "map does not commute with the left action"]


def test_bimodule_map_needs_the_same_two_algebras(ks3_p2):
    # the multiplication isomorphism of R_G ox_{R_G} R_G ~ R_G as R_G - R_G
    # bimodules, checked against the carrier over R_G - R_1 instead
    from gradedhh.errors import ValidationError

    grp = ks3_p2.group
    full, triv = groups.full_subgroup(grp), groups.trivial_subgroup(grp)
    left_mod, right_mod = _double_coset_factors(ks3_p2, full, 0, full)
    iso = bimod.mult_iso_double_coset(ks3_p2, full, 0, full)
    other = dataclasses.replace(iso, carrier=bimod.side_restricted(ks3_p2, full, triv))
    for check in (bimod._verify_mult_iso, oracles.validate_mult_iso):
        with pytest.raises(ValidationError, match="over different algebras"):
            check(left_mod, right_mod, other)
        check(left_mod, right_mod, iso)
    m, n = bimod.side_restricted(ks3_p2, full, full), bimod.side_restricted(ks3_p2, full, triv)
    with pytest.raises(ValidationError, match="over different algebras"):
        oracles.BimoduleMap(m, n, ks3_p2.field.eye(m.dim)).validate()
