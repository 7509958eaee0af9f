import json
import pathlib

import numpy as np
import pytest

import oracles
from gradedhh import bimod, galg, groups, hh, mackey


def system(rg, **kw):
    kw.setdefault("degree_bound", 2)
    return mackey.MackeySystem(rg, **kw)


@pytest.fixture(scope="module")
def s3_p2():
    return system(galg.group_algebra(groups.symmetric(3), 2))


def test_trivial_group_all_axioms():
    sys = system(galg.group_algebra(groups.cyclic(1), 2))
    reports = sys.verify_all(degrees=range(3))
    assert reports and all(r.ok for r in reports)


def test_restriction_to_itself_is_identity(s3_p2):
    full = s3_p2.full()
    for n in (0, 1, 2):
        mat = s3_p2.restriction(full, n)
        assert np.array_equal(mat, np.eye(mat.shape[0], dtype=np.int64))


def test_trivial_group_restriction_is_1x1():
    sys = system(galg.group_algebra(groups.cyclic(1), 3))
    assert np.array_equal(sys.restriction(sys.full(), 0), np.eye(1, dtype=np.int64))


def test_transfer_up_c2_trivial_degree0_zero():
    sys = system(galg.group_algebra(groups.cyclic(2), 2))
    triv = groups.trivial_subgroup(sys.group)
    mat = sys.transfer_up(triv, 0)
    assert mat.shape == (2, 1) and not mat.any()


def test_conjugation_identity_cases(s3_p2):
    grp = s3_p2.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    for n in (0, 1):
        mat = s3_p2.conjugation(0, h, n)
        assert np.array_equal(mat, np.eye(mat.shape[0], dtype=np.int64))
        mat = s3_p2.conjugation(invol, h, n)
        assert np.array_equal(mat, np.eye(mat.shape[0], dtype=np.int64))


def test_degrees_outside_the_bound_raise_validation_error(s3_p2):
    from gradedhh.errors import ValidationError

    full = s3_p2.full()
    for n in (-1, 3):
        with pytest.raises(ValidationError, match=f"degree {n} is outside 0..2"):
            s3_p2.map_along(full, 0, full, n)
        with pytest.raises(ValidationError, match="outside|negative"):
            s3_p2.verify_axiom("ii", {"H": full.elements}, n)
    assert s3_p2.verify_axiom("ii", {"H": full.elements}, 2).ok


def test_transitivity_chain_s3(s3_p2):
    grp = s3_p2.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    k = groups.trivial_subgroup(grp)
    f = s3_p2.rg.field
    for n in (0, 1, 2):
        lhs = f.matmul(s3_p2.map_along(k, 0, h, n), s3_p2.restriction(h, n))
        assert np.array_equal(lhs, s3_p2.restriction(k, n))
        lhs = f.matmul(s3_p2.transfer_up(h, n), s3_p2.map_along(h, 0, k, n))
        assert np.array_equal(lhs, s3_p2.transfer_up(k, n))


def test_verify_all_v4_f2():
    rg = galg.group_algebra(groups.direct_product(groups.cyclic(2), groups.cyclic(2)), 2)
    sys = system(rg)
    reports = sys.verify_all(degrees=range(3))
    bad = [r for r in reports if not r.ok]
    assert not bad, bad[:3]
    assert {r.axiom for r in reports} == set(mackey.AXIOMS)


def test_axiom_vi_s3_example_instance(s3_p2):
    grp = s3_p2.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    reps = groups.double_coset_reps(h, h)
    assert len(reps) == 2
    for n in (0, 1, 2):
        rep = s3_p2.verify_axiom(
            "vi", {"K": h.elements, "H": h.elements}, n
        )
        assert rep.ok, (n, rep.lhs, rep.rhs)


def test_axiom_vi_representative_independence(s3_p2):
    grp = s3_p2.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    minimal = groups.double_coset_reps(h, h)
    # replace each minimal representative with the largest member of its coset
    awkward = [max(groups.double_coset(h, g, h)) if g != 0 else max(h.elements)
               for g in minimal]
    assert awkward != minimal
    for n in (0, 1):
        base = s3_p2.verify_axiom("vi", {"K": h.elements, "H": h.elements}, n)
        moved = s3_p2.verify_axiom(
            "vi", {"K": h.elements, "H": h.elements, "reps": awkward}, n
        )
        assert base.ok and moved.ok
        assert np.array_equal(base.rhs, moved.rhs)


def test_semisimple_restriction_validated_by_double_coset_formula():
    # p does not divide the order: only degree 0 is nonzero, and the
    # restriction lands in the smaller center
    rg = galg.group_algebra(groups.symmetric(3), 7)
    sys = system(rg, degree_bound=0)
    grp = sys.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    mat = sys.restriction(h, 0)
    assert mat.shape == (2, 3)
    rep = sys.verify_axiom("vi", {"K": h.elements, "H": h.elements}, 0)
    assert rep.ok


def test_selected_axioms_s3_f3():
    rg = galg.group_algebra(groups.symmetric(3), 3)
    sys = system(rg, degree_bound=1)
    reports = sys.verify_all(degrees=range(2), axioms=("ii", "iv", "vi"))
    assert reports and all(r.ok for r in reports)


def test_double_coset_formula_incomparable_pair(s3_p2):
    # the formula also holds when neither subgroup contains the other
    grp = s3_p2.group
    invols = [x for x in range(1, 6) if grp.mul(x, x) == 0]
    k = groups.subgroup_generated(grp, [invols[0]])
    h = groups.subgroup_generated(grp, [invols[1]])
    assert not k.is_subset_of(h) and not h.is_subset_of(k)
    for n in (0, 1, 2):
        rep = s3_p2.verify_axiom("vi", {"K": k.elements, "H": h.elements}, n)
        assert rep.ok, (n, rep.lhs, rep.rhs)


def test_twisted_group_algebra_system():
    # nontrivial 2-cocycle over a 1x1 matrix base: t*t = 2 makes the algebra
    # the quadratic field extension of F_3, so only degree 0 survives
    from gradedhh import hh
    from gradedhh.exactfield import PrimeField

    f3 = PrimeField(3)
    base = galg.matrix_algebra(f3, 1)
    coc = [[f3.arr([1]), f3.arr([1])], [f3.arr([1]), f3.arr([2])]]
    tw = galg.crossed_product(groups.cyclic(2), base, cocycle=coc)
    assert [hh.cohomology(tw.algebra, n).dim for n in range(3)] == [2, 0, 0]
    sys = system(tw)
    reports = sys.verify_all(degrees=range(3))
    assert reports and all(r.ok for r in reports)


def test_crossed_product_with_conjugation_action():
    # the swap matrix induces an order-2 automorphism of M_2; the resulting
    # crossed product is a presentation with a genuinely nontrivial action
    from gradedhh import hh
    from gradedhh.exactfield import PrimeField

    f2 = PrimeField(2)
    base = galg.matrix_algebra(f2, 2)
    u = f2.arr([[0, 1], [1, 0]])
    uinv = f2.inverse(u)
    act = f2.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            e = f2.zeros((2, 2))
            e[a, b] = 1
            act[:, a * 2 + b] = f2.matmul(u, f2.matmul(e, uinv)).reshape(-1)
    cp = galg.crossed_product(groups.cyclic(2), base, action=[f2.eye(4), act])
    sys = system(cp, degree_bound=1)
    reports = sys.verify_all(degrees=range(2))
    assert reports and all(r.ok for r in reports)
    # inner action: same cohomology as the untwisted crossed product
    assert [hh.cohomology(cp.algebra, n).dim for n in range(2)] == [2, 2]


def test_crossed_product_with_central_matrix_cocycle():
    # tau(t,t) = 2I over M_2(F_3): the algebra is M_2 of the quadratic field
    # extension, so only degree 0 survives
    from gradedhh import hh
    from gradedhh.exactfield import PrimeField

    f3 = PrimeField(3)
    base = galg.matrix_algebra(f3, 2)
    unit = base.unit.copy()
    coc = [[unit, unit], [unit, (2 * unit) % 3]]
    cp = galg.crossed_product(groups.cyclic(2), base, cocycle=coc)
    sys = system(cp, degree_bound=1)
    reports = sys.verify_all(degrees=range(2))
    assert reports and all(r.ok for r in reports)
    assert [hh.cohomology(cp.algebra, n).dim for n in range(2)] == [2, 0]


def test_dihedral_group_algebra_suite():
    rg = galg.group_algebra(groups.dihedral(4), 2)
    sys = system(rg, degree_bound=1)
    reports = sys.verify_all(degrees=range(2))
    bad = [r for r in reports if not r.ok]
    assert len(reports) == 700 and not bad, bad[:3]


def test_subgroup_selection():
    rg = galg.group_algebra(groups.symmetric(3), 2)
    sys = system(rg)
    subs = sys.select_subgroups([[1], []])
    assert len(subs) == 2
    assert subs[0].order == 1
    reports = sys.verify_all(selection=[[1], []], degrees=(0,), axioms=("i",))
    assert reports and all(r.ok for r in reports)


def test_report_json_shape(s3_p2):
    rep = s3_p2.verify_axiom("ii", {"H": (0,)}, 0)
    js = rep.to_json()
    assert js["verdict"] == "pass"
    assert "lhs" not in js


def test_failed_axiom_names_its_maps(monkeypatch):
    sys = system(galg.group_algebra(groups.cyclic(2), 2), degree_bound=0)
    h = sys.full()
    honest = sys.map_along

    def broken(k, g, hh, n):
        mat = honest(k, g, hh, n)
        return (mat + 1) % 2 if (k.key, g, hh.key) == (h.key, 0, h.key) else mat

    monkeypatch.setattr(sys, "map_along", broken)
    report = sys.verify_axiom("ii", {"H": h.elements}, 0)
    assert not report.ok
    assert report.lhs_words == [[(h.elements, 0, h.elements)]]
    assert report.rhs_words == [[]]
    assert mackey.side_text(report.lhs_words) == "((0, 1), 0, (0, 1))"
    assert mackey.side_text(report.rhs_words) == "id"
    assert set(report.to_json()) == {"axiom", "instance", "degree", "verdict", "lhs", "rhs"}


# -- one transfer per distinct carrier, checked against fresh builds ---------

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
GROUP_ALGEBRA_SPECS = sorted(
    path.stem for path in SPECS.glob("*.json")
    if json.loads(path.read_text())["algebra"]["kind"] == "group_algebra")


def _bytes(*arrays):
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _check_carriers(rg, degrees):
    """For every (K, g, H) with K, H subgroups and g any element: map_along at
    each degree equals the per-representative oracle on a TransferData
    built fresh from the (K, g, H) truncation.  Elements of one double coset
    share one TransferData, and two triples that share one give the same
    carrier KgH over the same K and H, or carriers whose algebras, actions
    and symmetrizing forms are byte-equal."""
    sys = system(rg, degree_bound=max(degrees))
    subs = groups.all_subgroups(rg.group)
    by_carrier, by_data = {}, {}
    for k in subs:
        for h in subs:
            dk, dh = sys.sub_data(k), sys.sub_data(h)
            for g in range(rg.group.order):
                fresh = hh.transfer_data(bimod.truncation(rg, k, g, h),
                                         dk.form.vector, dh.form.vector)
                for n in degrees:
                    expect = oracles.transfer_by_representative(
                        fresh, n, dh.classes(n, sys.memory_mb), dk.classes(n, sys.memory_mb))
                    assert np.array_equal(sys.map_along(k, g, h, n), expect), (k, g, h, n)
                data = sys.transfer_for(k, g, h)
                by_carrier.setdefault((k.key, groups.double_coset(k, g, h), h.key),
                                      set()).add(id(data))
                m = bimod.truncation(rg, k, g, h)
                content = _bytes(m.left.sc, m.left.unit, m.right.sc, m.right.unit,
                                 m.left_action, m.right_action, dk.form.vector, dh.form.vector)
                by_data.setdefault(id(data), set()).add(content)
    assert all(len(ids) == 1 for ids in by_carrier.values())
    assert all(len(contents) == 1 for contents in by_data.values())
    # and no two TransferData were built for the same content
    assert len(set().union(*by_data.values())) == len(by_data)
    return len(by_carrier), len(by_data)


@pytest.mark.parametrize("spec", GROUP_ALGEBRA_SPECS)
def test_carrier_transfers_match_fresh_per_representative_oracle(spec):
    _check_carriers(galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text())),
                    range(3))


def test_carrier_transfers_match_fresh_per_representative_oracle_d4():
    # 195 carriers (K, KgH, H), of 78 distinct contents
    assert _check_carriers(galg.group_algebra(groups.dihedral(4), 2), range(3)) == (195, 78)


def test_carrier_transfers_match_fresh_per_representative_oracle_s3_degree_3():
    # degrees 0..2 are covered by the s3_p2 spec above
    _check_carriers(galg.group_algebra(groups.symmetric(3), 2), (3,))


@pytest.mark.parametrize("spec", GROUP_ALGEBRA_SPECS + ["d4_p2"])
def test_transfer_after_restriction_is_the_sector_scalar(spec):
    """tr^G_H o res^G_H is not [G:H] id, but one scalar per twist class.

    By the centralizer decomposition HH^n(kG) = sum over the classes h^G of
    H^n(C_G(h), k), a representative in the twist class of h is a class of
    C_G(h).  Restriction to H should send it to the H-classes h' inside
    h^G cap H, each as the restriction from C_G(h') to C_H(h'); the
    corestriction back multiplies each by [C_G(h'):C_H(h')], and the
    results add up in the class of h.  So tr o res is diagonal, with entry
    sum over those h' of [C_G(h'):C_H(h')] mod p on the class of h.  As
    |C_G(h')| = |G| / |h^G| and |C_H(h')| = |H| / |h'^H|, that sum is
    [G:H] |h^G cap H| / |h^G|, which is 0 on a class that misses H."""
    if spec == "d4_p2":
        rg = galg.group_algebra(groups.dihedral(4), 2)
    else:
        rg = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))
    grp, p = rg.group, rg.field.p
    sys = system(rg)
    whole = sys.full()
    classes = {cls[0]: set(cls) for cls in oracles.conjugacy_classes(grp)}

    def centralizer_order(y, over):
        return sum(grp.mul(x, y) == grp.mul(y, x) for x in over)

    for h in groups.all_subgroups(grp):
        if len(h.elements) == grp.order:
            continue
        inside, index = set(h.elements), grp.order // len(h.elements)
        scalar = {}
        for g, cls in classes.items():
            # the H-classes h' inside h^G cap H, and the sum of their indices
            sub_classes = {min(grp.conj(x, y) for x in h.elements) for y in cls & inside}
            total = sum(centralizer_order(y, range(grp.order)) // centralizer_order(y, inside)
                        for y in sub_classes)
            assert total * len(cls) == index * len(cls & inside), (g, h.elements)
            scalar[g] = total % p
        for n in range(3):
            labels = oracles.twist_classes(rg, hh.cohomology(rg.algebra, n).reps, n)
            got = rg.field.matmul(sys.map_along(whole, 0, h, n), sys.map_along(h, 0, whole, n))
            want = np.diag([scalar[g] for g in labels]).astype(np.int64)
            assert np.array_equal(got, want), (h.elements, n)


def test_carriers_with_equal_actions_but_other_forms_get_their_own_transfer(monkeypatch):
    # C2 x C2 over F_3: the three order-2 subgroups share one algebra F_3C2,
    # so their carriers (H, 1, H) are regular modules of equal content.  With
    # the form of one of them doubled (still symmetrizing over F_3), its
    # carrier gets its own TransferData and its own transfer matrices.
    rg = galg.group_algebra(groups.direct_product(groups.cyclic(2), groups.cyclic(2)), 3)
    subs = [s for s in groups.all_subgroups(rg.group) if s.order == 2]
    doubled = subs[0]
    form = galg.symmetrizing_form

    def patched(a, seed=0):
        out = form(a, seed=seed)
        if a is galg.component_subalgebra(rg, doubled):
            vector = 2 * out.vector % 3
            out = galg.SymmetrizingForm(vector=vector, gram=2 * out.gram % 3, source=out.source)
        return out

    monkeypatch.setattr(galg, "symmetrizing_form", patched)
    sys = system(rg)
    modules = [bimod.truncation(rg, h, 0, h) for h in subs]
    assert len({bimod.content(m) for m in modules}) == 1
    data = [sys.transfer_for(h, 0, h) for h in subs]
    assert data[0] is not data[1] and data[1] is data[2]
    for h in subs:
        for n in range(3):
            mat = sys.map_along(h, 0, h, n)
            assert np.array_equal(mat, np.eye(len(mat), dtype=np.int64)), (h, n)
    for n in range(3):
        assert hh.transfer(data[0], n) is not hh.transfer(data[1], n)


def test_d4_verify_builds_each_transfer_and_cohomology_once_per_content(monkeypatch, capsys,
                                                                         tmp_path):
    # D4 over F_2 at degree 2: the 83 carriers that verify reaches have 40
    # distinct contents and forms, and its 10 subgroups x 3 degrees have 15
    # distinct algebra-degree pairs
    from gradedhh import cli

    counts = {"transfer_data": 0, "cohomology": 0}
    transfer_data, cohomology = hh.transfer_data, hh.cohomology

    def counting_transfer_data(*args, **kwargs):
        counts["transfer_data"] += 1
        return transfer_data(*args, **kwargs)

    def counting_cohomology(a, n, *args, **kwargs):
        counts["cohomology"] += n not in a._cache.get("hh", {})
        return cohomology(a, n, *args, **kwargs)

    monkeypatch.setattr(hh, "transfer_data", counting_transfer_data)
    monkeypatch.setattr(hh, "cohomology", counting_cohomology)
    spec = tmp_path / "d4_p2.json"
    spec.write_text(json.dumps({"field": {"p": 2}, "group": {"kind": "dihedral", "n": 4},
                                "algebra": {"kind": "group_algebra"}}))
    assert cli.main(["verify", "--spec", str(spec), "--degree", "2"]) == 0
    capsys.readouterr()
    assert counts == {"transfer_data": 40, "cohomology": 15}


def test_d4_verify_pushes_each_transfer_once_per_data_and_degree(monkeypatch, capsys, tmp_path):
    # D4 over F_2 at degree 2: hh.transfer keeps its matrix on the
    # TransferData, so every repeat of a (data, n) gets the same read-only
    # array, and the 40 TransferData push representatives 110 times
    from gradedhh import cli

    seen, calls, pushes = {}, [], []
    transfer, transfer_cochain = hh.transfer, hh.transfer_cochain

    def recording(data, n):
        mat = transfer(data, n)
        calls.append((data, n))
        assert not mat.flags.writeable
        assert seen.setdefault((data, n), mat) is mat
        return mat

    def counting(data, zeta, n):
        pushes.append(n)
        return transfer_cochain(data, zeta, n)

    monkeypatch.setattr(hh, "transfer", recording)
    monkeypatch.setattr(hh, "transfer_cochain", counting)
    spec = tmp_path / "d4_p2.json"
    spec.write_text(json.dumps({"field": {"p": 2}, "group": {"kind": "dihedral", "n": 4},
                                "algebra": {"kind": "group_algebra"}}))
    assert cli.main(["verify", "--spec", str(spec), "--degree", "2"]) == 0
    capsys.readouterr()
    assert len(calls) > len(seen)
    assert len(pushes) == 110
