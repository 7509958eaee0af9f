import dataclasses
import functools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradedhh import bimod, galg, groups, hh
from gradedhh.errors import BudgetError, ValidationError
from gradedhh.exactfield import PrimeField, subspace_from_rows


def group_algebra(kind, p):
    builders = {
        "c2": lambda: groups.cyclic(2),
        "c3": lambda: groups.cyclic(3),
        "v4": lambda: groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
        "s3": lambda: groups.symmetric(3),
        "d4": lambda: groups.dihedral(4),
    }
    return galg.group_algebra(builders[kind](), p)


def regular_data(rg):
    s = galg.symmetrizing_form(rg)
    return hh.transfer_data(bimod.regular(rg.algebra), s.vector, s.vector)


# -- bar resolution (test oracle) ------------------------------------------


def test_bar_ranks_and_squares():
    one = oracles.trivially_graded(galg.matrix_algebra(PrimeField(5), 1))
    for a, top in ((one.algebra, 3), (group_algebra("c2", 2).algebra, 3),
                   (group_algebra("s3", 2).algebra, 2)):
        f = a.field
        d = a.dim
        diffs = [oracles.bar_differential(a, n) for n in range(1, top + 1)]
        assert [x.shape for x in diffs] == [(d ** n, d ** (n + 1)) for n in range(2, top + 2)]
        assert not f.matmul(oracles.mult_matrix(a), diffs[0]).any()
        for lower, upper in zip(diffs, diffs[1:]):
            assert not f.matmul(lower, upper).any()


def test_bar_differentials_are_bimodule_maps():
    c2 = group_algebra("c2", 2)
    for n in (1, 2):
        src = oracles.bar_bimodule(c2.algebra, n)
        tgt = oracles.bar_bimodule(c2.algebra, n - 1)
        bimod.BimoduleMap(src, tgt, oracles.bar_differential(c2.algebra, n)).validate()


def test_delta_matches_bar_derived_differential():
    # for a group algebra the unit is the basis vector at the identity, so
    # the generator (1 ox a ox 1) is itself a basis vector of Bar_n
    rg = group_algebra("c2", 2)
    a = rg.algebra
    f = a.field
    d = a.dim
    cc = hh.CochainComplex(a)
    for n in (0, 1, 2):
        delta = oracles.as_dense(cc.delta(n))
        dn1 = oracles.bar_differential(a, n + 1)
        for col in range(d ** n):
            fmat = f.zeros((d, d ** n))
            for r in range(d):
                fmat[r, col] = 1
                fhat = _bimodule_extension(a, fmat, n)
                image = f.matmul(fhat, dn1)
                got = _restrict_to_generators(image, d, n + 1)
                assert np.array_equal(got.reshape(-1), delta[:, r * d ** n + col].reshape(d, d**(n+1)).reshape(-1))
                fmat[r, col] = 0


def _bimodule_extension(a, fmat, n):
    # a0 ox x ox a_{n+1} -> a0 f(x) a_{n+1} as a matrix A^(n+2) -> A
    f = a.field
    d = a.dim
    mu = oracles.mult_matrix(a)
    inner = f.kronecker(f.eye(d), f.kronecker(fmat, f.eye(d)))
    return f.matmul(mu, f.matmul(f.kronecker(mu, f.eye(d)), inner))


def _restrict_to_generators(mat, d, n):
    # select columns (1, a_1..a_n, 1) of A^(ox n+2): for the group algebra the
    # unit is basis 0, so the column index is a_vec shifted by one d-adic digit
    cols = []
    for t in range(d ** n):
        cols.append(t * d)          # index (0, a_vec, 0) = ((0*d^n + t) * d) + 0
    return mat[:, cols]


def test_delta_squares_to_zero():
    for kind, p, top in (("c2", 2, 3), ("c3", 3, 2), ("s3", 2, 1), ("v4", 2, 2)):
        rg = group_algebra(kind, p)
        cc = hh.CochainComplex(rg.algebra)
        f = rg.field
        for n in range(top):
            upper, lower = (oracles.as_dense(cc.delta(k)) for k in (n + 1, n))
            assert not f.matmul(upper, lower).any(), (kind, n)


# -- cohomology --------------------------------------------------------------


SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def _matches_dense_oracle(a, degrees):
    f = a.field
    cc = hh.CochainComplex(a)
    rng = np.random.default_rng(5)
    for n in degrees:
        dense = oracles.DenseClasses(a, n)
        assert np.array_equal(oracles.as_dense(cc.delta(n)), dense.delta), n
        classes = hh.cohomology(a, n)
        assert classes.dim == dense.dim and np.array_equal(classes.reps, dense.reps), n
        # coboundaries: the image of delta(n-1), none in degree 0
        lower = oracles.dense_delta(a, n - 1) if n else f.zeros((cc.dim(0), 1))
        for rep in classes.reps:
            xi = rng.integers(0, f.p, size=lower.shape[1])
            shifted = (rep + f.matmul(lower, xi)) % f.p
            for vec in (rep, shifted):
                assert np.array_equal(classes.coords(vec), dense.coords(vec)), n


@pytest.mark.parametrize("spec", sorted(path.stem for path in SPECS.glob("*.json")))
def test_sparse_complex_matches_dense_oracle(spec):
    rg = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))
    for sub in groups.all_subgroups(rg.group):
        _matches_dense_oracle(galg.component_subalgebra(rg, sub).algebra, range(3))


def test_sparse_complex_matches_dense_oracle_s3_degree_3():
    _matches_dense_oracle(group_algebra("s3", 2).algebra, [3])


@pytest.mark.parametrize("kind,p,degrees", [
    # over F_2 every sign is +1
    ("s3", 3, [3]), ("s3", 7, [3]),
    # a sign -1 is p - 1 near 2**31, and n + 2 terms meet at some entries
    ("c3", 2**31 - 1, range(4)),
], ids=["s3_p3", "s3_p7", "c3_p2147483647"])
def test_delta_signs_and_large_p_match_the_dense_oracle(kind, p, degrees):
    a = group_algebra(kind, p).algebra
    for n in degrees:
        assert np.array_equal(oracles.as_dense(hh.CochainComplex(a).delta(n)),
                              oracles.dense_delta(a, n)), n


def _check_centralizer_split(rg, expected):
    for n in range(4):
        got = oracles.twist_class_counts(rg, hh.cohomology(rg.algebra, n).reps, n)
        assert got.keys() == expected.keys()
        for g, dims in expected.items():
            assert got[g] == dims[n], (
                f"HH^{n}: the class of g = {g} holds {got[g]} representatives, "
                f"but H^{n}(C_G(g)) has dimension {dims[n]}")


@pytest.mark.parametrize("kind,p", sorted(oracles.CENTRALIZER_HH))
def test_hh_splits_by_centralizer(kind, p):
    expected = oracles.CENTRALIZER_HH[kind, p]
    rg = group_algebra(kind, p)
    for g, dims in expected.items():
        assert oracles.group_cohomology_dims(oracles.centralizer(rg.group, g), p, 3) == list(dims), g
    _check_centralizer_split(rg, expected)


@pytest.mark.parametrize("spec", sorted(
    path.stem for path in SPECS.glob("*.json")
    if json.loads(path.read_text())["algebra"]["kind"] == "group_algebra"))
def test_hh_of_subgroup_components_splits_by_centralizer(spec):
    rg = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))
    for sub in groups.all_subgroups(rg.group):
        comp = galg.component_subalgebra(rg, sub)
        grp = comp.group
        expected = {cls[0]: tuple(oracles.group_cohomology_dims(
            oracles.centralizer(grp, cls[0]), rg.field.p, 3)) for cls in oracles.conjugacy_classes(grp)}
        _check_centralizer_split(comp, expected)


def test_centralizer_split_names_the_class_of_a_dropped_entry(monkeypatch):
    # a lost entry of delta(0) shrinks the centre, and no check inside
    # cohomology sees it: degree 0 has no coboundaries
    honest = hh.CochainComplex.delta

    def dropped(self, n, memory_mb):
        out = honest(self, n, memory_mb)
        if n:
            return out
        vals = out.vals.copy()
        vals[0] = 0
        return dataclasses.replace(out, vals=vals)

    monkeypatch.setattr(hh.CochainComplex, "delta", dropped)
    with pytest.raises(AssertionError, match=r"HH\^0: the class of g = 1 holds 0"):
        _check_centralizer_split(group_algebra("s3", 2), oracles.CENTRALIZER_HH["s3", 2])


def test_hh_dims_c2_f2_with_periodic_oracle():
    oracle = oracles.truncated_poly_hh_dims(2, 2, 3)
    assert oracle == [2, 2, 2, 2]
    rg = group_algebra("c2", 2)
    for n in range(4):
        assert hh.cohomology(rg.algebra, n).dim == oracle[n]


def test_hh_dims_c3_f3_with_periodic_oracle():
    oracle = oracles.truncated_poly_hh_dims(3, 3, 3)
    assert oracle == [3, 3, 3, 3]
    rg = group_algebra("c3", 3)
    for n in range(4):
        assert hh.cohomology(rg.algebra, n).dim == oracle[n]


def test_hh_dims_s3_f7_semisimple():
    rg = group_algebra("s3", 7)
    assert hh.cohomology(rg.algebra, 0).dim == 3
    assert hh.cohomology(rg.algebra, 1).dim == 0
    assert hh.cohomology(rg.algebra, 2).dim == 0


def test_hh0_equals_center_subspace():
    for kind, p in (("c2", 2), ("s3", 2), ("s3", 3), ("v4", 2), ("c3", 3)):
        rg = group_algebra(kind, p)
        classes = hh.cohomology(rg.algebra, 0)
        center = oracles.center(rg.algebra)
        span = subspace_from_rows(rg.field, classes.reps, ambient_dim=rg.dim)
        assert span == center


@pytest.mark.parametrize("kind,p", [("c2", 3), ("c3", 2), ("s3", 5)])
def test_maschke_vanishing(kind, p):
    rg = group_algebra(kind, p)
    for n in (1, 2):
        assert hh.cohomology(rg.algebra, n).dim == 0


def test_cohomology_budget_error():
    a = group_algebra("s3", 2).algebra
    keep = hh.cohomology(a, 3)._free
    with pytest.raises(BudgetError):
        hh.CochainComplex(a).delta(3, 1).kernel(keep, 1)


def test_cohomology_budget_holds_after_a_larger_budget():
    # the budget is the call's: a complex first used with 1024 MiB must not
    # lend that budget to a later call that asks for 1 MiB
    a = group_algebra("s3", 2).algebra
    with pytest.raises(BudgetError):
        hh.cohomology(a, 3, 1)
    assert hh.cohomology(a, 2, 1024).dim == 2
    with pytest.raises(BudgetError):
        hh.cohomology(a, 3, 1)
    assert hh.cohomology(a, 3, 1024).dim == 2


# the budget estimates count array data; the interpreter's own objects (pivot
# tuples, block lists, array headers) add at most a few hundred KiB
OBJECT_SLACK = 256 * 1024


@pytest.mark.parametrize("spec", sorted(path.stem for path in SPECS.glob("*.json")))
def test_kernel_and_image_peaks_stay_within_their_budget_checks(spec, monkeypatch):
    a = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text())).algebra
    checked = []
    honest = hh._check_budget
    monkeypatch.setattr(hh, "_check_budget",
                        lambda count, mb, what: (checked.append(count), honest(count, mb, what)))
    for n in range(4):
        # the build: ``_contract``'s checks, then the differential it keeps
        hh.CochainComplex(a).delta(n)                               # first-call allocations
        checked.clear()
        added = _added_peak(lambda: hh.CochainComplex(a).delta(n))
        assert added <= max(checked) + OBJECT_SLACK, (n, "delta")
    for n, method in [(n, "kernel") for n in range(4)] + [(n, "image") for n in range(3)]:
        # a kernel keeps the columns that cohomology keeps: those the
        # coboundaries leave free
        args = (hh.cohomology(a, n)._free,) if method == "kernel" else ()
        getattr(hh.CochainComplex(a).delta(n), method)(*args)      # first-call allocations
        tracemalloc.start()
        try:
            d = hh.CochainComplex(a).delta(n)
            before = tracemalloc.get_traced_memory()[0]
            checked.clear()
            tracemalloc.reset_peak()
            getattr(d, method)(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # what the call added, plus the differential it holds throughout
        assert peak - before + d.nbytes <= max(checked) + OBJECT_SLACK, (n, method)


# -- the kernel on the columns the coboundaries leave free -------------------


SPEC_NAMES = sorted(path.stem for path in SPECS.glob("*.json"))


@functools.lru_cache(maxsize=None)
def _spec_algebra(spec):
    return galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text())).algebra


@functools.lru_cache(maxsize=None)
def _spec_delta(spec, n):
    return hh.CochainComplex(_spec_algebra(spec)).delta(n)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([(spec, n) for spec in SPEC_NAMES for n in range(3)] + [("s3_p2", 3)]),
       seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.3, 0.8, 0.95, 1.0]))
def test_restricted_kernel_matches_dense_oracle(case, seed, share):
    d = _spec_delta(*case)
    keep = np.flatnonzero(np.random.default_rng(seed).random(d.shape[1]) < share)
    got = d.kernel(keep)
    want = d.field.kernel(oracles.as_dense(d)[:, keep])
    assert got == want and np.array_equal(got.basis, want.basis)


@pytest.mark.parametrize("spec", [spec for spec in SPEC_NAMES if spec.endswith("_p2")])
def test_every_f2_elimination_of_cohomology_matches_the_int64_loop(spec, monkeypatch):
    # every rref that HH^n needs at n <= 3 (each kernel batch and image
    # block of delta) gives the packed loop's result under the int64 loop
    calls = []
    packed = PrimeField.rref

    def both(field, mat, block_size=256):
        R, piv = packed(field, mat, block_size)
        R_int, piv_int = field._rref_panels(mat, block_size)
        assert piv == piv_int and np.array_equal(R, R_int)
        calls.append(R.shape)
        return R, piv

    monkeypatch.setattr(PrimeField, "rref", both)
    a = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text())).algebra
    for n in range(4):
        hh.cohomology(a, n)
    assert calls


@pytest.mark.parametrize("spec,n", [(spec, n) for spec in SPEC_NAMES for n in (1, 2)] + [("s3_p2", 3)])
def test_cocycles_modulo_coboundaries_are_the_kernel_on_the_free_columns(spec, n):
    # B lies in Z, so Z = B + (Z on the columns F that B leaves free): the
    # cocycles reduced modulo B and read on F span what cohomology keeps
    a = _spec_algebra(spec)
    f = a.field
    classes = hh.cohomology(a, n)
    z = f.kernel(oracles.dense_delta(a, n))
    w = subspace_from_rows(f, classes._b.reduce_rows(z.basis)[:, classes._free],
                           ambient_dim=len(classes._free))
    assert w == classes._w


def _dense_images(d, cochains):
    """delta of each row of ``cochains`` from the dense oracle, a slab of
    rows of delta at a time."""
    slab = 2048
    return np.concatenate([d.field.matmul(cochains, oracles.as_dense(d, lo, lo + slab).T)
                           for lo in range(0, d.shape[0], slab)], axis=1)


@pytest.mark.parametrize("build", [
    *(pytest.param(functools.partial(_spec_algebra, spec), id=spec) for spec in SPEC_NAMES),
    # products near 2**62: each must be reduced before it is summed
    pytest.param(lambda: group_algebra("c3", 2**31 - 1).algebra, id="c3_p2147483647"),
])
def test_delta_images_match_dense_product(build, monkeypatch):
    a = build()
    f = a.field
    rng = np.random.default_rng(11)
    for n in range(4):
        d = hh.CochainComplex(a).delta(n)
        dim = d.shape[1]
        cochains = np.stack([
            rng.integers(0, f.p, size=dim),
            rng.integers(0, f.p, size=dim) * (rng.random(dim) < 0.05),
            np.zeros(dim, dtype=np.int64),
            np.eye(dim, dtype=np.int64)[dim // 2] * (f.p - 1),
        ])
        want = _dense_images(d, cochains)
        # at a small slice, one row per chunk and a few products per pass
        for width in (hh._SLICE, 64) if n < 3 else (hh._SLICE,):
            monkeypatch.setattr(hh, "_SLICE", width)
            got = np.concatenate(list(d.images(cochains)))
            assert np.array_equal(got, want), (n, width)
        monkeypatch.undo()


def test_cohomology_rejects_coboundaries_that_are_not_cocycles(monkeypatch):
    a = group_algebra("s3", 2).algebra
    dense = oracles.as_dense(hh.CochainComplex(a).delta(2))
    bad = next(e for e in np.eye(dense.shape[1], dtype=np.int64) if (dense @ e % 2).any())
    honest = hh.Differential.image

    def image(self, memory_mb=hh.DEFAULT_MEMORY_MB):
        b = honest(self, memory_mb)
        return subspace_from_rows(b.field, np.vstack([b.basis, bad]), ambient_dim=b.ambient_dim)

    monkeypatch.setattr(hh.Differential, "image", image)
    with pytest.raises(ValidationError, match=r"coboundaries are not cocycles \(bug\)"):
        hh.cohomology(a, 2)


def test_cohomology_rejects_representatives_that_are_not_cocycles(monkeypatch):
    a = group_algebra("s3", 2).algebra
    dense = oracles.as_dense(hh.CochainComplex(a).delta(2))

    def kernel(self, keep, memory_mb=hh.DEFAULT_MEMORY_MB):
        j = next(j for j, col in enumerate(keep) if dense[:, col].any())
        return subspace_from_rows(self.field, np.eye(len(keep), dtype=np.int64)[j])

    monkeypatch.setattr(hh.Differential, "kernel", kernel)
    with pytest.raises(ValidationError, match=r"representative is not a cocycle \(bug\)"):
        hh.cohomology(a, 2)


# -- transfer: identity anchors ----------------------------------------------


def test_transfer_trivial_algebra():
    one = oracles.trivially_graded(galg.matrix_algebra(PrimeField(3), 1))
    s = galg.symmetrizing_form(one)
    data = hh.transfer_data(bimod.regular(one.algebra), s.vector, s.vector)
    for n in range(4):
        mat = hh.transfer(data, n)
        classes = hh.cohomology(one.algebra, n)
        assert np.array_equal(mat, np.eye(classes.dim, dtype=np.int64))


@pytest.mark.parametrize("kind,p,top", [
    ("c2", 2, 3), ("c3", 3, 3), ("v4", 2, 2), ("s3", 2, 2), ("s3", 3, 2),
])
def test_transfer_regular_is_identity(kind, p, top):
    rg = group_algebra(kind, p)
    data = regular_data(rg)
    for n in range(top + 1):
        classes = hh.cohomology(rg.algebra, n)
        mat = hh.transfer(data, n)
        assert np.array_equal(mat, np.eye(classes.dim, dtype=np.int64)), (kind, p, n)


# -- transfer: degree-0 relative trace -----------------------------------------


@pytest.mark.parametrize("kind,p,sub_gens", [
    ("c2", 2, []),          # G = C2, H = 1: the map is multiplication by 2 = 0
    ("c3", 3, []),
    ("s3", 2, "involution"),
    ("s3", 3, "involution"),
    ("v4", 2, [1]),
])
def test_transfer_up_degree0_is_relative_trace(kind, p, sub_gens):
    rg = group_algebra(kind, p)
    grp = rg.group
    if sub_gens == "involution":
        sub_gens = [next(x for x in range(1, grp.order) if grp.mul(x, x) == 0)]
    h = groups.subgroup_generated(grp, sub_gens)
    sub = galg.component_subalgebra(rg, h)
    n_mod = bimod.side_restricted(rg, groups.full_subgroup(grp), h)
    s_g = galg.symmetrizing_form(rg)
    s_h = galg.symmetrizing_form(sub)
    data = hh.transfer_data(n_mod, s_g.vector, s_h.vector)
    classes_h = hh.cohomology(sub.algebra, 0)
    classes_g = hh.cohomology(rg.algebra, 0)
    pipeline = hh.transfer(data, 0, classes_h, classes_g)
    oracle = oracles.relative_trace_matrix(rg, h, classes_h.reps, classes_g)
    assert np.array_equal(pipeline, oracle)


def test_transfer_up_c2_trivial_p2_is_zero():
    rg = group_algebra("c2", 2)
    grp = rg.group
    h = groups.trivial_subgroup(grp)
    sub = galg.component_subalgebra(rg, h)
    n_mod = bimod.side_restricted(rg, groups.full_subgroup(grp), h)
    data = hh.transfer_data(
        n_mod, galg.symmetrizing_form(rg).vector, galg.symmetrizing_form(sub).vector
    )
    mat = hh.transfer(data, 0)
    assert mat.shape == (2, 1)
    assert not mat.any()


# -- transfer: functoriality ---------------------------------------------------


def test_compose_check_with_regular_is_trivial():
    rg = group_algebra("c2", 2)
    s = galg.symmetrizing_form(rg).vector
    reg = bimod.regular(rg.algebra)
    for n in (0, 1, 2):
        rep = oracles.compose_check(reg, reg, n, s, s, s)
        assert rep.ok


def test_compose_check_subgroup_chain_s3():
    rg = group_algebra("s3", 2)
    grp = rg.group
    full = groups.full_subgroup(grp)
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    k = groups.trivial_subgroup(grp)
    sub_h = galg.component_subalgebra(rg, h)
    sub_k = galg.component_subalgebra(rg, k)
    s_g = galg.symmetrizing_form(rg).vector
    s_h = galg.symmetrizing_form(sub_h).vector
    s_k = galg.symmetrizing_form(sub_k).vector
    # X = R_H as R_K - R_H, M = R_G as R_H - R_G; X ox_{R_H} M gives R_G as R_K - R_G
    x_mod = bimod.truncation(rg, k, 0, h)
    m_mod = bimod.side_restricted(rg, h, full)
    for n in (0, 1):
        rep = oracles.compose_check(x_mod, m_mod, n, s_k, s_h, s_g)
        assert rep.ok, n


def test_transfer_additivity_direct_sum():
    rg = group_algebra("s3", 2)
    grp = rg.group
    invol = next(x for x in range(1, 6) if grp.mul(x, x) == 0)
    h = groups.subgroup_generated(grp, [invol])
    _, parts = oracles.decompose_by_double_cosets(rg, h, h)
    x_mod, y_mod = parts[0][1], parts[1][1]
    s_h = galg.symmetrizing_form(galg.component_subalgebra(rg, h)).vector
    data_x = hh.transfer_data(x_mod, s_h, s_h)
    data_y = hh.transfer_data(y_mod, s_h, s_h)
    data_sum = hh.transfer_data(oracles.direct_sum(x_mod, y_mod), s_h, s_h)
    for n in (0, 1, 2):
        lhs = hh.transfer(data_sum, n)
        rhs = (hh.transfer(data_x, n) + hh.transfer(data_y, n)) % 2
        assert np.array_equal(lhs, rhs)


# -- transfer: well-definedness and choice independence ------------------------


def test_transfer_kills_coboundaries():
    rg = group_algebra("c2", 2)
    data = regular_data(rg)
    a = rg.algebra
    cc = hh.CochainComplex(a)
    rng = np.random.default_rng(7)
    for n in (1, 2):
        classes = hh.cohomology(a, n)
        zeta = classes.reps[0]
        xi = rng.integers(0, 2, size=cc.dim(n - 1))
        shifted = (zeta + rg.field.matmul(oracles.as_dense(cc.delta(n - 1)), xi)) % 2
        img_a = hh.transfer_cochain(data, zeta, n)
        img_b = hh.transfer_cochain(data, shifted, n)
        assert np.array_equal(classes.coords(img_a), classes.coords(img_b))


def test_coords_of_a_batch_checks_every_row():
    rg = group_algebra("s3", 2)
    a = rg.algebra
    classes = hh.cohomology(a, 1)
    dense = oracles.as_dense(hh.CochainComplex(a).delta(1))
    bad = next(e for e in np.eye(dense.shape[1], dtype=np.int64) if (dense @ e % 2).any())
    stack = np.stack([classes.reps[-1], classes.reps[0]])
    assert np.array_equal(classes.coords(stack), np.stack([classes.coords(r) for r in stack]))
    with pytest.raises(ValidationError, match="not a cocycle"):
        classes.coords(np.stack([classes.reps[0], bad]))


def test_lift_methods_agree():
    for kind, p in (("c2", 2), ("v4", 2), ("c3", 3)):
        rg = group_algebra(kind, p)
        d1 = regular_data(rg)
        d2 = oracles.SolvedLift.of(regular_data(rg))
        for n in (0, 1, 2):
            assert np.array_equal(hh.transfer(d1, n), hh.transfer(d2, n))


# -- the chain lift held as nonzero entries ----------------------------------


def _carrier_data(rg):
    """((K, g, H), TransferData) of every carrier of ``rg``: K and H run over
    the subgroups and g over the minimal double-coset representatives."""
    subs = groups.all_subgroups(rg.group)
    forms = {h.key: galg.symmetrizing_form(galg.component_subalgebra(rg, h)).vector
             for h in subs}
    for k in subs:
        for h in subs:
            for g in groups.double_coset_reps(k, h):
                yield (k.elements, g, h.elements), hh.transfer_data(
                    bimod.truncation(rg, k, g, h), forms[k.key], forms[h.key])


def _spec_graded(spec):
    return galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_sparse_lift_and_transfer_match_the_dense_oracle(spec):
    rng = np.random.default_rng(0)
    for key, data in _carrier_data(_spec_graded(spec)):
        dense = oracles.DenseLift.of(data)
        p, db = data.field.p, data.m.right.dim
        for n in range(4):
            lift = data.lift(n)
            assert np.array_equal(oracles.dense_of(lift), dense.dense(n)), (key, n)
            assert lift.equals(dense.lift(n)), (key, n)
            classes_b, classes_a = hh.cohomology(data.m.right, n), hh.cohomology(data.m.left, n)
            # the image of any cochain, not only of a cocycle
            zeta = np.concatenate([classes_b.reps, rng.integers(0, p, size=(2, db ** (n + 1)))])
            assert np.array_equal(hh.transfer_cochain(data, zeta, n),
                                  oracles.dense_transfer_cochain(dense, zeta, n)), (key, n)
            assert np.array_equal(
                hh.transfer(data, n),
                oracles.transfer_by_representative(dense, n, classes_b, classes_a)), (key, n)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_sparse_lift_is_exact_at_the_edges_of_the_field_range(p):
    # lift(n) is called directly: over F_(2^31-1) HH^n = 0 for n > 0, so
    # transfer never asks for it.  Signs enter the tables as p - 1, so the
    # products reach (p - 1)^2 just below 2^62 before they are reduced.
    algebras = [(galg.group_algebra(groups.symmetric(3), p), 3),
                (galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(PrimeField(p), 2)), 2)]
    for rg, top in algebras:
        for key, data in _carrier_data(rg):
            dense = oracles.DenseLift.of(data)
            for n in range(top + 1):
                assert np.array_equal(oracles.dense_of(data.lift(n)), dense.dense(n)), (key, n)


def test_pairs_are_reduced_mod_p_before_they_are_summed():
    # 64 entries of value p - 1 meet a table entry p - 1 at one position:
    # unreduced, their products (p - 1)^2 would sum past 2^63
    p, count = 2**31 - 1, 64
    step = (np.zeros(count, dtype=np.int64), np.full((1, 1), p - 1), lambda src, o: (0 * src, o))
    out = hh._contract(p, (1, 1), np.full(count, p - 1), [step], 0, 1, "test")
    assert (out.rows.tolist(), out.cols.tolist(), out.vals.tolist()) == ([0], [0], [count])


# the chain-lift and transfer checks count array data; the Python objects of
# one call (generator frames, tables of index arithmetic, array headers) add a
# few KiB
LIFT_SLACK = 32 * 1024


def _recorded_checks(monkeypatch) -> list:
    """The (what, count) of every budget check ``hh`` makes from now on."""
    checked = []
    honest = hh._check_budget
    monkeypatch.setattr(hh, "_check_budget", lambda count, mb, what: (
        checked.append((what, count)), honest(count, mb, what)))
    return checked


def _added_peak(call) -> int:
    """The tracemalloc peak that ``call()`` adds to what is held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _lift_budget_algebras():
    return [_spec_graded(spec) for spec in SPEC_NAMES] + [group_algebra("d4", 2)]


def test_chain_lift_peaks_stay_within_their_budget_checks(monkeypatch):
    checked = _recorded_checks(monkeypatch)
    for rg in _lift_budget_algebras():
        for key, data in _carrier_data(rg):
            data.lift(0)
            for n in range(1, 4):
                below = sum(x.nbytes for x in data._lifts[:n])
                checked.clear()
                added = _added_peak(lambda: data.lift(n))
                counts = [count for what, count in checked if what == f"chain lift at degree {n}"]
                # what the call added, plus the lifts below n that it holds
                assert added + below <= max(counts) + LIFT_SLACK, (key, n)


def test_transfer_cochain_peaks_stay_within_their_budget_check(monkeypatch):
    checked = _recorded_checks(monkeypatch)
    rng = np.random.default_rng(0)
    for rg in _lift_budget_algebras():
        for key, data in _carrier_data(rg):
            for n in range(4):
                data.lift(n)
                reps = hh.cohomology(data.m.right, n).reps
                if not len(reps):
                    reps = rng.integers(0, rg.field.p, size=(2, data.m.right.dim ** (n + 1)))
                checked.clear()
                added = _added_peak(lambda: hh.transfer_cochain(data, reps, n))
                assert [what for what, _ in checked] == [f"transfer at degree {n}"]
                assert added <= checked[0][1] + LIFT_SLACK, (key, n)


def test_chain_lift_over_budget_raises():
    # the degree-4 lift of S3's whole-group carrier checks about 3.5 MiB
    rg = group_algebra("s3", 2)
    data = regular_data(rg)
    data.memory_mb = 1
    data.lift(3)
    with pytest.raises(BudgetError, match="chain lift at degree 4"):
        data.lift(4)


def test_dual_basis_choice_independence():
    rg = group_algebra("v4", 2)
    grp = rg.group
    h = groups.subgroup_generated(grp, [1])
    sub = galg.component_subalgebra(rg, h)
    n_mod = bimod.side_restricted(rg, groups.full_subgroup(grp), h)
    s_g = galg.symmetrizing_form(rg).vector
    s_h = galg.symmetrizing_form(sub).vector
    base = hh.transfer_data(n_mod, s_g, s_h)
    permuted = hh.transfer_data(n_mod, s_g, s_h,
                                generator_order=list(reversed(range(n_mod.dim))))
    assert not np.array_equal(base.eta_raw, permuted.eta_raw) or True
    for n in (0, 1, 2):
        assert np.array_equal(hh.transfer(base, n), hh.transfer(permuted, n))


def test_casimir_class_independent_of_dual_basis():
    rg = group_algebra("c2", 2)
    reg = bimod.regular(rg.algebra)
    s = galg.symmetrizing_form(rg).vector
    d1 = hh.transfer_data(reg, s, s)
    d2 = hh.transfer_data(reg, s, s, generator_order=[1, 0])
    q = d1.dualpres
    assert np.array_equal(q.to_quotient(d1.eta_raw), q.to_quotient(d2.eta_raw))


def test_transfer_nonprojective_rejected():
    c2 = group_algebra("c2", 2)
    f = c2.field
    triv = bimod.Bimodule(
        left=c2.algebra, right=galg.matrix_algebra(f, 1), dim=1,
        left_action=f.arr([[[1]], [[1]]]), right_action=f.arr([[[1]]]),
    )
    with pytest.raises(ValidationError, match="projective"):
        hh.transfer_data(triv, galg.symmetrizing_form(c2).vector, f.arr([1]))
