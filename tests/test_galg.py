import json
import pathlib

import numpy as np
import pytest

import oracles
from gradedhh import galg, groups, mackey
from gradedhh.errors import SpecError, ValidationError
from gradedhh.exactfield import PrimeField


def test_group_algebra_trivial_and_c2():
    triv = galg.group_algebra(groups.cyclic(1), 3)
    assert triv.dim == 1
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    assert c2.dim == 2
    x = c2.field.arr([0, 1])
    assert np.array_equal(c2.algebra.multiply(x, x), c2.algebra.unit)


@pytest.mark.parametrize(
    "group,p",
    [
        (groups.cyclic(2), 2),
        (groups.cyclic(3), 3),
        (groups.symmetric(3), 2),
        (groups.symmetric(3), 7),
        (groups.dihedral(4), 2),
        (groups.direct_product(groups.cyclic(2), groups.cyclic(2)), 2),
    ],
)
def test_center_dim_equals_class_count(group, p):
    a = galg.group_algebra(group, p)
    assert oracles.center(a.algebra).dim == len(oracles.conjugacy_classes(group))


def test_s3_center_dim_f7():
    a = galg.group_algebra(groups.symmetric(3), 7)
    assert oracles.center(a.algebra).dim == 3


def test_component_subalgebra():
    s3 = groups.symmetric(3)
    a = galg.group_algebra(s3, 2)
    whole = galg.component_subalgebra(a, groups.full_subgroup(s3))
    assert whole.dim == a.dim
    one = galg.component_subalgebra(a, groups.trivial_subgroup(s3))
    assert one.dim == 1
    t12 = groups.subgroup_generated(s3, [1])  # first transposition in lex order
    assert t12.order in (2, 3, 6)
    # pick an order-2 subgroup explicitly
    invol = next(
        x for x in range(1, 6) if s3.mul(x, x) == 0
    )
    h = groups.subgroup_generated(s3, [invol])
    sub = galg.component_subalgebra(a, h)
    assert sub.dim == 2
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    assert sub.algebra.structurally_equal(c2.algebra)
    assert galg.check_fully_graded(sub).ok
    # caching returns the same object
    assert galg.component_subalgebra(a, h) is sub


def test_fully_graded_checker_pass_and_fail():
    s3 = groups.symmetric(3)
    a = galg.group_algebra(s3, 2)
    assert galg.check_fully_graded(a).ok

    # one-dimensional algebra graded only at the identity of C2:
    # the missing component makes the equality fail for g != 1
    f = PrimeField(2)
    one = galg.Algebra(field=f, dim=1, sc=f.arr([[[1]]]), unit=f.arr([1]))
    one.validate()
    degenerate = galg.GradedAlgebra(
        algebra=one, group=groups.cyclic(2), grading=np.array([0])
    )
    report = galg.check_fully_graded(degenerate)
    assert not report.ok
    assert any(g != 0 or h != 0 for (g, h, _, _) in report.failures)


def test_crossed_product_degenerate_is_group_algebra():
    f = PrimeField(5)
    base = galg.matrix_algebra(f, 1)
    g = groups.cyclic(3)
    cp = galg.crossed_product(g, base)
    ga = galg.group_algebra(g, 5)
    assert cp.algebra.structurally_equal(ga.algebra)
    assert np.array_equal(cp.grading, ga.grading)


def test_crossed_product_matrix_base():
    f = PrimeField(2)
    base = galg.matrix_algebra(f, 2)
    g = groups.cyclic(2)
    cp = galg.crossed_product(g, base)
    assert cp.dim == 8
    assert len(cp.component_indices(0)) == 4
    assert len(cp.component_indices(1)) == 4
    assert galg.check_fully_graded(cp).ok


def test_twisted_group_algebra():
    f = PrimeField(3)
    base = galg.matrix_algebra(f, 1)
    g = groups.cyclic(2)
    cocycle = [[f.arr([1]), f.arr([1])], [f.arr([1]), f.arr([2])]]
    tw = galg.crossed_product(g, base, cocycle=cocycle)
    assert galg.check_fully_graded(tw).ok
    # t * t = 2 in the twisted algebra
    t = f.arr([0, 1])
    assert np.array_equal(tw.algebra.multiply(t, t), f.arr([2, 0]))


def test_component_subalgebra_of_crossed_product():
    f = PrimeField(2)
    cp = galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f, 2))
    triv = groups.trivial_subgroup(cp.group)
    sub = galg.component_subalgebra(cp, triv)
    assert sub.dim == 4
    assert galg.check_fully_graded(sub).ok
    m2 = galg.matrix_algebra(f, 2)
    assert sub.algebra.structurally_equal(m2)


def test_crossed_product_rejects_bad_cocycle():
    f = PrimeField(3)
    base = galg.matrix_algebra(f, 1)
    g = groups.cyclic(3)
    bad = [[f.arr([1])] * 3 for _ in range(3)]
    bad[1][1] = f.arr([2])
    with pytest.raises(ValidationError, match="cocycle"):
        galg.crossed_product(g, base, cocycle=bad)
    with pytest.raises(ValidationError, match="unit"):
        zero = [[f.arr([1])] * 3 for _ in range(3)]
        zero[1][2] = f.arr([0])
        galg.crossed_product(g, base, cocycle=zero)
    with pytest.raises(ValidationError, match="automorphism"):
        galg.crossed_product(g, base, action=[f.eye(1), f.arr([[2]]), f.eye(1)])


def test_symmetrizing_form_group_algebra():
    a = galg.group_algebra(groups.symmetric(3), 2)
    s = galg.symmetrizing_form(a)
    assert s.source == "canonical"
    assert np.array_equal(s.vector, a.field.arr([1, 0, 0, 0, 0, 0]))
    # Gram matrix is the permutation matrix of inversion
    perm = np.zeros((6, 6), dtype=np.int64)
    for i in range(6):
        perm[i, a.group.inv(i)] = 1
    assert np.array_equal(s.gram, perm)


def test_symmetrizing_form_matrix_trace():
    f = PrimeField(3)
    m2 = oracles.trivially_graded(galg.matrix_algebra(f, 2))
    s = galg.symmetrizing_form(m2)
    assert s.source == "canonical"
    assert np.array_equal(s.vector, f.arr([1, 0, 0, 1]))
    assert f.inverse(s.gram) is not None


def test_symmetrizing_form_crossed_product_and_fallback():
    f = PrimeField(2)
    cp = galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f, 2))
    s = galg.symmetrizing_form(cp)
    assert s.source == "canonical"
    assert np.array_equal(s.vector, f.arr([1, 0, 0, 1, 0, 0, 0, 0]))
    assert f.inverse(s.gram) is not None
    gram = cp.field.contract("ijk,k->ij", cp.algebra.sc, s.vector)
    assert np.array_equal(gram, gram.T)

    # the same algebra rebuilt from its bare structure constants: the form
    # is read off the algebra and its grading, so it is the same vector
    anon = galg.GradedAlgebra(
        algebra=galg.Algebra(field=f, dim=cp.dim, sc=cp.algebra.sc.copy(),
                             unit=cp.algebra.unit.copy()),
        group=cp.group, grading=cp.grading.copy(),
    )
    s2 = galg.symmetrizing_form(anon)
    assert s2.source == "canonical"
    assert np.array_equal(s2.vector, s.vector)
    assert np.array_equal(s2.gram, s.gram)


def test_symmetrizing_form_search_when_no_basis_vector_is_nondegenerate():
    # k x k, trivially graded: each coordinate functional kills one factor,
    # their sum is the form
    f = PrimeField(3)
    sc = f.zeros((2, 2, 2))
    sc[0, 0, 0] = sc[1, 1, 1] = 1
    alg = galg.Algebra(field=f, dim=2, sc=sc, unit=f.arr([1, 1]))
    alg.validate()
    s = galg.symmetrizing_form(oracles.trivially_graded(alg))
    assert s.source == "search"
    assert s.vector.all() and f.inverse(s.gram) is not None


SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


@pytest.mark.parametrize("spec", sorted(p.stem for p in SPECS.glob("*.json")))
def test_symmetrizing_form_restricts_to_every_component_subalgebra(spec):
    rg = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))
    whole = galg.symmetrizing_form(rg)
    assert not whole.vector[rg.grading != 0].any()
    for h in groups.all_subgroups(rg.group):
        sub = galg.component_subalgebra(rg, h)
        form = galg.symmetrizing_form(sub)
        assert form.source == "canonical"
        assert np.array_equal(form.vector, whole.vector[sub.parent_indices])
        assert not form.vector[sub.grading != 0].any()


@pytest.mark.parametrize("spec", sorted(p.stem for p in SPECS.glob("*.json")) + ["d4_p2"])
def test_subgroups_share_an_algebra_exactly_when_its_bytes_are_equal(spec):
    if spec == "d4_p2":
        rg = galg.group_algebra(groups.dihedral(4), 2)
    else:
        rg = galg.algebra_from_spec(json.loads((SPECS / f"{spec}.json").read_text()))
    subs = [galg.component_subalgebra(rg, h) for h in groups.all_subgroups(rg.group)]
    for i, a in enumerate(subs):
        for b in subs[:i]:
            equal = (a.algebra.sc.tobytes() == b.algebra.sc.tobytes()
                     and a.algebra.unit.tobytes() == b.algebra.unit.tobytes())
            assert (a.algebra is b.algebra) == equal, (a.parent_indices, b.parent_indices)
        # each R_H's structure constants are its slice of R_G's, and read-only
        assert np.array_equal(a.algebra.sc, rg.algebra.sc[np.ix_(*[a.parent_indices] * 3)])
        with pytest.raises(ValueError, match="read-only"):
            a.algebra.sc.flat[0] = 1
    if spec == "d4_p2":
        # the five order-2 subgroups give one F_2C2 and the two Klein
        # four-groups one F_2(C2 x C2): five algebras for ten subgroups
        assert len(subs) == 10 and len({id(a.algebra) for a in subs}) == 5


def _graded_by_quotient(a: galg.GradedAlgebra, normal: groups.Subgroup):
    """kG with its basis reordered by the cosets of a normal subgroup and
    graded by the quotient group, built from the structure constants alone."""
    grp = a.group
    cosets = sorted({tuple(sorted(grp.mul(g, x) for x in normal.elements))
                     for g in range(grp.order)})
    label = {g: c for c, coset in enumerate(cosets) for g in coset}
    perm = np.array(sorted(range(grp.order), key=lambda g: (label[g], g)))
    rep = [coset[0] for coset in cosets]
    table = [[label[grp.mul(x, y)] for y in rep] for x in rep]
    quotient = groups.build("table", order=len(cosets), table=table)
    alg = galg.Algebra(field=a.field, dim=a.dim, sc=a.algebra.sc[np.ix_(perm, perm, perm)],
                       unit=a.algebra.unit[perm])
    return galg.GradedAlgebra(algebra=alg, group=quotient,
                              grading=np.array([label[g] for g in perm]))


@pytest.mark.parametrize("p", [2, 3])
def test_symmetrizing_form_of_s3_graded_by_s3_mod_a3(p):
    s3 = groups.symmetric(3)
    a3 = next(h for h in groups.all_subgroups(s3) if h.order == 3)
    rg = _graded_by_quotient(galg.group_algebra(s3, p), a3)
    assert galg.check_fully_graded(rg).ok
    form = galg.symmetrizing_form(rg)
    assert form.source == "canonical"
    assert np.array_equal(form.vector, np.eye(6, dtype=np.int64)[0])
    reports = mackey.MackeySystem(rg, degree_bound=2).verify_all(degrees=range(3))
    assert len(reports) == 60 and all(r.ok for r in reports)


def _first_cocycle_failure(f, base, group, cocycle):
    """The triple that the cocycle check names: the first (g, h, l), in
    index order, with c[g][h] c[gh][l] != c[h][l] c[g][hl] (trivial action)."""
    for g in range(group.order):
        for h in range(group.order):
            for l in range(group.order):
                lhs = base.multiply(cocycle[h][l], cocycle[g][group.mul(h, l)])
                rhs = base.multiply(cocycle[g][h], cocycle[group.mul(g, h)][l])
                if not np.array_equal(lhs, rhs):
                    return g, h, l
    return None


@pytest.mark.parametrize("seed", range(6))
def test_crossed_product_names_the_first_failing_triple(seed):
    f = PrimeField(5)
    group = [groups.cyclic(4), groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
             groups.symmetric(3)][seed % 3]
    base = galg.matrix_algebra(f, 1 + seed % 2)
    n = group.order
    rng = np.random.default_rng(seed)
    # normalized, unit-valued (nonzero scalar) cocycles that break the identity
    scalars = rng.integers(1, 5, size=(n, n))
    scalars[0, :] = scalars[:, 0] = 1
    cocycle = [[(int(scalars[g, h]) * base.unit) % 5 for h in range(n)] for g in range(n)]
    expected = _first_cocycle_failure(f, base, group, cocycle)
    assert expected is not None
    with pytest.raises(ValidationError,
                       match=rf"cocycle condition violated at triple \({expected[0]},"
                             rf"{expected[1]},{expected[2]}\)$"):
        galg.crossed_product(group, base, cocycle=cocycle)


def test_non_symmetric_algebra_rejected():
    # upper triangular 2x2 matrices: every symmetric functional kills the
    # off-diagonal generator, so the pairing is always degenerate
    f = PrimeField(2)
    sc = f.zeros((3, 3, 3))     # basis E11, E12, E22
    sc[0, 0, 0] = 1             # E11 E11 = E11
    sc[0, 1, 1] = 1             # E11 E12 = E12
    sc[1, 2, 1] = 1             # E12 E22 = E12
    sc[2, 2, 2] = 1             # E22 E22 = E22
    alg = galg.Algebra(field=f, dim=3, sc=sc, unit=f.arr([1, 0, 1]))
    alg.validate()
    graded = oracles.trivially_graded(alg)
    with pytest.raises(ValidationError, match="not symmetric"):
        galg.symmetrizing_form(graded)


def test_unit_decomposition_group_algebra():
    a = galg.group_algebra(groups.symmetric(3), 3)
    for g in range(6):
        dec = galg.unit_decomposition(a, g)
        assert len(dec.pairs) == 1
        av, bv = dec.pairs[0]
        assert av[g] == 1 and bv[a.group.inv(g)] == 1
    dec1 = galg.unit_decomposition(a, 0)
    assert np.array_equal(dec1.pairs[0][0], a.algebra.unit)


def test_unit_decomposition_crossed_product():
    f = PrimeField(2)
    cp = galg.crossed_product(groups.cyclic(2), galg.matrix_algebra(f, 2))
    dec = galg.unit_decomposition(cp, 1)
    total = f.zeros(cp.dim)
    for av, bv in dec.pairs:
        assert set(np.nonzero(av)[0]) <= set(cp.component_indices(1))
        assert set(np.nonzero(bv)[0]) <= set(cp.component_indices(1))
        total = (total + cp.algebra.multiply(av, bv)) % 2
    assert np.array_equal(total, cp.algebra.unit)
    # a different decomposition also works
    alt = galg.unit_decomposition(cp, 1, variant=1)
    flat = lambda d: np.concatenate([np.concatenate(pair) for pair in d.pairs])
    assert len(alt.pairs) != len(dec.pairs) or not np.array_equal(flat(alt), flat(dec))


def test_algebra_from_spec():
    spec = {
        "field": {"p": 2},
        "group": {"kind": "symmetric", "n": 3},
        "algebra": {"kind": "group_algebra"},
    }
    a = galg.algebra_from_spec(spec)
    assert a.dim == 6
    spec2 = {
        "field": {"p": 2},
        "group": {"kind": "cyclic", "n": 2},
        "algebra": {"kind": "crossed_product", "base": {"kind": "matrix", "n": 2}},
    }
    assert galg.algebra_from_spec(spec2).dim == 8
    with pytest.raises(SpecError):
        galg.algebra_from_spec({"field": {"p": 2}})
    with pytest.raises(SpecError):
        galg.algebra_from_spec({
            "field": {"p": 2}, "group": {"kind": "nope", "n": 2},
            "algebra": {"kind": "group_algebra"},
        })


# -- generating sets ----------------------------------------------------------


def _words_span(a: galg.Algebra, gens) -> int:
    """Dimension of the span of all words in the basis elements ``gens``,
    grown by right multiplication from the unit."""
    f = a.field
    basis = f.eye(a.dim)[list(gens)]
    span = a.unit[None, :]
    while True:
        words = [span] + [np.array([a.multiply(w, b) for w in span]) for b in basis]
        reduced, pivots = f.rref(np.concatenate(words))
        if len(pivots) == len(span):
            return len(pivots)
        span = reduced[:len(pivots)]


def _relabelled(group: groups.FiniteGroup, seed: int) -> groups.FiniteGroup:
    """The group with its elements renamed by a seeded permutation that
    fixes the identity, passed as a Cayley table."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.empty_like(group.table)
    table[perm[:, None], perm[None, :]] = perm[group.table]
    return groups.build("table", order=group.order, table=table.tolist())


V4 = groups.direct_product(groups.cyclic(2), groups.cyclic(2))


@pytest.mark.parametrize("group,p,size", [
    (groups.cyclic(1), 2, 0), (groups.cyclic(2), 2, 1), (groups.cyclic(3), 3, 1),
    (groups.cyclic(5), 7, 1), (V4, 2, 2), (groups.symmetric(3), 2, 2),
    (groups.symmetric(3), 3, 2), (groups.dihedral(4), 2, 2),
])
def test_generators_of_group_algebras_span(group, p, size):
    a = galg.group_algebra(group, p).algebra
    gens = galg.generators(a)
    assert len(gens) == size
    assert _words_span(a, gens) == a.dim
    # the greedy choice: each generator lies outside the words in the earlier ones
    for k in range(len(gens)):
        assert _words_span(a, gens[:k]) < a.dim
    # cached and read-only
    assert galg.generators(a) is gens
    with pytest.raises(ValueError, match="read-only"):
        gens[0] = 0
    # deterministic: a fresh build picks the same indices
    assert galg.generators(galg.group_algebra(group, p).algebra).tolist() == gens.tolist()


def test_generators_of_matrix_algebras_and_crossed_products():
    f = PrimeField(2)
    m2 = galg.matrix_algebra(f, 2)
    # E_00 and E_01 give the upper triangular matrices, E_10 the rest
    assert galg.generators(m2).tolist() == [0, 1, 2]
    assert _words_span(m2, galg.generators(m2)) == 4
    assert galg.generators(galg.matrix_algebra(f, 1)).tolist() == []
    spec = pathlib.Path(__file__).resolve().parents[1] / "specs" / "matrix_crossed_c2_p2.json"
    cp = galg.algebra_from_spec(json.loads(spec.read_text()))
    gens = galg.generators(cp.algebra)
    assert _words_span(cp.algebra, gens) == cp.dim == 8
    assert len(gens) < cp.dim


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.dihedral(4), V4])
@pytest.mark.parametrize("seed", [1, 3])
def test_generators_span_on_relabelled_tables(group, seed):
    a = galg.group_algebra(_relabelled(group, seed), 2).algebra
    assert _words_span(a, galg.generators(a)) == a.dim


def test_generators_use_no_subspace_builder(monkeypatch):
    # the lemma2 count test pins the calls of subspace_from_rows
    from gradedhh import bimod, exactfield

    def refuse(*args, **kwargs):
        raise AssertionError("generators built a Subspace")

    monkeypatch.setattr(bimod, "subspace_from_rows", refuse)
    monkeypatch.setattr(exactfield, "subspace_from_rows", refuse)
    a = galg.group_algebra(groups.dihedral(4), 2).algebra
    assert galg.generators(a).tolist() == [1, 4]
