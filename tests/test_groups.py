import itertools

import numpy as np
import pytest

from gradedhh import groups
from gradedhh.errors import ValidationError


def s3_index(perm):
    perms = sorted(itertools.permutations(range(3)))
    return perms.index(tuple(perm))


def test_build_trivial_and_symmetric():
    g = groups.cyclic(1)
    assert g.order == 1
    s3 = groups.symmetric(3)
    assert s3.order == 6
    assert s3.identity == 0


def test_klein_four_self_inverse():
    v = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    assert v.order == 4
    table = {(a, b): v.mul(a, b) for a in range(4) for b in range(4)}
    for a in range(4):
        assert v.inv(a) == a
    # full table enumeration: componentwise xor
    for a in range(4):
        for b in range(4):
            assert table[(a, b)] == ((a // 2 ^ b // 2) * 2 + (a % 2 ^ b % 2))


def test_bad_table_reports_failure():
    with pytest.raises(ValidationError, match="Latin"):
        groups.from_table([[0, 0], [1, 1]])
    with pytest.raises(ValidationError, match="associative"):
        # quasigroup that is not associative (order 5 Latin square)
        groups.from_table(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
    with pytest.raises(ValidationError, match="exceeds"):
        n = 49
        groups.from_table(((np.arange(n)[:, None] + np.arange(n)) % n).tolist())


def test_explicit_table_relabels_identity_to_zero():
    # C3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = groups.from_table(table)
    assert g.identity == 0
    assert all(g.mul(0, a) == a for a in range(3))


def test_subgroup_generated():
    s3 = groups.symmetric(3)
    assert groups.subgroup_generated(s3, []).elements == (0,)
    t12 = s3_index((1, 0, 2))
    h = groups.subgroup_generated(s3, [t12])
    assert h.order == 2
    rot = s3_index((1, 2, 0))
    assert groups.subgroup_generated(s3, [rot, t12]).order == 6


def test_conjugate_subgroup_s3():
    s3 = groups.symmetric(3)
    t12 = s3_index((1, 0, 2))
    t13 = s3_index((2, 1, 0))
    t23 = s3_index((0, 2, 1))
    h = groups.subgroup_generated(s3, [t12])
    assert groups.conjugate_subgroup(t13, h).elements == (0, t23)
    assert groups.conjugate_subgroup(0, h).elements == h.elements
    assert groups.conjugate_subgroup(t12, h).elements == h.elements


def test_double_cosets_s3():
    s3 = groups.symmetric(3)
    full = groups.full_subgroup(s3)
    triv = groups.trivial_subgroup(s3)
    assert groups.double_coset_reps(full, full) == [0]
    assert groups.double_coset_reps(triv, triv) == list(range(6))
    t12 = s3_index((1, 0, 2))
    h = groups.subgroup_generated(s3, [t12])
    reps = groups.double_coset_reps(h, h)
    assert len(reps) == 2
    sizes = sorted(len(groups.double_coset(h, g, h)) for g in reps)
    assert sizes == [2, 4]


def test_intersect_and_cosets():
    s3 = groups.symmetric(3)
    h1 = groups.subgroup_generated(s3, [s3_index((1, 0, 2))])
    h2 = groups.subgroup_generated(s3, [s3_index((0, 2, 1))])
    assert groups.intersect(h1, h1).elements == h1.elements
    assert groups.intersect(h1, h2).elements == (0,)
    assert groups.cosets(groups.full_subgroup(s3)) == [0]
    left = groups.cosets(h1, "left")
    assert len(left) == 3
    covered = set()
    for r in left:
        covered |= {s3.mul(r, e) for e in h1.elements}
    assert covered == set(range(6))


@pytest.mark.parametrize(
    "group",
    [
        groups.symmetric(3),
        groups.dihedral(4),
        groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
        groups.cyclic(12),
        groups.symmetric(4),
    ],
)
def test_double_coset_partition_and_size_formula(group):
    subs = groups.all_subgroups(group)
    for k in subs:
        for h in subs:
            reps = groups.double_coset_reps(k, h)
            total = 0
            seen = set()
            for g in reps:
                dc = groups.double_coset(k, g, h)
                assert not (set(dc) & seen)
                seen |= set(dc)
                total += len(dc)
                meet = groups.intersect(k, groups.conjugate_subgroup(g, h))
                assert len(dc) == k.order * h.order // meet.order
            assert total == group.order


def test_conjugation_identities():
    d4 = groups.dihedral(4)
    for h in groups.all_subgroups(d4):
        for g in range(d4.order):
            back = groups.conjugate_subgroup(
                d4.inv(g), groups.conjugate_subgroup(g, h)
            )
            assert back.elements == h.elements
            for g2 in range(d4.order):
                lhs = groups.conjugate_subgroup(d4.mul(g, g2), h)
                rhs = groups.conjugate_subgroup(g, groups.conjugate_subgroup(g2, h))
                assert lhs.elements == rhs.elements


def test_composition_convention():
    # (sigma*tau)(x) = sigma(tau(x)) with one-line lexicographic indexing
    s3 = groups.symmetric(3)
    t12 = s3_index((1, 0, 2))
    t23 = s3_index((0, 2, 1))
    perms = sorted(itertools.permutations(range(3)))
    sigma, tau = perms[t12], perms[t23]
    composed = tuple(sigma[tau[x]] for x in range(3))
    assert s3.mul(t12, t23) == perms.index(composed)


def test_all_subgroups_counts():
    assert len(groups.all_subgroups(groups.symmetric(3))) == 6
    assert len(groups.all_subgroups(groups.dihedral(4))) == 10
    v4 = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    assert len(groups.all_subgroups(v4)) == 5


def test_subgroup_is_built_once_per_group():
    s3 = groups.symmetric(3)
    t12 = s3_index((1, 0, 2))
    h = groups.subgroup(s3, (t12, 0))
    assert groups.subgroup(s3, [0, t12]) is h
    assert groups.subgroup_generated(s3, [t12]) is h
    assert groups.conjugate_subgroup(t12, h) is h
    assert groups.intersect(h, groups.full_subgroup(s3)) is h
    assert groups.full_subgroup(s3) is groups.full_subgroup(s3)
    assert groups.trivial_subgroup(s3) is groups.intersect(h, groups.conjugate_subgroup(
        s3_index((2, 1, 0)), h))
    # a different group keeps its own subgroups
    assert groups.subgroup(groups.symmetric(3), (0, t12)) is not h
    # direct construction still validates, and makes a new object
    assert groups.Subgroup(s3, (0, t12)) is not h


def test_subgroup_not_closed_raises_every_time_and_is_not_kept():
    s3 = groups.symmetric(3)
    t12, t13 = s3_index((1, 0, 2)), s3_index((2, 1, 0))
    for _ in range(2):
        with pytest.raises(ValidationError, match="not closed under product"):
            groups.subgroup(s3, (0, t12, t13))
    with pytest.raises(ValidationError, match="identity"):
        groups.subgroup(s3, (t12,))
    assert (0, t12, t13) not in s3._subgroups
    assert (t12,) not in s3._subgroups
    with pytest.raises(ValidationError):
        groups.Subgroup(s3, (0, t12, t13))


def test_subgroup_as_group():
    s3 = groups.symmetric(3)
    rot = s3_index((1, 2, 0))
    h = groups.subgroup_generated(s3, [rot])
    local, to_parent = h.as_group()
    assert local.order == 3
    assert to_parent[0] == 0
    for i in range(3):
        for j in range(3):
            assert to_parent[local.mul(i, j)] == s3.mul(int(to_parent[i]), int(to_parent[j]))


def dihedral_table_by_search(n):
    """The dihedral Cayley table found by composing the maps of Z/n and
    searching for the result (valid for n >= 3, where the maps are faithful)."""
    def apply(e, x):
        return (x + e) % n if e < n else (e - n - x) % n

    images = [tuple(apply(e, x) for x in range(n)) for e in range(2 * n)]
    return [[images.index(tuple(apply(a, apply(b, x)) for x in range(n)))
             for b in range(2 * n)] for a in range(2 * n)]


def test_dihedral_closed_form_small_and_against_search():
    d1 = groups.dihedral(1)
    assert d1.order == 2 and np.array_equal(d1.table, groups.cyclic(2).table)
    d2 = groups.dihedral(2)
    klein = groups.direct_product(groups.cyclic(2), groups.cyclic(2))
    assert np.array_equal(d2.table, klein.table)
    assert all(d2.inv(a) == a for a in range(4))
    for n in range(3, 25):
        assert groups.dihedral(n).table.tolist() == dihedral_table_by_search(n)


def test_order_bound_checked_before_the_table():
    # each of these would need a table far beyond memory if it were built
    for make in (lambda: groups.cyclic(10**7), lambda: groups.dihedral(10**9),
                 lambda: groups.symmetric(10**6),
                 lambda: groups.direct_product(groups.cyclic(7), groups.cyclic(7))):
        with pytest.raises(ValidationError, match="exceeds"):
            make()
