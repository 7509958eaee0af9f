"""Acceptance suite: every criterion is an exact (tolerance-zero) identity
over a prime field, or a frozen regression value pinned by an independent
oracle.  One pass/fail line is printed per criterion."""

import json

import numpy as np

import oracles
from gradedhh import bimod, galg, groups, hh, mackey
from gradedhh.errors import ValidationError
from gradedhh.exactfield import PrimeField


def _line(cid: str, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {text}")


def corpus_groups():
    return {
        "C2": groups.cyclic(2),
        "C3": groups.cyclic(3),
        "C2xC2": groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
        "S3": groups.symmetric(3),
    }


def example_instance():
    return galg.crossed_product(
        groups.cyclic(2), galg.matrix_algebra(PrimeField(2), 2)
    )


def involution_subgroup(grp):
    invol = next(x for x in range(1, grp.order) if grp.mul(x, x) == 0)
    return groups.subgroup_generated(grp, [invol])


def test_criterion_1_theorem_suite_group_algebras():
    """All six axioms, every admissible instance, degrees 0..2, for kG with
    G in {C2, C3, C2xC2, S3} and p in {2, 3}."""
    failures = []
    total = 0
    for name, grp in corpus_groups().items():
        for p in (2, 3):
            rg = galg.group_algebra(grp, p)
            system = mackey.MackeySystem(rg, degree_bound=2)
            reports = system.verify_all(degrees=range(3))
            total += len(reports)
            failures += [(name, p, r.axiom, r.instance, r.degree)
                         for r in reports if not r.ok]
    ok = not failures and total > 0
    _line("criterion 1", ok, f"{total} axiom instances over 8 group algebras")
    assert ok, failures[:5]


def test_criterion_2_example_instance():
    """The matrix-base crossed product validates and satisfies all axioms in
    degrees 0..1."""
    rg = example_instance()
    graded = galg.check_fully_graded(rg)
    form = galg.symmetrizing_form(rg)
    system = mackey.MackeySystem(rg, degree_bound=1)
    reports = system.verify_all(degrees=range(2))
    bad = [r for r in reports if not r.ok]
    ok = graded.ok and form.gram is not None and reports and not bad
    _line("criterion 2", ok,
          f"crossed product dim 8: fully graded, symmetric, {len(reports)} instances")
    assert ok, bad[:5]


def test_criterion_3_carrier_isomorphisms_and_projectivity():
    """Projectivity of the three standard carriers on both sides, and the
    mutually inverse multiplication isomorphisms, for every (K, g, H) and
    (g, h, H) over S3 (both primes) and the example instance."""
    problems = []
    checked = 0

    def run_instance_set(rg):
        nonlocal checked
        grp = rg.group
        full = groups.full_subgroup(grp)
        subs = groups.all_subgroups(grp)
        for h in subs:
            for mod_name, mod in (
                ("M", bimod.side_restricted(rg, h, full)),
                ("N", bimod.side_restricted(rg, full, h)),
            ):
                for side in ("left", "right"):
                    checked += 1
                    if not bimod.is_projective(mod, side).projective:
                        problems.append((rg.field.p, mod_name, h.elements, side))
            for g in range(grp.order):
                p_mod = bimod.truncation(rg, groups.conjugate_subgroup(g, h), g, h)
                for side in ("left", "right"):
                    checked += 1
                    if not bimod.is_projective(p_mod, side).projective:
                        problems.append((rg.field.p, "P", h.elements, g, side))
        for k in subs:
            for h in subs:
                for g in range(grp.order):
                    checked += 1
                    try:
                        bimod.mult_iso_double_coset(rg, k, g, h)
                    except ValidationError as exc:
                        problems.append((rg.field.p, "b", k.elements, g, h.elements, str(exc)))
        for h in subs:
            for g in range(grp.order):
                for he in range(grp.order):
                    checked += 1
                    try:
                        bimod.mult_iso_conjugate_chain(rg, g, he, h)
                    except ValidationError as exc:
                        problems.append((rg.field.p, "c", g, he, h.elements, str(exc)))

    for p in (2, 3):
        run_instance_set(galg.group_algebra(groups.symmetric(3), p))
    run_instance_set(example_instance())
    ok = not problems and checked > 0
    _line("criterion 3", ok, f"{checked} projectivity/isomorphism instances")
    assert ok, problems[:5]


def test_criterion_4_identity_and_transitivity_anchors():
    """t along the regular bimodule is the identity for n <= 3 on all corpus
    algebras, and restriction/transfer are transitive on 1 <= C2 <= S3."""
    problems = []
    for name, grp in corpus_groups().items():
        for p in (2, 3):
            rg = galg.group_algebra(grp, p)
            s = galg.symmetrizing_form(rg)
            data = hh.transfer_data(oracles.regular(rg.algebra), s.vector, s.vector)
            for n in range(4):
                classes = hh.cohomology(rg.algebra, n)
                mat = hh.transfer(data, n)
                if not np.array_equal(mat, np.eye(classes.dim, dtype=np.int64)):
                    problems.append(("regular", name, p, n))
    for p in (2, 3):
        rg = galg.group_algebra(groups.symmetric(3), p)
        system = mackey.MackeySystem(rg, degree_bound=3)
        h = involution_subgroup(rg.group)
        k = groups.trivial_subgroup(rg.group)
        f = rg.field
        for n in range(4):
            lhs = f.matmul(system.map_along(k, 0, h, n), system.restriction(h, n))
            if not np.array_equal(lhs, system.restriction(k, n)):
                problems.append(("restriction chain", p, n))
            lhs = f.matmul(system.transfer_up(h, n), system.map_along(h, 0, k, n))
            if not np.array_equal(lhs, system.transfer_up(k, n)):
                problems.append(("transfer chain", p, n))
    ok = not problems
    _line("criterion 4", ok,
          "t_regular = id (n <= 3, 8 algebras); r/t transitive on the S3 chain")
    assert ok, problems


def test_criterion_5_transfer_functoriality():
    """Composition t_M t_N = t_{M ox N} and additivity t_{X (+) Y} = t_X + t_Y
    on the designated corpus instances."""
    problems = []
    rg = galg.group_algebra(groups.symmetric(3), 2)
    grp = rg.group
    full = groups.full_subgroup(grp)
    h = involution_subgroup(grp)
    k = groups.trivial_subgroup(grp)
    s_g = galg.symmetrizing_form(rg).vector
    sub_h = galg.component_subalgebra(rg, h)
    sub_k = galg.component_subalgebra(rg, k)
    s_h = galg.symmetrizing_form(sub_h).vector
    s_k = galg.symmetrizing_form(sub_k).vector
    x_mod = bimod.truncation(rg, k, 0, h)
    m_mod = bimod.side_restricted(rg, h, full)
    reg = oracles.regular(rg.algebra)
    for n in (0, 1, 2):
        if not oracles.compose_check(x_mod, m_mod, n, s_k, s_h, s_g).ok:
            problems.append(("compose chain", n))
        if not oracles.compose_check(reg, reg, n, s_g, s_g, s_g).ok:
            problems.append(("compose regular", n))
    _, parts = oracles.decompose_by_double_cosets(rg, h, h)
    data_parts = [hh.transfer_data(part, s_h, s_h) for _, part, _ in parts]
    data_sum = hh.transfer_data(
        oracles.direct_sum(*(part for _, part, _ in parts)), s_h, s_h
    )
    for n in (0, 1, 2):
        lhs = hh.transfer(data_sum, n)
        rhs = sum(hh.transfer(d, n) for d in data_parts) % 2
        if not np.array_equal(lhs, rhs):
            problems.append(("additivity", n))
    ok = not problems
    _line("criterion 5", ok, "composition and additivity on S3 instances")
    assert ok, problems


def test_criterion_6_quantitative_regressions():
    """Frozen dimension values, each re-derived by its independent oracle, and
    the degree-0 transfer against the relative-trace oracle."""
    problems = []
    # periodic resolution oracles, then the pipeline, then the frozen values
    if oracles.truncated_poly_hh_dims(2, 2, 3) != [2, 2, 2, 2]:
        problems.append("oracle C2/F2")
    if oracles.truncated_poly_hh_dims(3, 3, 3) != [3, 3, 3, 3]:
        problems.append("oracle C3/F3")
    c2 = galg.group_algebra(groups.cyclic(2), 2)
    if [hh.cohomology(c2.algebra, n).dim for n in range(4)] != [2, 2, 2, 2]:
        problems.append("pipeline C2/F2")
    c3 = galg.group_algebra(groups.cyclic(3), 3)
    if [hh.cohomology(c3.algebra, n).dim for n in range(4)] != [3, 3, 3, 3]:
        problems.append("pipeline C3/F3")
    s3_7 = galg.group_algebra(groups.symmetric(3), 7)
    if oracles.center(s3_7.algebra).dim != 3:
        problems.append("center oracle S3/F7")
    if [hh.cohomology(s3_7.algebra, n).dim for n in range(3)] != [3, 0, 0]:
        problems.append("pipeline S3/F7")
    # degree-0 transfer equals the relative trace
    for name, grp, p, gens in (
        ("C2", groups.cyclic(2), 2, []),
        ("S3", groups.symmetric(3), 2, "invol"),
        ("S3", groups.symmetric(3), 3, "invol"),
    ):
        rg = galg.group_algebra(grp, p)
        if gens == "invol":
            h = involution_subgroup(rg.group)
        else:
            h = groups.subgroup_generated(rg.group, gens)
        sub = galg.component_subalgebra(rg, h)
        n_mod = bimod.side_restricted(rg, groups.full_subgroup(rg.group), h)
        data = hh.transfer_data(
            n_mod, galg.symmetrizing_form(rg).vector,
            galg.symmetrizing_form(sub).vector,
        )
        classes_h = hh.cohomology(sub.algebra, 0)
        classes_g = hh.cohomology(rg.algebra, 0)
        pipeline = hh.transfer(data, 0)
        oracle = oracles.relative_trace_matrix(rg, h, classes_h.reps, classes_g)
        if not np.array_equal(pipeline, oracle):
            problems.append(("relative trace", name, p))
    ok = not problems
    _line("criterion 6", ok, "dimension regressions and degree-0 relative trace")
    assert ok, problems


def test_criterion_7_choice_independence():
    """Transfer matrices are unchanged under a different dual basis, a
    different chain-lift construction, a cocycle representative shifted by a
    coboundary, and non-minimal double-coset representatives."""
    problems = []
    rg = galg.group_algebra(groups.symmetric(3), 2)
    grp = rg.group
    h = involution_subgroup(grp)
    sub = galg.component_subalgebra(rg, h)
    n_mod = bimod.side_restricted(rg, groups.full_subgroup(grp), h)
    s_g = galg.symmetrizing_form(rg).vector
    s_h = galg.symmetrizing_form(sub).vector
    base = hh.transfer_data(n_mod, s_g, s_h)
    permuted_dual = hh.transfer_data(
        n_mod, s_g, s_h, generator_order=list(reversed(range(n_mod.dim)))
    )
    solved = oracles.SolvedLift.of(hh.transfer_data(n_mod, s_g, s_h))
    for n in (0, 1, 2):
        ref = hh.transfer(base, n)
        if not np.array_equal(ref, hh.transfer(permuted_dual, n)):
            problems.append(("dual basis", n))
        if not np.array_equal(ref, hh.transfer(solved, n)):
            problems.append(("lift construction", n))
    # a solve-path lift with permuted generator order for the dual basis
    resolved = oracles.SolvedLift.of(hh.transfer_data(
        n_mod, s_g, s_h, generator_order=list(reversed(range(n_mod.dim))),
    ))
    for n in (0, 1, 2):
        if not np.array_equal(hh.transfer(base, n), hh.transfer(resolved, n)):
            problems.append(("lift generator order", n))
    # cocycle representative shifted by a coboundary
    cc = hh.CochainComplex(sub.algebra)
    rng = np.random.default_rng(0)
    for n in (1, 2):
        classes_h = hh.cohomology(sub.algebra, n)
        classes_g = hh.cohomology(rg.algebra, n)
        for i in range(classes_h.dim):
            zeta = classes_h.reps[i]
            xi = rng.integers(0, 2, size=cc.dim(n - 1))
            shifted = (zeta + rg.field.matmul(oracles.as_dense(cc.delta(n - 1)), xi)) % 2
            a_img = classes_g.coords(hh.transfer_cochain(base, zeta, n))
            b_img = classes_g.coords(hh.transfer_cochain(base, shifted, n))
            if not np.array_equal(a_img, b_img):
                problems.append(("coboundary shift", n, i))
    # non-minimal double-coset representatives in the double-coset formula
    system = mackey.MackeySystem(rg, degree_bound=2)
    minimal = groups.double_coset_reps(h, h)
    awkward = [max(groups.double_coset(h, g, h)) for g in minimal]
    for n in (0, 1, 2):
        r1 = system.verify_axiom("vi", {"K": h.elements, "H": h.elements}, n)
        r2 = system.verify_axiom(
            "vi", {"K": h.elements, "H": h.elements, "reps": awkward}, n
        )
        if not (r1.ok and r2.ok and np.array_equal(r1.rhs, r2.rhs)):
            problems.append(("coset reps", n))
    ok = not problems
    _line("criterion 7", ok, "four independent choice variations leave matrices fixed")
    assert ok, problems


def test_criterion_8_byte_identical_reports(tmp_path, cli_process):
    """Two runs of verify --format json --seed 0 produce identical bytes."""
    spec = tmp_path / "v4.json"
    spec.write_text(json.dumps({
        "field": {"p": 2},
        "group": {"kind": "product",
                  "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]},
        "algebra": {"kind": "group_algebra"},
    }))
    argv = ("verify", "--spec", str(spec), "--degree", "2", "--format", "json", "--seed", "0")
    first = cli_process(*argv)
    second = cli_process(*argv)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _line("criterion 8", ok, f"{len(first.stdout)} report bytes, identical across runs")
    assert ok, (first.returncode, second.returncode, first.stderr[:300])
