import itertools
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gradedhh import exactfield, hh
from gradedhh.errors import ValidationError
from gradedhh.exactfield import PrimeField, subspace_from_rows


def reference_rref(field, mat):
    """Plain single-column Gauss-Jordan, used to cross-check the blocked path."""
    p = field.p
    R = field.arr(mat)
    rows, cols = R.shape
    pivots = []
    pr = 0
    for c in range(cols):
        piv = None
        for r in range(pr, rows):
            if R[r, c]:
                piv = r
                break
        if piv is None:
            continue
        if piv != pr:
            R[[pr, piv]] = R[[piv, pr]]
        R[pr] = (R[pr] * field.inv(R[pr, c])) % p
        for r in range(rows):
            if r != pr and R[r, c]:
                R[r] = (R[r] - R[r, c] * R[pr]) % p
        pivots.append(c)
        pr += 1
    return R, pivots


matrix_strategy = st.integers(2, 3).flatmap(
    lambda _: st.tuples(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(0, 5),
        st.integers(0, 5),
    )
).flatmap(
    lambda t: st.tuples(
        st.just(t[0]),
        st.lists(
            st.lists(st.integers(0, t[0] - 1), min_size=t[2], max_size=t[2]),
            min_size=t[1], max_size=t[1],
        ),
        st.just((t[1], t[2])),
    )
)


@st.composite
def rref_matrix_strategy(draw):
    """(p, rows, shape) for the rref property: up to 12 x 12 entries below p,
    with p up to 2**31 - 1, and some rows copies of others, so that a pivot
    row's duplicate is cleared in a later panel."""
    p = draw(st.sampled_from([2, 3, 5, 7, 1048573, 2**31 - 1]))
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    if n_rows > 1:
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                                st.integers(0, n_rows - 1)), max_size=4)):
            rows[dst] = list(rows[src])
    return p, rows, (n_rows, n_cols)


def test_prime_validation():
    PrimeField(2)
    PrimeField(2147483629)
    with pytest.raises(ValidationError):
        PrimeField(4)
    with pytest.raises(ValidationError):
        PrimeField(1)
    with pytest.raises(ValidationError):
        PrimeField(2**31)


def test_rref_zero_matrix_f2():
    f = PrimeField(2)
    R, piv = f.rref(f.zeros((2, 2)))
    assert np.array_equal(R, f.zeros((2, 2)))
    assert piv == []


def test_rref_identity_f5():
    f = PrimeField(5)
    R, piv = f.rref(f.eye(3))
    assert np.array_equal(R, f.eye(3))
    assert piv == [0, 1, 2]


def test_rref_hand_case_f2():
    # hand Gaussian elimination of [[1,1],[1,1]] over F_2
    f = PrimeField(2)
    R, piv = f.rref(f.arr([[1, 1], [1, 1]]))
    assert np.array_equal(R, f.arr([[1, 1], [0, 0]]))
    assert piv == [0]


@settings(max_examples=300, deadline=None)
@given(rref_matrix_strategy(), st.sampled_from([1, 2, 3, 5, 64]))
def test_rref_matches_reference_and_is_idempotent(data, block_size):
    p, rows, shape = data
    f = PrimeField(p)
    m = np.array(rows, dtype=np.int64).reshape(shape)
    R, piv = f.rref(m, block_size=block_size)
    R_ref, piv_ref = reference_rref(f, m)
    assert piv == piv_ref
    assert np.array_equal(R, R_ref)
    R2, piv2 = f.rref(R, block_size=block_size)
    assert np.array_equal(R2, R)
    assert piv2 == piv


@st.composite
def f2_matrix_strategy(draw):
    """An int64 matrix for the packed F_2 rref: widths on both sides of a
    64-bit word boundary, up to 70 rows, entries small or anywhere in int64
    (negative ones too), sparse or dense, some rows copies of others, and
    runs of zero columns, which may span words."""
    n_rows = draw(st.integers(0, 70))
    n_cols = draw(st.sampled_from([0, 1, 2, 63, 64, 65, 127, 128, 129, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = rng.integers(-2**63, 2**63 - 1, size=(n_rows, n_cols), endpoint=True)
    else:
        m = rng.integers(-3, 4, size=(n_rows, n_cols))
        m[rng.random((n_rows, n_cols)) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0
    if n_rows > 1:
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n_rows - 1),
                                                st.integers(0, n_rows - 1)), max_size=6)):
            m[dst] = m[src]
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = sorted(draw(st.lists(st.integers(0, n_cols), min_size=2, max_size=2)))
        m[:, lo:hi] = 0
    return m


@settings(max_examples=150, deadline=None)
@given(f2_matrix_strategy())
def test_packed_f2_rref_matches_the_int64_loop_and_reference(m):
    f = PrimeField(2)
    R, piv = f.rref(m)
    for R_want, piv_want in (f._rref_panels(m), reference_rref(f, m)):
        assert piv == piv_want
        assert R.dtype == np.int64 and np.array_equal(R, R_want)


@pytest.mark.parametrize("shape", [(4000, 300), (600, 260)])
def test_rref_of_an_input_narrower_than_two_panels_holds_at_most_rref_copies(shape):
    # one panel of every column: a 256-column panel with multiplier columns
    # beside it would take a (rows x 512) work array, more than the input
    f = PrimeField(7)
    m = np.random.default_rng(0).integers(0, 7, size=shape)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        R, piv = f.rref(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert piv == list(range(shape[1])) and np.array_equal(R[:shape[1]], f.eye(shape[1]))
    assert peak <= hh.RREF_COPIES * m.nbytes


@pytest.mark.parametrize("shape", [(4000, 300), (556, 556), (300, 2000)])
def test_packed_f2_rref_holds_at_most_three_copies_of_its_input(shape):
    # the int64 result and the input's low bits, besides words a
    # sixty-fourth of the input's size
    rng = np.random.default_rng(0)
    k = int(0.9 * min(shape))
    m = (rng.integers(0, 2, (shape[0], k)) @ rng.integers(0, 2, (k, shape[1]))) % 2
    f = PrimeField(2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        R, piv = f.rref(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(piv) <= k and not R[len(piv):].any()
    assert peak <= 3 * m.nbytes


def test_kernel_identity_and_zero():
    f = PrimeField(3)
    assert f.kernel(f.eye(4)).dim == 0
    k = f.kernel(f.zeros((2, 2)))
    assert k.dim == 2
    assert np.array_equal(k.basis, f.eye(2))


def test_kernel_hand_case_f2():
    # kernel of [[1,1]] over F_2, checked by enumerating all four vectors
    f = PrimeField(2)
    m = f.arr([[1, 1]])
    k = f.kernel(m)
    members = {
        tuple(v) for v in itertools.product(range(2), repeat=2)
        if (m @ np.array(v)) % 2 == 0
    }
    span = {tuple((c * k.basis[0]) % 2) for c in range(2)}
    assert span == members
    assert k.dim == 1


@settings(max_examples=120, deadline=None)
@given(matrix_strategy)
def test_kernel_rank_nullity_and_membership(data):
    p, rows, shape = data
    f = PrimeField(p)
    m = np.array(rows, dtype=np.int64).reshape(shape)
    k = f.kernel(m)
    assert k.dim + f.rank(m) == shape[1]
    if k.dim:
        assert not f.matmul(m, k.basis.T).any()


def test_solve_examples():
    f = PrimeField(2)
    assert np.array_equal(f.solve(f.eye(3), f.arr([1, 0, 1])), f.arr([1, 0, 1]))
    # canonical choice: free variables zero
    assert np.array_equal(f.solve(f.arr([[1, 1]]), f.arr([1])), f.arr([1, 0]))
    assert f.solve(f.arr([[0]]), f.arr([1])) is None
    with pytest.raises(ValidationError):
        f.solve(f.arr([[1, 1]]), f.arr([1, 0]))


@settings(max_examples=120, deadline=None)
@given(matrix_strategy, st.integers(0, 6))
def test_solve_by_substitution(data, seed):
    p, rows, shape = data
    f = PrimeField(p)
    m = np.array(rows, dtype=np.int64).reshape(shape)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, p, size=shape[1])
    b = f.matmul(m, x)
    sol = f.solve(m, b)
    assert sol is not None
    assert np.array_equal(f.matmul(m, sol), b)


def test_solve_factored_matches_solve():
    # a matrix right-hand side is solved column by column in one elimination
    f = PrimeField(5)
    m = f.arr([[1, 2, 0], [0, 0, 3]])
    rhs = f.arr([[4, 0], [1, 3]])
    many = f.solve(m, rhs)
    assert many.shape == (3, 2)
    assert np.array_equal(many[:, 0], f.solve(m, rhs[:, 0]))
    assert np.array_equal(many[:, 1], f.solve(m, rhs[:, 1]))
    assert f.solve(f.arr([[0]]), f.arr([1])) is None
    assert f.solve(f.arr([[1], [0]]), f.arr([[1, 1], [0, 1]])) is None


def test_quotient_examples():
    f = PrimeField(2)
    zero = subspace_from_rows(f, [], ambient_dim=3)
    q = oracles.quotient(zero)
    assert q.quotient_dim == 3
    assert np.array_equal(q.projection, f.eye(3))

    full = subspace_from_rows(f, f.eye(2))
    assert oracles.quotient(full).quotient_dim == 0

    line = subspace_from_rows(f, [[1, 1]])
    q = oracles.quotient(line)
    assert q.quotient_dim == 1
    assert np.array_equal(q.section, f.arr([[0], [1]]))


@settings(max_examples=100, deadline=None)
@given(matrix_strategy)
def test_quotient_invariants(data):
    p, rows, shape = data
    f = PrimeField(p)
    m = np.array(rows, dtype=np.int64).reshape(shape)
    sub = subspace_from_rows(f, m, ambient_dim=shape[1]) if shape[0] else subspace_from_rows(f, [], ambient_dim=shape[1])
    q = oracles.quotient(sub)
    assert np.array_equal(f.matmul(q.projection, q.section), f.eye(q.quotient_dim))
    if sub.dim:
        assert not f.matmul(q.projection, sub.basis.T).any()
    # section is a right inverse landing in the chosen transversal rows
    assert q.quotient_dim + sub.dim == shape[1]


def test_kronecker_examples():
    f = PrimeField(2)
    assert np.array_equal(f.kronecker(f.eye(2), f.eye(3)), f.eye(6))
    assert not f.kronecker(f.arr([[1, 1]]), f.zeros((2, 2))).any()
    a = f.arr([[1, 1]])
    b = f.arr([[1], [1]])
    k = f.kronecker(a, b)
    assert k.shape == (2, 2)
    for i in range(1):
        for j in range(2):
            for s in range(2):
                for t in range(1):
                    assert k[i * 2 + s, j * 1 + t] == (a[i, j] * b[s, t]) % 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 5))
def test_kronecker_multiplicative(p, seed):
    f = PrimeField(p)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(2, 3))
    c = rng.integers(0, p, size=(3, 2))
    b = rng.integers(0, p, size=(2, 2))
    d = rng.integers(0, p, size=(2, 3))
    lhs = f.matmul(f.kronecker(a, b), f.kronecker(c, d))
    rhs = f.kronecker(f.matmul(a, c), f.matmul(b, d))
    assert np.array_equal(lhs, rhs)


def test_large_modulus_matmul_paths():
    # halves path: inner * (p-1)^2 is past 2**53
    p = 2147483629
    f = PrimeField(p)
    a = f.arr([[p - 1, p - 2, 1], [0, 1, 2]])
    b = f.arr([[p - 1], [p - 3], [5]])
    expect = np.array(
        [[sum(int(a[i, k]) * int(b[k, 0]) for k in range(3)) % p] for i in range(2)],
        dtype=np.int64,
    )
    assert np.array_equal(f.matmul(a, b), expect)
    R, piv = f.rref(a)
    assert piv == [0, 1]


@pytest.mark.parametrize("chunk", [exactfield._HALVES_CHUNK, 2**21])
def test_halves_product_is_exact_past_an_inner_dimension_of_2_21(chunk, monkeypatch):
    # all but the last 5 entries are 0x7FFEFFFF, the largest low half below
    # p: a chunk of 2**21 sums its halves' products to within 2**38 of 2**53,
    # and one product over the whole inner dimension would pass it
    p, n = 2**31 - 1, 2**21 + 2**18
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, p, (1, n)), rng.integers(0, p, (n, 1))
    a[0, :-5] = b[:-5, 0] = 0x7FFEFFFF
    monkeypatch.setattr(exactfield, "_HALVES_CHUNK", chunk)
    expect = sum(x * y for x, y in zip(a[0].tolist(), b[:, 0].tolist())) % p
    assert PrimeField(p).matmul(a, b).tolist() == [[expect]]


def test_contract_exact_past_int64():
    # chunked product: (p-1)**2 * 2**24 overflows int64; the operands are
    # broadcast views, so nothing of that length (2**27 bytes) is allocated
    p = 1000003
    f = PrimeField(p)
    a = np.broadcast_to(np.int64(p - 1), (2**24,))
    tracemalloc.start()
    try:
        assert f.contract("i,i->", a, a) == (p - 1) ** 2 * 2**24 % p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # Python-integer path: a single product of three entries overflows int64
    p = 2**31 - 1
    f = PrimeField(p)
    rng = np.random.default_rng(0)
    x, y, z = rng.integers(0, p, (3, 4)), rng.integers(0, p, (4, 5)), rng.integers(0, p, 5)
    expect = [
        sum(int(x[i, j]) * int(y[j, k]) * int(z[k]) for j in range(4) for k in range(5)) % p
        for i in range(3)
    ]
    got = f.contract("ij,jk,k->i", x, y, z)
    assert got.dtype == np.int64 and got.tolist() == expect
    with pytest.raises(ValidationError, match="explicit"):
        f.contract("i,i", z, z)


def test_subspace_equality_and_reduce():
    f = PrimeField(3)
    s1 = subspace_from_rows(f, [[1, 2, 0], [0, 0, 1]])
    s2 = subspace_from_rows(f, [[2, 1, 0], [1, 2, 1]])
    assert s1 == s2
    assert not s1.reduce_rows([[2, 1, 2]]).any()
    assert np.array_equal(s1.reduce_rows([[0, 1, 0], [1, 2, 1]]), [[0, 1, 0], [0, 0, 0]])


def test_inverse():
    f = PrimeField(7)
    m = f.arr([[2, 1], [1, 1]])
    inv = f.inverse(m)
    assert np.array_equal(f.matmul(m, inv), f.eye(2))
    assert f.inverse(f.arr([[1, 1], [1, 1]])) is None


# -- properties over the supported range of p, against Python integers ------

PRIMES = [2, 3, 1048573, 2147483647]


def draw_array(draw, p, shape):
    size = int(np.prod(shape, dtype=np.int64))
    values = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    return np.array(values, dtype=np.int64).reshape(shape)


def reference_einsum(subscripts, ops, p):
    """Explicit-output einsum mod p by looping over every index value."""
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    size = {}
    for term, op in zip(terms, ops):
        size.update(zip(term, op.shape))
    letters = sorted(size)
    out = np.zeros(tuple(size[c] for c in output), dtype=object)
    for values in itertools.product(*(range(size[c]) for c in letters)):
        at = dict(zip(letters, values))
        term_product = 1
        for term, op in zip(terms, ops):
            term_product *= int(op[tuple(at[c] for c in term)])
        key = tuple(at[c] for c in output)
        out[key] = (out[key] + term_product) % p
    return out.astype(np.int64)


def reference_rank(p, mat):
    return len(reference_rref(PrimeField(p), mat)[1]) if mat.size else 0


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_matmul_matches_python_ints(data, p):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = draw_array(data.draw, p, (r, k))
    b = draw_array(data.draw, p, (k, c))
    got = PrimeField(p).matmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_einsum("ij,jk->ik", [a, b], p))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES), st.sampled_from([
    "ij,jk->ik", "i,i->", "ijk,kj->i", "ij,kj->ik",
    "i,j,ijk->k", "ij,jk,kl->il", "aij,j,ai->",
]))
def test_contract_matches_python_ints(data, p, subscripts):
    terms = subscripts.split("->")[0].split(",")
    size = {c: data.draw(st.integers(0, 3)) for c in sorted(set("".join(terms)))}
    ops = [draw_array(data.draw, p, tuple(size[c] for c in term)) for term in terms]
    got = PrimeField(p).contract(subscripts, *ops)
    assert np.array_equal(got, reference_einsum(subscripts, ops, p))


# every two-operand contraction the package and the oracles make, listed
# explicitly so that a rewrite keeps the test IDs (the scan below fails on
# one that is missing), and four that do not run as one matrix product: a
# repeated letter, a letter summed from one operand only, a letter both
# operands keep (a batch letter), and an outer product
SRC_SUBSCRIPTS = [
    "aij,gjtl->agitl", "aik,skj->asij", "aki,ziatl->zktl", "amk,gitm->gaitk",
    "amk,zitam->zitk", "apj,taq->pqjt", "apq,qr->apr", "aru,sv->arsuv",
    "bki,jl->bijkl", "cik,skl->scil", "cjl,sil->csij", "ckl,ski->scil", "esk,cke->esc",
    "ghli,ijk->ghljk", "ghlj,ghljk->ghlk", "ghs,msk->ghmk", "gibl,bki->gkl",
    "gij,hlj->ghli", "gijm,ghmk->ghijk", "gitl,bt->gibl", "gitl,sbt->glsbi",
    "gkl,ckl->gc", "glsbi,bki->glsk", "glsk,ckl->scg", "grj,irk->gijk", "i,ijk->kj",
    "i,ipq->pq", "ijk,k->ij", "ijk,kpr->ijpr", "ijm,km->ijk", "ijm,pmqx->pijqx",
    "ijm,zkpijql->zkpmql", "ijz,szy->syij", "ik,blj->bijkl", "ik,skl->sil",
    "ipq,jqr->ijpr", "j,ijk->ki", "j,jpq->pq", "jbi,zit->zjbt", "jk,kpr->jpr",
    "jpq,iqr->ijpr", "jpq,qr->jpr", "jt,tak->jak", "ki,kyj->ijy", "ki,kzi->kz",
    "ki,yzi->kyz", "pq,aqr->apr", "pq,jqr->jpr", "rj,skj->srk", "ru,avs->arsuv",
    "sbe,bke->esk", "scd,dil->scil", "sik,kjy->syij", "sik,kl->sil", "sjl,ily->syij",
    "spq,tqr->stpr", "tl,txk->lxk", "tpq,sqr->stpr", "x,kxl->kl", "x,txk->tk",
]
EINSUM_ONLY = ["ii,ij->j", "ij,jk->k", "bij,bjk->bik", "ij,k->ijk"]


def test_every_two_operand_contraction_of_the_source_is_listed():
    found = {
        subscripts for path in [*pathlib.Path(exactfield.__file__).parent.glob("*.py"),
                                pathlib.Path(__file__).parent / "oracles.py"]
        for subscripts in re.findall(r'contract\(\s*"([^"]+)"', path.read_text())
        if subscripts.split("->")[0].count(",") == 1}
    assert not found - set(SRC_SUBSCRIPTS), sorted(found - set(SRC_SUBSCRIPTS))


@pytest.mark.parametrize("subscripts", SRC_SUBSCRIPTS + EINSUM_ONLY)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES), width=st.sampled_from([1, 5, 2**20]))
def test_two_operand_contract_matches_python_ints(subscripts, data, p, width):
    # routed as a product at every size (and sliced every ``width`` entries),
    # then at the default size floor
    if subscripts in EINSUM_ONLY:
        assert exactfield._gemm_plan(subscripts) is None
    terms = subscripts.split("->")[0].split(",")
    size = {c: data.draw(st.integers(0, 3)) for c in sorted(set("".join(terms)))}
    ops = [draw_array(data.draw, p, tuple(size[c] for c in term)) for term in terms]
    expect = reference_einsum(subscripts, ops, p)
    f = PrimeField(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactfield, "_SLICE", width)
        for floor in (0, exactfield._GEMM_MIN):
            mp.setattr(exactfield, "_GEMM_MIN", floor)
            got = f.contract(subscripts, *ops)
            assert got.dtype == np.int64 and np.array_equal(got, expect), floor


def test_contract_broadcasts_a_length_1_summed_axis():
    # einsum's rule, which a matrix product lacks: such a call stays on einsum
    f = PrimeField(5)
    a = np.full((300, 1), 2)
    b = np.full((7, 300), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactfield, "_GEMM_MIN", 0)
        assert np.array_equal(f.contract("ij,jk->ik", a, b), np.full((300, 300), 2 * 3 * 7 % 5))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_solve_vector_and_matrix_rhs(data, p):
    f = PrimeField(p)
    rows, cols, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    m = draw_array(data.draw, p, (rows, cols))
    rhs = draw_array(data.draw, p, (rows, k))
    if data.draw(st.booleans()):        # make every column solvable
        rhs = reference_einsum("ij,jk->ik", [m, draw_array(data.draw, p, (cols, k))], p)
    free = [c for c in range(cols) if c not in reference_rref(f, m)[1]]
    columns = []
    for j in range(k):
        x = f.solve(m, rhs[:, j])
        consistent = reference_rank(p, np.concatenate([m, rhs[:, j:j + 1]], axis=1)) \
            == reference_rank(p, m)
        assert (x is not None) == consistent
        if x is not None:
            assert np.array_equal(reference_einsum("ij,j->i", [m, x], p), rhs[:, j])
            assert not x[free].any()
        columns.append(x)
    many = f.solve(m, rhs)
    if any(x is None for x in columns):
        assert many is None
    else:
        assert np.array_equal(many, np.stack(columns, axis=1))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRIMES))
def test_inverse_matches_rank(data, p):
    f = PrimeField(p)
    n = data.draw(st.integers(0, 4))
    m = draw_array(data.draw, p, (n, n))
    if data.draw(st.booleans()) and n > 1:  # force a dependent row
        m[-1] = m[0]
    inv = f.inverse(m)
    assert (inv is None) == (reference_rank(p, m) < n)
    if inv is not None:
        assert np.array_equal(reference_einsum("ij,jk->ik", [inv, m], p), f.eye(n))
