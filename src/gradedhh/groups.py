"""Finite groups as validated Cayley tables, with the subgroup, coset,
conjugation, and double-coset machinery the rest of the package needs.

Elements are dense integer indices 0..n-1 and the identity is always index 0
(explicit tables are relabelled on input).  Symmetric-group elements are the
one-line permutation tuples in lexicographic order, composed as
(sigma * tau)(x) = sigma(tau(x)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderBoundError, SpecError, ValidationError

MAX_ORDER = 48


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table (row = left factor)."""

    order: int
    table: np.ndarray
    inverse: np.ndarray
    name: str = "group"

    identity: int = 0
    # the one Subgroup per element tuple (see ``subgroup``)
    _subgroups: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # list copies of the read-only arrays, for mul and inv: ~10x faster
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._products, self._inverses = self.table.tolist(), self.inverse.tolist()

    def mul(self, a: int, b: int) -> int:
        return self._products[a][b]

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"


def _validate_table(table: np.ndarray) -> None:
    n = table.shape[0]
    if table.shape != (n, n):
        raise ValidationError("Cayley table must be square")
    if table.min() < 0 or table.max() >= n:
        raise ValidationError("Cayley table entries out of range")
    ref = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), ref):
            raise ValidationError(f"table is not a Latin square: row {i} repeats")
        if not np.array_equal(np.sort(table[:, i]), ref):
            raise ValidationError(f"table is not a Latin square: column {i} repeats")
    left = table[table]          # left[a,b,c] = (a*b)*c
    right = table[:, table]      # right[a,b,c] = a*(b*c)
    if not np.array_equal(left, right):
        a, b, c = (int(v) for v in np.argwhere(left != right)[0])
        raise ValidationError(
            f"table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})"
        )


def _check_order(order: int, text: str | None = None) -> None:
    """Refuse a group above MAX_ORDER before any table is built."""
    if order > MAX_ORDER:
        raise OrderBoundError(
            f"group order {text or order} exceeds the supported bound {MAX_ORDER}")


def _finish(table: np.ndarray, name: str) -> FiniteGroup:
    n = table.shape[0]
    _validate_table(table)
    ident = None
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            ident = e
            break
    if ident is None:
        raise ValidationError("table has no identity element")
    if ident != 0:
        # swap the labels 0 and ident (an involution, so it is its own inverse)
        relabel = np.arange(n)
        relabel[0], relabel[ident] = ident, 0
        table = relabel[table[np.ix_(relabel, relabel)]]
    # a Latin square has one 0 per row; associativity makes it two-sided
    inverse = np.argmax(table == 0, axis=1)
    return FiniteGroup(order=n, table=table, inverse=inverse, name=name)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group needs n >= 1")
    _check_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return _finish(table.astype(np.int64), f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations first, then reflections."""
    if n < 1:
        raise ValidationError("dihedral group needs n >= 1")
    _check_order(2 * n)
    # element k < n is the rotation r^k, element n+k the reflection r^k s,
    # with s r s = r^-1: r^a (s) r^b (s) = r^(a -+ b) and the product is a
    # reflection iff exactly one factor is
    idx = np.arange(2 * n)
    refl, rot = idx >= n, idx % n
    sign = np.where(refl, -1, 1)[:, None]
    table = (rot[:, None] + sign * rot) % n + n * (refl[:, None] ^ refl)
    return _finish(table.astype(np.int64), f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("symmetric group needs n >= 1")
    # min() keeps a huge n from computing a huge factorial; 48! is over the bound
    _check_order(math.factorial(min(n, MAX_ORDER)), f"{n}!")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.empty((m, m), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            table[i, j] = index[tuple(s[t[x]] for x in range(n))]
    return _finish(table, f"S{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    _check_order(n * m)
    # (a, b) * (c, d) = (ac, bd), with (a, b) at index a * m + b
    table = g.table[:, None, :, None] * m + h.table[None, :, None, :]
    return _finish(table.reshape(n * m, n * m), f"{g.name}x{h.name}")


def from_table(table) -> FiniteGroup:
    table = np.array(table, dtype=np.int64)
    _check_order(len(table))
    return _finish(table, "explicit")


def spec_int(value) -> int:
    """A spec's integer field, which must be a JSON integer: a float, a
    string or a boolean raises TypeError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def spec_array(value) -> np.ndarray:
    """A spec's array field as int64: nested lists whose every entry must be
    a JSON integer (``spec_int``), so that no float or boolean is truncated."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            spec_int(item)
    return np.array(value, dtype=np.int64)


def build(kind: str, **params) -> FiniteGroup:
    """Build a group by kind: cyclic, dihedral, symmetric, product, table.

    A missing, mistyped, misshapen or nonpositive parameter raises
    SpecError, and so does an order above MAX_ORDER (OrderBoundError); a
    table that is not a group raises ValidationError."""
    try:
        if kind in ("cyclic", "dihedral", "symmetric"):
            n = spec_int(params["n"])
            if n < 1:
                raise ValueError(f"n = {n} is below 1")
        elif kind == "product":
            specs = [dict(f) for f in params["factors"]]
            kinds = [f.pop("kind") for f in specs]
        elif kind == "table":
            table = spec_array(params["table"])
        else:
            raise SpecError(f"unknown group kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed {kind} group spec: {type(exc).__name__}: {exc}") from exc
    if kind in ("cyclic", "dihedral", "symmetric"):
        return {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}[kind](n)
    if kind == "product":
        factors = [build(k, **f) for k, f in zip(kinds, specs)]
        if not factors:
            raise SpecError("product needs at least one factor")
        g = factors[0]
        for h in factors[1:]:
            g = direct_product(g, h)
        return g
    if table.ndim != 2:
        raise SpecError("group table must be a 2-d array")
    return from_table(table)


@dataclass(eq=False)
class Subgroup:
    """A validated subgroup: a sorted element subset closed under the table."""

    group: FiniteGroup
    elements: tuple[int, ...]
    _local: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        object.__setattr__(self, "elements", elems)
        g = self.group
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup must contain the identity (index 0)")
        inside = set(elems)
        for a in elems:
            if g.inv(a) not in inside:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if g.mul(a, b) not in inside:
                    raise ValidationError(f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> tuple[int, ...]:
        return self.elements

    def contains(self, x: int) -> bool:
        return x in set(self.elements)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return set(self.elements) <= set(other.elements)

    def as_group(self) -> tuple[FiniteGroup, np.ndarray]:
        """The subgroup as a group in its own right, plus the map
        local index -> parent element index (identity stays at 0)."""
        if "as_group" not in self._local:
            to_parent = np.array(self.elements, dtype=np.int64)
            pos = {e: i for i, e in enumerate(self.elements)}
            n = self.order
            table = np.empty((n, n), dtype=np.int64)
            for i, a in enumerate(self.elements):
                for j, b in enumerate(self.elements):
                    table[i, j] = pos[self.group.mul(a, b)]
            self._local["as_group"] = (_finish(table, "sub"), to_parent)
        return self._local["as_group"]

    def __repr__(self) -> str:
        return f"Subgroup{self.elements}"


def subgroup(g: FiniteGroup, elements) -> Subgroup:
    """The group's one Subgroup on ``elements``, validated when first asked
    for; a subset that is not a subgroup raises on every call and is never
    kept."""
    key = tuple(sorted(set(int(e) for e in elements)))
    sub = g._subgroups.get(key)
    if sub is None:
        sub = g._subgroups[key] = Subgroup(g, key)
    return sub


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return subgroup(g, range(g.order))


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return subgroup(g, (0,))


def subgroup_generated(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing the generators."""
    elems = {0}
    gens = sorted(set(int(x) for x in gens))
    for x in gens:
        if not 0 <= x < g.order:
            raise ValidationError(f"generator {x} out of range")
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                for prod in (g.mul(a, s), g.mul(s, a), g.inv(a)):
                    if prod not in elems:
                        elems.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return subgroup(g, elems)


def conjugate_subgroup(g_elt: int, h: Subgroup) -> Subgroup:
    g = h.group
    return subgroup(g, (g.conj(g_elt, x) for x in h.elements))


def intersect(k: Subgroup, h: Subgroup) -> Subgroup:
    if k.group is not h.group:
        raise ValidationError("subgroups live in different groups")
    return subgroup(k.group, set(k.elements) & set(h.elements))


def cosets(h: Subgroup, side: str = "left") -> list[int]:
    """Minimal-index representatives of the left (gH) or right (Hg) cosets."""
    g = h.group
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    reps = []
    seen = set()
    for x in range(g.order):
        if x in seen:
            continue
        reps.append(x)
        for e in h.elements:
            seen.add(g.mul(x, e) if side == "left" else g.mul(e, x))
    return reps


def double_coset(k: Subgroup, g_elt: int, h: Subgroup) -> tuple[int, ...]:
    """The set KgH as a sorted element tuple."""
    g = k.group
    out = set()
    for a in k.elements:
        ag = g.mul(a, g_elt)
        for b in h.elements:
            out.add(g.mul(ag, b))
    return tuple(sorted(out))


def double_coset_reps(k: Subgroup, h: Subgroup) -> list[int]:
    """Minimal-index representative of each double coset KgH, ascending."""
    g = k.group
    reps = []
    seen = set()
    for x in range(g.order):
        if x in seen:
            continue
        reps.append(x)
        seen |= set(double_coset(k, x, h))
    return reps


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, ordered by (order, element tuple)."""
    found = {(0,): trivial_subgroup(g)}
    frontier = [found[(0,)]]
    while frontier:
        nxt = []
        for sub in frontier:
            for x in range(1, g.order):
                if x in set(sub.elements):
                    continue
                bigger = subgroup_generated(g, set(sub.elements) | {x})
                if bigger.key not in found:
                    found[bigger.key] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elements))
