"""Restriction, transfer, and conjugation maps between the Hochschild
cohomologies of the component subalgebras of a fully graded algebra, and
exact verification of the six Mackey-functor axioms.

Every map is a transfer along a double-coset carrier: with
map_along(K, g, H) the transfer along the components over KgH (an
R_K - R_H bimodule),

* restriction from H to K <= H   is map_along(K, 1, H),
* transfer   from K <= H to H    is map_along(H, 1, K),
* conjugation by g at H          is map_along(gHg^-1, g, H).

Each axiom instance is therefore data: identities between sums of words of
carrier keys (K, g, H), all evaluated by one routine.  All comparisons
happen on cohomology-class coordinates at a fixed degree.  Caches keep one
symmetrizing form per subgroup and one HH basis per distinct subalgebra
(``galg.component_subalgebra`` interns R_H by its structure constants), and
one TransferData for each distinct carrier, which keeps its transfer matrix
per degree (``hh.transfer``).  Carriers whose modules have equal content
(``bimod.content``: the same interned algebras and byte-equal actions) and
whose two symmetrizing forms are byte-equal share one, since the transfer on
class coordinates is read off exactly those; every g in one double coset
gives the same module, the carrier KgH, and so shares it too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bimod, galg, groups as _groups, hh
from .errors import ValidationError

AXIOMS = ("i", "ii", "iii", "iv", "v", "vi")


@dataclass(eq=False)
class SubalgebraData:
    subgroup: _groups.Subgroup
    algebra: galg.GradedAlgebra
    form: galg.SymmetrizingForm

    def classes(self, n: int, memory_mb: int) -> hh.HHClasses:
        return hh.cohomology(self.algebra.algebra, n, memory_mb)


@dataclass(eq=False)
class AxiomReport:
    """Verdict on one axiom instance, with both sides of the identity that
    failed (or of the last one checked) as matrices and as words of carrier
    keys (K elements, g, H elements)."""

    axiom: str
    instance: dict
    degree: int
    ok: bool
    lhs: np.ndarray | None = None
    rhs: np.ndarray | None = None
    lhs_words: list | None = None
    rhs_words: list | None = None

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "instance": self.instance,
            "degree": self.degree,
            "verdict": "pass" if self.ok else "fail",
        }
        if not self.ok:
            out["lhs"] = [[int(x) for x in row] for row in np.atleast_2d(self.lhs)]
            out["rhs"] = [[int(x) for x in row] for row in np.atleast_2d(self.rhs)]
        return out


def _plain(side) -> list:
    return [[(k.elements, g, h.elements) for k, g, h in word] for word in side]


def side_text(words) -> str:
    """A side as text: words joined by ' + ', the carrier keys of a word by
    ' @ ', and the empty word as 'id'."""
    return " + ".join(" @ ".join(str(key) for key in word) or "id" for word in words) or "0"


class MackeySystem:
    """Cached pipeline around one fully graded symmetric algebra."""

    def __init__(
        self,
        rg: galg.GradedAlgebra,
        degree_bound: int = 3,
        seed: int = 0,
        memory_mb: int = hh.DEFAULT_MEMORY_MB,
    ):
        self.rg = rg
        self.group = rg.group
        self.degree_bound = degree_bound
        self.seed = seed
        self.memory_mb = memory_mb
        report = galg.check_fully_graded(rg)
        if not report.ok:
            raise ValidationError(
                f"algebra is not fully graded: first failure {report.failures[0]}"
            )
        self._subs: dict[tuple, SubalgebraData] = {}
        # keyed by the carrier module's content and the bytes of the two form
        # vectors; the two caches below by (K, g, H[, n]), so that a hit
        # needs no double coset
        self._by_content: dict[tuple, hh.TransferData] = {}
        self._transfers: dict[tuple, hh.TransferData] = {}
        self._maps: dict[tuple, np.ndarray] = {}

    # -- caches --------------------------------------------------------------

    def sub_data(self, sub: _groups.Subgroup) -> SubalgebraData:
        if sub.key not in self._subs:
            comp = galg.component_subalgebra(self.rg, sub)
            form = galg.symmetrizing_form(comp, seed=self.seed)
            self._subs[sub.key] = SubalgebraData(sub, comp, form)
        return self._subs[sub.key]

    def subgroup(self, elements) -> _groups.Subgroup:
        return _groups.subgroup(self.group, elements)

    def full(self) -> _groups.Subgroup:
        return _groups.full_subgroup(self.group)

    def transfer_for(self, k: _groups.Subgroup, g: int, h: _groups.Subgroup) -> hh.TransferData:
        key = (k.key, g, h.key)
        if key not in self._transfers:
            module = bimod.truncation(self.rg, k, g, h)
            s_a, s_b = self.sub_data(k).form.vector, self.sub_data(h).form.vector
            content = (bimod.content(module), s_a.tobytes(), s_b.tobytes())
            if content not in self._by_content:
                self._by_content[content] = hh.transfer_data(
                    module, s_a, s_b, memory_mb=self.memory_mb)
            self._transfers[key] = self._by_content[content]
        return self._transfers[key]

    def map_along(self, k: _groups.Subgroup, g: int, h: _groups.Subgroup, n: int) -> np.ndarray:
        """Matrix HH^n(R_H) -> HH^n(R_K) of the transfer along the KgH carrier."""
        key = (k.key, g, h.key, n)
        if key not in self._maps:
            if not 0 <= n <= self.degree_bound:
                raise ValidationError(f"degree {n} is outside 0..{self.degree_bound}")
            self._maps[key] = hh.transfer(self.transfer_for(k, g, h), n)
        return self._maps[key]

    # -- the three structure maps ---------------------------------------------

    def restriction(self, h: _groups.Subgroup, n: int, top: _groups.Subgroup | None = None) -> np.ndarray:
        """r from the top (default the whole group) down to h."""
        top = top or self.full()
        if not h.is_subset_of(top):
            raise ValidationError("restriction target is not a subgroup of the source")
        return self.map_along(h, 0, top, n)

    def transfer_up(self, h: _groups.Subgroup, n: int, top: _groups.Subgroup | None = None) -> np.ndarray:
        top = top or self.full()
        if not h.is_subset_of(top):
            raise ValidationError("transfer source is not a subgroup of the target")
        return self.map_along(top, 0, h, n)

    def conjugation(self, g: int, h: _groups.Subgroup, n: int) -> np.ndarray:
        return self.map_along(_groups.conjugate_subgroup(g, h), g, h, n)

    # -- axiom verification -----------------------------------------------------

    def _identities(self, axiom: str, instance: dict) -> list[tuple]:
        """One axiom instance as identities (target, source, lhs, rhs) between
        maps HH^n(R_source) -> HH^n(R_target).  A side is a sum of words; a
        word is a list of carrier keys (K, g, H) whose map_along matrices
        multiply left to right, and the empty word is the identity.
        Instance keys: K, H as element tuples, g, h as element indices."""
        conj = _groups.conjugate_subgroup
        full = self.full()
        if axiom not in AXIOMS:
            raise ValidationError(f"unknown axiom {axiom!r}")
        h = self.subgroup(instance["H"])
        if axiom == "ii":
            return [(h, h, [[(h, 0, h)]], [[]])]
        if axiom == "iii":
            g, he = int(instance["g"]), int(instance["h"])
            gh = self.group.mul(g, he)
            mid, top = conj(he, h), conj(gh, h)
            return [(top, h, [[(top, g, mid), (mid, he, h)]], [[(top, gh, h)]])]
        if axiom == "iv":
            he = int(instance["h"])
            if not h.contains(he):
                raise ValidationError("axiom iv needs the element inside the subgroup")
            return [(h, h, [[(h, he, h)]], [[]])]
        k = self.subgroup(instance["K"])
        if axiom == "i":
            return [(k, full, [[(k, 0, h), (h, 0, full)]], [[(k, 0, full)]]),
                    (full, k, [[(full, 0, h), (h, 0, k)]], [[(full, 0, k)]])]
        if axiom == "v":
            g = int(instance["g"])
            gk, gh = conj(g, k), conj(g, h)
            return [(gk, h, [[(gk, g, k), (k, 0, h)]], [[(gk, 0, gh), (gh, g, h)]]),
                    (gh, k, [[(gh, g, h), (h, 0, k)]], [[(gh, 0, gk), (gk, g, k)]])]
        reps = instance.get("reps")
        if reps is None:
            reps = _groups.double_coset_reps(k, h)
        rhs = []
        for g in reps:
            gh = conj(g, h)
            meet = _groups.intersect(k, gh)
            rhs.append([(k, 0, meet), (meet, 0, gh), (gh, g, h)])
        return [(k, h, [[(k, 0, full), (full, 0, h)]], rhs)]

    def _evaluate(self, side, target, source, n: int) -> np.ndarray:
        f = self.rg.field

        def dim(sub):
            return self.sub_data(sub).classes(n, self.memory_mb).dim

        terms = [functools.reduce(f.matmul, (self.map_along(*key, n) for key in word))
                 if word else f.eye(dim(source)) for word in side]
        return sum(terms) % f.p if terms else f.zeros((dim(target), dim(source)))

    def verify_axiom(self, axiom: str, instance: dict, n: int) -> AxiomReport:
        """Evaluate the identities of one axiom instance in order; the report
        carries the first that fails, or the last."""
        for target, source, lhs, rhs in self._identities(axiom, instance):
            lmat = self._evaluate(lhs, target, source, n)
            rmat = self._evaluate(rhs, target, source, n)
            ok = bool(np.array_equal(lmat, rmat))
            if not ok:
                break
        return AxiomReport(axiom=axiom, instance=instance, degree=n, ok=ok,
                           lhs=lmat, rhs=rmat,
                           lhs_words=_plain(lhs), rhs_words=_plain(rhs))

    # -- enumeration ---------------------------------------------------------

    def select_subgroups(self, selection) -> list[_groups.Subgroup]:
        """'all' or an iterable of generator lists."""
        if selection in (None, "all"):
            return _groups.all_subgroups(self.group)
        subs = {}
        for gens in selection:
            s = _groups.subgroup_generated(self.group, gens)
            subs[s.key] = s
        return sorted(subs.values(), key=lambda s: (s.order, s.elements))

    def instances_for(self, axiom: str, subs: list[_groups.Subgroup]) -> list[dict]:
        """Admissible instances: nested pairs for i, v, vi; minimal coset
        representatives for iii, all subgroup elements for iv; one per
        subgroup for ii."""
        grp = self.group
        out = []
        if axiom in ("i", "v", "vi"):
            for h in subs:
                for k in subs:
                    if not k.is_subset_of(h):
                        continue
                    if axiom == "v":
                        for g in _groups.cosets(h, "left"):
                            out.append({"K": k.elements, "H": h.elements, "g": g})
                    else:
                        out.append({"K": k.elements, "H": h.elements})
        elif axiom == "ii":
            out = [{"H": h.elements} for h in subs]
        elif axiom == "iii":
            for h in subs:
                for he in _groups.cosets(h, "left"):
                    conj_h = _groups.conjugate_subgroup(he, h)
                    for g in _groups.cosets(conj_h, "left"):
                        out.append({"H": h.elements, "g": g, "h": he})
        elif axiom == "iv":
            for h in subs:
                for he in h.elements:
                    out.append({"H": h.elements, "h": he})
        else:
            raise ValidationError(f"unknown axiom {axiom!r}")
        return out

    def verify_all(
        self,
        selection="all",
        degrees=None,
        axioms: tuple[str, ...] = AXIOMS,
    ) -> list[AxiomReport]:
        """Every admissible instance of the selected axioms over the selected
        subgroups, at every requested degree."""
        subs = self.select_subgroups(selection)
        if degrees is None:
            degrees = range(self.degree_bound + 1)
        reports = []
        for axiom in axioms:
            if axiom not in AXIOMS:
                raise ValidationError(f"unknown axiom {axiom!r}")
            for instance in self.instances_for(axiom, subs):
                for n in degrees:
                    reports.append(self.verify_axiom(axiom, instance, n))
        return reports
