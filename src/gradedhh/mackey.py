"""Restriction, transfer, and conjugation maps between the Hochschild
cohomologies of the component subalgebras of a fully graded algebra, and
exact verification of the six Mackey-functor axioms.

Every map is a transfer along a double-coset carrier: with
map_along(K, g, H) the transfer along the components over KgH (an
R_K - R_H bimodule),

* restriction from H to K <= H   is map_along(K, 1, H),
* transfer   from K <= H to H    is map_along(H, 1, K),
* conjugation by g at H          is map_along(gHg^-1, g, H).

All comparisons happen on cohomology-class coordinates at a fixed degree;
caches keep one symmetrizing form and one HH basis per subalgebra and one
TransferData per carrier.
"""

from __future__ import annotations

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
    axiom: str
    instance: dict
    degree: int
    ok: bool
    lhs: np.ndarray | None = None
    rhs: np.ndarray | None = None

    def to_json(self, include_matrices_on_failure: bool = True) -> dict:
        out = {
            "axiom": self.axiom,
            "instance": self.instance,
            "degree": self.degree,
            "verdict": "pass" if self.ok else "fail",
        }
        if not self.ok and include_matrices_on_failure:
            out["lhs"] = [[int(x) for x in row] for row in np.atleast_2d(self.lhs)]
            out["rhs"] = [[int(x) for x in row] for row in np.atleast_2d(self.rhs)]
        return out


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
        return _groups.Subgroup(self.group, tuple(elements))

    def full(self) -> _groups.Subgroup:
        return _groups.full_subgroup(self.group)

    def transfer_for(self, k: _groups.Subgroup, g: int, h: _groups.Subgroup) -> hh.TransferData:
        key = (k.key, g, h.key)
        if key not in self._transfers:
            carrier = bimod.truncation(self.rg, k, g, h)
            dk, dh = self.sub_data(k), self.sub_data(h)
            self._transfers[key] = hh.transfer_data(
                carrier, dk.form.vector, dh.form.vector, memory_mb=self.memory_mb
            )
        return self._transfers[key]

    def map_along(self, k: _groups.Subgroup, g: int, h: _groups.Subgroup, n: int) -> np.ndarray:
        """Matrix HH^n(R_H) -> HH^n(R_K) of the transfer along the KgH carrier."""
        key = (k.key, g, h.key, n)
        if key not in self._maps:
            if n > self.degree_bound:
                raise ValidationError(f"degree {n} exceeds the bound {self.degree_bound}")
            data = self.transfer_for(k, g, h)
            self._maps[key] = hh.transfer(
                data, n,
                classes_b=self.sub_data(h).classes(n, self.memory_mb),
                classes_a=self.sub_data(k).classes(n, self.memory_mb),
                memory_mb=self.memory_mb,
            )
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

    def _mm(self, *mats: np.ndarray) -> np.ndarray:
        out = mats[0]
        for m in mats[1:]:
            out = self.rg.field.matmul(out, m)
        return out

    def _report(self, axiom, instance, n, lhs, rhs) -> AxiomReport:
        ok = bool(np.array_equal(lhs, rhs))
        return AxiomReport(axiom=axiom, instance=instance, degree=n, ok=ok,
                           lhs=lhs, rhs=rhs)

    def verify_axiom(self, axiom: str, instance: dict, n: int) -> AxiomReport:
        """Build both sides of one axiom instance as matrices and compare.

        Instance keys: K, H as element tuples, g, h as element indices,
        depending on the axiom.
        """
        full = self.full()
        if axiom == "i":
            k = self.subgroup(instance["K"])
            h = self.subgroup(instance["H"])
            lhs = self._mm(self.map_along(k, 0, h, n), self.restriction(h, n))
            rhs = self.restriction(k, n)
            rep = self._report("i", instance, n, lhs, rhs)
            if not rep.ok:
                return rep
            lhs = self._mm(self.transfer_up(h, n), self.map_along(h, 0, k, n))
            rhs = self.transfer_up(k, n)
            return self._report("i", instance, n, lhs, rhs)
        if axiom == "ii":
            h = self.subgroup(instance["H"])
            mat = self.map_along(h, 0, h, n)
            ident = np.eye(mat.shape[0], dtype=np.int64)
            return self._report("ii", instance, n, mat, ident)
        if axiom == "iii":
            h = self.subgroup(instance["H"])
            g, he = int(instance["g"]), int(instance["h"])
            gh = self.group.mul(g, he)
            conj_h = _groups.conjugate_subgroup(he, h)
            lhs = self._mm(self.conjugation(g, conj_h, n), self.conjugation(he, h, n))
            rhs = self.conjugation(gh, h, n)
            return self._report("iii", instance, n, lhs, rhs)
        if axiom == "iv":
            h = self.subgroup(instance["H"])
            he = int(instance["h"])
            if not h.contains(he):
                raise ValidationError("axiom iv needs the element inside the subgroup")
            mat = self.conjugation(he, h, n)
            ident = np.eye(mat.shape[0], dtype=np.int64)
            return self._report("iv", instance, n, mat, ident)
        if axiom == "v":
            k = self.subgroup(instance["K"])
            h = self.subgroup(instance["H"])
            g = int(instance["g"])
            gk = _groups.conjugate_subgroup(g, k)
            gh = _groups.conjugate_subgroup(g, h)
            lhs = self._mm(self.conjugation(g, k, n), self.map_along(k, 0, h, n))
            rhs = self._mm(self.map_along(gk, 0, gh, n), self.conjugation(g, h, n))
            rep = self._report("v", instance, n, lhs, rhs)
            if not rep.ok:
                return rep
            lhs = self._mm(self.conjugation(g, h, n), self.map_along(h, 0, k, n))
            rhs = self._mm(self.map_along(gh, 0, gk, n), self.conjugation(g, k, n))
            return self._report("v", instance, n, lhs, rhs)
        if axiom == "vi":
            k = self.subgroup(instance["K"])
            h = self.subgroup(instance["H"])
            reps = instance.get("reps")
            if reps is None:
                reps = _groups.double_coset_reps(k, h)
            lhs = self._mm(self.restriction(k, n), self.transfer_up(h, n))
            hk = self.sub_data(k).classes(n, self.memory_mb).dim
            hh_dim = self.sub_data(h).classes(n, self.memory_mb).dim
            rhs = np.zeros((hk, hh_dim), dtype=np.int64)
            for g in reps:
                gh = _groups.conjugate_subgroup(g, h)
                meet = _groups.intersect(k, gh)
                term = self._mm(
                    self.map_along(k, 0, meet, n),
                    self.map_along(meet, 0, gh, n),
                    self.conjugation(g, h, n),
                )
                rhs = (rhs + term) % self.rg.field.p
            return self._report("vi", instance, n, lhs, rhs)
        raise ValidationError(f"unknown axiom {axiom!r}")

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
        """Admissible instances: nested pairs for i, v, vi; coset-transversal
        elements for iii, iv; one per subgroup for ii."""
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
