"""Batch command-line front end.

Commands:
  info    - load a spec file, print structure and validation results
  hh      - table of Hochschild cohomology dimensions per subgroup and degree
  verify  - run the Mackey-axiom suite, exit 0 iff every instance passes
  lemma2  - projectivity and multiplication-isomorphism checks for the
            standard carriers over every selected (K, g, H) / (g, h, H)

Exit codes: 0 all verified, 1 a mathematical check failed, 2 an
operational error (bad file, parse error, memory budget).  JSON reports are
byte-identical for identical configurations (they carry no timings).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bimod, galg, groups, hh, mackey
from .errors import BudgetError, SpecError, ValidationError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    spec_path: str
    degree: int = 3
    subgroups: str = "all"
    axioms: tuple[str, ...] = mackey.AXIOMS
    fmt: str = "text"
    seed: int = 0
    memory_mb: int = hh.DEFAULT_MEMORY_MB

    def __post_init__(self):
        if self.degree < 0:
            raise SpecError("degree bound must be nonnegative")
        if not self.axioms:
            raise SpecError("--axioms selects no axiom")
        if self.memory_mb <= 0:
            raise SpecError("memory budget must be positive")


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"spec file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("spec file must contain a JSON object")
    return spec


def parse_subgroups(text: str, order: int):
    """'all', or semicolon-separated comma lists of generator indices below
    the group order (an empty list selects the trivial subgroup)."""
    if text == "all":
        return "all"
    out = []
    for part in text.split(";"):
        try:
            gens = [int(x) for x in part.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise SpecError(f"--subgroups: {exc}") from exc
        bad = [x for x in gens if not 0 <= x < order]
        if bad:
            raise SpecError(f"--subgroups: elements {bad} are not in 0..{order - 1}")
        out.append(gens)
    return out


def parse_axioms(text: str) -> tuple[str, ...]:
    axioms = tuple(a.strip() for a in text.split(",") if a.strip())
    for a in axioms:
        if a not in mackey.AXIOMS:
            raise SpecError(f"unknown axiom {a!r}; choose from {','.join(mackey.AXIOMS)}")
    return axioms


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        # streamed 4096 encoder chunks per write: ``json.dumps`` holds every
        # chunk at once, and ``json.dump`` writes each one, 5-8x slower
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        while piece := "".join(itertools.islice(chunks, 4096)):
            sys.stdout.write(piece)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _subgroup_name(sub: groups.Subgroup) -> str:
    return f"order {sub.order}: {list(sub.elements)}"


def _load(cfg: RunConfig) -> tuple[galg.GradedAlgebra, str]:
    """The spec's graded algebra, and the label the reports give it:
    ``group``, or ``crossed:`` and the kind of the base."""
    spec = load_spec(cfg.spec_path)
    rg = galg.algebra_from_spec(spec)
    algebra = spec["algebra"]
    if algebra["kind"] == "group_algebra":
        return rg, "group"
    return rg, "crossed:" + algebra["base"]["kind"]


def _base_payload(command: str, cfg: RunConfig, rg: galg.GradedAlgebra, kind: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": {
            "degree": cfg.degree,
            "subgroups": cfg.subgroups,
            "axioms": list(cfg.axioms),
            "seed": cfg.seed,
            "memory_mb": cfg.memory_mb,
        },
        "group": {"order": rg.group.order, "name": rg.group.name},
        "algebra": {"dim": rg.dim, "p": rg.field.p, "kind": kind},
    }


# -- commands ----------------------------------------------------------------


def cmd_info(cfg: RunConfig) -> int:
    rg, kind = _load(cfg)
    graded = galg.check_fully_graded(rg)
    block_dims = [int((rg.grading == g).sum()) for g in range(rg.group.order)]
    form_ok, form_source = True, ""
    try:
        form = galg.symmetrizing_form(rg, seed=cfg.seed)
        form_source = form.source
    except ValidationError:
        form_ok = False
    payload = _base_payload("info", cfg, rg, kind)
    payload["blocks"] = block_dims
    payload["fully_graded"] = graded.ok
    payload["fully_graded_failures"] = [list(f) for f in graded.failures]
    payload["symmetric_form"] = {"found": form_ok, "source": form_source}
    lines = [
        f"group: {rg.group.name}, order {rg.group.order}",
        f"algebra: dim {rg.dim} over F_{rg.field.p} ({kind})",
        f"grading block dims: {block_dims}",
        f"fully graded: {'pass' if graded.ok else 'FAIL ' + str(graded.failures[:3])}",
        f"symmetric form: {'pass (' + form_source + ')' if form_ok else 'FAIL'}",
    ]
    _emit(payload, lines, cfg.fmt)
    return 0 if graded.ok and form_ok else 1


def cmd_hh(cfg: RunConfig) -> int:
    rg, kind = _load(cfg)
    system = mackey.MackeySystem(rg, degree_bound=cfg.degree, seed=cfg.seed,
                                 memory_mb=cfg.memory_mb)
    subs = system.select_subgroups(parse_subgroups(cfg.subgroups, rg.group.order))
    table = []
    for sub in subs:
        data = system.sub_data(sub)
        dims = [data.classes(n, cfg.memory_mb).dim for n in range(cfg.degree + 1)]
        table.append((sub, dims))
    payload = _base_payload("hh", cfg, rg, kind)
    payload["table"] = [
        {"subgroup": list(sub.elements), "dims": dims} for sub, dims in table
    ]
    header = "subgroup".ljust(32) + "".join(f"n={n}".rjust(6) for n in range(cfg.degree + 1))
    lines = [header]
    for sub, dims in table:
        lines.append(_subgroup_name(sub).ljust(32) + "".join(str(d).rjust(6) for d in dims))
    _emit(payload, lines, cfg.fmt)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    rg, kind = _load(cfg)
    t0 = time.monotonic()
    system = mackey.MackeySystem(rg, degree_bound=cfg.degree, seed=cfg.seed,
                                 memory_mb=cfg.memory_mb)
    reports = system.verify_all(
        selection=parse_subgroups(cfg.subgroups, rg.group.order),
        degrees=range(cfg.degree + 1),
        axioms=cfg.axioms,
    )
    elapsed = time.monotonic() - t0
    passed = sum(1 for r in reports if r.ok)
    payload = _base_payload("verify", cfg, rg, kind)
    payload["results"] = [r.to_json() for r in reports]
    payload["summary"] = {
        "total": len(reports), "passed": passed, "failed": len(reports) - passed,
    }
    lines = []
    for r in reports:
        mark = "pass" if r.ok else "FAIL"
        lines.append(f"axiom {r.axiom:>3}  degree {r.degree}  {mark}  {r.instance}")
        if not r.ok:
            lines.append(f"  lhs = {mackey.side_text(r.lhs_words)} = {np.atleast_2d(r.lhs).tolist()}")
            lines.append(f"  rhs = {mackey.side_text(r.rhs_words)} = {np.atleast_2d(r.rhs).tolist()}")
    lines.append(
        f"{passed}/{len(reports)} instances passed in {elapsed:.2f}s"
    )
    _emit(payload, lines, cfg.fmt)
    return 0 if passed == len(reports) else 1


def cmd_lemma2(cfg: RunConfig) -> int:
    rg, kind = _load(cfg)
    system = mackey.MackeySystem(rg, degree_bound=cfg.degree, seed=cfg.seed,
                                 memory_mb=cfg.memory_mb)
    subs = system.select_subgroups(parse_subgroups(cfg.subgroups, rg.group.order))
    grp = rg.group
    full = groups.full_subgroup(grp)
    results = []

    def record(part, instance, ok, detail=""):
        results.append({"part": part, "instance": instance, "verdict":
                        "pass" if ok else "fail", "detail": detail})

    for h in subs:
        m_mod = bimod.side_restricted(rg, h, full)
        n_mod = bimod.side_restricted(rg, full, h)
        for name, mod in (("M", m_mod), ("N", n_mod)):
            for side in ("left", "right"):
                ok = bimod.is_projective(mod, side).projective
                record("a", {"module": name, "H": list(h.elements), "side": side}, ok)
        for g in range(grp.order):
            p_mod = bimod.truncation(rg, groups.conjugate_subgroup(g, h), g, h)
            for side in ("left", "right"):
                ok = bimod.is_projective(p_mod, side).projective
                record("a", {"module": "P", "H": list(h.elements), "g": g, "side": side}, ok)
    for k in subs:
        for h in subs:
            for g in range(grp.order):
                try:
                    bimod.mult_iso_double_coset(rg, k, g, h)
                    ok, detail = True, ""
                except ValidationError as exc:
                    ok, detail = False, str(exc)
                record("b", {"K": list(k.elements), "g": g, "H": list(h.elements)},
                       ok, detail)
    for h in subs:
        for g in range(grp.order):
            for he in range(grp.order):
                try:
                    bimod.mult_iso_conjugate_chain(rg, g, he, h)
                    ok, detail = True, ""
                except ValidationError as exc:
                    ok, detail = False, str(exc)
                record("c", {"g": g, "h": he, "H": list(h.elements)}, ok, detail)

    passed = sum(1 for r in results if r["verdict"] == "pass")
    payload = _base_payload("lemma2", cfg, rg, kind)
    payload["results"] = results
    payload["summary"] = {
        "total": len(results), "passed": passed, "failed": len(results) - passed,
    }
    lines = []
    for r in results:
        lines.append(f"part {r['part']}  {r['verdict']:>4}  {r['instance']}"
                     + (f"  ({r['detail']})" if r["detail"] else ""))
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(payload, lines, cfg.fmt)
    return 0 if passed == len(results) else 1


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedhh",
        description="Hochschild cohomology of group-graded algebras: "
                    "structure maps and exact identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("info", cmd_info), ("hh", cmd_hh),
                     ("verify", cmd_verify), ("lemma2", cmd_lemma2)):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="path to the algebra spec JSON")
        p.add_argument("--degree", type=int, default=3)
        p.add_argument("--subgroups", default="all",
                       help="'all' or semicolon-separated generator lists, e.g. '1;1,4;'")
        p.add_argument("--axioms", default=",".join(mackey.AXIOMS))
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--memory-mb", dest="memory_mb", type=int,
                       default=hh.DEFAULT_MEMORY_MB)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            spec_path=args.spec, degree=args.degree, subgroups=args.subgroups,
            axioms=parse_axioms(args.axioms), fmt=args.fmt, seed=args.seed,
            memory_mb=args.memory_mb,
        )
        return args.fn(cfg)
    except (SpecError, BudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
