"""Self-checks of the benchmark itself; exits 1 if any fails.

    python3 bench/selfcheck.py

* seed 0 reproduces the shipped s3_p2 algebra, and the benchmark's Cayley
  tables match the package's own group constructors;
* relabelled seeds keep every workload's check count and pass the output
  check;
* per-layer counts repeat exactly across two traced runs of each workload;
* the spans below the command span cover at least 90% of its time.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

from gradedhh import groups  # noqa: E402

MIN_COVERAGE = 0.9


def command_coverage(sidecar: dict) -> float:
    """Share of the command span's time covered by the spans below it."""
    spans = sidecar["spans"]
    command = sidecar["names"].index("cli.command")
    top = [i for i, s in enumerate(spans) if s[0] == command and s[1] < 0]
    total = sum(spans[i][3] - spans[i][2] for i in top)
    covered = sum(s[3] - s[2] for s in spans if s[1] in top)
    return covered / total


def main() -> int:
    failures = []

    def report(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok:
            failures.append(what)

    shipped = json.loads((run.ROOT / "specs" / "s3_p2.json").read_text())
    report(run.make_spec(run.WORKLOADS["verify-s3p2-d3"], 0) == shipped,
           "seed 0 of verify-s3p2-d3 is specs/s3_p2.json")
    for kind, n in (("symmetric", 3), ("dihedral", 4)):
        table = groups.build(kind, n=n).table.tolist()
        report(run.cayley_table({"kind": kind, "n": n}) == table,
               f"Cayley table of {kind} n={n} matches gradedhh.groups")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        spec_path = workdir / "spec.json"
        for workload in run.WORKLOADS.values():
            for seed in (1, 2):
                spec_path.write_text(json.dumps(run.make_spec(workload, seed)))
                problem = run.check(workload, seed, run.run_child(workload, spec_path, workdir))
                report(problem is None,
                       f"{workload.name} seed {seed}: {workload.total} checks, all pass"
                       + (f" ({problem})" if problem else ""))
            spec_path.write_text(json.dumps(run.make_spec(workload, 0)))
            traced = [run.run_child(workload, spec_path, workdir, trace=True) for _ in range(2)]
            problems = [run.check(workload, 0, t) for t in traced]
            report(problems == [None, None],
                   f"{workload.name} traced runs pass the output check {problems}")
            if problems != [None, None]:
                continue
            counts = [run.layer_numbers(t["sidecar"])[1] for t in traced]
            report(counts[0] == counts[1], f"{workload.name} per-layer counts repeat exactly")
            coverage = [command_coverage(t["sidecar"]) for t in traced]
            report(min(coverage) >= MIN_COVERAGE,
                   f"{workload.name} spans cover {min(coverage):.3f} of the command span")
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
