"""Benchmark of the gradedhh command line, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one CLI command on one algebra.  The spec is generated from
the seed: seed 0 is the algebra exactly as built from its group kind, and a
seed k > 0 relabels the group elements by a seeded permutation and passes the
group as an explicit Cayley table, so the mathematics and the number of
checks stay the same while every index changes.  The CLI only sees the
generated file.

Every run of the CLI is a fresh child process (bench/child.py), one at a
time, with the BLAS thread count fixed.  Its output is checked before any of
its numbers is used: exit code 0, ``summary.failed == 0``, the expected
``summary.total``, and at seed 0 the sha256 of the JSON report.  A run that
fails the check counts all its checks as failed and posts no timing.

With ``--trace 0`` the runs are untraced and the result carries the
end-to-end metrics, medians over the runs:

* ``wall_s``: child start to exit,
* ``setup_s``: child start to the end of ``MackeySystem`` construction,
* ``peak_rss_mb``: the child's ``ru_maxrss``,
* ``checks_per_s``: checks per second of ``wall_s - setup_s``.

With ``--trace 1`` untraced and traced runs alternate.  The result carries
the per-layer metrics of the traced runs (medians of self times; counts,
which must repeat exactly between the traced runs) and ``trace.overhead_s``,
the traced minus the untraced median wall time.  A per-layer metric of a
module that the workload never calls reads 0 (a hit ratio too) and is
named on the ``unused`` line of the text output.

Workload names, metric names and units, and the default ``--seconds`` come
from BENCHMARK.json; this file holds what BENCHMARK.json lacks: each
workload's algebra, command, check count and seed-0 report digest.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--workload all`` every
workload prints its own.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

# float64 matmul in exactfield calls dgemm; one thread keeps runs comparable
BLAS_THREADS = 1
MIN_RUNS = 3        # full runs per measured run, whatever --seconds says
MIN_TRACED = 2      # traced runs, so that counts can be compared


@dataclass(frozen=True)
class Workload:
    name: str
    group: dict        # group spec at seed 0
    command: tuple     # CLI command and its flags, without --spec
    total: int         # summary.total at every seed
    digest: str        # sha256 of the --format json report at seed 0


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-s3p2-d3", {"kind": "symmetric", "n": 3}, ("verify", "--degree", "3"),
        616, "258c42707eb365aedb27cfe743a53aca40f42d4eba71c64e3ad62851f5489ae8",
    ),
    Workload(
        "verify-d4p2-d2", {"kind": "dihedral", "n": 4}, ("verify", "--degree", "2"),
        1050, "8a050fc5357b7e5a75ee991a08704350d2ea172841ddcaaaa6e04e3d9fdfb7e5",
    ),
    Workload(
        "lemma2-d4p2", {"kind": "dihedral", "n": 4}, ("lemma2",),
        1640, "aeb93f2049be0c8fa2b5418c80dbf0c7babe825f871580d147b9dfe098c5397f",
    ),
)}

# -- inputs --------------------------------------------------------------------


def cayley_table(group: dict) -> list[list[int]]:
    """Cayley table of a seed-0 group, in the element order gradedhh uses:
    sorted permutations for symmetric groups; rotations, then reflections for
    dihedral groups.  Row is the left factor."""
    n = group["n"]
    if group["kind"] == "symmetric":
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(s[t[x]] for x in range(n))] for t in perms] for s in perms]
    if group["kind"] == "dihedral":
        # element k < n is x -> x+k, element n+k is x -> k-x (all mod n)
        def images(e):
            return tuple((x + e) % n if e < n else (e - n - x) % n for x in range(n))

        maps = [images(e) for e in range(2 * n)]
        index = {m: e for e, m in enumerate(maps)}
        return [[index[tuple(a[b[x]] for x in range(n))] for b in maps] for a in maps]
    raise ValueError(f"no Cayley table for group kind {group['kind']!r}")


def make_spec(workload: Workload, seed: int) -> dict:
    """The workload's algebra spec: canonical at seed 0, relabelled by a
    seeded permutation fixing the identity (element 0) for seed > 0."""
    group = dict(workload.group)
    if seed:
        table = cayley_table(group)
        order = len(table)
        rest = list(range(1, order))
        random.Random(seed).shuffle(rest)
        perm = [0] + rest
        relabelled = [[0] * order for _ in range(order)]
        for a in range(order):
            for b in range(order):
                relabelled[perm[a]][perm[b]] = perm[table[a][b]]
        group = {"kind": "table", "order": order, "table": relabelled}
    return {"field": {"p": 2}, "group": group, "algebra": {"kind": "group_algebra"}}


# -- one child run -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: Workload, spec_path: Path, workdir: Path, trace: bool = False) -> dict:
    """Run the workload's command once in a fresh process and return its
    timings, rusage, report and sidecar."""
    report, errors, sidecar = (workdir / n for n in ("report.json", "stderr.txt", "sidecar.json"))
    sidecar.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(sidecar), str(int(trace)), "--",
            *workload.command, "--spec", str(spec_path), "--format", "json"]
    with open(report, "wb") as out, open(errors, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return {
        "exit": proc.returncode,
        "wall_s": end - start,
        "setup_s": side["setup_end"] - start if "setup_end" in side else None,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "report": report.read_bytes(),
        "stderr": errors.read_text(errors="replace"),
        "sidecar": side,
    }


def check(workload: Workload, seed: int, run: dict) -> str | None:
    """Why the run's output is wrong, or None when it is right."""
    if run["exit"] != 0:
        return f"exit code {run['exit']}: {run['stderr'].strip()[-400:]}"
    if run["setup_s"] is None:
        return "the run never finished set-up"
    try:
        summary = json.loads(run["report"])["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if summary.get("total") != workload.total or summary.get("failed") != 0:
        return f"summary {summary}, expected total {workload.total} with none failed"
    if seed == 0 and hashlib.sha256(run["report"]).hexdigest() != workload.digest:
        return "report differs from the recorded seed-0 digest"
    return None


# -- per-layer numbers from a traced run ----------------------------------------


def layer_numbers(sidecar: dict) -> tuple[dict, dict]:
    """(self seconds by span name, counts by metric name) of one traced run.
    A span's self time is its duration minus its children's durations."""
    names, spans = sidecar["names"], sidecar["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    counts = dict(sidecar["counters"])
    for i, (name, _, start, end) in enumerate(spans):
        self_s[names[name]] += end - start - child_time[i]
        counts[names[name] + ".calls"] = counts.get(names[name] + ".calls", 0) + 1
    return self_s, counts


def layer_metrics(traced: list[dict]) -> tuple[dict, list]:
    """Per-layer metric values over traced runs whose counts agree, and the
    metrics of modules that the runs never called.  "<span>.s" is the span's
    summed self time, "<span>.calls" its number of spans, "<span>.hit_ratio"
    its share of calls that hit the cache; other names are tracer counters."""
    numbers = [layer_numbers(run["sidecar"]) for run in traced]
    counts = numbers[0][1]
    values, unused = {}, []
    for metric in DECLARED["per_layer"]:
        name = metric["name"]
        stem, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            continue
        if not counts.get(stem + ".calls"):
            unused.append(name)
        if kind == "s":
            values[name] = statistics.median(n[0].get(stem, 0.0) for n in numbers)
        elif kind == "hit_ratio":
            calls = counts.get(stem + ".calls", 0)
            values[name] = (calls - counts.get(stem + ".miss", 0)) / calls if calls else 0.0
        else:
            values[name] = counts.get(name, 0)
    return values, unused


# -- one measured run ------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    spec = make_spec(workload, seed)
    checks = {"attempted": 0, "failed": 0}
    passed: dict[str, list] = {"plain": [], "traced": []}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))

        def attempt(kind: str) -> None:
            run = run_child(workload, spec_path, workdir, trace=kind == "traced")
            problem = check(workload, seed, run)
            checks["attempted"] += workload.total
            if problem is None and kind == "traced" and passed["traced"]:
                if layer_numbers(run["sidecar"])[1] != layer_numbers(passed["traced"][0]["sidecar"])[1]:
                    problem = "per-layer counts differ between traced runs"
            if problem is None:
                passed[kind].append(run)
            else:
                checks["failed"] += workload.total
                print(f"{workload.name} seed {seed} {kind} run failed: {problem}", file=sys.stderr)

        # warm-up: bytecode and file cache, so the first measured run is like the rest
        subprocess.run([sys.executable, "-c", "import gradedhh.cli"], cwd=ROOT, check=True,
                       env={**child_env(), "PYTHONPATH": str(ROOT / "src")})
        # one cycle: a full run, or an untraced and a traced run; a cycle
        # starts only if it should end within --seconds
        cycle = ("plain", "traced") if trace else ("plain",)
        start = time.monotonic()
        for cycles in itertools.count(1):
            for kind in cycle:
                attempt(kind)
            elapsed = time.monotonic() - start
            enough = len(passed["plain"]) >= MIN_RUNS and (
                not trace or len(passed["traced"]) >= MIN_TRACED)
            if enough and elapsed * (cycles + 1) / cycles > seconds:
                break
            if not enough and checks["failed"] >= 3 * workload.total:
                break
    plain = passed["plain"]
    if not plain or (trace and not passed["traced"]):
        return {**checks, "metrics": None}
    wall = statistics.median(r["wall_s"] for r in plain)
    unused = []
    if trace:
        values, unused = layer_metrics(passed["traced"])
        values["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in passed["traced"]) - wall
        declared = DECLARED["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "checks_per_s": statistics.median(
                workload.total / (r["wall_s"] - r["setup_s"]) for r in plain),
        }
        declared = DECLARED["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {**checks, "runs": len(plain), "traced_runs": len(passed["traced"]),
            "unused": unused, "metrics": metrics}


# -- environment and entry point ---------------------------------------------------


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    try:
        import numpy
        numpy_version = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        numpy_version = blas_version = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in DECLARED["workloads"]]
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradedhh" / "__init__.py").exists():
        print(f"error: no gradedhh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.workload != "all":
        names = [args.workload]
    code = 0
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result["metrics"] is None:
            print(f"error: {name}: no run passed the output check", file=sys.stderr)
            code = 1
            continue
        failed_frac = result["failed"] / result["attempted"]
        print(f"{name} seed {args.seed}: {result['runs']} runs, {result['traced_runs']} traced; "
              f"failed_frac {failed_frac:.4g} (share of checks)")
        for metric, value in result["metrics"].items():
            print(f"  {metric:32} {value['value']:.6g} {value['unit']}")
        if result["unused"]:
            print(f"  unused (module never called, reads 0): {', '.join(result['unused'])}")
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
