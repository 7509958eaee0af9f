"""One benchmark run: a single gradedhh CLI command in a fresh process.

Usage (started by run.py, never by hand):

    python3 bench/child.py SIDECAR TRACE -- <gradedhh arguments>

The CLI's report goes to this process's stdout.  When the process ends it
writes SIDECAR, a JSON object with

* ``exit``: the CLI's exit code,
* ``setup_end``: ``time.monotonic()`` when the first ``MackeySystem``
  construction returned (imports, spec parse, algebra build, fully-graded
  check and system set-up are done by then),
* with TRACE = 1, ``names``, ``spans`` and ``counters`` from the tracer below.

The tracer works from outside the package: before the CLI runs it replaces
the public functions and methods listed in ``install`` with wrappers, at the
attribute that callers look up (the module attribute for module functions,
the class for methods).  Cache counters read a cache's keys before each call.
A target that the package no longer has stops the run with an error before
the CLI starts, so a renamed or moved function fails the run's output check
instead of reading as a layer that takes no time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Tracer:
    """Spans kept in memory as [name, parent index, start, end]; the index
    in ``spans`` is the span id and -1 marks a span with no parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, miss=None, work=None) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``miss(*args, **kwargs)`` is asked before the call whether it misses a
        cache, and counts ``<name>.miss``.  ``work = (suffix, fn)`` adds
        ``fn(result)`` to ``<name>.<suffix>`` after each call, or after each
        miss when ``miss`` is given."""
        fn = getattr(owner, attr)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            missed = miss is not None and miss(*args, **kwargs)
            if missed:
                counters[name + ".miss"] += 1
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = clock()
            if work is not None and (miss is None or missed):
                counters[name + "." + work[0]] += int(work[1](out))
            return out

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from gradedhh import bimod, cli, exactfield, galg, groups, hh, mackey

        field = exactfield.PrimeField
        self.wrap(field, "rref", "exactfield.rref", work=("cells", lambda out: out[0].size))
        self.wrap(field, "kronecker", "exactfield.kronecker", work=("bytes", lambda out: out.nbytes))
        self.wrap(field, "matmul", "exactfield.matmul")
        self.wrap(field, "contract", "exactfield.contract")
        self.wrap(groups, "all_subgroups", "groups.subgroups")
        self.wrap(galg, "algebra_from_spec", "galg.build")
        self.wrap(galg, "check_fully_graded", "galg.build")
        self.wrap(galg, "unit_decomposition", "galg.unit_decomposition")
        self.wrap(bimod, "graded_carrier", "bimod.graded_carrier")
        self.wrap(bimod, "tensor_over", "bimod.tensor_over")
        self.wrap(bimod, "is_projective", "bimod.is_projective")
        self.wrap(bimod, "mult_iso_double_coset", "bimod.mult_iso")
        self.wrap(bimod, "mult_iso_conjugate_chain", "bimod.mult_iso")
        self.wrap(hh.CochainComplex, "delta", "hh.delta",
                  miss=lambda cc, n, *_: n not in cc._deltas,
                  work=("bytes", lambda out: out.nbytes))
        self.wrap(hh, "cohomology", "hh.cohomology",
                  miss=lambda a, n, *_: n not in a._cache.get("hh", {}))
        self.wrap(hh, "transfer_data", "hh.transfer_data")
        self.wrap(hh.TransferData, "lift", "hh.lift")
        self.wrap(hh, "transfer", "hh.transfer")
        system = mackey.MackeySystem
        self.wrap(system, "verify_axiom", "mackey.verify_axiom")
        self.wrap(system, "map_along", "mackey.map_along",
                  miss=lambda s, k, g, h, n, *_: (k.key, g, h.key, n) not in s._maps)
        self.wrap(system, "transfer_for", "mackey.transfer_for",
                  miss=lambda s, k, g, h, *_: (k.key, g, h.key) not in s._transfers)
        for command in ("cmd_info", "cmd_hh", "cmd_verify", "cmd_lemma2"):
            self.wrap(cli, command, "cli.command")

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], parent, start, end] for n, parent, start, end in self.spans],
            "counters": dict(self.counters),
        }


def main(argv: list[str]) -> int:
    sidecar, trace, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py SIDECAR TRACE -- ARGS...")
    from gradedhh import cli, mackey

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    marks: dict = {}
    init = mackey.MackeySystem.__init__

    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())

    mackey.MackeySystem.__init__ = timed_init
    code = cli.main(cli_argv)
    sys.stdout.flush()
    out = {"exit": code, **marks}
    if tracer is not None:
        out.update(tracer.dump())
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
