import collections
import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gradedhh import cli, hh, mackey
from gradedhh.exactfield import PrimeField

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_s3(capsys):
    code, out, _ = run(capsys, "info", "--spec", str(SPECS / "s3_p2.json"))
    assert code == 0
    assert "dim 6" in out
    assert "fully graded: pass" in out
    assert "symmetric form: pass" in out


def test_info_trivial_group(tmp_path, capsys):
    spec = tmp_path / "triv.json"
    spec.write_text(json.dumps({
        "field": {"p": 2},
        "group": {"kind": "cyclic", "n": 1},
        "algebra": {"kind": "group_algebra"},
    }))
    code, out, _ = run(capsys, "info", "--spec", str(spec))
    assert code == 0
    assert "dim 1" in out


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "info", "--spec", str(bad))
    assert code == 2
    assert "JSON" in err or "error" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "info", "--spec", "/nonexistent/path.json")
    assert code == 2


def test_hh_table_c2(capsys):
    code, out, _ = run(capsys, "hh", "--spec", str(SPECS / "c2_p2.json"),
                       "--degree", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("order 2")]
    assert lines and lines[0].split()[-4:] == ["2", "2", "2", "2"]


def test_hh_table_c3_f3(capsys):
    code, out, _ = run(capsys, "hh", "--spec", str(SPECS / "c3_p3.json"),
                       "--degree", "3", "--subgroups", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("order 3")]
    assert lines and lines[0].split()[-4:] == ["3", "3", "3", "3"]


def test_hh_table_s3_f7(capsys):
    code, out, _ = run(capsys, "hh", "--spec", str(SPECS / "s3_p7.json"),
                       "--degree", "2", "--subgroups", "1,2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("order 6")]
    assert lines and lines[0].split()[-3:] == ["3", "0", "0"]


def test_hh_table_matrix_crossed_degree_3(capsys):
    # M_2(k) x| C2 is Morita equivalent to kC2, so its HH dimensions are kC2's
    code, out, _ = run(capsys, "hh", "--spec", str(SPECS / "matrix_crossed_c2_p2.json"),
                       "--degree", "3", "--subgroups", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("order 2")]
    assert lines and lines[0].split()[-4:] == ["2", "2", "2", "2"]


def test_hh_table_matrix_crossed_degree_4_within_256_mib(capsys):
    # B^4 is held block by block, so degree 4 fits in 256 MiB; one RREF
    # basis of B^4 over all 32768 coordinates would take about 910 MiB
    code, out, err = run(capsys, "hh", "--spec", str(SPECS / "matrix_crossed_c2_p2.json"),
                         "--degree", "4", "--subgroups", "1", "--memory-mb", "256")
    assert code == 0, err
    lines = [l for l in out.splitlines() if l.startswith("order 2")]
    assert lines and lines[0].split()[-5:] == ["2", "2", "2", "2", "2"]


def test_d4_verifies_at_degree_3_under_a_budget_the_dense_lift_exceeded(tmp_path, capsys):
    # a dense degree-3 lift of the whole-group carrier (512 x 32768 generator
    # images, with three right-hand-side arrays and a product workspace)
    # checked about 200 MiB; its nonzero entries check well under 1 MiB
    spec = tmp_path / "d4_p2.json"
    spec.write_text(json.dumps({
        "field": {"p": 2},
        "group": {"kind": "dihedral", "n": 4},
        "algebra": {"kind": "group_algebra"},
    }))
    code, out, _ = run(capsys, "verify", "--spec", str(spec), "--degree", "3",
                       "--memory-mb", "160", "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"total": 1400, "passed": 1400, "failed": 0}


def test_hh_budget_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "hh", "--spec", str(SPECS / "s3_p2.json"),
                       "--degree", "3", "--memory-mb", "1", "--subgroups", "1,2")
    assert code == 2
    assert "budget" in err or "MiB" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--axioms", ",", "--axioms selects no axiom"),
    ("--memory-mb", "0", "memory budget must be positive"),
    ("--memory-mb", "-3", "memory budget must be positive"),
])
def test_empty_axiom_list_or_nonpositive_budget_exit_2(flag, value, message, capsys):
    # refused before any work, not run as zero checks or as a failed estimate
    code, out, err = run(capsys, "verify", "--spec", str(SPECS / "c2_p2.json"),
                         "--degree", "1", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_v4_json_deterministic(capsys):
    argv = ("verify", "--spec", str(SPECS / "c2xc2_p2.json"), "--degree", "1",
            "--format", "json", "--seed", "0")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] > 0


def test_verify_crossed_product_degree1(capsys):
    code, out, _ = run(capsys, "verify", "--spec",
                       str(SPECS / "matrix_crossed_c2_p2.json"),
                       "--degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


def test_verify_axiom_selection(capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(SPECS / "c2xc2_p2.json"),
                       "--degree", "1", "--axioms", "vi", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {r["axiom"] for r in payload["results"]} == {"vi"}


def test_verify_unknown_axiom_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--spec", str(SPECS / "c2_p2.json"),
                       "--axioms", "vii")
    assert code == 2


def test_verify_subgroup_selection_text(capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(SPECS / "s3_p2.json"),
                       "--degree", "0", "--subgroups", "1;", "--axioms", "ii")
    assert code == 0
    assert "pass" in out


def test_lemma2_c2(capsys):
    code, out, _ = run(capsys, "lemma2", "--spec", str(SPECS / "c2_p2.json"),
                       "--degree", "1")
    assert code == 0
    assert "checks passed" in out


def test_lemma2_trivial_group_vacuous(tmp_path, capsys):
    spec = tmp_path / "triv.json"
    spec.write_text(json.dumps({
        "field": {"p": 3},
        "group": {"kind": "cyclic", "n": 1},
        "algebra": {"kind": "group_algebra"},
    }))
    code, out, _ = run(capsys, "lemma2", "--spec", str(spec))
    assert code == 0


def test_lemma2_crossed_product_json(capsys):
    code, out, _ = run(capsys, "lemma2", "--spec",
                       str(SPECS / "matrix_crossed_c2_p2.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    parts = {r["part"] for r in payload["results"]}
    assert parts == {"a", "b", "c"}


# sha256 of ``lemma2 --format json`` at seed 0, pinned before the carrier,
# tensor-product and unit-decomposition caches landed
LEMMA2_DIGESTS = {
    "c2_p2": "28cf29c4d20d43c6ebd7dad54249dd535df8ec9929d0b984ee159f55203b3ddf",
    "c2xc2_p2": "201284c2dabc9c5d10c251130fa7b014e8637f42a09960962e7ef6467eb04ed9",
    "c3_p3": "73beeb260eae00a0590517a35e4a18a3c0b5bad61240dbcf18ee362ca8dbeb5d",
    "matrix_crossed_c2_p2": "20a4bf4facf431ececc87422b730f7d04fb2a8372bc7c5eee48637c14973be00",
    "s3_p2": "c87a9b738dbd0fae87cb76dd3ff7500e28862753bf3f4b402fa653af4083ea36",
    "s3_p3": "334d0461f7a59fe42e003eec1b0151cdbf5c001de995ccdcf43129dd3b32bd58",
    "s3_p7": "e941cc99aaf64e3ddc8c20be179b3490d94d88e5737935535f5d80ec8687ed9e",
}


@pytest.mark.parametrize("spec", sorted(LEMMA2_DIGESTS))
def test_lemma2_report_digest(spec, capsys):
    code, out, _ = run(capsys, "lemma2", "--spec", str(SPECS / f"{spec}.json"),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LEMMA2_DIGESTS[spec]


# sha256 of ``verify --format json`` at seed 0 (degree 2 on every spec, and the
# CLI default degree 3 on s3_p2, the benchmark's verify-s3p2-d3 report),
# pinned before rref recorded its multipliers
VERIFY_DIGESTS = {
    ("c2_p2", 2): "0e9a2612154669328d1d7b475bb4fee756d658bc158900ab88bb51e2189c26ac",
    ("c2xc2_p2", 2): "1b9f725cc79c299df3d584d756c41dbccf7df6275c35dfaf266e6fedfe0d6b00",
    ("c3_p3", 2): "aca038ccb51a608379c7b46dbe07db80bde5fe8d826734d2c0659d5fa69981bb",
    ("matrix_crossed_c2_p2", 2): "4970a3114360aa08df5c026d9e9283d70d6876f5892683ec4f375e4d6438977f",
    ("s3_p2", 2): "a6dcc8b4b5c9080a8b62cc52e65c0fbe4cd6cc8246afea6ee9295569f738ded6",
    ("s3_p3", 2): "1519cb2101957872c92aff9e92a3902b78ee18eeb8e648601b088382bff9a73d",
    ("s3_p7", 2): "b113c39925f3a7431fc93441890c59df16c46dc5e498409a3886a0c617fa6e5a",
    ("s3_p2", 3): "258c42707eb365aedb27cfe743a53aca40f42d4eba71c64e3ad62851f5489ae8",
}


@pytest.mark.parametrize("spec,degree", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(spec, degree, capsys):
    code, out, _ = run(capsys, "verify", "--spec", str(SPECS / f"{spec}.json"),
                       "--degree", str(degree), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[spec, degree]


# sha256 of ``info --format json`` and ``hh --degree 2 --format json`` at seed
# 0, which carry the algebra's kind label and the symmetrizing form's source;
# pinned while both were still read off kind tags on the algebra
INFO_HH_DIGESTS = {
    ("c2_p2", "info"): "6ccb229f1958fc2e36042fd6ccdc2918680f2bb99ce3b56f86de73c5a6db1183",
    ("c2xc2_p2", "info"): "68d07902949b40c501dd5a3da3e4091b2075fd54c0ab5c1a3cd371a91fa5c544",
    ("c3_p3", "info"): "020723619d84bdc3d13a6d1d09198c63e79b97444358c75d6929721f5e64cc4e",
    ("matrix_crossed_c2_p2", "info"):
        "b5d70ea2421c3d80d2998b2863ac9d99f8fbb17bd09ad6e3e5f21f0c2f04e3c6",
    ("s3_p2", "info"): "62ed7d905e6e390f0f9f89a8c8d30b617133d7bd4093be9de6d8e1a6b250e919",
    ("s3_p3", "info"): "b6b67e707392d76096a0864eec337e81bf5afdd305f51bd78cadf455abc22ed5",
    ("s3_p7", "info"): "eebe2935962d9ecba9c34cdd236a21c0d13c96857b960d9633041759d731174e",
    ("c2_p2", "hh"): "bdebb870e539632c13128dbd04f3bb189d541a3c599c9b763b982b0b029b89ce",
    ("c2xc2_p2", "hh"): "607cda4e393bc2a038ff24f3f6f45597738d6e56c0aa3c45fb4dd7e82ac74671",
    ("c3_p3", "hh"): "dfbce9d661f97e972c2afeb6e8e52ff0f9aafe7621207d45792aaf5401debdac",
    ("matrix_crossed_c2_p2", "hh"):
        "5bbb1563620e6c08ef58c80ed5b58f79f35eab6fd58c9e4d91ed5e69173b66e3",
    ("s3_p2", "hh"): "878af2e903351dc70a079b6a241aa8aa2fadbfe118934b9f29418e3db7b18853",
    ("s3_p3", "hh"): "c66376d1f31b9b1eb821a6ea755a9a6104bea534e9532e87815a0199c95a8426",
    ("s3_p7", "hh"): "47fda2fc39560d7ad34ed51c40055e5049404efe345ad72b2f11cb531b307719",
}


@pytest.mark.parametrize("spec,command", sorted(INFO_HH_DIGESTS))
def test_info_and_hh_report_digest(spec, command, capsys):
    extra = ("--degree", "2") if command == "hh" else ()
    code, out, _ = run(capsys, command, "--spec", str(SPECS / f"{spec}.json"),
                       *extra, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INFO_HH_DIGESTS[spec, command]


def test_explicit_cayley_table_spec(tmp_path, capsys):
    spec = tmp_path / "table.json"
    spec.write_text(json.dumps({
        "field": {"p": 2},
        "group": {"kind": "table", "order": 2, "table": [[0, 1], [1, 0]]},
        "algebra": {"kind": "group_algebra"},
    }))
    code, out, _ = run(capsys, "info", "--spec", str(spec))
    assert code == 0
    assert "dim 2" in out


def spec_with(group=None, algebra=None, p=2):
    return {"field": {"p": p}, "group": group or {"kind": "cyclic", "n": 2},
            "algebra": algebra or {"kind": "group_algebra"}}


CROSSED = {"kind": "crossed_product", "base": {"kind": "matrix", "n": 2}}
UNIT = [1, 0, 0, 1]                         # the unit of M_2(k)
EYE = np.eye(4, dtype=int).tolist()         # the identity automorphism of M_2(k)


@pytest.mark.parametrize("spec,extra", [
    (spec_with({"kind": "cyclic"}), ()),
    (spec_with({"kind": "product", "factors": 3}), ()),
    (spec_with({"kind": "product", "factors": [{"kind": "cyclic"}]}), ()),
    (spec_with({"kind": "table", "table": [[0, 1], [1]]}), ()),
    (spec_with(), ("--subgroups", "x")),
    (spec_with(), ("--subgroups", "99")),
    (spec_with({"kind": "cyclic", "n": 0}), ()),
    (spec_with({"kind": "dihedral", "n": 120}), ()),
    (spec_with({"kind": "table", "table": np.zeros((49, 49), int).tolist()}), ()),
    (spec_with(p=4), ()),
    (spec_with(algebra={**CROSSED, "base": 3}), ()),
    (spec_with(algebra={**CROSSED, "base": {"kind": "matrix"}}), ()),
    (spec_with(algebra={**CROSSED, "action": 3}), ()),
    (spec_with(algebra={**CROSSED, "action": [[[1]]]}), ()),
    (spec_with(algebra={**CROSSED, "cocycle": 3}), ()),
    (spec_with(algebra={**CROSSED, "base": {"kind": "matrix", "n": 1000}}), ()),
    (b"\xff\xfe", ()),
    (spec_with(p=2.5), ()),
    (spec_with(p=True), ()),
    (spec_with({"kind": "cyclic", "n": 2.5}), ()),
    (spec_with(algebra={**CROSSED, "base": {"kind": "matrix", "n": "2"}}), ()),
    # entries that an int64 conversion would truncate to a valid group or
    # algebra, or could not hold
    (spec_with({"kind": "table", "table": [[0.5, 1], [1, 0]]}), ()),
    (spec_with({"kind": "table", "table": [[0, True], [1, 0]]}), ()),
    (spec_with({"kind": "table", "table": [[0, 2**70], [1, 0]]}), ()),
    (spec_with(algebra={**CROSSED, "action": [EYE, [[1.7, 0, 0, 0]] + EYE[1:]]}), ()),
    (spec_with(algebra={**CROSSED, "cocycle": [[UNIT, UNIT], [UNIT, [2.5, 0, 0, 2]]]}, p=3), ()),
], ids=["missing-n", "factors-not-a-list", "factor-missing-n", "ragged-table",
        "subgroups-not-a-number", "subgroups-out-of-range", "n-below-1",
        "order-over-bound", "table-over-bound", "p-not-prime", "base-not-an-object",
        "base-missing-n", "action-not-a-list", "action-wrong-shape",
        "cocycle-not-a-list", "base-n-over-bound", "not-utf-8", "p-not-an-integer",
        "p-a-boolean", "n-not-an-integer", "base-n-a-string", "table-entry-a-float",
        "table-entry-a-boolean", "table-entry-over-int64", "action-entry-a-float",
        "cocycle-entry-a-float"])
def test_malformed_input_exit_2(tmp_path, cli_process, spec, extra):
    # a real process, so that an uncaught exception shows as its traceback
    path = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(json.dumps(spec))
    proc = cli_process("verify", "--spec", str(path), "--degree", "0", *extra)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_failed_axiom_text_names_its_maps(monkeypatch, capsys):
    honest = mackey.MackeySystem.map_along

    def broken(self, k, g, h, n):
        mat = honest(self, k, g, h, n)
        return (mat + 1) % 2 if (k.key, g, h.key) == ((0, 1), 0, (0, 1)) else mat

    monkeypatch.setattr(mackey.MackeySystem, "map_along", broken)
    code, out, _ = run(capsys, "verify", "--spec", str(SPECS / "c2_p2.json"),
                       "--degree", "0", "--axioms", "ii", "--subgroups", "1")
    assert code == 1
    assert "  lhs = ((0, 1), 0, (0, 1)) = [[0, 1], [1, 0]]" in out
    assert "  rhs = id = [[1, 0], [0, 1]]" in out


def test_no_f2_command_reaches_the_int64_elimination_loop(monkeypatch, capsys):
    # over F_2 every rref and every row space of a block (kernel or image)
    # runs packed; the int64 panel and batch loops are only their oracles
    reached = []
    panels = PrimeField._rref_panels
    batches = hh.Differential._rows_batches

    def guarded(field, mat, block_size=256):
        if field.p == 2:
            reached.append(np.shape(mat))
            raise AssertionError("F_2 rref reached the int64 loop")
        return panels(field, mat, block_size)

    def guarded_rows(self, *args):
        if self.field.p == 2:
            reached.append(("rows", args[3]))
            raise AssertionError("F_2 row space reached the int64 batch loop")
        return batches(self, *args)

    monkeypatch.setattr(PrimeField, "_rref_panels", guarded)
    monkeypatch.setattr(hh.Differential, "_rows_batches", guarded_rows)
    for argv in (["verify", "--spec", str(SPECS / "c2xc2_p2.json"), "--degree", "2"],
                 ["verify", "--spec", str(SPECS / "s3_p2.json"), "--degree", "3"],
                 ["lemma2", "--spec", str(SPECS / "s3_p2.json")]):
        code, _, err = run(capsys, *argv)
        assert code == 0 and not reached, (argv, err, reached)


def test_s3_f2_verifies_at_degree_4_within_256_mib(capsys):
    # the packed kernel holds a block's row space in a sixty-fourth of an
    # int64 batch; with int64 batches the kernel of delta(4) checked 560 MiB
    code, out, err = run(capsys, "verify", "--spec", str(SPECS / "s3_p2.json"),
                         "--degree", "4", "--memory-mb", "256", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["summary"] == {"total": 770, "passed": 770, "failed": 0}


def test_benchmark_tracer_targets_resolve(tmp_path):
    # bench/child.py wraps package functions and reads cache attributes by
    # name; a renamed target must fail here, not only in the benchmark
    root = SPECS.parent
    sidecar = tmp_path / "sidecar.json"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(sidecar), "1", "--",
         "verify", "--spec", str(SPECS / "c2xc2_p2.json"), "--degree", "1", "--format", "json"],
        capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
    trace = json.loads(sidecar.read_text())
    counters = trace["counters"]
    for name in ("mackey.transfer_for.miss", "mackey.map_along.miss",
                 "hh.cohomology.miss", "hh.delta.miss"):
        assert counters.get(name, 0) > 0, name
    spans = [trace["names"][span[0]] for span in trace["spans"]]
    assert 0 < spans.count("hh.transfer_data") <= counters["mackey.transfer_for.miss"]
    # lemma2 reaches the tensor products (their balancing relations) and the
    # multiplication isomorphisms
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(sidecar), "1", "--",
         "lemma2", "--spec", str(SPECS / "c2xc2_p2.json"), "--format", "json"],
        capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
    trace = json.loads(sidecar.read_text())
    assert trace["exit"] == 0
    spans = collections.Counter(trace["names"][span[0]] for span in trace["spans"])
    assert 0 < spans["bimod.tensor_over"] <= spans["bimod.mult_iso"], spans


def test_verify_and_hh_leave_numpy_ma_unimported():
    # numpy 2 imports numpy.ma lazily, on the first np.unique(x) without
    # options; no run of the package needs it
    import os

    import gradedhh

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(pathlib.Path(gradedhh.__file__).resolve().parent.parent),
        os.environ.get("PYTHONPATH")))))

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                             text=True, timeout=600, check=True).stdout.split()
        return out[-1] == "True", out

    if loaded("import sys, numpy; print('numpy.ma' in sys.modules)")[0]:
        pytest.skip("import numpy alone loads numpy.ma here (numpy 1.x)")
    for argv in (["verify", "--degree", "3"], ["hh", "--degree", "3"]):
        code = ("import contextlib, io, sys\n"
                "from gradedhh import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({argv + ['--spec', str(SPECS / 's3_p2.json')]!r})\n"
                "print(code, 'numpy.ma' in sys.modules)")
        is_loaded, out = loaded(code)
        assert out[-2] == "0" and not is_loaded, (argv, out)


def test_lemma2_leaves_hashlib_unimported():
    # the content caches key by zlib.crc32; loading hashlib's OpenSSL module
    # costs about 3.5 MB of resident memory per run
    import os

    import gradedhh

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(pathlib.Path(gradedhh.__file__).resolve().parent.parent),
        os.environ.get("PYTHONPATH")))))
    code = ("import contextlib, io, sys\n"
            "from gradedhh import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main(['lemma2', '--spec', {str(SPECS / 's3_p2.json')!r}])\n"
            "print(code, '_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                         text=True, timeout=600, check=True).stdout.split()
    assert out[-2:] == ["0", "False"], out
