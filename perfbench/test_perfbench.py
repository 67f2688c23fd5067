"""Tests of the benchmark itself, at tiny sizes.  Run: python -m pytest -q perfbench"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny_workload(name):
    if name == "hilbert-slices":
        return workloads.HilbertWorkload(reports=((3, 2, range(10, 12)),), query_slice=(3, 2, 11),
                                         queries_per_pass=3)
    workload = workloads.make_workload(name)
    workload.chunk = 16
    workload.trace_units = workload.memory_units = 4
    return workload


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "make_workload", tiny_workload)


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)])
    result = last_json_line(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_same_seed_gives_same_inputs():
    pkg = run.load_package()
    for name in workloads.WORKLOAD_NAMES:
        workload = tiny_workload(name)
        first, second = (list(itertools.islice(workload.units(pkg, 7), 5)) for _ in range(2))
        assert first == second


def exports(package):
    """Only the names ``package`` exports at its top level."""
    return SimpleNamespace(__name__=package.__name__,
                           **{name: getattr(package, name) for name in package.__all__})


def first_pairs(name, count, public_only=False):
    """The package, the frozen copy, and the first ``count`` unit pairs of seed 5."""
    pkg, seed_pkg = run.load_package(), run.load_seed_copy()
    if public_only:
        pkg, seed_pkg = exports(pkg), exports(seed_pkg)
    workload = tiny_workload(name)
    pairs = zip(workload.units(pkg, 5), tiny_workload(name).units(seed_pkg, 5))
    return workload, pkg, seed_pkg, list(itertools.islice(pairs, count))


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_requests_and_checks_use_only_top_level_exports(name):
    workload, pkg, seed_pkg, pairs = first_pairs(name, 3, public_only=True)
    mine, theirs, *_ = run.measure(workload, pkg, seed_pkg, pairs, math.inf)
    assert len(mine.requests) >= 3 and mine.failed == theirs.failed == 0, mine.problems


def tamper(pkg, cert):
    """The certificate with the coefficient of its first cofactor term changed."""
    entry = cert.entries[0]
    term = entry.cofactor.terms[0]
    changed = pkg.Monomial(term.ground, term.coeff + 1 if term.coeff != -1 else 2, term.exps)
    cofactor = pkg.Polynomial(term.ground, (changed,) + entry.cofactor.terms[1:])
    entries = (pkg.CertificateEntry(entry.block, cofactor),) + cert.entries[1:]
    return pkg.Certificate(cert.ground, cert.g, cert.input, entries)


@pytest.mark.parametrize("name", ("cert-n4", "cert-n3-io"))
def test_tampered_certificate_is_counted_as_failed(monkeypatch, name):
    workload, pkg, seed_pkg, pairs = first_pairs(name, 3)
    honest = pkg.decompose
    monkeypatch.setattr(pkg, "decompose", lambda m, g: tamper(pkg, honest(m, g)))
    mine, theirs, *_ = run.measure(workload, pkg, seed_pkg, pairs, math.inf)
    assert len(mine.requests) == len(theirs.requests) == 3
    assert theirs.failed == 0
    # each certificate fails verification and differs from the frozen copy's
    assert mine.failed == 6


def test_wrong_expected_dimension_is_counted_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED_DIMS, (3, 2, 10), (11, 8, 3))
    workload, pkg, seed_pkg, pairs = first_pairs("hilbert-slices", 3)  # one pass
    mine, theirs, passes, *_ = run.measure(workload, pkg, seed_pkg, pairs, math.inf)
    assert passes == 1 and theirs.failed == 0
    assert mine.failed == 1
    assert "n=3 g=2 d=10" in mine.problems[0]


def test_exits_2_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cert-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_peak_memory_excludes_the_benchmark_process():
    held = b"\x01" * (64 << 20)  # the parent's own peak must not reach the package's figure
    assert run.package_peak_rss("cert-n3-io", 1, 2) < 48
    del held
