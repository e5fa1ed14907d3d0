"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q

They run every workload traced three times in fresh interpreters (two
seeds, one of them twice), which takes a few minutes.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import meter  # noqa: E402
import tracer  # noqa: E402
import run as bench  # noqa: E402

# call counters that must be nonzero on the workload meant to exercise them
EXERCISED = {
    "graph-pages": [
        "catalog.load.calls", "graphs.enumerate.calls",
        "graphs.add_edge.calls", "bgcomplex.basis.calls",
        "bgcomplex.dprime_key.calls", "bgcomplex.dsecond_key.calls",
        "spectral.z_basis.calls", "spectral.e_block.calls",
        "spectral.d_matrix.calls", "exactlinalg.kernel_basis.calls",
        "exactlinalg.span_insert.calls", "exactlinalg.solve.calls"],
    "tensor-e2": [
        "ctcomplex.ambient.calls", "ctcomplex.relation_vectors.calls",
        "ctcomplex.quotient.calls", "ctcomplex.d1_key.calls",
        "exactlinalg.quotient_basis.calls", "exactlinalg.rank.calls"],
    "massey-d2": [
        "algebra.cohomology.calls", "algebra.multiply.calls",
        "algebra.d_basis.calls", "massey.triple_massey.calls",
        "massey.d2_zigzag.calls", "massey.thm3_detector.calls",
        "spectral.project_class.calls", "exactlinalg.solve.calls"],
    "duality": [
        "duality.pair_keys.calls", "duality.matrix.calls",
        "ctcomplex.r_quotient.calls", "exactlinalg.rank.calls"],
}

# jobs per pass that fail at this revision: the n=4 duality checks
FAILING = {"graph-pages": 0, "tensor-e2": 0, "massey-d2": 0, "duality": 3}


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def _traced(workload, seed):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        out[tag] = body
    return out


@pytest.fixture(scope="module", params=sorted(EXERCISED))
def traced_runs(request):
    w = request.param
    return w, [_traced(w, 1), _traced(w, 1), _traced(w, 2)]


def test_counts_repeat_across_runs_and_seeds(traced_runs):
    _, runs = traced_runs
    for tag in ("counts", "jobs"):
        assert runs[0][tag] == runs[1][tag]
        assert runs[0][tag] == runs[2][tag]


def test_entry_points_exercised(traced_runs):
    w, runs = traced_runs
    counts = json.loads(runs[0]["counts"])
    missing = [c for c in EXERCISED[w] if not counts.get(c)]
    assert not missing


def test_outputs_checked(traced_runs):
    w, runs = traced_runs
    for r in runs:
        res = r["result"]
        assert res["correct"]
        # one untraced and one traced pass
        assert res["failed"] == 2 * FAILING[w]
        names = set(res["metrics"])
        assert names == set(tracer.LAYER_METRICS) | {"trace.overhead_ratio"}


def test_t2_instrument_matches_roadmap_measurement(traced_runs):
    w, runs = traced_runs
    if w != "graph-pages":
        pytest.skip("the t2 job is in graph-pages")
    job = json.loads(runs[0]["jobs"])["pages t2 n=4"]
    assert job["bgcomplex.keys"] == 840
    assert job["bgcomplex.dprime_key.calls"] == 22652


def test_every_binding_is_wrapped():
    import confspace.cli  # noqa: F401 - binds library names at import
    originals = {attr: getattr(owner, attr)
                 for owner, attr, *_ in tracer._FUNCTIONS}
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "confspace"]
    with tracer.Tracer().installed():
        stale = [(m.__name__, attr) for m in modules
                 for attr, orig in originals.items()
                 if getattr(m, attr, None) is orig]
    assert not stale
    assert all(getattr(owner, attr) is originals[attr]
               for owner, attr, *_ in tracer._FUNCTIONS)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert ([m["name"] for m in spec["per_layer"]]
            == tracer.LAYER_METRICS + ["trace.overhead_ratio"])
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "job_s.max", "peak_rss_mb", "pass_ratio"}


def test_meter_probes_and_scales():
    previous = signal.getsignal(signal.SIGALRM)
    m = meter.Meter(0.05)
    m.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    raw, scaled = m.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    # probe time is not counted; the last segment ends at stop()
    assert 0.15 < raw <= 0.3 + 0.01
    assert len(m.probes) >= 3
    assert scaled > 0
    untimed = meter.Meter(None)
    untimed.start()
    raw, scaled = untimed.stop()
    assert raw == scaled and not untimed.probes


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "massey-d2", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
