"""Tests of the benchmark itself: smoke-size runs of every workload, the
span arithmetic, the wrapping of re-bound names and the covmat checker."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from moldiff import cli, encoders, moldata, objectives, scorenets, synthetic  # noqa: E402

from perfbench import checks, spans, workloads  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("train-gate", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_pass_wraps_every_binding_and_self_times_fit_their_parents(tmp_path):
    original = encoders.encode_2d
    workload = workloads.TrainGate(smoke=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert scorenets.encode_2d is objectives.encode_2d is encoders.encode_2d
        assert encoders.encode_2d is not original
        with tracer.span("bench.test"):
            state = workload.setup(5, str(tmp_path))
            workload.run_round(state, 0, span=tracer.span)
    finally:
        tracer.uninstall()
    assert scorenets.encode_2d is original and objectives.encode_2d is original
    assert not tracer.missing

    own = tracer.self_times()
    for idx, parent in enumerate(tracer.parents):
        dur = tracer.ends[idx] - tracer.starts[idx]
        assert 0 <= own[idx] <= dur
        if parent >= 0:
            assert parent < idx
            assert dur <= tracer.ends[parent] - tracer.starts[parent]
    totals = tracer.layer_totals()
    steps = -(-workload.corpus_size // workload.batch)
    assert tracer.op_kinds == ["step"] * steps
    assert totals["autodiff.backward"]["calls"] == steps
    assert totals["objectives.total_loss"]["calls"] == steps
    assert len(tracer.op_latencies_ms()["step"]) == steps
    # every geometry is encoded in the contrastive term and again inside the
    # topology score net; jittered coordinates make each one distinct
    calls = tracer.input_calls["encoders.encode_3d"]
    assert tracer.input_repeats["encoders.encode_3d"] * 2 == calls == 2 * workload.corpus_size


def test_covmat_checker_accepts_the_true_report_and_rejects_a_wrong_one(tmp_path):
    refs = synthetic.gen_synthetic(3, seed=4)
    rng = np.random.default_rng(0)
    gens = [
        moldata.MoleculePair(ref.topo, moldata.Molecule3D(
            ref.geom.atom_types, ref.geom.coords + 0.3 * rng.standard_normal((ref.n_atoms, 3))))
        for ref in refs for _ in range(2)
    ]
    moldata.write_corpus(tmp_path / "refs.txt", refs)
    moldata.write_corpus(tmp_path / "gens.txt", gens)
    # the generated coordinates round-trip through the text format
    gens = moldata.read_corpus(tmp_path / "gens.txt")
    assert cli.main(["eval-covmat", "--references", str(tmp_path / "refs.txt"),
                     "--generated", str(tmp_path / "gens.txt"), "--per-mol", "2",
                     "--delta", "0.5", "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert checks.covmat_problems(report, refs, gens, 2, 0.5) == []

    wrong = json.loads(json.dumps(report))
    wrong["per_molecule"][1]["matching"] += 1e-12
    assert checks.covmat_problems(wrong, refs, gens, 2, 0.5)
    wrong = dict(report, coverage=report["coverage"] + 0.25)
    assert checks.covmat_problems(wrong, refs, gens, 2, 0.5)


def test_large_molecules_are_valid_records_of_the_requested_size():
    rng = np.random.default_rng(1)
    for kind in ("chain", "ring", "branched"):
        pair = workloads.large_molecule(kind, 30, rng)
        assert pair.n_atoms == 30
        assert checks.coords_problem(pair.geom.coords, 30) is None
        d = np.linalg.norm(pair.geom.coords[:, None] - pair.geom.coords[None], axis=2)
        assert d[np.triu_indices(30, 1)].min() > 1.0  # no clashing atoms
