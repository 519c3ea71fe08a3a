"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import filecmp
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from oracle import load_oracles, oracle_descriptor, relative_error  # noqa: E402
from spans import Span, Tracer  # noqa: E402


# -- percentile rule -------------------------------------------------------------


@pytest.mark.parametrize("n, level", [(19, None), (20, 50.0), (99, 50.0), (100, 90.0),
                                      (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_high_percentile_keeps_ten_samples_beyond(n, level):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    got = stats.high_percentile(samples)
    if level is None:
        assert got is None
        return
    assert got[0] == level
    assert sum(1 for s in samples if s > got[1]) >= stats.MIN_BEYOND


def test_high_percentile_value_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert stats.high_percentile(samples) == (90.0, 90.0)
    assert stats.nearest_rank(samples, 500) == 50.0
    assert stats.nearest_rank([7.0], 900) == 7.0


# -- self time -------------------------------------------------------------------


def _span(i, start, end, parent=None, name="x", work=0.0):
    return Span(i, name, start, end, parent, None, work)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),    # overlaps span 3, as worker threads do
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 9.0, 12.0, parent=1),   # runs past its parent: only 9..10 counts
        _span(6, 20.0, 21.0),            # unrelated root
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 1.0})


def test_layer_metrics_from_hand_built_spans():
    tree = [
        _span(1, 0.0, 1.0, name="model.forward"),
        _span(2, 0.1, 0.4, parent=1, name="fusion.faae"),
        _span(3, 1.0, 1.5, name="tensor.backward"),
        _span(4, 1.5, 1.7, name="train.adam"),
        _span(5, 2.0, 2.2, name="sida.sida_descriptor", work=256.0 * 256),
        _span(6, 2.2, 3.0, name="sida.sida_descriptor", work=1024.0 * 1024),
    ]
    m = spans.layer_metrics(tree)
    assert set(m) == {name for name, _ in spans.PER_LAYER} - {"trace.overhead_share"}
    assert m["model.forward.ms_p50"] == pytest.approx(700.0)
    assert m["fusion.faae.ms_p50"] == pytest.approx(300.0)
    assert m["train.step.ms_p50"] == pytest.approx(1700.0)
    assert m["train.step.calls"] == 1.0
    assert m["sida.sida_descriptor.calls"] == 2.0
    assert m["sida.sida_descriptor.ms_p50.256px"] == pytest.approx(200.0)
    assert m["sida.sida_descriptor.ms_p50.512px"] == 0.0
    assert m["sida.sida_descriptor.ms_per_mpix"] == pytest.approx(
        1000.0 / ((256.0 * 256 + 1024.0 * 1024) / 1e6))
    assert m["io.read_ppm.calls"] == 0.0


def test_tracer_keeps_every_span_under_thread_contention():
    tracer = Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def record():
            for _ in range(500):
                with spans.phase(tracer, "outer"):
                    with spans.phase(tracer, "inner"):
                        pass
        threads = [threading.Thread(target=record) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 4000
    assert len({s.id for s in tracer.spans}) == 4000
    outer = {s.id for s in tracer.spans if s.name == "outer"}
    assert all(s.parent in outer for s in tracer.spans if s.name == "inner")


# -- hooks -----------------------------------------------------------------------


def _sfcl_attributes():
    """(owner, name) -> object for every module and class attribute of sfcl."""
    import sfcl
    for info in pkgutil.iter_modules(sfcl.__path__, "sfcl."):
        importlib.import_module(info.name)
    snapshot = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "sfcl" and not mod_name.startswith("sfcl."):
            continue
        for name, obj in vars(module).items():
            snapshot[(mod_name, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod_name:
                for attr, value in vars(obj).items():
                    snapshot[(f"{mod_name}.{name}", attr)] = value
    return snapshot


def test_uninstall_leaves_every_sfcl_attribute_identical():
    before = _sfcl_attributes()
    restore = spans.install(Tracer())
    try:
        during = _sfcl_attributes()
        wrapped = {key for key in before if during.get(key) is not before[key]}
        assert ("sfcl.cli", "read_ppm") in wrapped
        assert ("sfcl.train.Adam", "step") in wrapped
        assert len(wrapped) == len(spans.HOOKS) + 1
    finally:
        spans.uninstall(restore)
    after = _sfcl_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_forward_records_each_layer_once():
    from sfcl.frequency import PlanarImage
    from sfcl.model import Detector, desk_detector_config
    import sfcl.model as model_mod

    rng = np.random.default_rng(0)
    images = [PlanarImage(rng.uniform(0, 255, (3, 32, 32)), "rgb") for _ in range(2)]
    model = Detector(desk_detector_config())
    tracer = Tracer()
    restore = spans.install(tracer)
    try:
        frontend = model_mod.extract_frontend(images, dtype=np.float32)
        model.forward(frontend, mode="infer")
    finally:
        spans.uninstall(restore)
    m = spans.layer_metrics(tracer.spans)
    assert m["model.extract_frontend.calls"] == 1.0
    assert m["sida.sida_descriptor.calls"] == 2.0
    assert m["frequency.restructure.calls"] == 2.0
    for layer in ("model.forward", "spatial.stem_forward", "spatial.deep_forward",
                  "local_branch.sbcm", "local_branch.cnnf", "fusion.faae", "fusion.hcma",
                  "fusion.classifier"):
        assert m[f"{layer}.calls"] == 1.0, layer
    assert m["tensor.backward.calls"] == 0.0
    assert m["train.adam.calls"] == 0.0


# -- inputs and references -----------------------------------------------------------


def _files(directory):
    return sorted(os.path.relpath(os.path.join(d, f), directory)
                  for d, _, names in os.walk(directory) for f in names)


@pytest.mark.parametrize("workload, seeded", [("train-desk", False), ("eval-screen", True),
                                               ("sida-large", True)])
def test_generated_inputs_depend_only_on_the_seed(workload, seeded, tmp_path):
    runs = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = tmp_path / name
        gen.GENERATORS[workload](str(out), seed)
        runs[name] = str(out)
    names = _files(runs["a"])
    assert names and names == _files(runs["b"]) == _files(runs["c"])
    _, mismatch, errors = filecmp.cmpfiles(runs["a"], runs["b"], names, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(runs["a"], runs["c"], names, shallow=False)
    assert any(name.endswith(".ppm") for name in mismatch) == seeded


def test_oracle_composition_matches_loop_oracle():
    oracles = load_oracles(ROOT)
    rng = np.random.default_rng(7)
    for shape in ((3, 40, 56), (3, 37, 45)):
        px = np.round(rng.uniform(0, 255, shape))
        assert relative_error(oracle_descriptor(px, oracles),
                              oracles.sida_pipeline_loops(px)) < 1e-12


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(gen.GENERATORS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)


@pytest.mark.parametrize("workload", list(gen.GENERATORS))
def test_every_workload_reports_every_end_to_end_metric(workload):
    # --seconds 0 still runs one unit of work
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
