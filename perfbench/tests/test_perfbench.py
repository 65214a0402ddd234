"""Tests of the benchmark's own code.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from advrelight import shading  # noqa: E402
from advrelight.embedder import BuiltinEmbedder  # noqa: E402
from advrelight.relight import FaceImage  # noqa: E402

#: Bindings made with ``from .x import y`` that the tracer must reach:
#: function -> modules that import it.
IMPORTED_BINDINGS = {
    "shading.shade": ("relight", "attack_aq", "corpus", "phy_sim"),
    "shading.sh_basis": ("relight", "attack_aq", "phy_sim"),
    "shading.lighting_map": ("harness", "phy_sim"),
    "attack_aq.relight_jacobian": ("attack_ap",),
    "relight.estimate_light": ("harness", "attack_aq", "attack_ap", "phy_sim", "cli"),
    "relight.quotient_relight": ("attack_aq", "attack_ap", "cli"),
    "corpus.synthetic_corpus": ("cli",),
}


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = spans.tail(list(range(1, 101)))
    assert (value, percentile, n) == (90, 90.0, 100)
    value, percentile, n = spans.tail([5.0] * 3 + list(range(20)))
    assert n == 23 and percentile == pytest.approx(100 * 13 / 23)
    assert value == 9  # exactly ten samples (10..19) lie beyond it
    with pytest.raises(ValueError):
        spans.tail(list(range(10)))


def _span(name, start, end, parent, overhead=0.0):
    return spans.Span(name, start, end, start - overhead, end + overhead, parent, None, False)


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("child", 1.0, 3.0, 0, overhead=0.5),  # covers [0.5, 3.5] of the root
        _span("grandchild", 1.5, 2.0, 1),
        _span("child", 5.0, 6.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 0.5, 0.5, 1.0])


def test_covered_merges_overlapping_intervals_and_clips():
    assert spans.covered([(1, 3), (2, 4), (8, 12)], 0, 10) == pytest.approx(5.0)


def test_tracer_nested_calls_and_repeat_counting():
    sphere = shading.sphere_normals(16)
    normals = sphere.normals[sphere.mask]
    image = FaceImage.from_luminance(np.full((16, 16), 0.5))
    other = FaceImage.from_luminance(np.full((16, 16), 0.25))
    embedder = BuiltinEmbedder()
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_pass()
        shading.sh_basis(normals)
        shading.sh_basis(normals.copy())  # same content, new array
        shading.sh_basis(normals[:10])
        shading.shade(sphere, np.ones(9))  # calls sh_basis on the same normals
        embedder.embed(image)
        embedder.embed(other)
        embedder.embed(image)
        embedder.embed(image)
    assert shading.sh_basis.__name__ == "sh_basis" and not hasattr(shading.sh_basis, "__wrapped__")
    metrics = spans.layer_metrics(tracer.passes[0])
    assert metrics["shading.sh_basis.calls"] == 4
    assert metrics["shading.sh_basis.repeat_frac"] == pytest.approx(2 / 4)
    assert metrics["shading.sh_basis.rows"] == 3 * len(normals) + 10
    assert metrics["shading.shade.calls"] == 1
    assert metrics["embedder.embed.calls"] == 4
    assert metrics["embedder.embed.repeat_frac"] == pytest.approx(2 / 4)
    shade_index = next(i for i, s in enumerate(tracer.passes[0]) if s.name == "shading.shade")
    nested = [s for s in tracer.passes[0] if s.parent == shade_index]
    assert [s.name for s in nested] == ["shading.sh_basis"]


def test_repeat_counters_reset_every_pass():
    normals = np.array([[0.0, 0.0, 1.0]])
    tracer = spans.Tracer()
    with tracer:
        for _ in range(2):
            tracer.begin_pass()
            shading.sh_basis(normals)
    assert [spans.repeat_frac(p, "shading.sh_basis") for p in tracer.passes] == [(0.0, 1)] * 2


def test_tracer_wraps_every_imported_binding():
    tracer = spans.Tracer()
    with tracer:
        for qualified, importers in IMPORTED_BINDINGS.items():
            fn_name = qualified.split(".")[1]
            for importer in importers:
                bound = getattr(sys.modules[f"advrelight.{importer}"], fn_name, None)
                assert bound is None or hasattr(bound, "__wrapped__"), f"{importer}.{fn_name}"
    for module in spans.package_modules():
        assert not any(hasattr(v, "__wrapped__") for v in vars(module).values()
                       if callable(v) and getattr(v, "__module__", "") == "spans")


class _TwoScenarios(workloads.PhyLightmap):
    """One scenario that converges and one limited to a single adjustment."""

    def scenarios(self):
        easy, hard = workloads.phy_scenarios(self.seed, 2)
        hard["max_iterations"] = 1
        return [easy, hard]


def test_non_converging_scenario_counts_as_a_failed_unit(tmp_path):
    workload = _TwoScenarios(tmp_path, seed=0)
    workload.prepare()
    result = run.run_pass(workload)
    assert (result.units, result.failed) == (2, 1)
    assert any("phy-sim exited 2" in p for p in result.problems)
    assert run.output_checks(workload, [result], {})


def test_different_seeds_give_different_inputs(tmp_path):
    for cls in workloads.WORKLOADS.values():
        workload = cls(tmp_path, seed=0)
        assert workload.fingerprint(0) != workload.fingerprint(1), cls.name
        assert workload.fingerprint(0) == workload.fingerprint(0), cls.name


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    sphere = shading.sphere_normals(8)
    tracer = spans.Tracer()
    with tracer:
        tracer.begin_pass()
        shading.shade(sphere, np.ones(9))
    layer = set(spans.layer_metrics(tracer.passes[0])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"])
