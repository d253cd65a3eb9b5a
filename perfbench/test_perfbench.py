"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import TRACED, Tracer, declared_metrics, layer_stats, span_name  # noqa: E402
from worker import import_treelab  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_on_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["d", 7.0, 9.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    stats = layer_stats(spans)
    assert stats["a"] == (2, 11.0, (10.0 - 3.0 - 1.0 - 2.0) + 1.0)
    assert stats["b"] == (2, 4.0, (3.0 - 1.0) + 1.0)
    assert stats["c"] == (1, 1.0, 1.0)
    assert stats["d"] == (1, 2.0, 2.0)
    # self times partition the root spans' wall time
    assert sum(s for _, _, s in stats.values()) == pytest.approx(11.0)


def test_traced_run_restores_every_attribute():
    tl = import_treelab()
    modules = [m for k, m in sys.modules.items() if k == "treelab" or k.startswith("treelab.")]
    owners = modules + [
        getattr(sys.modules[f"treelab.{mod}"], attr.split(".")[0]) for mod, attr in TRACED if "." in attr
    ]
    before = [(o, dict(vars(o))) for o in owners]
    original = tl.exactalg.howell_array

    tracer = Tracer()
    tracer.install()
    try:
        assert tl.halftree.howell_array is not original
        assert tl.exactalg.howell_array is tl.halftree.howell_array
        tl.cli.run_suite(tl.cli.RunConfig(command="corrpro", p=2, depth=2, module="all"))
        tl.cli.run_suite(tl.cli.RunConfig(command="lemma22", p=2, e=2, seed=1, n_random=1))
    finally:
        tracer.restore()

    assert tracer.unrestored() == []
    for owner, attrs in before:
        for key, val in attrs.items():
            assert vars(owner)[key] is val, f"{owner}.{key} not restored"
    names = [s[0] for s in tracer.spans]
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    # exactalg's own calls nest: kernel_array -> howell_array
    assert any(
        s[0] == "exactalg.howell_array" and s[3] >= 0 and by_index[s[3]][0] == "exactalg.kernel_array"
        for s in tracer.spans
    )
    assert names.count("cli.run_suite") == 2
    metrics = tracer.metrics()
    assert metrics["halftree.check_corrpro.calls"] == len(tl.catalog.builtin_catalog(2, 1))
    assert metrics["exactalg.howell_array.ring_calls"] > 0
    assert set(metrics) == {k for k in declared_metrics() if not k.startswith("trace.")}


def _fake_runner(passes: list[dict]) -> run.Runner:
    runner = run.Runner("tree_p5d3", 7)
    runner.passes = passes
    return runner


def test_emitted_metrics_are_declared():
    e2e, _ = run.end_to_end(
        _fake_runner(
            [{"mode": "run", "setup_s": 0.1 * i, "wall_s": 1.0, "rss_mb": 2.0, "op_s": [0.5]} for i in range(1, 6)]
        )
    )
    layers = {k: 1.0 for k in declared_metrics()}
    traced = {"layers": layers, "wall_s": 2.0, "in_process_setup_s": 0.1, "max_cells": 4, "rss_mb": 2.0}
    per, extra = run.per_layer(
        _fake_runner([{"mode": "run", "wall_s": 1.5, "rss_mb": 2.0}, {"mode": "trace", **traced}])
    )
    assert per["trace.overhead_s"] == 0.5
    assert extra["largest_matrix_dense_bytes_computed"] == 32

    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(e2e) == set(declared_e2e) == set(run.END_TO_END)
    assert set(per) == set(declared_layer)
    assert all(run.END_TO_END[k] == u for k, u in declared_e2e.items())
    assert all(declared_metrics()[k][0] == u for k, u in declared_layer.items())
    for name in list(declared_e2e) + list(declared_layer):
        assert NAME.fullmatch(name), name
    assert "setup_s" in declared_e2e
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_warmup_pass_is_not_timed():
    runs = [{"mode": "run", "setup_s": 1.0, "wall_s": w, "rss_mb": 2.0, "op_s": []} for w in (1.0, 2.0, 6.0, 1.0, 1.0)]
    e2e, extra = run.end_to_end(_fake_runner([{"mode": "warmup", "setup_s": 100.0}] + runs))
    assert e2e["setup_s"] == 1.0
    assert e2e["wall_s"] == pytest.approx(2.2)
    assert extra["wall_s_median"] == 1.0


def test_span_names_follow_layers():
    assert span_name("exactalg", "RowSolver.__init__") == "exactalg.RowSolver.init"
    layers = {mod for mod, _ in TRACED}
    assert layers == {"exactalg", "halftree", "hecke", "grouprep", "lemmas", "catalog", "cli"}


def test_percentile_is_nearest_rank():
    xs = [float(i) for i in range(1, 151)]
    assert run.percentile(xs, 0.5) == 75.0
    assert run.percentile(xs, 0.9) == 135.0
    assert run.percentile([3.0, 1.0], 0.5) == 1.0
    assert run.percentile([2.0], 0.9) == 2.0
