"""Self-tests of the benchmark: tracing must observe, never change, results.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, load_program  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def program():
    load_program(run.ROOT, "elicit.cli")


def _items(workload, count=2, seed=7):
    rng = run._inputs(workload, seed)
    return [workload.make_input(rng) for _ in range(count)]


def _bindings():
    """Every attribute of the loaded elicit modules and their classes."""
    seen = {}
    for key, mod in sys.modules.items():
        if key == "elicit" or key.startswith("elicit."):
            for attr, value in list(vars(mod).items()):
                seen[(key, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        seen[(key, attr, cattr)] = cvalue
    seen["Fraction"] = dict(vars(Fraction))
    return seen


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name):
    workload = WORKLOADS[name]
    items = _items(workload)
    plain = [workload.render(workload.request(item)) for item in items]
    _, traced, errors = run._traced_pass(workload, items)
    assert traced == plain
    assert not [e for e in errors if e]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_at_one_seed(name):
    workload = WORKLOADS[name]
    items = _items(workload)
    first, _, _ = run._traced_pass(workload, items)
    second, _, _ = run._traced_pass(workload, items)
    counts = run._counts(run._layer_metrics(workload, first, len(items)))
    assert counts == run._counts(run._layer_metrics(workload, second, len(items)))
    assert counts["fractions.new.calls"] > 0


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        assert _bindings() != before
    assert _bindings() == before


def test_functions_are_wrapped_at_every_binding():
    suites = sys.modules["elicit.suites"]
    arbitrage = sys.modules["elicit.arbitrage"]
    original = suites.coalition_totals
    with spans.Tracer().installed():
        assert suites.coalition_totals is arbitrage.coalition_totals
        assert suites.coalition_totals is not original


def test_missing_target_refuses_to_install(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(
        spans,
        "LAYER_TARGETS",
        spans.LAYER_TARGETS + (("contracts.gone", "elicit.contracts", "no_such_function"),),
    )
    with pytest.raises(spans.BindingError):
        spans.Tracer().install()
    assert _bindings() == before


def test_coverage_guard_flags_a_span_with_no_calls(monkeypatch, capsys):
    workload = WORKLOADS["algebra"]
    monkeypatch.setattr(workload, "trace_requests", 2)
    assert run.traced_run(workload, seed=3)["correct"]
    monkeypatch.setattr(
        workload, "expected_spans", workload.expected_spans + ("cli",)
    )
    assert not run.traced_run(workload, seed=3)["correct"]
    assert "coverage: span cli recorded no calls" in capsys.readouterr().err


def test_search_input_admits_no_certificate():
    workload = WORKLOADS["search"]
    for item in _items(workload, count=3, seed=11):
        rows = [row.split(",") for row in item.split("; ")]
        assert rows[0] == rows[1]
        assert all(Fraction(w) > 0 for w in rows[0])
        assert workload.verify(workload.request(item)) is None


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
