"""Tests of the benchmark itself: corpora, tracing arithmetic, patching,
and agreement of BENCHMARK.json with what the runner prints.

    python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import corpora  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from torsioncosets import cli, oracle, poly, solver  # noqa: E402
from torsioncosets.arith import CyclotomicNumber  # noqa: E402


def _load_test_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_reference_{name}", ROOT / "tests" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _recorded_systems(test_function):
    """Run a test with the solver and oracle replaced by recorders: the
    systems it would solve, in order."""
    seen = []
    passing = types.SimpleNamespace(missed_by_solver=[], spurious_cosets=[],
                                    passed=True)

    def record_hypersurface(f, *args, **kwargs):
        seen.append([f])

    def record_variety(system, *args, **kwargs):
        seen.append(list(system))

    records = []
    try:
        for owner, original, fake in (
                (solver, solver.hypersurface_cosets, record_hypersurface),
                (solver, solver.variety_cosets, record_variety),
                (oracle, oracle.cross_check, lambda *a, **k: passing)):
            records += tracing.patch_everywhere(owner, original, fake)
        test_function()
    finally:
        tracing.unpatch(records)
    return seen


def test_default_seeds_reproduce_test_generators():
    acceptance = _load_test_module("test_acceptance")
    g2 = _recorded_systems(acceptance.test_criterion_6_randomized_completeness)
    assert len(g2) == 200
    assert corpora.g2_draws(200) == g2
    assert corpora.g2_draws() == g2[:corpora.G2_DRAWS]

    solver_tests = _load_test_module("test_solver")
    sparse = _recorded_systems(
        solver_tests.test_sparse_three_variable_completeness)
    assert len(sparse) == 8
    assert corpora.sparse3_draws(8) == sparse
    assert corpora.sparse3_draws()[:8] == sparse


def test_corpus_is_seeded_and_keeps_structure():
    for workload, make in corpora.BASE_CORPORA.items():
        base = make()
        first = corpora.corpus(workload, 1)
        assert corpora.corpus(workload, 1) == first
        assert corpora.corpus(workload, 2) != first
        assert len(first) == len(base)
        for b, v in zip(base, first):
            assert [len(f.terms) for f in b] == [len(f.terms) for f in v]
            assert corpora.system_level(b) == corpora.system_level(v)


def test_variant_keeps_the_answers_of_a_rational_system():
    base = corpora.lacunary_draws((4,))[0]
    keys = {c.canonical_key() for c in solver.hypersurface_cosets(base[0]).cosets}
    for seed in (1, 2, 3):
        varied = corpora.corpus("lacunary", seed)[0]
        report = solver.hypersurface_cosets(varied[0])
        assert {c.canonical_key() for c in report.cosets} == keys


def test_input_text_round_trips_through_the_parser():
    for workload in ("verify-n3", "lacunary"):
        for system in corpora.corpus(workload, 7):
            doc = cli.parse_system(corpora.to_input_text(system))
            assert doc.polynomials == system


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("solve", 0.0, 10.0, None),     # 0
        _span("gcd", 1.0, 4.0, 0),           # 1
        _span("gcd", 2.0, 3.0, 1),           # 2, recursive call
        _span("resultant", 5.0, 9.0, 0),     # 3
        _span("roots", 6.0, 8.0, 3),         # 4
        _span("solve", 11.0, 12.0, None),    # 5, second operation
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    assert tracing.aggregate(spans) == {
        "solve": (2, 11.0, 4.0),
        "gcd": (2, 3.0, 3.0),
        "resultant": (1, 4.0, 2.0),
        "roots": (1, 2.0, 2.0),
    }


def test_host_speed_factor_averages_the_samples_around_an_interval():
    sampler = hostspeed.SpeedSampler()
    ref = hostspeed.REFERENCE_KERNEL_S
    sampler.samples = [(0.0, ref), (1.0, ref / 2), (1.2, ref * 2), (5.0, ref)]
    # samples within WINDOW_S of [1.0, 1.1]: the host ran at 2x and 0.5x
    assert sampler.factor(1.0, 1.1) == (2 + 0.5) / 2
    # none within the window: the nearest sample
    assert sampler.factor(4.0, 4.1) == 1.0
    assert sampler.factor(2.0, 2.1) == 0.5


def _bindings(original):
    return sorted((id(m), attr) for m in list(sys.modules.values())
                  if isinstance(m, types.ModuleType)
                  for attr, value in vars(m).items() if value is original)


def test_tracer_patches_every_binding_and_restores_it():
    resultant = poly.resultant
    mul = CyclotomicNumber.__dict__["__mul__"]
    where = _bindings(resultant)
    assert len(where) >= 2  # poly.resultant and the solver's import
    f = corpora.g2_draws(1)[0][0]
    with tracing.Tracer() as tracer:
        assert poly.resultant is not resultant
        assert solver.resultant is poly.resultant
        assert CyclotomicNumber.__dict__["__rmul__"] is \
            CyclotomicNumber.__dict__["__mul__"]
        report = solver.hypersurface_cosets(f)
    assert poly.resultant is resultant and solver.resultant is resultant
    assert _bindings(resultant) == where
    assert CyclotomicNumber.__dict__["__mul__"] is mul
    assert CyclotomicNumber.__dict__["__rmul__"] is mul
    layers = tracer.layer_metrics()
    assert layers["solver.hypersurface_cosets.calls"] == 1
    assert layers["poly.resultant.calls"] == report.stats.resultants > 0
    assert layers["arith.CyclotomicNumber.__mul__.calls"] > 0
    assert layers["solver.stats.resultants"] == report.stats.resultants


def test_benchmark_json_matches_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(corpora.BASE_CORPORA)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    layers = set(tracing.Tracer().layer_metrics()) | {
        "trace.corpus_s", "trace.overhead_s", "trace.root_self_s"}
    assert {m["name"] for m in bench["per_layer"]} == layers
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in bench["per_layer"])
