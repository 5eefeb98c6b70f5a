"""Checks of the traced run: run with `python3 -m pytest kirbybench/test_spans.py`.

Each workload makes one traced pass over its seed-7 case list, twice.  The
wrappers expected on a workload must fire there, the knot layer must stay
silent on the forms workloads, and the work counts must repeat exactly.
"""

import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

SEED = 7
FIRES = {
    "links_ks": {
        "diagram.parse_framed_link", "diagram.linking_matrix", "forms.characteristic_vector",
        "forms.classify", "forms.diagonalize_over_Q", "invariants.kirby_siebenmann",
        "invariants.intersection_form", "knot.characteristic_sublink", "knot.band_sum",
        "knot.alexander_at_minus_one", "knot.alexander_polynomial", "matrices.bareiss_det",
    },
    "forms_definite": {
        "forms.congruent_with_witness", "forms.congruent_definite", "forms.short_vectors",
        "forms.classify", "forms.diagonalize_over_Q", "matrices.bareiss_det",
    },
    "forms_indefinite": {
        "forms.classify", "forms.diagonalize_over_Q", "forms.congruent_with_witness",
        "forms.congruent_indefinite", "matrices.bareiss_det",
    },
    "homeo_corpus": {
        "cli.run", "classify.homeomorphic_oriented", "classify.homeomorphic_unoriented",
        "diagram.parse_framed_link", "diagram.mirror", "invariants.kirby_siebenmann",
        "knot.band_sum", "forms.congruent_definite", "forms.short_vectors",
        "matrices.bareiss_det",
    },
}
SILENT = {"forms_definite": ("knot.", "diagram."), "forms_indefinite": ("knot.", "diagram.")}
COUNTS = ("knot.kc_crossings", "forms.short_vectors", "forms.classify_calls",
          "matrices.det_calls", "forms.diagonalize_calls", "diagram.crossings")


@pytest.fixture
def work_dir():
    run.OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def traced_pass(workload, work_dir):
    work_dir.mkdir()
    k, wl = run.setup(workload, SEED, work_dir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.measure(k, wl, 0, run.random.Random(SEED), 0, tracer)
    finally:
        tracer.uninstall()
    assert result["passes"] == 1
    return k, tracer, tracer.metrics(len(result["times"]), 1)


def test_every_import_site_is_patched():
    k = run.Kirby4()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert getattr(k.classify.classify_form, "__wrapped__", None) is not None
        assert k.classify.classify_form is k.forms.classify is k.invariants.classify
        for layer in spans.LAYERS:
            mod = getattr(k, layer)
            for name, value in vars(mod).items():
                if callable(value) and getattr(value, "__module__", "").startswith("kirby4.") \
                        and not name.startswith("_") and not isinstance(value, type):
                    assert hasattr(value, "__wrapped__"), f"{layer}.{name} not traced"
    finally:
        tracer.uninstall()
    assert not hasattr(k.forms.classify, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_wrappers_fire_and_counts_repeat(workload, work_dir):
    _, first, m1 = traced_pass(workload, work_dir / "a")
    fired = first.fired()
    assert FIRES[workload] <= fired, sorted(FIRES[workload] - fired)
    for prefix in SILENT.get(workload, ()):
        assert not {n for n in fired if n.startswith(prefix)}
    _, _, m2 = traced_pass(workload, work_dir / "b")
    assert {c: m1[c] for c in COUNTS} == {c: m2[c] for c in COUNTS}


def test_metric_names_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = [*spans.Tracer().metrics(1, 1), "bench.budget_trips", "bench.trace_overhead"]
    assert {(m["name"], m["unit"]) for m in doc["per_layer"]} == {(m, run._unit(m)) for m in layer}
    e2e = run.end_to_end({"times": [0.1] * 20, "failed": 0, "wall": 2.0}, [0.1])
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == {
        (m, unit) for m, (_, unit) in e2e.items()}
