"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import svbraid as sv  # noqa: E402
from svbraid import words as sv_words  # noqa: E402

import ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(workload: Workload, count: int) -> Workload:
    workload.items = workload.items[:count]
    return workload


@pytest.mark.parametrize("make", [workloads.normalise_pairs,
                                  workloads.search_pairs,
                                  workloads.algebra_words])
def test_generation_is_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generated_inputs_have_their_stated_properties():
    for n, u, v, built in workloads.normalise_pairs(1):
        assert built and n == 3
        assert ref.gauss(n, u) == ref.gauss(n, v)
        assert ref.free_reduce(u) != ref.free_reduce(v)
    for n, u, v, built in workloads.search_pairs(1):
        assert n <= 6 and workloads._search_ready(n, u, v)
        assert workloads._screen_key(n, u) == workloads._screen_key(n, v)
    for n, w, _ in workloads.algebra_words(1):
        assert n <= 6 and ref.singularities(w) <= 7


def test_reference_catalog_matches_the_library():
    for n in (2, 3, 4, 5):
        lib = {}
        for inst in sv.relation_catalog(n):
            lhs, rhs = workloads._letters(inst.lhs), workloads._letters(inst.rhs)
            lib[lhs, rhs] = lib[rhs, lhs] = inst.family
        assert lib == ref.catalog(n)


def test_emitted_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "probe_setup", lambda strands: 0.1)
    workload = _small(workloads.algebra(1), 3)
    _, metrics, _ = run.end_to_end(workload, 0.0)
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    _, metrics, _ = run.per_layer(workload, 1)
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert [(m["name"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(name, better) for name, _, better in tracing.layer_names()]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_per_layer_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    counts = []
    for _ in range(2):
        _, metrics, _ = run.per_layer(_small(workloads.equiv_search(3), 6), 3)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit in ("count", "ratio") and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]
    assert counts[0]["search.bidirectional_search.global.calls"] > 0


def _equivalent_pair():
    n, u, v, _ = workloads.normalise_pairs(1)[0]
    verdict = sv.equivalent(sv.parse_word(ref.text(u), n), sv.parse_word(ref.text(v), n))
    assert type(verdict).__name__ == "Equivalent"
    return n, u, v, verdict


def test_checker_accepts_a_real_certificate():
    n, u, v, verdict = _equivalent_pair()
    outcome = workloads.check_verdict(n, u, v, True, verdict)
    assert outcome.settled and outcome.moves == len(verdict.trace)


@pytest.mark.parametrize("tamper", ["position", "label", "letters", "drop"])
def test_checker_rejects_a_tampered_trace(tamper):
    n, u, v, verdict = _equivalent_pair()
    trace = list(verdict.trace)
    k = next(k for k, s in enumerate(trace) if s.before and s.after)
    step = trace[k]
    if tamper == "position":
        trace[k] = step._replace(position=step.position + 1)
    elif tamper == "label":
        trace[k] = step._replace(label="R3" if step.label != "R3" else "V4")
    elif tamper == "letters":
        trace[k] = step._replace(
            after=tuple(g._replace(index=3 - g.index) for g in step.after))
    else:
        del trace[k]
    with pytest.raises(CheckFailed):
        workloads.check_verdict(n, u, v, True, type(verdict)(tuple(trace)))


def test_checker_rejects_a_wrong_distinct():
    n, u, v, _ = _equivalent_pair()
    wrong = sv.Distinct("rep", 0, 1)
    with pytest.raises(CheckFailed):
        workloads.check_verdict(n, u, v, True, wrong)
    a, b = ref.letters_of("s1 s2"), ref.letters_of("s2 s1")
    with pytest.raises(CheckFailed):
        workloads.check_verdict(3, a, b, False, sv.Distinct("degree", 2, 2))
    assert workloads.check_verdict(3, a, b, False,
                                   sv.Distinct("pair_invariants", 0, 1)).settled


def test_checker_rejects_a_wrong_algebra_result():
    item = workloads.algebra_words(1)[0]
    result = list(workloads.algebra_pipeline(item))
    assert workloads.check_algebra(item, tuple(result)).settled
    result[-1] = result[-1] + " r1"
    with pytest.raises(CheckFailed):
        workloads.check_algebra(item, tuple(result))


def test_tracing_leaves_the_library_unpatched():
    modules = [m for k, m in sys.modules.items() if k.startswith("svbraid")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    init = sv_words.BraidWord.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    with tracer.patched():
        assert sv_words.parse_word is not before[id(sv_words), "parse_word"]
        sv.equivalent(sv.parse_word("s1 r1", 3), sv.parse_word("r1 s2", 3))
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert sv_words.BraidWord.__dict__["__post_init__"] is init
    metrics = tracer.layer_metrics()
    assert metrics["words.parse_word.calls"] == 2
    assert metrics["words.BraidWord.count"] > 0


def test_every_traced_entry_point_exists():
    for mod_name, attr, _, _ in tracing._FUNCTIONS:
        assert callable(getattr(getattr(sv, mod_name), attr)), (mod_name, attr)
    assert "__post_init__" in sv_words.BraidWord.__dict__
    assert callable(sv_words._rewrite_rules)


def test_a_missing_entry_point_fails_the_traced_run(monkeypatch):
    before = sv_words.parse_word
    monkeypatch.setattr(tracing, "_FUNCTIONS", tracing._FUNCTIONS[:1] + (
        ("words", "no_such_function", "words.no_such_function", None),))
    with pytest.raises(AttributeError):
        with tracing.Tracer().patched():
            pass
    assert sv_words.parse_word is before


def test_setup_probe_times_a_fresh_process(monkeypatch):
    monkeypatch.setattr(run, "ROOT", ROOT)
    assert 0 < run.probe_setup([3]) < 60
