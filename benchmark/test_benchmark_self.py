"""Self-tests of the benchmark: seeded corpus, span arithmetic, metric names.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json
import os
import textwrap
import types

import numpy as np
import pytest

import corpus
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fingerprint(cases):
    return [(c.name, c.kind, c.m, c.encoding, c.document_text(), c.truth, c.original) for c in cases]


def test_same_seed_gives_identical_corpus():
    first, again = corpus.build_corpus(5), corpus.build_corpus(5)
    assert _fingerprint(first) == _fingerprint(again)
    other = corpus.build_corpus(6)
    assert [c.name for c in other] == [c.name for c in first]
    assert _fingerprint(other) != _fingerprint(first)


def test_corpus_covers_every_kind_and_order():
    cases = corpus.build_corpus(0)
    for kind in corpus.KINDS:
        assert {c.m for c in cases if c.kind == kind} == set(corpus.ORDERS), kind
    names = {c.name for c in cases}
    assert all(c.original in names for c in cases if c.kind == "mixed")
    assert all(c.encoding == "p/q" for c in cases if c.kind == "exact")


def _module(name, source):
    module = types.ModuleType(name)
    exec(textwrap.dedent(source), module.__dict__)
    return module


LAYER = """
def leaf(n):
    return sum(range(n))

def middle(n):
    return leaf(n) + leaf(2 * n)

def top(n):
    return middle(n) + leaf(n) + countdown(3)

def countdown(k):
    return 0 if k == 0 else countdown(k - 1)
"""


def _traced():
    layer = _module("fake_layer", LAYER)
    user = _module("fake_user", "def call(n):\n    return leaf(n)\n")
    user.leaf = layer.leaf  # a from-import binding
    tracer = spans.Tracer()
    tracer.install({"fake": layer}, [layer, user])
    return tracer, layer, user


def test_children_self_times_plus_parent_self_time_equal_parent_span():
    tracer, layer, _ = _traced()
    for op in range(3):
        tracer.op = op
        root = tracer.begin("op")
        layer.top(20_000)
        tracer.end(root)
    tracer.op = None
    tracer.uninstall()
    records = tracer.spans
    own = spans.self_times(records)
    children = {i: [] for i in range(len(records))}
    for i, span in enumerate(records):
        if span[spans.PARENT] >= 0:
            children[span[spans.PARENT]].append(i)

    def subtree(i):
        return own[i] + sum(subtree(c) for c in children[i])

    for i, span in enumerate(records):
        duration = span[spans.END] - span[spans.START]
        assert subtree(i) == pytest.approx(duration, rel=1e-9, abs=1e-12)
        assert own[i] >= -1e-12
    names = [span[spans.NAME] for span in records]
    # op, top, middle, leaf, leaf, leaf, countdown (recursion folded) per op
    assert names[:7] == ["op", "fake.top", "fake.middle", "fake.leaf", "fake.leaf", "fake.leaf", "fake.countdown"]
    assert len(records) == 21 and {span[spans.OP] for span in records} == {0, 1, 2}


def test_from_import_bindings_become_child_spans_and_uninstall_restores():
    tracer, layer, user = _traced()
    wrapper = user.leaf
    tracer.op = 0
    root = tracer.begin("op")
    user.call(10)
    tracer.end(root)
    tracer.op = None
    user.call(10)  # outside an op: no span
    assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == [("op", -1), ("fake.leaf", 0)]
    tracer.uninstall()
    assert layer.leaf is user.leaf and user.leaf is not wrapper


def test_buckets_follow_same_layer_callers():
    records = [
        ["op", 0.0, 1.0, -1, 0],
        ["a.root", 0.0, 1.0, 0, 0],
        ["a.helper", 0.0, 0.5, 1, 0],
        ["b.other", 0.5, 0.7, 1, 0],
        ["b.inner", 0.5, 0.6, 3, 0],
    ]
    assert spans.buckets(records, {"a.root": "a.root_ms"}) == [None, "a.root_ms", "a.root_ms", None, None]


def test_independent_canonical_maps_match_the_package():
    contraction = pytest.importorskip("bca.contraction")
    for m in corpus.ORDERS:
        p, q = corpus.canonical_maps(m)
        maps = contraction.canonical_maps(m)
        assert np.allclose(p, maps.P) and np.allclose(q, maps.Q), m


def test_check_round_and_metric_names():
    pytest.importorskip("bca")
    import worker
    import workloads

    names = {c.name: c for c in corpus.build_corpus(0)}
    picked = set(workloads.CHECK_CASES)
    assert picked | set(workloads.CHECK_PROBE) <= set(names)
    assert all(
        names[n].original in picked | set(workloads.CHECK_PROBE) for n in picked if names[n].kind == "mixed"
    )
    assert {names[n].m for n in picked} == set(corpus.ORDERS)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == (
        set(worker.END_TO_END.items()) | {("setup_s", "s")}
    )
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(worker.PER_LAYER.items())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_known_defects_are_keyed_to_their_inputs():
    pytest.importorskip("bca")
    import workloads

    cases = {c.name: c for c in corpus.build_corpus(0)}
    assert workloads.known(cases["mixed-defect1-m5"], "mixing:regular") is not None
    assert workloads.known(cases["mixed-sparse-m5"], "mixing:regular") is not None
    assert workloads.known(cases["mixed-dirichlet-m4"], "mixing:regular") is None
    assert workloads.known(cases["exact-sparse-m5"], "mixing:regular") is None
    assert workloads.known(cases["mixed-defect1-m5"], "orders") is None
    assert workloads.known(cases["exact-quasiperiodic-m3"], "oracle-nonzero") is not None
    assert workloads.known(cases["exact-periodic-m3"], "oracle-nonzero") is None
    assert workloads.known(cases["generic-m2"], "oracle-replay") is None


def test_known_defect_inputs_run_only_in_the_probe(tmp_path):
    pytest.importorskip("bca")
    import workloads

    cases = corpus.build_corpus(0)
    for name in ("check", "verdicts"):
        workload = workloads.WORKLOADS[name](cases, str(tmp_path), 0)
        timed = {op.name for op in workload.ops}
        probed = {op.name for op in workload.probe}
        assert not any(workload.shows_seed_defect(n) for n in timed), name
        assert any(workload.shows_seed_defect(n) for n in probed), name
        for op in workload.probe:
            original = workload.case(op.name).original
            assert original is None or original in probed, op.name
    verdicts = workloads.WORKLOADS["verdicts"](cases, str(tmp_path), 0)
    assert {op.name for op in verdicts.ops} | {op.name for op in verdicts.probe} == {c.name for c in cases}


def test_float_replay_matches_the_exact_oracle():
    pytest.importorskip("bca")
    from bca import bc_core, polyoracle
    import workloads

    for case in corpus.build_corpus(3):
        if case.m > 2:
            continue
        system = bc_core.BoundaryConditionSystem(case.m, case.coeffs)
        exact = float(polyoracle.sample_dissipativity(system, 25, 0).min_value)
        replayed, scale = workloads.replay_oracle(case, 0, 25)
        assert abs(exact - replayed) <= workloads.REPLAY_TOL * scale, case.name
