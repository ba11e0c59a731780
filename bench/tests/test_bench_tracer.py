"""Self-time arithmetic and instrumentation of the span recorder."""

import pytest

import tracer
from tracer import Span, SpanTree, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6]
    spans = [Span(1, None, "cli.run_manifest", "cli", 0.0, 10.0),
             Span(2, 1, "correctors.solve_corrector", "correctors", 1.0, 4.0),
             Span(3, 2, "operators.solve", "operators", 2.0, 3.0),
             Span(4, 1, "fields.evaluate", "fields", 5.0, 6.0)]
    t = SpanTree(spans)
    assert t.self_s("cli.run_manifest") == pytest.approx(6.0)
    assert t.self_s("correctors.solve_corrector") == pytest.approx(2.0)
    assert t.self_s("operators.solve") == pytest.approx(1.0)
    assert t.coverage("cli.run_manifest") == pytest.approx(0.4)


def test_self_time_counts_overlapping_thread_children_once():
    # two pool workers solve in parallel under one solve_corrector span
    spans = [Span(1, None, "correctors.solve_corrector", "correctors", 0.0, 10.0),
             Span(2, 1, "operators.solve", "operators", 1.0, 7.0),
             Span(3, 1, "operators.solve", "operators", 2.0, 8.0),
             Span(4, 1, "operators.assemble", "operators", 9.0, 11.0)]  # clipped at 10
    t = SpanTree(spans)
    assert t.self_s("correctors.solve_corrector") == pytest.approx(10.0 - 7.0 - 1.0)
    assert t.total_s("operators.solve") == pytest.approx(12.0)   # busy time, both threads
    assert t.calls("operators.solve") == 2


def test_same_name_nesting_counts_outermost_calls():
    # ScaledArgumentField.evaluate calls its base field's evaluate
    spans = [Span(1, None, "metrics.rho_ladder", "metrics", 0.0, 5.0),
             Span(2, 1, "fields.evaluate", "fields", 1.0, 3.0, {"points": 10}),
             Span(3, 2, "fields.evaluate", "fields", 1.5, 2.5, {"points": 10}),
             Span(4, None, "fields.evaluate", "fields", 6.0, 7.0, {"points": 4})]
    t = SpanTree(spans)
    assert t.calls("fields.evaluate") == 2
    assert t.total_s("fields.evaluate") == pytest.approx(3.0)
    assert t.self_s("fields.evaluate") == pytest.approx(3.0)
    assert t.attr_sum("fields.evaluate", "points") == 14
    assert t.attr_sum("fields.evaluate", "points", under="metrics.rho_ladder") == 10


def test_instrumented_corrector_parents_pool_spans():
    import aphomog
    from aphomog import correctors, fields

    # oscillates along both axes, so both corrector solves do work
    field = fields.TrigPolynomialField(2, 1, [([0.0, 0.0], 2.0, 0.0),
                                              ([1.0, 0.0], 0.0, 0.5),
                                              ([0.0, 1.0], 0.0, 0.5)])
    fields.certify_ellipticity(field, sample_count=64)
    rec = tracer.Recorder()
    restore = tracer.instrument(rec)
    try:
        assert aphomog.solve_corrector is correctors.solve_corrector
        cset = correctors.solve_corrector(field, 1.0, h=1 / 64, tol=1e-8, threads=2)
    finally:
        restore()
    assert correctors.solve is aphomog.operators.solve
    assert not hasattr(correctors.solve, "__wrapped__")
    assert cset.iterations and all(i > 0 for i in cset.iterations)

    t = SpanTree(rec.spans)
    [root] = t.outermost("correctors.solve_corrector")
    solves = t.outermost("operators.solve")
    assert len(solves) == 2
    assert all(s.parent == root.id for s in solves)
    # the corrector's right-hand sides evaluate the field inside pool workers
    assert t.attr_sum("fields.evaluate", "points", under="correctors.solve_corrector") > 0
    m = tracer.layer_metrics(rec.spans)
    assert m["operators.solve_calls"] == 2
    assert m["operators.iterations"] == sum(cset.iterations)
    assert m["operators.assemble_calls"] == 1
    assert m["operators.unknowns"] == 64 * 64
