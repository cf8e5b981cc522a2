"""Self-tests of the benchmark harness: python3 -m pytest -q bench/test_harness.py"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import run
import workloads
from tracing import Tracer
from workloads import Op, check

REFERENCE = workloads.load_reference()


def test_counting_oracles_match_known_values():
    known = {(3, 6): 221, (2, 8): 185, (4, 5): 252, (4, 6): 574, (3, 7): 429,
             (3, 5): 108, (4, 4): 105, (2, 7): 110, (3, 4): 51, (1, 5): 7}
    for (m, n), total in known.items():
        assert workloads.multipartition_total(m, n) == total
    assert workloads.partition_pair_total(6) == 900


def test_verdict_oracle_hand_cases():
    assert not workloads.semisimple_verdict(2, [Fraction(1), Fraction(0)], None)
    assert workloads.semisimple_verdict(2, [Fraction(2), Fraction(0)], None)
    assert workloads.semisimple_verdict(3, [Fraction(1, 2), Fraction(0)], None)
    assert not workloads.semisimple_verdict(5, [1, 2], 3)  # p <= n: n! = 0
    assert not workloads.semisimple_verdict(6, [0, 98], 101)  # 0 - 98 = 3 mod 101
    assert workloads.semisimple_verdict(6, [0, 50], 101)


def test_verdict_oracle_agrees_with_library():
    pkg = run.import_schurkit()
    rng = random.Random(5)
    for prime in (None, 101):
        for _ in range(40):
            q = ([rng.randint(-6, 6) for _ in range(3)] if prime is None
                 else [rng.randrange(prime) for _ in range(3)])
            theta = pkg.Specialization(dict(enumerate(q, 1)), prime=prime)
            assert pkg.is_semisimple(3, 3, theta) == workloads.semisimple_verdict(3, q, prime)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    first = workloads.plan(workload, 7, 30, REFERENCE)
    assert first == workloads.plan(workload, 7, 30, REFERENCE)
    menu = sorted(op.argv[:3] for op in first[0])
    for ops in first:
        assert sorted(op.argv[:3] for op in ops) == menu
    assert sum(map(len, first)) >= 20
    assert len(workloads.plan(workload, 7, 300, REFERENCE)) > len(first)


def test_reference_digests_cover_every_hashed_command():
    assert set(REFERENCE) == {" ".join(argv) for argv in workloads.schur_argvs()}


def test_seed_draws_parameters_not_the_menu():
    a = workloads.plan("build", 1, 30, REFERENCE)[0]
    b = workloads.plan("build", 2, 30, REFERENCE)[0]
    assert sorted(op.argv[:3] for op in a) == sorted(op.argv[:3] for op in b)
    assert {op.argv for op in a if op.argv[0] == "semisimple"} != {
        op.argv for op in b if op.argv[0] == "semisimple"}


def test_gate_rejects_wrong_outputs():
    op = workloads.three_formulas_op(2, 3)
    assert check(op, 0, b"checked 10 multipartitions, 0 mismatches\n") is None
    assert check(op, 1, b"checked 10 multipartitions, 0 mismatches\n") is not None
    assert check(op, 0, b"checked 9 multipartitions, 0 mismatches\n") is not None
    assert check(op, 0, b"checked 0 multipartitions, 0 mismatches\n") is not None

    hashed = Op(("pinv",), ("sha256", "0" * 64))
    assert check(hashed, 0, b"anything") is not None

    ss = Op(("semisimple",), ("semisimple", True, "Q"))
    good = b'{"p_value": "5", "semisimple": true, "vanishing": [], "agreement": true, "field": "Q"}'
    assert check(ss, 0, good) is None
    assert check(ss, 0, good.replace(b"true, \"v", b"false, \"v")) is not None
    assert check(ss, 0, good.replace(b'"Q"', b'"Fp:101"')) is not None
    assert check(ss, 0, good.replace(b'"agreement": true', b'"agreement": false')) is not None
    assert check(ss, 0, good.replace(b"[]", b"[[[1], []]]")) is not None
    assert check(ss, 0, b"not json") is not None


def test_tail_and_spread():
    values = [float(v) for v in range(1, 25)]
    value, pct = run.tail(values)
    assert value == 14.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 14 / 24)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_child_run_checks_output():
    sample = run.run_child(workloads.three_formulas_op(2, 3), run.child_env())
    assert sample.error is None and sample.wall > 0 and sample.rss_kb > 0
    wrong = Op(sample.op.argv, ("stdout", "checked 11 multipartitions, 0 mismatches\n"))
    assert run.run_child(wrong, run.child_env()).error is not None


def _traced_counts(pkg, ops):
    tracer = Tracer()
    for op_id, op in enumerate(ops):
        tracer.patch(pkg)
        tracer.op_id = op_id
        try:
            _, error, _ = run.run_in_process(tracer.run, op)
        finally:
            tracer.unpatch()
        assert error is None
    metrics = tracer.layer_metrics()
    return tracer, {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_tracer_counts_repeat_and_patches_are_undone():
    pkg = run.import_schurkit()
    originals = (pkg.cli.run, pkg.schur.schur_element, pkg.semisimple.schur_element,
                 pkg.exact.ProductBuilder.form, pkg.exact.SparsePoly.__mul__, pkg.cli.json)
    pinv = ("pinv", "--m", "5", "--n", "8", "--format", "json")
    ops = [workloads.three_formulas_op(2, 3), workloads.trace_identity_op(2, 3),
           workloads.criterion_op(2, 3, 11, None, trials=3),
           Op(pinv, ("sha256", REFERENCE[" ".join(pinv)]))]
    tracer, first = _traced_counts(pkg, ops)
    _, second = _traced_counts(pkg, ops)
    assert first == second
    assert first["schur.element_calls"] > 0 and first["exact.poly_mul_calls"] > 0
    assert first["semisimple.scan_evals"] == first["semisimple.scan_calls"] * 10
    assert tracer.stats["cli.render"].calls > 0
    assert (pkg.cli.run, pkg.schur.schur_element, pkg.semisimple.schur_element,
            pkg.exact.ProductBuilder.form, pkg.exact.SparsePoly.__mul__, pkg.cli.json) == originals
    spans = [s for s in tracer.spans if s is not None]
    assert len(spans) == len(tracer.spans)
    roots = [s for s in spans if s[0] == "cli.run"]
    assert len(roots) == len(ops) and all(s[3] is None for s in roots)
    assert all(s[3] is not None for s in spans if s[0] != "cli.run")


def test_traced_metrics_are_the_per_layer_metrics_of_the_spec():
    pkg = run.import_schurkit()
    tracer, _ = _traced_counts(pkg, [workloads.three_formulas_op(2, 3)])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = set(tracer.layer_metrics()) | {"cli.stdout_bytes", "trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
