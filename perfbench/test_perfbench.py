"""Tests of the benchmark itself, on workloads of the (1, 2) family.

    PYTHONPATH=src python -m pytest perfbench
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import layer_totals  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

SRC = HERE.parent / "src"

# The per-layer metrics each workload is meant to move (README.md, "Layer to
# end-to-end map"); each must record work on that workload's kind.
MOVES = {
    "certify_m2k2": (
        "operators.uprime_column.calls",
        "operators.uprime_column.s",
        "jack.construct_jack.calls",
        "jack.construct_jack.s",
        "jack.construct_jack.self_s",
        "jack.basis_size",
        "jack.terms",
        "operators.dunkl.calls",
        "operators.dunkl.s",
        "operators.jucys_murphy.calls",
        "operators.jucys_murphy.s",
        "singular.isotype_of.calls",
        "singular.isotype_of.s",
        "vectorpoly.tau_context.s",
        "vectorpoly.tau_dim",
        "vectorpoly.group_action.calls",
        "vectorpoly.group_action.s",
        "singular.family_context.s",
        "singular.singular_family.self_s",
        "cli.render_s",
        "cli.output_bytes",
    ),
    "generic_m1k3": (
        "jack.verify_eigen_equations.calls",
        "jack.verify_eigen_equations.s",
        "operators.cherednik_prime.calls",
        "operators.cherednik_prime.s",
        "ratfunc.canonicalize.calls",
        "ratfunc.arith.calls",
        "ratfunc.arith.s",
    ),
    "construct_m1k4": (
        "operators.uprime_column.calls",
        "operators.uprime_column.s",
        "jack.construct_jack.calls",
        "jack.construct_jack.s",
        "jack.construct_jack.self_s",
        "jack.basis_size",
        "jack.terms",
        "jack.specialize.calls",
        "jack.specialize.s",
        "ratfunc.canonicalize.calls",
        "combinatorics.compositions_strictly_below.calls",
        "combinatorics.compositions_strictly_below.s",
        "cli.render_s",
        "cli.output_bytes",
    ),
}

COUNTS = [
    name
    for name in run.PER_LAYER
    if name.endswith(".calls")
    or name in ("jack.terms", "jack.basis_size", "vectorpoly.tau_dim", "cli.output_bytes")
]


def test_every_named_metric_is_mapped_and_reported():
    mapped = {name for names in MOVES.values() for name in names}
    assert mapped | {"trace.overhead_frac"} == set(run.PER_LAYER)
    assert set(MOVES) == set(WORKLOADS) == set(SMALL)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_records_work_and_keeps_output(name, tmp_path):
    workload = SMALL[name]
    probes, plain, traced = run.measure(workload, SRC, 0, True, tmp_path)
    again = run.run_child(SRC, workload.name, time.monotonic() + 120, tmp_path / "again.tsv")
    assert all(p.error is None and p.record["setup_s"] > 0 for p in probes)
    assert len(plain) == len(traced) == 1
    (first, spans), plain = traced[0], plain[0]
    assert plain.error is None and first.error is None and again.error is None
    assert first.stdout == plain.stdout == again.stdout
    metrics = run.layer_metrics(first, spans)
    for metric in MOVES[name]:
        assert metrics[metric] > 0, metric
    repeat = run.layer_metrics(again, tmp_path / "again.tsv")
    assert {m: metrics[m] for m in COUNTS} == {m: repeat[m] for m in COUNTS}


def test_full_size_checks_reject_other_output():
    for workload in WORKLOADS.values():
        assert workload.check(b'{"verified": true}') is not None


def test_layer_totals_self_time_and_nesting():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 6.0, 0),
    ]
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert totals["c"]["self_s"] == 1.0


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100 / 11, 0)
    percent, value = run.tail(list(range(40)))
    assert (percent, value) == (75.0, 29)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "generic_m1k3"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
