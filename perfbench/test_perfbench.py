"""Tests of the benchmark itself: inputs, checks, tracer and digests."""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench import run, tracer, workloads, yardstick

ROOT = Path(__file__).resolve().parent.parent
GENERATORS = (
    "from perfbench import workloads as w; import json; "
    "print(json.dumps([w.population_plan(7), w.ssd_inputs(7, ['a', 'b'])]))"
)


def _library():
    import g2spaces
    import g2spaces.acceptance  # noqa: F401  (loaded as an attribute of the package)

    return g2spaces


def test_generator_is_identical_across_processes():
    outputs = {
        subprocess.run([sys.executable, "-c", GENERATORS], cwd=ROOT, check=True,
                       capture_output=True, text=True).stdout
        for _ in range(2)
    }
    assert len(outputs) == 1
    plan, specs = json.loads(outputs.pop())
    assert [list(map(list, s[:2])) + [s[2]] for s in workloads.population_plan(7)] == plan
    assert json.loads(json.dumps(workloads.ssd_inputs(7, ["a", "b"]))) == specs
    assert workloads.population_plan(8) != workloads.population_plan(7)


def test_generator_covers_every_shape_and_kind():
    plan = workloads.population_plan(3)
    assert {(len(t1), len(t2)) for t1, t2, _ in plan} == {(a, b) for a in range(3) for b in range(3)}
    assert [d for *_, d in plan[:4]] == [6, 8, 6, 8]
    kinds = [s[0] for s in workloads.ssd_inputs(3, ["f1", "f2"])]
    assert kinds[:4] == ["fixture", "translate", "ansatz", "negative"]
    for spec in workloads.ssd_inputs(3, []):
        if spec[0] == "ansatz":
            assert len(set(spec[1] + spec[2])) == 2


def _corrupt(op, change):
    """The op with its one step's result changed before the check sees it."""
    (step,) = op.steps()
    return dataclasses.replace(op, steps=lambda: [lambda: change(step())])


def test_corrupted_ssd_basis_is_a_failed_op():
    lib = _library()
    op = workloads._ssd_op(lib, "monomial-1-3", lib.get_space("monomial-1-3").basis, {"ssd"})

    def bump_one_coefficient(verdict):
        basis = list(verdict.basis)
        coeffs = list(basis[2].coeffs)
        coeffs[0] += 1
        basis[2] = lib.Poly(coeffs)
        return lib.SsdVerdict(verdict.verdict, verdict.reason, tuple(basis))

    tally = run.Tally()
    tally.run(op)
    tally.run(op)  # the same certificate again: checked by equality
    tally.run(_corrupt(op, bump_one_coefficient))
    assert (tally.attempted, tally.failed) == (3, 1)


def test_criterion_forced_false_is_a_failed_op(monkeypatch):
    lib = _library()
    op = workloads._acceptance(lib).ops[0]

    def criterion(ok):
        return lambda: (ok, "stub")

    stubs = [(n, f"stub-{n}", criterion(True)) for n in range(1, 13)]
    tally = run.Tally()
    monkeypatch.setattr(lib.acceptance, "CRITERIA", tuple(stubs))
    tally.run(op)
    stubs[6] = (7, "stub-7", criterion(False))
    monkeypatch.setattr(lib.acceptance, "CRITERIA", tuple(stubs))
    tally.run(op)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_a_verdict_the_input_may_not_get_is_a_failed_op():
    lib = _library()
    negative = lib.get_space("not-self-dual").basis
    translate, allowed = workloads.ssd_basis(lib, ("translate", 1, 3, 1))
    assert allowed == {"ssd"}
    op = workloads._ssd_op(lib, "translate", translate, allowed)

    def give_up(verdict):
        return lib.SsdVerdict("undecided", "search gave up", ())

    tally = run.Tally()
    tally.run(workloads._ssd_op(lib, "negative", negative, {"not_ssd"}))
    tally.run(workloads._ssd_op(lib, "claimed-positive", negative, {"ssd"}))
    tally.run(op)
    tally.run(_corrupt(op, give_up))
    assert (tally.attempted, tally.failed) == (4, 2)


def test_later_cycles_much_faster_than_the_first_fail():
    runs = []

    def step():
        # The first call does work that a cache spares every later one.
        time.sleep(0.05 if not runs else 0.005)
        runs.append(1)

    cached = workloads.Op("cached", lambda: [step], lambda results: "")
    # Arithmetic, not a sleep, so that the yardstick's correction cancels
    # the machine's drift from one cycle to the next.
    steady = workloads.Op("steady", lambda: [lambda: sum(i * i for i in range(100_000))],
                          lambda results: "")
    tally, metrics, info = run.measure(workloads.Workload([cached], []), 0.07, 1.0, 1.0)
    assert info["reuse_ratio"] > run.REUSE_LIMIT
    assert tally.attempted > 1 and tally.failed == tally.attempted - 1
    tally, metrics, info = run.measure(workloads.Workload([steady], []), 0.03, 1.0, 1.0)
    assert tally.attempted > 1 and tally.failed == 0 and metrics["fail_ratio"] == (0.0, "ratio")


def test_self_time_of_a_synthetic_nested_call():
    # outer [0, 10] calls a [1, 4] and b [5, 9]; a calls c [2, 3].
    spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("a", 11.0, 12.0, -1, 1),
    ]
    total, own = tracer.self_times(spans)
    assert own == {"outer": 3.0, "a": 3.0, "c": 1.0, "b": 4.0}
    assert total == {"outer": 10.0, "a": 4.0, "c": 1.0, "b": 4.0}


def test_recursive_span_counts_once_in_total():
    spans = [("f", 0.0, 5.0, -1, 0), ("f", 1.0, 2.0, 0, 0)]
    total, own = tracer.self_times(spans)
    assert total == {"f": 5.0} and own == {"f": 5.0}


def test_tracer_rebinds_every_import_and_restores_it():
    lib = _library()
    original = lib.linalg.solve
    t = tracer.Tracer()
    t.install()
    try:
        for module in (lib, lib.linalg, lib.spaces, lib.g2, lib.bethe):
            assert module.solve is not original and module.solve.__wrapped__ is original
        t.op = 0
        lib.PolySpace(lib.get_space("monomial-1-3").basis).coords(lib.Poly.monomial(3))
        t.op = None
    finally:
        t.remove()
    assert all(m.solve is original for m in (lib, lib.linalg, lib.spaces, lib.g2, lib.bethe))
    names = [s[0] for s in t.spans]
    assert names.count("spaces.PolySpace.coords") == 1
    assert "linalg.solve" in names and "linalg.rref.fraction" in names
    metrics = tracer.layer_metrics(t)
    assert metrics["spaces.PolySpace.coords.calls"] == (1, "count")
    assert metrics["spin.clifford_act.calls"] == (0, "count")


def test_traced_and_untraced_runs_give_the_same_digest():
    lib = _library()
    ops = [workloads._ssd_op(lib, name, lib.get_space(name).basis, {"ssd", "not_ssd"})
           for name in ("monomial-1-2", "not-self-dual")]
    ops.append(workloads._population_op(lib, (), (), 8))
    plain, traced = run.Tally(), run.Tally()
    for op in ops:
        plain.run(op)
    t = tracer.Tracer()
    t.install()
    try:
        for i, op in enumerate(ops):
            traced.run(op, t, i)
    finally:
        t.remove()
    assert plain.failed == traced.failed == 0
    assert plain.digest() == traced.digest()
    assert t.counts["polynomials.Poly.mul"] > 0
    assert {s[4] for s in t.spans} == {0, 1, 2}


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ssd", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "src/g2spaces is missing" in proc.stderr


def test_yardstick_scales_times_to_the_nominal_machine():
    n = yardstick.NOMINAL_S
    assert yardstick.corrected(1.0, n, n) == 1.0
    assert yardstick.corrected(1.0, 2 * n, 2 * n) == 0.5
    assert 0 < yardstick.sample() < 1
