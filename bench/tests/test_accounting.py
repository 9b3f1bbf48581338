"""The benchmark's own accounting, on tiny grids.

Run with ``PYTHONPATH=src python -m pytest bench/tests``.
"""

import concurrent.futures
import dataclasses
import json
import sys
import threading
import time

import pytest

import layers
import run
import worker
import workloads
from tracer import Span, Tracer, covered

import cplab.cli  # noqa: F401  (loads every module layers.install wraps)
from cplab import domain as dm
from cplab import nonlinearity as nlin
from cplab import solver, verify
from cplab.solver import Field

TINY_CONFIG = """\
[domain]
kind = ball
a = 1.0
n = 3

[nonlinearity]
form = constant
c = 1.0

[grid]
nr = 17
nz = 33

[run]
uniqueness_seeds = 2
"""


@pytest.fixture
def tiny_grid():
    return dm.build_grid(dm.MeridianDomain(3, dm.ball(1.0)), 17, 33)


def cplab_bindings():
    return {(name, key): id(value)
            for name, mod in sys.modules.items()
            if mod is not None and (name == "cplab" or name.startswith("cplab."))
            for key, value in vars(mod).items()}


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-1.0, 0.5), (0.5, 0.75)], 0.0, 1.0) == pytest.approx(0.75)


def test_self_time_subtracts_the_union_of_child_spans():
    tr = Tracer()
    parent = Span("p", 0.0, end=10.0)
    # Two children overlap (pool threads); one runs past the parent's end.
    tr.spans = [parent,
                Span("c", 1.0, parent=parent, end=3.0, thread=1),
                Span("c", 2.0, parent=parent, end=5.0, thread=2),
                Span("c", 9.0, parent=parent, end=12.0)]
    stats = tr.layers()
    assert stats["p"].calls == 1
    assert stats["p"].s == pytest.approx(10.0)
    assert stats["p"].self_s == pytest.approx(5.0)
    assert stats["c"].calls == 3
    assert stats["c"].s == pytest.approx(8.0)
    assert stats["c"].self_s == pytest.approx(8.0)


def test_wrapper_counts_match_the_solver_report(tiny_grid):
    before = cplab_bindings()
    init, solve = solver.AxisymOperator.__init__, solver.AxisymOperator.solve
    newton = solver.newton_solve
    with Tracer() as tr:
        layers.install(tr)
        assert verify.newton_solve is solver.newton_solve is not newton
        u, rep = verify.newton_solve(tiny_grid, 3, nlin.constant(1.0),
                                     Field.zeros(tiny_grid, 3))
    assert rep.converged and rep.newton_iterations >= 1
    m = layers.metrics(tr)
    assert m["solver.newton_solve.calls"] == 1
    assert m["solver.newton_solve.iterations"] == rep.newton_iterations
    assert m["solver.newton_solve.damping_events"] == rep.damping_events
    assert m["solver.AxisymOperator.calls"] == 1
    assert m["solver.AxisymOperator.solve.calls"] == rep.newton_iterations
    assert m["solver.AxisymOperator.solve.s_per_call"] == pytest.approx(
        m["solver.AxisymOperator.solve.s"] / rep.newton_iterations)
    assert 0.0 <= m["solver.newton_solve.self_s"] <= m["solver.newton_solve.s"]
    # Every wrapped attribute is back, in every module that bound it.
    assert cplab_bindings() == before
    assert solver.AxisymOperator.__init__ is init and solver.AxisymOperator.solve is solve
    assert verify.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def test_restore_runs_when_the_traced_call_raises(tiny_grid):
    before = cplab_bindings()
    tr = Tracer()
    with pytest.raises(ValueError), tr:
        layers.install(tr)
        bad = Field(tiny_grid, tiny_grid.inside * float("nan"), 3)
        solver.newton_solve(tiny_grid, 3, nlin.constant(1.0), bad)
    assert cplab_bindings() == before
    (span,) = [s for s in tr.spans if s.name == "solver.newton_solve"]
    assert span.failed


def test_pool_spans_link_to_the_enclosing_multistart(tiny_grid, monkeypatch):
    monkeypatch.setenv("CPL_THREADS", "2")
    with Tracer() as tr:
        layers.install(tr)
        worst, converged, failed = verify.uniqueness_multistart(
            tiny_grid, 3, nlin.constant(1.0), seeds=4, seed=0)
    (multi,) = [s for s in tr.spans if s.name == "verify.uniqueness_multistart"]
    newton = [s for s in tr.spans if s.name == "solver.newton_solve"]
    assert len(newton) == 5  # the zero-guess baseline and four starts
    assert all(s.parent is multi for s in newton)
    in_pool = [s for s in newton if s.thread != multi.thread]
    assert len(in_pool) == 4
    m = layers.metrics(tr)
    assert m["verify.uniqueness_multistart.converged_ratio"] == converged / (converged + failed)
    assert m["verify.uniqueness_multistart.parallelism"] == pytest.approx(
        sum(s.duration for s in in_pool) / multi.duration)


def test_counts_from_many_threads_are_not_lost():
    tr = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def bump():
            for _ in range(2000):
                tr.count("n", 1)
                with tr.span("s"):
                    pass

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tr.counters["n"] == 16000
    assert tr.layers()["s"].calls == 16000


@pytest.fixture
def tiny_workloads(tmp_path, monkeypatch):
    """A passing tiny workload, one with an injected failing check and one
    whose config does not parse."""
    (tmp_path / "tiny.cfg").write_text(TINY_CONFIG)
    (tmp_path / "tiny-bad.cfg").write_text(TINY_CONFIG)
    (tmp_path / "tiny-unparsable.cfg").write_text(
        TINY_CONFIG.replace("form = constant", "form = no-such-form"))
    monkeypatch.setattr(workloads, "CONFIGS", tmp_path)
    good = workloads.Workload("tiny", "verify", workloads._verify_checks,
                              workloads._verify_scalars)

    def injected(art, call_dir):
        return {**workloads._verify_checks(art, call_dir), "injected": False}

    bad = dataclasses.replace(good, name="tiny-bad", checks=injected)
    unparsable = dataclasses.replace(good, name="tiny-unparsable")
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {w.name: w for w in (good, bad, unparsable)})
    monkeypatch.setattr(run, "OUT", tmp_path / "out")

    def spawn_in_process(call_dir, workload, seed, *flags):
        call_dir.mkdir(parents=True)
        (call_dir / "log.txt").touch()
        spawned = time.monotonic()
        try:
            rc = worker.main(["--workload", workload, "--seed", str(seed),
                              "--out", str(call_dir), *flags])
        except Exception:  # the exit status of an interpreter that died of it
            rc = 1
        return run.collect(call_dir, rc, spawned)

    monkeypatch.setattr(run, "spawn", spawn_in_process)


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_passing_run_reports_every_metric(tiny_workloads, capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    line = last_json_line(capsys)
    assert line["correct"] is True and line["failed"] == 0
    expected = layers.PER_LAYER if trace else run.END_TO_END
    assert set(line["metrics"]) == set(expected)
    assert all(m["unit"] == expected[name] for name, m in line["metrics"].items())
    if trace:
        assert line["attempted"] == 2  # one traced and one untraced call
        assert line["metrics"]["verify.uniqueness_multistart.converged_ratio"]["value"] == 1.0
    else:
        assert line["metrics"]["setup_s"]["value"] > 0.0


def test_injected_failing_check_raises_fail_share(tiny_workloads, capsys):
    assert run.main(["--workload", "tiny-bad", "--seed", "3", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert "fail_share 1 " in out and "injected" in out


def test_unparsable_config_counts_as_a_failed_call(tiny_workloads, capsys):
    assert run.main(["--workload", "tiny-unparsable", "--seed", "3", "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == 1
    assert "failed call: error" in out


def test_changed_artifacts_fail_the_determinism_check(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json")
    assert store.matches("k", "a") and store.matches("k", "a")
    store.save()
    again = run.DigestStore(tmp_path / "digests.json")
    assert not again.matches("k", "b")
    assert run.failures_of({"rc": 0, "checks": {"x": True}, "deterministic": False}) == [
        "deterministic"]


def test_digest_ignores_only_the_runtime_column(tmp_path):
    (tmp_path / "c.csv").write_text("t,lambda1,runtime_s\n0,1.5,0.25\n")
    first = workloads.digest(tmp_path)
    (tmp_path / "c.csv").write_text("t,lambda1,runtime_s\n0,1.5,0.75\n")
    assert workloads.digest(tmp_path) == first
    (tmp_path / "c.csv").write_text("t,lambda1,runtime_s\n0,1.25,0.75\n")
    assert workloads.digest(tmp_path) != first


def test_without_program_sources_it_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify-gelfand", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
