"""Tests of the benchmark itself (not collected by the repository's tests):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = sorted(wl.PLANS)


def _corrupt(ans):
    if isinstance(ans, bool):
        return not ans
    if isinstance(ans, int):
        return ans + 1
    return f"corrupt {ans!r}"


def _main(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    out = capsys.readouterr().out.strip().splitlines()
    return code, (json.loads(out[-1]) if out else None)


@pytest.fixture(scope="module")
def pd():
    return run.import_permdec()


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_answer_counts_as_failed(name, capsys, monkeypatch):
    plan = wl.PLANS[name](1)
    # the last op: a relational check on normalform, a plain one elsewhere
    target = plan.ops[-1]
    original = wl.CALLS[target.call]

    def corrupting(pd, env, *args):
        ans = original(pd, env, *args)
        return _corrupt(ans) if args == target.args else ans

    code, clean = _main(capsys, "--workload", name, "--seed", "1")
    assert code == 0 and clean["correct"] and clean["failed"] == 0
    monkeypatch.setitem(wl.CALLS, target.call, corrupting)
    code, bad = _main(capsys, "--workload", name, "--seed", "1")
    assert code == 0
    assert not bad["correct"]
    assert bad["failed"] >= 2  # the timed round and the counting round
    assert bad["attempted"] == clean["attempted"]


def test_raising_op_fails_without_making_the_run_incorrect(pd):
    plan = wl.PLANS["halting"](1)
    env = run.load_inputs(pd, plan)
    answers, _ = run.run_round(pd, plan, env, [])
    answers[0] = wl.Raised(ValueError("boom"))
    tally = run.Tally(plan)
    tally.add(answers)
    assert tally.failed == 1 and tally.wrong == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_and_untraced_runs_agree(name, pd):
    plan = wl.PLANS[name](2)
    plain, _ = run.run_round(pd, plan, run.load_inputs(pd, plan), [])
    assert not plan.failed_ops(plain)

    counter = tr.Tracer(pd, full=False)
    env = run.load_inputs(pd, plan)
    with counter:
        counted, _ = run.run_round(pd, plan, env, [])

    full = tr.Tracer(pd, full=True)
    with full:
        traced, _, layer = tr.traced_round(full, pd, plan, run.load_inputs, run.run_round)
    assert counted == plain and traced == plain
    assert (counter.decides(), counter.perm_steps()) == (layer["decides"], layer["perm_steps"])
    # every wrapper came off again
    assert "wrapper" not in pd.machine.step.__qualname__
    assert "wrapper" not in pd.equivalence.PiXY._decide.__qualname__


@pytest.mark.parametrize("missing", [("equivalence", "EqExpr", "_decide"),
                                     ("permutation", "PermExpr", "fwd"),
                                     ("machine", None, "step")])
def test_missing_entry_point_stops_the_traced_run(missing, pd, capsys, monkeypatch):
    mod, cls, attr = missing
    owner = getattr(pd, mod) if cls is None else getattr(getattr(pd, mod), cls)
    monkeypatch.delattr(owner, attr)
    with pytest.raises(tr.InstrumentationError):
        tr.Tracer(pd, full=True)
    code, result = _main(capsys, "--workload", "halting", "--trace", "1")
    assert code != 0 and result is None


def test_zero_counts_are_refused(pd):
    counter = tr.Tracer(pd, full=False)
    with pytest.raises(tr.InstrumentationError):
        counter.decides()
    with pytest.raises(tr.InstrumentationError):
        counter.perm_steps()


def test_layer_metrics_by_workload(capsys):
    seen = {}
    for name in WORKLOADS:
        code, result = _main(capsys, "--workload", name, "--trace", "1")
        assert code == 0 and result["correct"]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert set(m) == set(tr.PER_LAYER_UNITS)
        seen[name] = m
    for name, m in seen.items():
        assert (m["machine.steps"] > 0) == (name == "halting")
        assert (m["permutation.eta_decode_s"] > 0) == (name == "products")
        assert m["trace.wall_s"] > 0


def test_same_seed_same_inputs():
    for name in WORKLOADS:
        a, b = wl.PLANS[name](7), wl.PLANS[name](7)
        assert a.texts == b.texts and a.ops == b.ops
        assert wl.PLANS[name](8).ops != a.ops


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cd2cf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
