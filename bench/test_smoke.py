"""Smoke test of the benchmark itself, at tiny n.

Every metric BENCHMARK.json names must be printed with its unit, the
output checks must pass, the layers a workload runs must show time in the
traced run, the tracer must put back every attribute and registry item it
patched, and a directory holding only the benchmark must make it fail.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans

TINY = {
    "reproduce": {"n": 20_000, "warm_n": 20_000},
    "large-d": {"ds": (2, 8), "n": 2_000},
    "exact-stream": {"block": 120, "warm": 120},
}


def _attributes() -> dict:
    """Identity of every attribute of the package's modules and their classes,
    and of every item of the lists, tuples and dicts among them."""
    package = run._import_package()
    owners = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in spans.LAYERS]
    owners += [c for m in owners[1:] for c in vars(m).values() if inspect.isclass(c) and c.__module__ == m.__name__]
    out = {}
    for o in owners:
        for attr, obj in vars(o).items():
            out[id(o), attr] = obj
            if type(obj) in (list, tuple, dict) and not attr.startswith("__"):
                items = obj.items() if isinstance(obj, dict) else enumerate(obj)
                out.update({(id(o), attr, k): v for k, v in items})
    return out


def _changed(before: dict, after: dict) -> list:
    return sorted(k for k in before.keys() | after.keys() if before.get(k, before) is not after.get(k, after))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_prints_every_metric_with_its_unit(workload, trace, capsys):
    before = _attributes()
    params = {**TINY[workload], "setup_reps": 1, "speedup_n": 20_000}
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)], params) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "reproduce":
        ran = [f"acceptance.C{i:02d}_s" for i in range(1, 14)] + ["acceptance.write_report_s", "mc.speedup_w2"]
        ran += [f"lhv.{model}_s" for model in run.MODELS]
        assert {k: values[k] for k in ran if values[k] <= 0} == {}
    elif workload == "large-d":
        ran = [f"measure.born_table_s.d{d}" for d in TINY[workload]["ds"]]
        assert {k: values[k] for k in ran if values[k] <= 0} == {}
    if trace and workload != "reproduce":
        assert values["mc.speedup_w2"] == 0

    assert _changed(before, _attributes()) == []


def test_tracer_restores_what_it_patched():
    package = run._import_package()
    before = _attributes()
    acceptance = importlib.import_module(f"{package.__name__}.acceptance")
    criteria = list(acceptance.CRITERIA)
    with spans.Tracer(package) as tracer:
        patched = list(tracer.patches)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        assert all(w is not c and w.__wrapped__ is c for w, c in zip(acceptance.CRITERIA, criteria))
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert _changed(before, _attributes()) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "exact-stream", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
