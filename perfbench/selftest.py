"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They run every workload through ``run.py`` with ``--seconds 1`` (about 40 s
in all), so the file is named to stay out of the repository's default test
collection.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: workload-specific end-to-end metrics, reported beside the declared ones
OWNED_END_TO_END = {
    "env_steps_per_s": {"pcil_iteration", "collect_relabel"},
    "windows_per_s": {"collect_relabel"},
    "pairs_per_s": {"divergence_sandwich"},
    "al_gap_final": {"pcil_iteration"},
    "reward_spearman_final": {"pcil_iteration"},
    "dcont_over_tv_mean": {"divergence_sandwich"},
}

#: workloads whose traced run must give each per-layer timing a nonzero value;
#: the first matching prefix wins
OWNED_LAYER_TIMINGS = [
    ("contrastive.similarity_reward", {"pcil_iteration", "collect_relabel"}),
    ("envs.", {"pcil_iteration", "collect_relabel"}),
    ("replay.", {"pcil_iteration", "collect_relabel"}),
    ("contrastive.", {"pcil_iteration"}),
    ("autodiff.", {"pcil_iteration"}),
    ("checkpoint.", {"pcil_iteration"}),
    ("divergence.", {"divergence_sandwich"}),
]

QUALITY = ("al_gap_final", "reward_spearman_final", "dcont_over_tv_mean")


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, repeat: int = 0):
    """(record line, result line) of one short run; ``repeat`` tells identical runs apart."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_declared_names_are_well_formed_and_unique():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [m["name"] for group in groups for m in group]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    record, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = record["end_to_end"]
    for name, owners in OWNED_END_TO_END.items():
        assert (name in report) == (workload in owners), name
    for name in report:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted(workload):
    _, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, metric in metrics.items():
        if metric["unit"] not in ("ms", "us"):
            continue
        owners = next(o for prefix, o in OWNED_LAYER_TIMINGS if name.startswith(prefix))
        assert (metric["value"] > 0) == (workload in owners), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_quality_and_counts(workload):
    runs = [bench(workload, 0), bench(workload, 1), bench(workload, 1, repeat=1)]
    for name in QUALITY:
        values = {record["end_to_end"][name]["value"] for record, _ in runs
                  if name in record["end_to_end"]}
        assert len(values) <= 1, (name, values)
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if v["unit"] in ("count", "bytes")} for _, result in runs[1:]]
    assert counts[0] == counts[1]
