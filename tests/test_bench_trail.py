"""The BENCH_*.json files at the root of the repository: one per change that
claims a speed-up, each holding parent and change figures of the
benchmark's end-to-end metrics."""

import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SUMMARY = ("q1", "median", "q3")


def test_bench_files_name_the_benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["workloads"], path
        for name, results in doc["workloads"].items():
            assert name in workloads, (path, name)
            assert {(k, m["unit"]) for k, m in results.items()} == metrics, \
                (path, name)
            for metric in results.values():
                for side in SIDES:
                    figures = metric[side]
                    assert all(isinstance(figures[k], (int, float))
                               for k in SUMMARY), (path, name, side)
                    assert figures["q1"] <= figures["median"] <= \
                        figures["q3"], (path, name, side)
