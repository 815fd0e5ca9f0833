"""The BENCH_*.json files at the root of the repository: one per change that
claims a speed-up, each holding parent and change figures of the
benchmark's end-to-end metrics, in its workloads block and in each
interpreters block."""

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
        # {label: {workload: {metric: figures}}}: the workloads block, then
        # each interpreter's block, whose workloads hold their metrics
        blocks = {"workloads": doc["workloads"]}
        for version, block in doc.get("interpreters", {}).items():
            assert block, (path, version)
            blocks[version] = {name: results["metrics"]
                               for name, results in block.items()}
        for label, block in blocks.items():
            for name, results in block.items():
                where = (path, label, name)
                assert name in workloads, where
                assert {(k, m["unit"]) for k, m in results.items()} == \
                    metrics, where
                for metric in results.values():
                    for side in SIDES:
                        figures = metric[side]
                        assert all(isinstance(figures[k], (int, float))
                                   for k in SUMMARY), where + (side,)
                        assert figures["q1"] <= figures["median"] <= \
                            figures["q3"], where + (side,)
