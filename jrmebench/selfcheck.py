"""Tiny-size self-check of the benchmark itself.

    python3 jrmebench/selfcheck.py

Checks that the corpus generator is deterministic per seed and keeps its
sizes across seeds, that every metric name matches [A-Za-z0-9_.-]+ and
every metric the benchmark promises is defined and reported, and that
each workload, shrunk to a tiny corpus, runs untraced and traced with no
failed check, repeats its quality metrics exactly under one seed, and
stays far from chance on a second seed.  Exits 1 on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys

import run
from corpus import CorpusSpec, generate
from spans import LAYER_UNITS

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

E2E_NAMED = {
    "setup_s", "wall_s", "train_examples_per_s", "eval_beliefs_per_s",
    "predict_queries_per_s", "grid_points_per_s", "avg_rank", "hit_at_10",
    "hit_at_1", "peak_rss_mb", "failed_frac",
}
E2E_BY_WORKLOAD = {
    "train_sampled": {"train_examples_per_s", "eval_beliefs_per_s"},
    "rank_heavy": {"eval_beliefs_per_s", "predict_queries_per_s"},
    "grid_dup": {"grid_points_per_s"},
}
QUALITY = ("avg_rank", "hit_at_10", "hit_at_1")

TINY = {
    "train_sampled": CorpusSpec(entities=96, relations=20, clusters=6, noise_words=40,
                                train=1500, test=200),
    "rank_heavy": CorpusSpec(entities=120, relations=40, clusters=8, noise_words=40,
                             train=1500, test=300, queries=50),
    "grid_dup": CorpusSpec(entities=48, relations=12, clusters=4, noise_words=20,
                           train=300, valid=60),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)


def check_generator() -> None:
    spec = TINY["rank_heavy"]
    a, b, c = generate(spec, 7), generate(spec, 7), generate(spec, 8)
    expect(a == b, "same seed gives different corpora")
    expect(a != c, "different seeds give the same corpus")
    for splits in (a, c):
        expect({k: len(v) for k, v in splits.items()}
               == {"train": spec.train, "test": spec.test, "queries": spec.queries},
               "split sizes differ from the spec")
        cols = [line.split("\t") for line in splits["train"]]
        expect(len({x for h, _, t, _ in cols for x in (h, t)}) == spec.entities,
               "train does not name every entity")
        expect(len({r for _, r, _, _ in cols}) == spec.relations,
               "train does not name every relation")
        expect(len({w for *_, m in cols for w in m.split()}) == spec.words,
               "train does not name every word")


def check_names() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    expect(set(bench["command"]) >= {"jrmebench/run.py"}, "BENCHMARK.json command")
    expect(E2E_NAMED <= set(run.E2E_UNITS), "a promised end-to-end metric is undefined")
    expect(set(e2e) <= set(run.E2E_UNITS), "BENCHMARK.json names an unknown end-to-end metric")
    expect(layer == list(LAYER_UNITS), "BENCHMARK.json per_layer differs from spans.LAYER_UNITS")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(METRIC_NAME.fullmatch(m["name"]) is not None, f"bad metric name {m['name']}")
        expect(UNIT.fullmatch(m["unit"]) is not None, f"bad unit {m['unit']}")
        units = LAYER_UNITS if m in bench["per_layer"] else run.E2E_UNITS
        expect(units[m["name"]] == m["unit"], f"unit of {m['name']} differs from the code")
    for name in list(run.E2E_UNITS) + list(LAYER_UNITS):
        expect(METRIC_NAME.fullmatch(name) is not None, f"bad metric name {name}")


def run_tiny(w, seed: int, trace: bool):
    workdir = run.WORK / f"selfcheck-{w.name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        metrics, ops, record = run.run_workload(w, seed, 0.0, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(ops.failed == 0, f"{w.name} seed {seed} trace {trace}: {ops.problems[:3]}")
    return metrics, record


def check_workloads() -> None:
    for name, spec in TINY.items():
        w = dataclasses.replace(run.WORKLOADS[name], corpus=spec)
        first, rec1 = run_tiny(w, 1, trace=False)
        again, _ = run_tiny(w, 1, trace=False)
        other, rec2 = run_tiny(w, 2, trace=False)
        per_command = set().union(*E2E_BY_WORKLOAD.values())
        wanted = (set(run.E2E_UNITS) - per_command) | E2E_BY_WORKLOAD[name]
        expect(wanted <= set(first), f"{name}: missing {sorted(wanted - set(first))}")
        expect(all(first[k] == again[k] for k in QUALITY), f"{name}: quality differs on a rerun")
        expect({k: v for k, v in rec1["corpus"].items() if k != "sha256"}
               == {k: v for k, v in rec2["corpus"].items() if k != "sha256"},
               f"{name}: corpus sizes differ between seeds")
        expect(other["avg_rank"] < (spec.relations + 1) / 4, f"{name}: seed 2 near chance")
        traced, _ = run_tiny(w, 1, trace=True)
        expect(set(traced) == set(LAYER_UNITS), f"{name}: traced run misses a layer metric")
        print(f"selfcheck {name}: ok (avg_rank {first['avg_rank']} / {other['avg_rank']})")


def main() -> int:
    check_generator()
    check_names()
    check_workloads()
    print("selfcheck: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
