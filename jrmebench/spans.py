"""Spans around each jrme layer's public entry points, for the traced run.

While `Tracer.patched()` is active, each entry point is replaced by a
timing wrapper in every namespace its callers look it up in (for example
`train` in both jrme.cli and jrme.training, since grid_search calls the
module global).  Nothing under src/ changes.  Spans nest by call: a span's
parent is the innermost span open when it starts, and a layer's self time
is its span minus its direct children.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

COMMANDS = ("train", "eval", "predict", "grid")

LAYER_UNITS = {
    "data.parse_s": "s",
    "data.lines_per_s": "lines/s",
    "kernels.pack_s": "s",
    "kernels.epoch_s": "s",
    "kernels.epoch_calls": "count",
    "kernels.epoch_us_per_example": "us",
    "kernels.active_frac": "frac",
    "kernels.rank_s": "s",
    "kernels.rank_us_per_belief": "us",
    "training.train_s": "s",
    "training.train_calls": "count",
    "training.self_s": "s",
    "training.distinct_configs": "count",
    "training.grid_self_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.self_s": "s",
    "evaluation.candidate_scores_calls": "count",
    "evaluation.candidate_scores_us.p50": "us",
    "evaluation.candidate_scores_us.p99": "us",
    "embeddings.init_s": "s",
    "embeddings.save_s": "s",
    "embeddings.load_s": "s",
    "embeddings.model_mb": "MB",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    "cli.import_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _table_mb(table) -> dict:
    arrays = (table.entity_vecs, table.relation_vecs, table.word_vecs)
    return {"mb": sum(a.nbytes for a in arrays) / 2**20}


def _entry_points():
    """(span name, attrs(args, result), [(owner, attribute), ...])."""
    import jrme.cli as cli
    import jrme.data as data
    import jrme.evaluation as evaluation
    import jrme.kernels as kernels
    import jrme.training as training

    def epoch(args, result):
        order, neg_table = args[4], args[5]
        return {"examples": len(order), "negatives": neg_table.shape[1], "active": result[1]}

    def config_key(args, result):
        config, variant = args[2], args[3]
        margin = training.variant_margin(variant, config)
        return {"key": (variant, config.dim, margin, config.learning_rate, config.epochs,
                        config.neg_mode, config.seed, config.normalize_entities)}

    return [
        ("data.load_dataset", None, [(data, "load_dataset"), (cli, "load_dataset")]),
        ("data.parse", lambda a, r: {"lines": len(r.beliefs) + r.rejected},
         [(data, "parse_belief_file"), (cli, "parse_belief_file")]),
        ("kernels.pack", None, [(kernels.PackedBeliefs, "from_beliefs")]),
        ("kernels.epoch", epoch, [(training, "run_epoch")]),
        ("kernels.rank", lambda a, r: {"beliefs": len(r)}, [(evaluation, "rank_all")]),
        ("embeddings.init", lambda a, r: _table_mb(r), [(training, "init_embeddings")]),
        ("embeddings.save", None, [(cli, "save_model")]),
        ("embeddings.load", lambda a, r: _table_mb(r[0]), [(cli, "load_model")]),
        ("training.train", config_key, [(cli, "train"), (training, "train")]),
        ("training.grid_search", None, [(cli, "grid_search")]),
        ("evaluation.evaluate", None, [(cli, "evaluate"), (evaluation, "evaluate")]),
        ("evaluation.candidate_scores", None, [(cli, "candidate_scores")]),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._open[-1] if self._open else -1, time.perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs = attrs(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; restore the originals on exit."""
        saved = []
        try:
            for name, attrs, owners in _entry_points():
                originals = {id(getattr(o, a)) for o, a in owners}
                if len(originals) != 1:
                    raise RuntimeError(f"{name}: callers see different functions")
                wrapper = self._wrap(name, getattr(*owners[0]), attrs)
                for owner, attr in owners:
                    saved.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def nested_ok(self) -> bool:
        """Every child span lies inside its parent."""
        return all(
            s.parent < 0
            or (self.spans[s.parent].start <= s.start and s.end <= self.spans[s.parent].end)
            for s in self.spans
        )

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict:
        by_name = defaultdict(list)
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        self_s = defaultdict(float)
        for s, seconds in zip(self.spans, own):
            self_s[s.name] += seconds
        total = self.total

        def attr_sum(name, key):
            return sum(s.attrs[key] for s in by_name[name])

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        epochs = by_name["kernels.epoch"]
        examples = attr_sum("kernels.epoch", "examples")
        terms = sum(s.attrs["examples"] * s.attrs["negatives"] for s in epochs)
        cand_us = sorted(s.seconds * 1e6 for s in by_name["evaluation.candidate_scores"])
        pct = statistics.quantiles(cand_us, n=100) if len(cand_us) >= 2 else cand_us * 99
        m = {
            "data.parse_s": total("data.parse"),
            "data.lines_per_s": per(attr_sum("data.parse", "lines"), total("data.parse")),
            "kernels.pack_s": total("kernels.pack"),
            "kernels.epoch_s": total("kernels.epoch"),
            "kernels.epoch_calls": len(epochs),
            "kernels.epoch_us_per_example": per(total("kernels.epoch"), examples, 1e6),
            "kernels.active_frac": per(attr_sum("kernels.epoch", "active"), terms),
            "kernels.rank_s": total("kernels.rank"),
            "kernels.rank_us_per_belief": per(
                total("kernels.rank"), attr_sum("kernels.rank", "beliefs"), 1e6),
            "training.train_s": total("training.train"),
            "training.train_calls": len(by_name["training.train"]),
            "training.self_s": self_s["training.train"],
            "training.distinct_configs": len({s.attrs["key"] for s in by_name["training.train"]}),
            "training.grid_self_s": self_s["training.grid_search"],
            "evaluation.evaluate_s": total("evaluation.evaluate"),
            "evaluation.self_s": self_s["evaluation.evaluate"],
            "evaluation.candidate_scores_calls": len(cand_us),
            "evaluation.candidate_scores_us.p50": pct[49] if pct else 0.0,
            "evaluation.candidate_scores_us.p99": pct[98] if pct else 0.0,
            "embeddings.init_s": total("embeddings.init"),
            "embeddings.save_s": total("embeddings.save"),
            "embeddings.load_s": total("embeddings.load"),
            "embeddings.model_mb": max(
                (s.attrs["mb"] for n in ("embeddings.init", "embeddings.load")
                 for s in by_name[n]), default=0.0),
        }
        for c in COMMANDS:
            m[f"cli.{c}.self_s"] = self_s[f"cli.{c}"]
        return m


def cli_import_s(env: dict, repeats: int = 3) -> float:
    """Median time to `import jrme.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import jrme.cli; print(time.perf_counter() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)
