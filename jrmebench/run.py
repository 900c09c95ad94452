"""Seeded end-to-end benchmark of the jrme CLI.

    python3 jrmebench/run.py --workload train_sampled --seed 1 --seconds 38 --trace 0
    python3 jrmebench/selfcheck.py    # tiny-size check of the benchmark itself

Each run generates its workload's corpus from --seed, sets up (corpus,
`jrme stats`, and on rank_heavy a trained model) several times, then for
--seconds runs the workload's CLI commands in a closed loop: one client,
one subprocess per command, each waiting for the previous, `--threads 1`,
BLAS threads left at the library default.  Every output is checked.

Timings are means over the whole run: wall_s is the mean iteration wall
time and each rate is its items over the run's total time in the commands
it counts, i.e. the harmonic mean of the per-iteration rates (wall_s.p50
prints the median).  On a shared host (probed on a 2-vCPU VM), co-tenants
slow a core about 2x for stretches of a fraction of a second, and the
share of slowed stretches drifts over minutes.  Workloads are sized so that an iteration
takes one to two seconds; a run's mean over a few dozen of them averages
the stretches, where a median or a quantile jumps between the fast and
the slow level.

--trace 0 prints the end-to-end metrics.  --trace 1 repeats the workload
in-process through jrme.cli.main with each layer's entry points wrapped
(see spans.py) and prints the per-layer metrics instead.

Output: one "name value unit" line per metric, a `record` line with the
environment and corpus sizes, and last one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files live under
.jrmebench/ at the repository root; the run record stays there, with the
last traced iteration's spans when --trace is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".jrmebench"
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(SRC))

from corpus import CorpusSpec, write as write_corpus  # noqa: E402

SETUPS = 5
CMD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    dim: int = 100
    epochs: int = 2
    lr: float = 0.01
    neg: str = "sample:10"
    topk: int = 10
    grid: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json.  Every learning
# rate keeps lr x (negatives per example) below 1, so training stays
# bounded, and gives held-out quality that varies little between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_sampled",
            CorpusSpec(entities=1024, relations=200, clusters=32, noise_words=600,
                       train=5000, test=3000),
            lr=0.015,
        ),
        Workload(
            "rank_heavy",
            CorpusSpec(entities=4032, relations=500, clusters=48, noise_words=2000,
                       train=10000, test=4000, queries=1000),
            epochs=1,
        ),
        Workload(
            "grid_dup",
            CorpusSpec(entities=240, relations=30, clusters=8, noise_words=100,
                       train=500, valid=500),
            lr=0.005,
            neg="all",
            grid={"dims": "20,50", "alphas": "0.5,1", "betas": "0.5,1", "gammas": "1,2"},
        ),
    )
}

# End-to-end metric units.  BENCHMARK.json bounds the ones every workload
# reports; each per-command throughput prints only on the workloads that run
# that command, and throughput_per_s is the workload's own (see its "why").
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "items/s",
    "train_examples_per_s": "examples/s",
    "eval_beliefs_per_s": "beliefs/s",
    "predict_queries_per_s": "queries/s",
    "grid_points_per_s": "points/s",
    "avg_rank": "rank",
    "hit_at_10": "frac",
    "hit_at_1": "frac",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
    "ok_frac": "frac",
    "wall_s.p50": "s",
}
# rates averaged over the whole run (see the docstring)
RATES = ("throughput_per_s", "train_examples_per_s", "eval_beliefs_per_s",
         "predict_queries_per_s", "grid_points_per_s")


# --- running CLI commands --------------------------------------------------


@dataclass
class CmdResult:
    command: str
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float = 0.0


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_subprocess(argv, workdir: Path) -> CmdResult:
    """One `python -m jrme.cli` process; wall time and peak RSS from wait4."""
    out_path, err_path = workdir / "cmd.stdout", workdir / "cmd.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "jrme.cli", *argv],
            stdout=out, stderr=err, env=_cli_env(), cwd=workdir,
        )
        killer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CmdResult(
        argv[0], proc.returncode,
        out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"),
        seconds, usage.ru_maxrss / 1024.0,
    )


def run_inprocess(argv, tracer=None) -> CmdResult:
    """jrme.cli.main(argv) in this process, stdout and stderr captured."""
    import jrme.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = jrme.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = jrme.cli.main(argv)
        except Exception:  # an escaped exception is a failed command, not a crash
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    return CmdResult(argv[0], code, out.getvalue(), err.getvalue(), seconds)


# --- output checks -----------------------------------------------------------


class Ops:
    """Attempted and failed operations: CLI commands, predict queries and
    output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def command(self, res: CmdResult) -> bool:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return self.check(res.code == 0, f"{res.command} exited {res.code}: {tail[0]}")


def parse_report(text: str) -> dict:
    """The key=value block of an eval report."""
    kv = dict(re.findall(r"^(avg_rank|hit_at_10|hit_at_1|n_examples)=(\S+)$", text, re.M))
    return {k: (int(v) if k == "n_examples" else float(v)) for k, v in kv.items()}


def parse_stats(text: str) -> dict:
    return {k: int(v.replace(",", "")) for k, v in re.findall(r"#\((.+?)\)\s+([\d,]+)", text)}


def model_header_ok(path: Path, spec: CorpusSpec, dim: int) -> bool:
    """The model file's header names the corpus vocabulary and its size
    matches three float64 tables of that shape."""
    try:
        with open(path, "rb") as f:
            if f.read(6) != b"JRME1\n":
                return False
            n = int.from_bytes(f.read(8), "little")
            header = json.loads(f.read(n).decode("utf-8"))
        rows = (len(header["entities"]), len(header["relations"]), len(header["words"]))
        return (
            rows == (spec.entities, spec.relations, spec.words)
            and header["dim"] == dim
            and path.stat().st_size == 14 + n + 8 * dim * sum(rows)
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False


def check_eval(ops: Ops, res: CmdResult, n_sent: int, n_relations: int, ranks_path=None):
    """Report dict of one eval command, or None when it failed."""
    if not ops.command(res):
        return None
    report = parse_report(res.stdout)
    ok = ops.check(len(report) == 4 and report["n_examples"] == n_sent,
                   f"eval n_examples {report.get('n_examples')} != {n_sent} sent")
    if ranks_path is not None:
        try:
            lines = ranks_path.read_text(encoding="utf-8").splitlines()
            ranks = [int(line.split("\t")[1]) for line in lines[1:]]
        except (OSError, ValueError, IndexError):
            lines, ranks = [], []
        ok &= ops.check(
            ok and lines[:1] == ["index\trank"] and len(ranks) == n_sent
            and all(1 <= r <= n_relations for r in ranks)
            and sum(ranks) / len(ranks) == report["avg_rank"],
            "ranks file rows, range or mean disagree with the report",
        )
    return report if ok else None


def check_predict(ops: Ops, res: CmdResult, n_queries: int, topk: int) -> None:
    if not ops.command(res):
        return
    lines: dict[str, list[str]] = {}
    for line in res.stdout.splitlines():
        no, _, rest = line.partition("\t")
        lines.setdefault(no, []).append(rest)
    for q in range(1, n_queries + 1):
        rows = lines.get(str(q), [])
        ok = len(rows) == topk and all(
            row.split("\t")[0] == str(pos) for pos, row in enumerate(rows, 1)
        )
        ops.check(ok, f"predict query {q}: {rows[:1] or 'no output'}")


def check_grid(ops: Ops, res: CmdResult, n_points: int, best_json: Path):
    """Best point's report, or None.  Points that differ only in margins
    the variant does not read must report identically."""
    if not ops.command(res):
        return None
    pat = re.compile(
        r"^dim=(\S+) alpha=(\S+) beta=(\S+) gamma=(\S+) "
        r"avg_rank=(\S+) hit@10=(\S+) hit@1=(\S+)$", re.M)
    points = [tuple(m) for m in pat.findall(res.stdout)]
    best = re.search(r"^best: dim=(\S+) alpha=(\S+) beta=(\S+) gamma=(\S+)$", res.stdout, re.M)
    if not ops.check(len(points) == n_points and best is not None,
                     f"grid printed {len(points)} points, expected {n_points} and a best line"):
        return None
    by_effective: dict = {}
    for p in points:
        by_effective.setdefault((p[0], p[3]), set()).add(p[4:])
    ops.check(all(len(v) == 1 for v in by_effective.values()),
              "grid points with the same dim and gamma disagree")
    chosen = [p for p in points if p[:4] == best.groups()]
    ok = ops.check(
        len(chosen) == 1 and float(chosen[0][4]) == min(float(p[4]) for p in points),
        "grid best line is not a point with the lowest avg_rank",
    )
    try:
        saved = json.loads(best_json.read_text(encoding="utf-8"))
        same = (saved["dim"], saved["gamma"]) == (int(chosen[0][0]), float(chosen[0][3]))
    except (OSError, ValueError, KeyError, IndexError):
        same = False
    ok &= ops.check(ok and same, "grid --out JSON disagrees with the best line")
    if not ok:
        return None
    avg, h10, h1 = (float(v) for v in chosen[0][4:])
    return {"avg_rank": avg, "hit_at_10": h10, "hit_at_1": h1}


def grid_size(grid: dict, keys) -> int:
    """Number of grid points over the given hyperparameter lists."""
    n = 1
    for k in keys:
        n *= len(grid[k].split(","))
    return n


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- workloads ---------------------------------------------------------------


class Run:
    """One workload at one seed: its files, setup and timed iteration."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.data = workdir / "corpus"
        self.model = workdir / "model.bin"
        self.ranks = workdir / "ranks.tsv"
        self.best = workdir / "best.json"
        self.ops = Ops()

    def path(self, split: str) -> str:
        return str(self.data / f"{split}.tsv")

    def train_argv(self) -> list:
        w = self.w
        return ["train", "--train", self.path("train"), "--out", str(self.model),
                "--variant", "jrme", "--dim", str(w.dim), "--epochs", str(w.epochs),
                "--lr", str(w.lr), "--neg", w.neg, "--seed", str(self.seed), "--threads", "1"]

    def setup(self) -> tuple[float, str]:
        """Generate the corpus, check it parses to the spec's sizes, and on
        rank_heavy train the model.  Returns (seconds, corpus digest)."""
        spec = self.w.corpus
        t0 = time.perf_counter()
        paths = write_corpus(spec, self.seed, self.data)
        splits = [a for s in ("train", "valid", "test") if s in paths
                  for a in (f"--{s}", str(paths[s]))]
        res = run_subprocess(["stats", *splits], self.dir)
        if self.ops.command(res):
            stats = parse_stats(res.stdout)
            want = {"ENTITIES": spec.entities, "RELATIONS": spec.relations,
                    "TRAINING EX.": spec.train, "VALIDATING EX.": spec.valid,
                    "TESTING EX.": spec.test}
            self.ops.check(stats == want, f"stats {stats} != corpus spec {want}")
        if self.w.name == "rank_heavy":
            if self.ops.command(run_subprocess(self.train_argv(), self.dir)):
                self.ops.check(model_header_ok(self.model, spec, self.w.dim),
                               "saved model header or size is wrong")
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256("".join(sha256(p) for p in paths.values()).encode()).hexdigest()
        return seconds, digest

    def iteration(self, run) -> dict:
        """Run the workload's commands once through run(argv) -> CmdResult.

        Returns measurements plus a fingerprint of every output, which must
        not change between iterations, runners or tracing."""
        w, spec, ops = self.w, self.w.corpus, self.ops
        m: dict = {"fingerprint": {}}
        results = []

        def cmd(argv):
            res = run(argv)
            results.append(res)
            m["fingerprint"][res.command] = hashlib.sha256(res.stdout.encode()).hexdigest()
            return res

        report = None
        if w.name == "train_sampled":
            for p in (self.model, self.ranks):
                p.unlink(missing_ok=True)
            res = cmd(self.train_argv())
            if ops.command(res):
                ops.check(model_header_ok(self.model, spec, w.dim),
                          "saved model header or size is wrong")
                m["fingerprint"]["model"] = sha256(self.model)
            m["train_examples_per_s"] = spec.train * w.epochs / res.seconds
            res = cmd(["eval", "--model", str(self.model), "--test", self.path("test"),
                       "--variant", "jrme", "--threads", "1", "--ranks-out", str(self.ranks)])
            report = check_eval(ops, res, spec.test, spec.relations, self.ranks)
            m["eval_beliefs_per_s"] = spec.test / res.seconds
            m["throughput_per_s"] = m["train_examples_per_s"]
        elif w.name == "rank_heavy":
            self.ranks.unlink(missing_ok=True)
            ev = cmd(["eval", "--model", str(self.model), "--test", self.path("test"),
                      "--variant", "jrme", "--threads", "1", "--ranks-out", str(self.ranks)])
            report = check_eval(ops, ev, spec.test, spec.relations, self.ranks)
            pr = cmd(["predict", "--model", str(self.model), "--input", self.path("queries"),
                      "--topk", str(w.topk)])
            check_predict(ops, pr, spec.queries, w.topk)
            m["eval_beliefs_per_s"] = spec.test / ev.seconds
            m["predict_queries_per_s"] = spec.queries / pr.seconds
            m["throughput_per_s"] = (spec.test + spec.queries) / (ev.seconds + pr.seconds)
        else:
            self.best.unlink(missing_ok=True)
            g = w.grid
            res = cmd(["grid", "--train", self.path("train"), "--valid", self.path("valid"),
                       "--variant", "jrme", "--neg", w.neg, "--epochs", str(w.epochs),
                       "--lr", str(w.lr), "--dims", g["dims"], "--alphas", g["alphas"], "--betas", g["betas"],
                       "--gammas", g["gammas"], "--seed", str(self.seed), "--threads", "1",
                       "--out", str(self.best)])
            n_points = grid_size(g, g)
            report = check_grid(ops, res, n_points, self.best)
            m["grid_points_per_s"] = n_points / res.seconds
            m["throughput_per_s"] = m["grid_points_per_s"]
        if self.ranks.exists():
            m["fingerprint"]["ranks"] = sha256(self.ranks)
        m["wall_s"] = sum(r.seconds for r in results)
        m["peak_rss_mb"] = max(r.rss_mb for r in results)
        if report is not None:
            chance = (spec.relations + 1) / 2
            ops.check(report["avg_rank"] < chance / 2,
                      f"avg_rank {report['avg_rank']} is not far from chance {chance}")
            m.update((k, report[k]) for k in ("avg_rank", "hit_at_10", "hit_at_1"))
        return m


# --- run record ----------------------------------------------------------------


def probe_environment() -> dict:
    """Backend and library versions as the CLI processes see them."""
    code = (
        "import json, platform, numpy, jrme\n"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'backend': jrme.BACKEND, 'jrme_file': jrme.__file__,\n"
        "  'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "  'blas': {k: cfg.get(k) for k in ('name', 'version', 'openblas configuration')}}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True,
                         text=True, timeout=CMD_TIMEOUT_S, check=True)
    env = json.loads(out.stdout)
    if not Path(env.pop("jrme_file")).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"jrme was not imported from {SRC}")
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env["blas_threads"] = {v: os.environ.get(v, "unset (library default)") for v in blas_vars}
    env["nproc"] = len(os.sched_getaffinity(0))
    env["machine"] = platform.machine()
    env["git_rev"] = git_rev()
    digest = hashlib.sha256()
    for p in sorted((SRC / "jrme").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def git_rev():
    """HEAD of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_metrics(samples: list, names) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in names if all(k in s for s in samples)}


# --- main --------------------------------------------------------------------------


def timed_loop(seconds: float, step) -> None:
    """Call step() at least once, and again while a call as long as the
    last one would still end within `seconds`."""
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        step()
        t2 = time.perf_counter()
        if t2 - t0 + (t2 - t1) > seconds:
            return


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """(metrics, ops, record) for one run."""
    run = Run(w, seed, workdir)
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": probe_environment(),
              "corpus": {**w.corpus.sizes(), "dim": w.dim, "epochs": w.epochs, "lr": w.lr,
                         "negatives": w.neg, "grid": w.grid}}
    setups = [run.setup() for _ in range(1 if trace else SETUPS)]
    run.ops.check(len({d for _, d in setups}) == 1, "corpus differs between setups of one seed")
    record["corpus"]["sha256"] = setups[0][1]

    sub = lambda argv: run_subprocess(argv, workdir)  # noqa: E731
    if not trace:
        samples = []
        timed_loop(seconds, lambda: samples.append(run.iteration(sub)))
        check_repeats(run.ops, samples, samples[0]["fingerprint"])
        metrics = median_metrics(samples, E2E_UNITS)
        record["samples"] = {k: [s[k] for s in samples] for k in metrics}
        metrics["wall_s.p50"] = metrics["wall_s"]
        metrics["wall_s"] = statistics.fmean(record["samples"]["wall_s"])
        for k in RATES:
            if k in metrics:
                metrics[k] = statistics.harmonic_mean(record["samples"][k])
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
        metrics["failed_frac"] = run.ops.failed / run.ops.attempted
        metrics["ok_frac"] = 1.0 - metrics["failed_frac"]
        record["iterations"] = len(samples)
    else:
        from spans import Tracer, cli_import_s

        import jrme

        if not Path(jrme.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"jrme was not imported from {SRC}")
        reference = run.iteration(sub)
        plain, traced, layers, purposes, tracers = [], [], [], [], []

        def step():
            # alternate which of the pair runs first, so drift hits both
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer = Tracer()
                    tracers[:] = [tracer]
                    with tracer.patched():
                        traced.append(run.iteration(lambda a: run_inprocess(a, tracer)))
                    run.ops.check(tracer.nested_ok(), "a child span lies outside its parent")
                    layers.append(tracer.layer_metrics())
                    purposes.append(purpose(w, tracer, layers[-1], traced[-1]["wall_s"]))
                else:
                    plain.append(run.iteration(run_inprocess))

        timed_loop(seconds, step)
        check_repeats(run.ops, plain + traced, reference["fingerprint"])
        metrics = median_metrics(layers, layers[0])
        metrics["cli.import_s"] = cli_import_s(_cli_env())
        wall_t = statistics.median(s["wall_s"] for s in traced)
        wall_u = statistics.median(s["wall_s"] for s in plain)
        metrics["trace.overhead_frac"] = wall_t / wall_u - 1.0
        record["iterations"] = len(traced)
        record["subprocess_wall_s"] = reference["wall_s"]
        record["purpose"] = median_metrics(purposes, purposes[0])
        t0 = tracers[0].spans[0].start
        record["spans"] = [[s.name, s.parent, s.start - t0, s.end - t0]
                           for s in tracers[0].spans]
    return metrics, run.ops, record


def purpose(w: Workload, tracer, m: dict, wall_s: float) -> dict:
    """The shares and counts that show a traced iteration does what its
    workload is for; `holds` is 1 when they do."""
    if w.name == "train_sampled":
        share = (m["kernels.epoch_s"] + m["training.self_s"]) / tracer.total("cli.train")
        return {"epoch_and_sampler_share_of_train": share, "holds": int(share > 0.5)}
    if w.name == "rank_heavy":
        share = (m["kernels.rank_s"] + tracer.total("evaluation.candidate_scores")) / wall_s
        return {"ranking_share_of_wall": share, "epoch_calls": m["kernels.epoch_calls"],
                "holds": int(share > 0.5 and m["kernels.epoch_calls"] == 0)}
    share = m["training.self_s"] / m["training.train_s"]
    calls, distinct = m["training.train_calls"], m["training.distinct_configs"]
    # jrme reads only gamma among the margins, so only dims x gammas differ
    holds = (calls == grid_size(w.grid, w.grid) and share < 0.1
             and distinct == grid_size(w.grid, ("dims", "gammas")))
    return {"train_calls": calls, "distinct_configs": distinct, "train_self_share": share,
            "holds": int(holds)}


def check_repeats(ops: Ops, samples: list, reference: dict) -> None:
    """Single-threaded runs are bit-deterministic: every iteration's outputs
    equal the reference's, whichever runner produced them."""
    for i, s in enumerate(samples):
        ops.check(s["fingerprint"] == reference,
                  f"iteration {i} outputs differ from the reference run")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its files and stops its CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the CLI would let it override --seed
    os.environ.pop("JRME_SEED", None)
    if not (SRC / "jrme" / "cli.py").is_file():
        print(f"error: {SRC / 'jrme'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        metrics, ops, record = run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from spans import LAYER_UNITS as units
    else:
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    for key, value in record.get("purpose", {}).items():
        print(f"purpose {key:<32} {value:>16.6f}")
    for problem in ops.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    record.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems[:20],
                  metrics=metrics, why=[x["why"] for x in bench["workloads"] if x["name"] == w.name])
    print("record " + json.dumps({k: v for k, v in record.items() if k != "spans"},
                                 sort_keys=True))
    (WORK / f"record-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": ops.failed == 0 and all(n in metrics for n in wanted),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
