"""Check that two checkouts of jrme give byte-identical CLI outputs.

    python3 tools/same_outputs.py PARENT CHANGE [--seed N ...]

PARENT and CHANGE are checkouts of the repository.  The three benchmark
corpora are written with `jrmebench/corpus.py` of the checkout this
script lives in, each with its workload's settings from
`jrmebench/run.py` (`WORKLOADS`).  On each corpus the script runs, as
`python -m jrme.cli` subprocesses against each checkout's `src/`:

- `stats` over every split;
- `train` for `kre`, `tme` and `jrme`, with the workload's settings;
- `eval --ranks-out` of each model on the test split (valid when there
  is none);
- `predict --topk` 1, 10, 100 and R (the relation count) of each model,
  on the corpus's query lines (the held-out lines without their relation
  when it has none) plus an empty mention, an unknown entity and a
  malformed line;
- on the corpus of a workload with a grid, `grid --out` for each variant
  with that workload's lists.

It compares the exit codes, stdout, stderr and every output file byte
for byte; a model's manifest is compared without its `created`, `inputs`
and `outputs` keys.  `--seed` may repeat (`--seed 1 --seed 2`): each seed
is one comparison, on corpora and training runs of that seed (1 when
none is given).  It prints each difference and one summary line per
seed, and exits 1 if there is any difference, else 0.  Scratch files go
to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "jrmebench"))

from corpus import write as write_corpus  # noqa: E402
from run import WORKLOADS  # noqa: E402

VARIANTS = ("kre", "tme", "jrme")
# manifest keys that hold paths or the time of the run
VOLATILE = ("created", "inputs", "outputs")
EDGE_QUERIES = "e0\te1\t\nghost\te1\tx\nnot a query line\n"


def write_corpora(seed: int, outdir: Path) -> dict:
    """Workload name -> (workload, split name -> path), with a `predict`
    split of query lines added to each corpus."""
    corpora = {}
    for w in WORKLOADS.values():
        paths = write_corpus(w.corpus, seed, outdir / w.name)
        if "queries" in paths:
            lines = paths["queries"].read_text(encoding="utf-8")
        else:
            held_out = paths.get("test", paths.get("valid"))
            lines = "".join(
                "\t".join(cols[:1] + cols[2:]) + "\n"
                for cols in (line.split("\t") for line in
                             held_out.read_text(encoding="utf-8").splitlines())
            )
        paths["predict"] = outdir / w.name / "predict.tsv"
        paths["predict"].write_text(lines + EDGE_QUERIES, encoding="utf-8")
        corpora[w.name] = (w, paths)
    return corpora


def commands(w, paths: dict, seed: int):
    """(name, argv) of each command run on workload `w`'s corpus; outputs
    are named relative to the working directory."""

    def splits(*names):
        return [a for s in names if s in paths for a in (f"--{s}", str(paths[s]))]

    held_out = str(paths.get("test", paths.get("valid")))
    training = ["--epochs", str(w.epochs), "--lr", str(w.lr), "--neg", w.neg,
                "--seed", str(seed), "--threads", "1"]
    yield "stats", ["stats", *splits("train", "valid", "test")]
    for v in VARIANTS:
        model = f"{v}.bin"
        yield f"train {v}", ["train", *splits("train", "valid"), "--out", model,
                             "--variant", v, "--dim", str(w.dim), *training]
        yield f"eval {v}", ["eval", "--model", model, "--test", held_out,
                            "--ranks-out", f"{v}.ranks.tsv"]
        for k in (1, 10, 100, w.corpus.relations):
            yield f"predict {v} --topk {k}", ["predict", "--model", model, "--input",
                                              str(paths["predict"]), "--topk", str(k)]
        if w.grid:
            lists = [a for key, value in w.grid.items() for a in (f"--{key}", value)]
            yield f"grid {v}", ["grid", *splits("train", "valid"), "--variant", v, *lists,
                                *training, "--out", f"{v}.grid.json"]


def run_all(checkout: Path, corpora: dict, seed: int, workdir: Path) -> dict:
    """(corpus, command name) -> (exit code, stdout, stderr), every command
    run in workdir/<corpus> against checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, (w, paths) in corpora.items():
        cwd = workdir / name
        cwd.mkdir(parents=True)
        for label, argv in commands(w, paths, seed):
            p = subprocess.run([sys.executable, "-m", "jrme.cli", *argv], cwd=cwd, env=env,
                               capture_output=True)
            results[name, label] = (p.returncode, p.stdout, p.stderr)
    return results


def first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}: {x[:100]!r} != {y[:100]!r}"
    return f"the line count or a line ending ({len(lines_a)} vs {len(lines_b)} lines)"


def output_files(workdir: Path) -> dict:
    """Relative path -> bytes of every file under workdir; a manifest
    without its volatile keys."""
    files = {}
    for path in sorted(workdir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            data = json.dumps({k: v for k, v in manifest.items() if k not in VOLATILE},
                              sort_keys=True).encode()
        files[str(path.relative_to(workdir))] = data
    return files


def compare(parent: Path, change: Path, seed: int) -> tuple[list, int, int]:
    """(differences, commands, output files per checkout) of one run of
    every command at `seed` against each checkout."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        corpora = write_corpora(seed, tmp / "corpus")
        ran = {label: run_all(checkout.resolve(), corpora, seed, tmp / label)
               for label, checkout in (("parent", parent), ("change", change))}
        diffs = []
        for key, (code, out, err) in ran["parent"].items():
            code2, out2, err2 = ran["change"][key]
            where = " / ".join(key)
            if code != code2:
                diffs.append(f"{where}: exit code {code} != {code2}")
            for stream, a, b in (("stdout", out, out2), ("stderr", err, err2)):
                if a != b:
                    diffs.append(f"{where}: {stream} differs at {first_difference(a, b)}")
        files = {label: output_files(tmp / label) for label in ran}
        for path in sorted(files["parent"].keys() | files["change"].keys()):
            a, b = files["parent"].get(path), files["change"].get(path)
            if a is None or b is None:
                diffs.append(f"{path}: written only by {'change' if a is None else 'parent'}")
            elif a != b:
                diffs.append(f"{path}: differs at {first_difference(a, b)}")
    return diffs, len(ran["parent"]), len(files["parent"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, action="append",
                    help="corpus and training seed; repeat for one comparison per seed "
                         "(default 1)")
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "jrme" / "cli.py").is_file():
            ap.error(f"{checkout} is not a checkout of jrme (no src/jrme/cli.py)")

    failed = False
    for seed in args.seed or [1]:
        diffs, n_commands, n_files = compare(args.parent, args.change, seed)
        for d in diffs:
            print(f"seed {seed}: {d}")
        print(f"seed {seed}: {n_commands} commands and {n_files} output files "
              f"per checkout, {len(diffs)} difference(s)", flush=True)
        failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
