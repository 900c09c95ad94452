"""Command-line front door: train, eval, grid, predict, stats.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable or malformed files, empty effective splits), 3 numeric
abort during training, 141 stdout closed by its reader (as a filter
stopped by SIGPIPE reports it, with nothing on stderr).

Importing this module loads only the standard library and the numpy-free
`config`, `data` and `errors`, none of which defines a dataclass; `json`
loads only where a command writes it.  Only `stats` runs without the
numeric engine: every other command calls `_bind_engine` with the engine
modules it runs once every check that needs none of them has passed (so
a refused command loads no numpy), which imports them and binds their
entry points as this module's globals; `eval` and `predict` never import
`training`, whose import chooses the epoch kernel.

`run()` is the process entry point (`python -m jrme.cli` and the `jrme`
script).  It turns the cyclic collector off, since nothing a command
makes can be freed before it ends, and after `main()` it flushes the
streams, keeps jrme's bytecode (`_keep_bytecode`) and ends the process
with `os._exit`, skipping the interpreter's teardown, so atexit handlers
do not run.  A program that calls `main()` itself keeps its own
collector, bytecode and exit.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import suppress
from importlib import import_module
from itertools import islice

from . import atomic_write, writes_in_place
from .config import VARIANTS, ModelConfig, grid_configs, step_bound, variant_flags
from .data import (
    PackedBeliefs, count_beliefs, format_stats, load_dataset, parse_belief_file, read_lines,
    tokenize_mention,
)
from .errors import ConfigError, DataError, TrainingDivergedError

# The engine's entry points, by module, that `_bind_engine` binds here.
# candidate_scores is bound only for the benchmark's tracer, which
# patches it by this name.
_ENGINE = {
    "embeddings": ("load_model", "save_model"),
    "evaluation": ("candidate_scores", "evaluate", "format_report", "write_ranks_tsv"),
    "kernels": ("RANK_BLOCK", "queries", "top_relations"),
    "training": ("grid_search", "train"),
}


def _bind_engine(*modules) -> None:
    """Import each named engine module and bind its names in `_ENGINE` as
    this module's globals.  A name already bound, say a function a tracer
    or a test put here, is left as it is, so commands call it."""
    g = globals()
    for module in modules:
        engine = import_module(f".{module}", __package__)
        for name in _ENGINE[module]:
            g.setdefault(name, getattr(engine, name))


def __getattr__(name):
    # an engine name read before a command bound it, e.g. by a tracer
    # that swaps it, binds the module that owns it first
    for module, names in _ENGINE.items():
        if name in names:
            _bind_engine(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULTS = ModelConfig()


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems by raising, so main can map them
    to exit code 1 instead of argparse's default 2."""

    def error(self, message):
        raise ConfigError(message)


def _resolve_threads(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    if args.threads > 1 and not args.nondeterministic_ok:
        raise ConfigError(
            "--threads > 1 gives up bit-reproducibility; pass --nondeterministic-ok to accept"
        )
    return args.threads


def _config_from_args(args) -> ModelConfig:
    """The `ModelConfig` set by the flags whose destinations are its field
    names; a field the subcommand has no flag for (grid's dim and
    margins) keeps its default."""
    return ModelConfig(**{k: v for k, v in vars(args).items() if k in ModelConfig._fields})


def _file_sha256(paths) -> str:
    import hashlib  # OpenSSL: only train, which writes a manifest, loads it

    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode("utf-8") + b"\0")
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _write_json(path, obj) -> None:
    import json

    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_manifest(path, config, variant, inputs, outputs) -> None:
    """`inputs` names each split given by its path, or by None where that
    is not a regular file (a FIFO, /dev/fd/63): such a name dies with the
    command, and the data it held cannot be hashed."""
    import datetime

    from .training import BACKEND

    _write_json(path, {
        "config": config._asdict(),
        "variant": variant,
        "inputs": inputs,
        "dataset_sha256": None if None in inputs.values() else _file_sha256(inputs.values()),
        "outputs": outputs,
        "backend": BACKEND,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _check_out(inputs, *paths) -> None:
    """Fail before any work where writing an output would fail after it,
    or would replace a file of `inputs`: an output that is a directory, or
    a regular file that is an input (one `writes_in_place`, a FIFO or a
    device, replaces nothing); None is a path not given, and an empty path
    is never writable."""
    inputs = [p for p in inputs if p is not None and os.path.exists(p)]
    for path in (p for p in paths if p is not None):
        if not path or not os.path.isdir(os.path.dirname(path) or "."):
            raise OSError(f"cannot write {path!r}: it is empty or in a missing directory")
        if os.path.isdir(path):
            raise OSError(f"cannot write {path!r}: it is a directory")
        if writes_in_place(path):
            continue
        for source in inputs:
            if os.path.exists(path) and os.path.samefile(path, source):
                raise OSError(f"cannot write {path!r}: it is the input {source!r}")


def _report_rejections(rejected: dict, log) -> None:
    for split, count in rejected.items():
        if count:
            print(f"warning: {split}: {count} line(s) rejected (unknown symbols)", file=log)


def _warn_step_bound(config, n_relations: int) -> None:
    bound = step_bound(config, n_relations)
    if bound > 1.0:
        print(
            f"warning: lr * negatives per example = {bound:g} > 1; the positive "
            f"relation's step can overshoot and training may diverge",
            file=sys.stderr,
        )


def cmd_train(args) -> int:
    config = _config_from_args(args)
    threads = _resolve_threads(args)
    inputs = {"train": args.train, "valid": args.valid}
    # beside a FIFO or a device, a manifest would be a new file no one asked for
    manifest = None if writes_in_place(args.out) else f"{args.out}.manifest.json"
    _check_out(inputs.values(), args.out, manifest)
    # and an input that is one is read once, by load_dataset: it cannot be hashed
    streamed = [p for p in inputs.values() if p is not None and writes_in_place(p)]
    if manifest is None:
        print(f"warning: {args.out} is not a regular file; no manifest is written",
              file=sys.stderr)
    elif streamed:
        print(f"warning: {streamed[0]} is not a regular file; the manifest's dataset_sha256 "
              f"is null", file=sys.stderr)
    dataset, vocab, rejected = load_dataset(args.train, args.valid)
    _report_rejections(rejected, sys.stderr)
    _warn_step_bound(config, len(vocab.relations))
    _bind_engine(*_ENGINE)
    table, _ = train(dataset, vocab, config, args.variant, n_threads=threads, log=sys.stderr)
    save_model(table, vocab, config, args.out, args.variant)
    if manifest:
        named = {k: None if p in streamed else p for k, p in inputs.items() if p is not None}
        _write_manifest(manifest, config, args.variant, named, {"model": args.out})
    if dataset.valid:
        report = evaluate(table, dataset.valid, args.variant)
        print(format_report(report, args.variant.upper()))
    return 0


def cmd_eval(args) -> int:
    _check_out((args.model, args.test), args.ranks_out)
    _bind_engine("embeddings", "evaluation")
    table, vocab, _, stored_variant = load_model(args.model)
    variant = args.variant or stored_variant
    if variant != stored_variant:
        print(f"warning: {args.model} was trained as {stored_variant}; scoring it as {variant}",
              file=sys.stderr)
    result = parse_belief_file(args.test, vocab, mode="frozen")
    _report_rejections({args.test: result.rejected}, sys.stderr)
    if not result.beliefs:
        why = "all lines rejected" if result.rejected else "the file holds no belief lines"
        raise DataError(f"{args.test}: no evaluable beliefs ({why})")
    report = evaluate(table, result.beliefs, variant)
    print(format_report(report, variant.upper()))
    if args.ranks_out:
        write_ranks_tsv(report, args.ranks_out)
    return 0


def cmd_grid(args) -> int:
    base = _config_from_args(args)
    threads = _resolve_threads(args)
    configs = grid_configs(base, args.dims, args.alphas, args.betas, args.gammas)
    _check_out((args.train, args.valid), args.out)
    dataset, vocab, rejected = load_dataset(args.train, args.valid)
    _report_rejections(rejected, sys.stderr)
    _warn_step_bound(base, len(vocab.relations))
    _bind_engine(*_ENGINE)
    points, (b, _) = grid_search(dataset, vocab, configs, args.variant, n_threads=threads)
    for c, r in points:
        print(
            f"dim={c.dim} alpha={c.alpha} beta={c.beta} gamma={c.gamma} "
            f"avg_rank={r.avg_rank:.4f} hit@10={r.hit_at_10:.4f} hit@1={r.hit_at_1:.4f}"
        )
    print(f"best: dim={b.dim} alpha={b.alpha} beta={b.beta} gamma={b.gamma}")
    if args.out:
        _write_json(args.out, b._asdict())
    return 0


def cmd_predict(args) -> int:
    """Top-k relations per query line, scored one block of lines at a time.

    Each block is one `queries` block, which checks its ids, ranked by one
    `top_relations` call, whose rows have the bits of a single-line call;
    its output is one write, so ERROR lines keep their places and memory
    is bounded by the block.
    """
    if args.topk < 1:
        raise ConfigError(f"--topk must be >= 1, got {args.topk}")
    _bind_engine("embeddings", "kernels")
    table, vocab, _, variant = load_model(args.model)
    flags = variant_flags(variant)
    names = list(vocab.relations)
    lines = read_lines(args.input)
    while block := list(islice(lines, RANK_BLOCK)):
        out = []  # output per line in order; a scorable line's slot is filled once scored
        slots, heads, tails, offsets, words = [], [], [], [0], []
        for line_no, line in block:
            cols = line.split("\t")
            if len(cols) != 3:
                out.append(f"{line_no}\tERROR\texpected 3 tab-separated columns, got {len(cols)}\n")
                continue
            head_s, tail_s, mention_s = cols
            h = vocab.entities.get(head_s)
            t = vocab.entities.get(tail_s)
            if h is None or t is None:
                missing = head_s if h is None else tail_s
                out.append(f"{line_no}\tERROR\tunknown entity {missing!r}\n")
                continue
            ids = (vocab.words.get(w) for w in tokenize_mention(mention_s))
            words.extend(w for w in ids if w is not None)
            offsets.append(len(words))
            heads.append(h)
            tails.append(t)
            slots.append((len(out), str(line_no)))
            out.append(None)
        if slots:
            # a query line carries no relation
            blocks = queries(table.entity_vecs, table.word_vecs,
                             PackedBeliefs(heads, (), tails, offsets, words), *flags)
            top_ids, top_scores = top_relations(blocks, table.relation_vecs, args.topk)
            k = top_ids.shape[1]
            # one "line, place, relation, score" row per (line, place), in output order
            rows = list(map("\t".join, zip(
                [line_no for _, line_no in slots for _ in range(k)],
                [str(pos) for pos in range(1, k + 1)] * len(slots),
                [names[rid] for rid in top_ids.ravel().tolist()],
                map(repr, top_scores.ravel().tolist()),
            )))
            for i, (slot, _) in enumerate(slots):
                out[slot] = "\n".join(rows[i * k : (i + 1) * k]) + "\n"
        sys.stdout.write("".join(out))
    return 0


def cmd_stats(args) -> int:
    counts, vocab, rejected = count_beliefs(args.train, args.valid, args.test)
    _report_rejections(rejected, sys.stderr)
    print(format_stats(vocab, counts))
    return 0


def _add_common_model_flags(p, ranks_only: bool = False) -> None:
    p.add_argument(
        "--variant", choices=VARIANTS, default=None if ranks_only else "jrme",
        help="default: the variant the model was trained as" if ranks_only else None,
    )
    note = "; accepted and ignored: ranks are exact for any thread count" if ranks_only else ""
    p.add_argument("--threads", type=int, default=1, help="training threads" + note)
    p.add_argument(
        "--nondeterministic-ok", action="store_true",
        help="acknowledge that --threads > 1 is not bit-reproducible" + note,
    )


def _add_train_flags(p) -> None:
    # each dest is a ModelConfig field name, which _config_from_args reads
    p.add_argument(
        "--lr", dest="learning_rate", metavar="LR", type=float, default=_DEFAULTS.learning_rate,
    )
    p.add_argument("--epochs", type=int, default=_DEFAULTS.epochs)
    p.add_argument(
        "--neg", dest="neg_mode", metavar="NEG", default=_DEFAULTS.neg_mode,
        help="negative mode: all | sample:K",
    )
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument(
        "--no-normalize", dest="normalize_entities", action="store_false",
        help="skip entity renormalization after each update",
    )


def _comma_list(kind):
    def parse(text):
        try:
            return [kind(v) for v in text.split(",") if v != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad list element in {text!r}") from None

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="jrme", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a belief file", parents=[])
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=_DEFAULTS.dim)
    p.add_argument("--alpha", type=float, default=_DEFAULTS.alpha)
    p.add_argument("--beta", type=float, default=_DEFAULTS.beta)
    p.add_argument("--gamma", type=float, default=_DEFAULTS.gamma)
    _add_train_flags(p)
    _add_common_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a test file")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--ranks-out", help="write per-example ranks as TSV")
    _add_common_model_flags(p, ranks_only=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="hyperparameter grid search on a validation split")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--dims", type=_comma_list(int), default=[10, 20, 50, 100, 200])
    p.add_argument("--alphas", type=_comma_list(float), default=[0.1, 1.0, 2.0, 5.0, 10.0])
    p.add_argument("--betas", type=_comma_list(float), default=[0.1, 1.0, 2.0, 5.0, 10.0])
    p.add_argument("--gammas", type=_comma_list(float), default=[0.1, 1.0, 2.0, 5.0, 10.0])
    p.add_argument("--out", help="write the best configuration as JSON")
    _add_train_flags(p)
    _add_common_model_flags(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("predict", help="rank relations for head/tail/mention lines")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--topk", type=int, default=10)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stats", help="print dataset statistics")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--test")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        print("error: stdout is closed", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone; fd 1 goes to devnull so the exit flush stays quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def _keep_bytecode() -> None:
    """Under `sys.dont_write_bytecode`, write the missing or stale
    `__pycache__` file of each jrme module (`__main__` too, under `python
    -m`): a command keeps its own bytecode even when told not to.  Stale is
    `compileall`'s test, a header other than the magic number, flags 0 and
    the source's mtime and size; a hash-based header (nonzero flags) is
    Python's to check, and a tree this user cannot write is left alone.  A
    write that fails is silent."""
    if not sys.dont_write_bytecode:
        return
    from importlib.util import MAGIC_NUMBER

    for spec in [getattr(m, "__spec__", None) for m in sys.modules.values()]:
        if spec is None or spec.name.partition(".")[0] != __package__ or spec.cached is None:
            continue  # not jrme's, or zipped
        with suppress(OSError), open(spec.cached, "rb") as f:
            head, st = f.read(16), os.stat(spec.origin)
            stamp = b"".join((n & 0xFFFFFFFF).to_bytes(4, "little")
                             for n in (int(st.st_mtime), st.st_size))
            # nonzero flags mark hash-based bytecode, which Python checks itself
            if len(head) == 16 and head[:4] == MAGIC_NUMBER and (head[4:8] != bytes(4)
                                                                 or head[8:] == stamp):
                continue
        pycache = os.path.dirname(spec.cached)
        if not os.access(pycache if os.path.isdir(pycache) else os.path.dirname(pycache), os.W_OK):
            continue  # py_compile would compile the module only to fail its write
        import py_compile

        # a timestamp header, never a hash-checked one, whatever SOURCE_DATE_EPOCH says
        with suppress(OSError, py_compile.PyCompileError):
            py_compile.compile(spec.origin, spec.cached, doraise=True,
                               invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)


def run() -> None:
    """The process entry point: `main()`, whose exit code ends the process
    once the streams are flushed and `_keep_bytecode` has run, with no
    interpreter teardown.  An exception that escapes `main()` exits as
    usual, with its traceback.  The collector stays off throughout: a
    command's objects all live until it ends, so a collection would only
    walk them."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            pass  # main() has reported a failed stdout flush as exit 2
    _keep_bytecode()
    os._exit(code)


if __name__ == "__main__":
    run()
