"""Command-line front door: train, eval, grid, predict, stats.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable or malformed files, empty effective splits), 3 numeric
abort during training, 141 stdout closed by its reader (as a filter
stopped by SIGPIPE reports it, with nothing on stderr).

Importing this module loads only the standard library and the numpy-free
`config`, `data` and `errors`.  Only `stats` runs without the numeric
engine: every other command first calls `_bind_engine`, which imports
it and binds its entry points as this module's globals.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from importlib import import_module
from itertools import islice

from .config import VARIANTS, ModelConfig, variant_flags
from .data import (
    PackedBeliefs, count_beliefs, format_stats, load_dataset, parse_belief_file, read_lines,
    tokenize_mention,
)
from .errors import ConfigError, DataError, TrainingDivergedError

# The engine's entry points, by module, that `_bind_engine` binds here.
# candidate_scores is bound only for the benchmark's tracer, which
# patches it by this name.
_ENGINE = {
    "embeddings": ("atomic_write", "load_model", "save_model"),
    "evaluation": ("candidate_scores", "evaluate", "format_report", "write_ranks_tsv"),
    "kernels": ("RANK_BLOCK", "top_relations"),
    "training": ("grid_configs", "grid_search", "step_bound", "train"),
}
_engine_bound = False


def _bind_engine() -> None:
    """Import the numeric engine and bind the names in `_ENGINE` as this
    module's globals, once.  A name already bound, say a function a
    tracer or a test put here, is left as it is, so commands call it."""
    global _engine_bound
    if _engine_bound:
        return
    g = globals()
    for module, names in _ENGINE.items():
        engine = import_module(f".{module}", __package__)
        for name in names:
            g.setdefault(name, getattr(engine, name))
    _engine_bound = True
    # The objects made by the imports above live until exit; frozen, they
    # are left out of every collection, the interpreter's final ones
    # included, which would otherwise walk all of them.
    gc.freeze()


def __getattr__(name):
    # an engine name read before any command ran, e.g. by a tracer that
    # swaps it, binds the engine first
    if any(name in names for names in _ENGINE.values()):
        _bind_engine()
        if name in globals():
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
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    return ModelConfig(**{k: v for k, v in vars(args).items() if k in fields})


def _file_sha256(paths) -> str:
    import hashlib  # OpenSSL: only train, which writes a manifest, loads it

    h = hashlib.sha256()
    for p in paths:
        if p is None:
            continue
        h.update(os.path.basename(p).encode("utf-8") + b"\0")
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _write_manifest(out_path, config, variant, inputs, outputs) -> None:
    import datetime

    from .kernels import BACKEND

    manifest = {
        "config": dataclasses.asdict(config),
        "variant": variant,
        "inputs": {k: v for k, v in inputs.items() if v is not None},
        "dataset_sha256": _file_sha256(inputs.values()),
        "outputs": outputs,
        "backend": BACKEND,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with atomic_write(f"{out_path}.manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


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
    _bind_engine()
    config = _config_from_args(args)
    threads = _resolve_threads(args)
    dataset, vocab, rejected = load_dataset(args.train, args.valid, None)
    _report_rejections(rejected, sys.stderr)
    _warn_step_bound(config, len(vocab.relations))
    table, _ = train(dataset, vocab, config, args.variant, n_threads=threads, log=sys.stderr)
    save_model(table, vocab, config, args.out, args.variant)
    _write_manifest(
        args.out, config, args.variant,
        {"train": args.train, "valid": args.valid},
        {"model": args.out},
    )
    if dataset.valid:
        report = evaluate(table, dataset.valid, args.variant)
        print(format_report(report, args.variant.upper()))
    return 0


def cmd_eval(args) -> int:
    _bind_engine()
    table, vocab, _, stored_variant = load_model(args.model)
    variant = args.variant or stored_variant
    result = parse_belief_file(args.test, vocab, mode="frozen")
    _report_rejections({args.test: result.rejected}, sys.stderr)
    if not result.beliefs:
        raise DataError(f"{args.test}: no evaluable beliefs (all lines rejected)")
    report = evaluate(table, result.beliefs, variant)
    print(format_report(report, variant.upper()))
    if args.ranks_out:
        write_ranks_tsv(report, args.ranks_out)
    return 0


def cmd_grid(args) -> int:
    _bind_engine()
    base = _config_from_args(args)
    threads = _resolve_threads(args)
    configs = grid_configs(base, args.dims, args.alphas, args.betas, args.gammas)
    dataset, vocab, rejected = load_dataset(args.train, args.valid, None)
    _report_rejections(rejected, sys.stderr)
    _warn_step_bound(base, len(vocab.relations))
    points, (b, _) = grid_search(dataset, vocab, configs, args.variant, n_threads=threads)
    for c, r in points:
        print(
            f"dim={c.dim} alpha={c.alpha} beta={c.beta} gamma={c.gamma} "
            f"avg_rank={r.avg_rank:.4f} hit@10={r.hit_at_10:.4f} hit@1={r.hit_at_1:.4f}"
        )
    print(f"best: dim={b.dim} alpha={b.alpha} beta={b.beta} gamma={b.gamma}")
    if args.out:
        with atomic_write(args.out) as f:
            json.dump(dataclasses.asdict(b), f, indent=2, sort_keys=True)
            f.write("\n")
    return 0


def cmd_predict(args) -> int:
    """Top-k relations per query line, scored one block of lines at a time.

    Each block is one `top_relations` call, whose rows have the bits of a
    single-line call, and its output is one write, so ERROR lines keep
    their places and memory is bounded by the block.
    """
    _bind_engine()
    if args.topk < 1:
        raise ConfigError(f"--topk must be >= 1, got {args.topk}")
    table, vocab, _, variant = load_model(args.model)
    flags = variant_flags(variant)
    names = vocab.relations.names
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
            # top_relations reads no relations, so the block carries none
            queries = PackedBeliefs(heads, (), tails, offsets, words)
            top_ids, top_scores = top_relations(
                table.entity_vecs, table.relation_vecs, table.word_vecs, queries, *flags,
                args.topk,
            )
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


if __name__ == "__main__":
    sys.exit(main())
