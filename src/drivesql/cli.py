"""Command-line driver for the dataset pipeline.

Subcommands cover the whole flow: synthesize annotations, build the scene
database, generate instruction-response pairs, verify them, split, compute
statistics, and score predictions. Every run leaves a manifest documenting
its inputs, configuration, and outputs.

Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import math
import sys
import time
import urllib.parse
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from .canonical import (
    canonical_dumps,
    collector_paused,
    read_json,
    read_text,
    write_atomic,
    write_json,
)
from .errors import DriveSqlError, RecordNotFound
from .scene_db import (
    DEFAULT_IMPORTANT_RADIUS,
    build_database,
    load_database,
    naming_file,
    save_database,
)
from .task_sql import RiskThresholds, Subtask

if TYPE_CHECKING:
    from .generation import GenerationConfig

__all__ = ["main", "run"]

TOOL_VERSION = "0.1.0"


# Names from modules that only some subcommands run, imported on first read
# and then bound here, so that each subcommand loads only what it runs:
# build-db loads none of generation, evaluation, stats and synth, and
# generate none of the last three. The handlers read them through ``_lazy``,
# this module, so that a caller who replaces one here (a tracer, say)
# replaces it for them too.
_LAZY = {
    name: module
    for module, names in (
        ("generation", (
            "GenerationConfig",
            "generate_dataset",
            "read_pairs_jsonl",
            "verify_pairs",
            "write_pairs_jsonl",
        )),
        ("evaluation", ("evaluate", "read_predictions_jsonl", "split_dataset")),
        ("stats", ("compute_stats", "view_percent_csv")),
        ("synth", ("read_synth_request",)),
    )
    for name in names
}


def __getattr__(name: str) -> Any:
    """A name of ``_LAZY``, imported and bound here on its first read."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


_lazy = sys.modules[__name__]


class CliUsageError(ValueError):
    """Bad arguments or malformed input content; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliUsageError(message)


# ----------------------------------------------------------------- manifest


class _Stage:
    """One subcommand's run, written as its manifest once the handler returns.

    The handler sets ``config``, ``inputs`` and ``outputs``, the first of
    which places the manifest, and wraps each phase in ``phase``.
    """

    def __init__(self, command: str) -> None:
        self.command = command
        self.config: dict[str, Any] = {}
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.timings: dict[str, float] = {}
        self.reviewer: dict[str, int] | None = None
        self._started = time.monotonic()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record the seconds the block takes as phase ``name``."""
        start = time.monotonic()
        yield
        self.timings[name] = round(time.monotonic() - start, 3)

    @contextmanager
    def load(self) -> Iterator[None]:
        """Phase ``load``, run with the collector paused. What it reads lives
        through the stage, so a load that succeeds freezes it out of the
        collector's sight (``gc.freeze``) before the collector resumes;
        frozen any later, it would first be walked by the collections the
        freeze is meant to spare. ``run`` unfreezes it."""
        with self.phase("load"), collector_paused():
            yield
            gc.freeze()

    def write_manifest(self) -> None:
        config = canonical_dumps(self.config).encode("utf-8")
        manifest: dict[str, Any] = {
            "command": self.command,
            "config_digest": hashlib.sha256(config).hexdigest(),
            "input_digests": {
                str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in self.inputs
            },
            "output_paths": [str(p) for p in self.outputs],
            "timings": self.timings,
            "tool_version": TOOL_VERSION,
            "wall_time_s": round(time.monotonic() - self._started, 3),
        }
        if self.reviewer is not None:
            manifest["reviewer"] = self.reviewer
        primary = self.outputs[0]
        target = primary / "manifest.json" if primary.is_dir() else Path(f"{primary}.manifest.json")
        write_json(target, manifest)


# ------------------------------------------------------------ option parsing


def _parse_thresholds_file(path: Path) -> RiskThresholds:
    """Read ``key=value`` lines; keys are dis, dis_x, dis_y, s."""
    values: dict[str, float] = {}
    set_on: dict[str, int] = {}
    known = {"dis", "dis_x", "dis_y", "s"}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise CliUsageError(
                f"{path}:{lineno}: unknown threshold {key!r}, expected one of "
                + ", ".join(sorted(known))
            )
        if key in set_on:
            raise CliUsageError(
                f"{path}:{lineno}: threshold {key} is already set on line {set_on[key]}"
            )
        set_on[key] = lineno
        try:
            number = float(value.strip())
        except ValueError:
            raise CliUsageError(f"{path}:{lineno}: {value.strip()!r} is not a number") from None
        if not (math.isfinite(number) and number > 0):
            raise CliUsageError(
                f"{path}:{lineno}: threshold {key} must be a positive finite number, got {number!r}"
            )
        values[key] = number
    return RiskThresholds(**values)


def _positive_float(text: str) -> float:
    """A float option's value; zero, negatives, NaN and the infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _non_empty(text: str) -> str:
    """An option's value; the empty string is refused rather than read as absent."""
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty value")
    return text


def _reviewer_url(text: str) -> str:
    """A reviewer endpoint: an http or https URL with a host, and a port, if
    it names one, that is a number from 0 to 65535."""
    url = urllib.parse.urlsplit(text)
    try:
        url.port
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a port from 0 to 65535, got {text!r}") from None
    if url.scheme in ("http", "https") and url.hostname:
        return text
    raise argparse.ArgumentTypeError(f"expected an http or https URL with a host, got {text!r}")


def _parse_subtasks(text: str) -> frozenset[Subtask]:
    """Comma-separated subtask names, at least one."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one subtask name")
    known = {subtask.value: subtask for subtask in Subtask}
    for name in names:
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown subtask {name!r}; choose from {', '.join(known)}"
            )
    return frozenset(known[name] for name in names)


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliUsageError(f"--ratios needs three comma-separated numbers, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise CliUsageError(f"--ratios contains a non-number: {text!r}") from None
    if not math.isfinite(a + b + c):
        raise CliUsageError(f"--ratios needs finite numbers with a finite sum, got {text!r}")
    if min(a, b, c) < 0 or a + b + c == 0:
        raise CliUsageError(
            f"--ratios needs non-negative numbers with a positive sum, got {text!r}"
        )
    return (a, b, c)


# --------------------------------------------------------------- subcommands


def _cmd_build_db(args: argparse.Namespace, stage: _Stage) -> int:
    src = Path(args.annotations)
    with stage.load(), naming_file(src):
        db = build_database(read_json(src), important_radius=args.radius)
    out = Path(args.output)
    with stage.phase("write"):
        save_database(db, out)
    stage.config = {"radius": args.radius}
    stage.inputs, stage.outputs = [src], [out]
    print(
        f"built database: {len(db.scenes)} scenes, {len(db.frames)} frames, "
        f"{len(db.instances)} instance rows -> {out}"
    )
    return 0


def _generation_config(args: argparse.Namespace) -> GenerationConfig:
    """``generate``'s configuration, read and checked before any database is."""
    for flag, count in (
        ("--windows", args.windows), ("--max-instances", args.max_instances), ("--jobs", args.jobs)
    ):
        if count < 1:
            raise CliUsageError(f"{flag} must be at least 1, got {count}")
    thresholds = RiskThresholds()
    if args.thresholds is not None:
        thresholds = _parse_thresholds_file(Path(args.thresholds))
    return _lazy.GenerationConfig(
        master_seed=args.seed,
        windows_per_scene=args.windows,
        max_instances_per_subtask=args.max_instances,
        thresholds=thresholds,
        enabled_subtasks=args.subtasks,
    )


def _cmd_generate(args: argparse.Namespace, stage: _Stage) -> int:
    src = Path(args.database)
    config = _generation_config(args)
    with stage.load():
        db = load_database(src)
    with stage.phase("generate"):
        texts, diag = _lazy.generate_dataset(db, config, jobs=args.jobs)
    out = Path(args.output)
    with stage.phase("write"):
        write_atomic(out, texts)
    stage.config = {
        "seed": args.seed,
        "windows": args.windows,
        "max_instances": args.max_instances,
        "subtasks": sorted(subtask.value for subtask in args.subtasks),
        "thresholds": config.thresholds.as_dict(),
        "jobs": args.jobs,
    }
    stage.inputs = [src] + ([Path(args.thresholds)] if args.thresholds is not None else [])
    stage.outputs = [out]
    # A pairs line ends at its only newline: canonical JSON escapes the rest.
    pairs = sum(text.count("\n") for text in texts)
    print(
        f"generated {pairs} pairs from {diag.eligible_scenes} scenes "
        f"({diag.windows_unique} windows) -> {out}"
    )
    if diag.pair_failures:
        print(
            f"warning: {diag.pair_failures} of {diag.windows_unique} windows failed; "
            f"first: {diag.failure_messages[0]}",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args: argparse.Namespace, stage: _Stage) -> int:
    src = Path(args.pairs)
    with stage.load():
        pairs = _lazy.read_pairs_jsonl(src)
        db = load_database(Path(args.db)) if args.db is not None else None
    with stage.phase("verify"):
        result = _lazy.verify_pairs(pairs, args.verifier, db)
    out = Path(args.output)
    report = {
        "kept": len(result.kept),
        "rejected": [{"pair_id": pid, "reason": reason} for pid, reason in result.rejected],
        "unverified": sorted(result.unverified),
        "revised": sorted(result.revised),
    }
    report_path = Path(f"{out}.report.json")
    with stage.phase("write"):
        _lazy.write_pairs_jsonl(result.kept, out)
        write_json(report_path, report)
    stage.config = {"verifier": args.verifier or "offline", "db": args.db or ""}
    stage.inputs = [src] + ([Path(args.db)] if args.db is not None else [])
    stage.outputs = [out, report_path]
    if args.verifier is not None:
        stage.reviewer = {
            "requests": result.requests,
            "retries": result.retries,
            "unverified": len(result.unverified),
        }
    print(
        f"kept {len(result.kept)}/{len(pairs)} pairs "
        f"({len(result.rejected)} rejected, {len(result.unverified)} unverified, "
        f"{len(result.revised)} revised) -> {out}"
    )
    return 0


def _cmd_split(args: argparse.Namespace, stage: _Stage) -> int:
    ratios = _parse_ratios(args.ratios)
    src = Path(args.pairs)
    with stage.load():
        pairs = _lazy.read_pairs_jsonl(src)
    if not pairs:
        raise CliUsageError(f"{src}: no pairs to split")
    with stage.phase("split"):
        scene_ids = {pair.scene_id for pair in pairs}
        split = _lazy.split_dataset(scene_ids, ratios=ratios, seed=args.seed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage.config = {"ratios": list(ratios), "seed": args.seed}
    stage.inputs, stage.outputs = [src], [out_dir]
    with stage.phase("write"):
        for name, ids in (("train", split.train), ("val", split.val), ("test", split.test)):
            bucket = set(ids)
            target = out_dir / f"{name}.jsonl"
            _lazy.write_pairs_jsonl([p for p in pairs if p.scene_id in bucket], target)
            stage.outputs.append(target)
    print(
        f"split {len(scene_ids)} scenes into "
        f"{len(split.train)}/{len(split.val)}/{len(split.test)} -> {out_dir}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace, stage: _Stage) -> int:
    pairs_path = Path(args.pairs)
    db_path = Path(args.database)
    with stage.load():
        pairs = _lazy.read_pairs_jsonl(pairs_path)
        db = load_database(db_path)
    with stage.phase("stats"):
        try:
            stats = _lazy.compute_stats(pairs, db)
        except RecordNotFound as err:
            # The first pair that names the missing frame is the one refused.
            pair = next(p for p in pairs if err.record_id in p.frame_ids)
            raise CliUsageError(f"{pairs_path}: pair {pair.pair_id}: {err}") from None
    out = Path(args.output)
    csv_path = Path(f"{out}.views.csv")
    with stage.phase("write"):
        write_json(out, stats.as_dict())
        write_atomic(csv_path, _lazy.view_percent_csv(stats))
    stage.inputs, stage.outputs = [pairs_path, db_path], [out, csv_path]
    print(
        f"{stats.pairs_total} pairs, {stats.keyframes} keyframes, "
        f"{stats.avg_instances_per_keyframe:.2f} instances/keyframe -> {out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace, stage: _Stage) -> int:
    pairs_path = Path(args.pairs)
    preds_path = Path(args.predictions)
    with stage.load():
        pairs = _lazy.read_pairs_jsonl(pairs_path)
        preds = _lazy.read_predictions_jsonl(preds_path)
    with stage.phase("eval"):
        report = _lazy.evaluate(pairs, preds)
    out = Path(args.output)
    with stage.phase("write"):
        write_json(out, report.as_dict())
    stage.inputs, stage.outputs = [pairs_path, preds_path], [out]
    undefined = [name for name, value in report.groups.items() if value is None]
    for name, value in report.groups.items():
        shown = "undefined" if value is None else f"{value:.4f}"
        print(f"{name}: {shown}")
    print(f"extraction_failure_rate: {report.extraction_failure_rate:.4f}")
    if undefined:
        print(f"error: undefined metric groups: {', '.join(undefined)}", file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args: argparse.Namespace, stage: _Stage) -> int:
    src = Path(args.scripts)
    with stage.phase("synth"):
        annotations = _lazy.read_synth_request(read_json(src), src)
    out = Path(args.output)
    with stage.phase("write"):
        write_json(out, annotations)
    stage.inputs, stage.outputs = [src], [out]
    print(
        f"synthesized {len(annotations['scenes'])} scenes, "
        f"{len(annotations['frames'])} frames -> {out}"
    )
    return 0


# -------------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="drivesql", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-db", help="validate annotations and build the scene database")
    p.add_argument("annotations")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--radius",
        type=_positive_float,
        default=DEFAULT_IMPORTANT_RADIUS,
        help="importance radius in meters",
    )
    p.set_defaults(handler=_cmd_build_db)

    p = sub.add_parser("generate", help="generate instruction-response pairs")
    p.add_argument("database")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--windows", type=int, default=1)
    p.add_argument("--max-instances", type=int, default=3)
    p.add_argument("--thresholds", type=_non_empty)
    p.add_argument("--subtasks", type=_parse_subtasks, default=frozenset(Subtask))
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes for generation (default 1)"
    )
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("verify", help="filter pairs through the format rules")
    p.add_argument("pairs")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--db", type=_non_empty)
    p.add_argument("--verifier", type=_reviewer_url)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("split", help="split pairs by scene into train/val/test")
    p.add_argument("pairs")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--ratios", default="7.5,1.5,1.5")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("pairs")
    p.add_argument("database")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("eval", help="score predictions against pairs")
    p.add_argument("pairs")
    p.add_argument("predictions")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("synth", help="synthesize annotation corpora from scripts")
    p.add_argument("scripts")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_synth)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        stage = _Stage(args.command)
        code = args.handler(args, stage)
        stage.write_manifest()
        return code
    except (DriveSqlError, CliUsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    finally:
        # An in-process caller gets back the heap the load phase froze.
        gc.unfreeze()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
