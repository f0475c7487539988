"""Command-line interface.

Subcommands: ``plan`` (selection-plan JSON), ``prompt`` (render a prompt),
``infer`` (per-sample predictions JSONL with audit records), ``evaluate``
(metrics report JSON), ``oracle-check`` (attention property suites), and
``gen-toy`` (seeded toy datasets in the canonical CSV layout).

A JSON config file (``--config``) may supply defaults for any flag;
explicit flags win. The remote API key is only ever read from the
environment variable named by ``--api-key-env``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from contextlib import nullcontext
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__
from .attention import property_report
from .backends import BackendConfig, RetryPolicy, prompt_hash
from .baselines import KnnConfig
from .core import (
    IngestionSchema,
    LabeledDataset,
    load_dataset,
    load_split_files,
    save_dataset,
)
from .errors import (
    CredentialError,
    RequestBudgetError,
    TransductError,
    TransportError,
)
from .prompt import SerializationConfig, build_bundle
from .selection import build_plan, representativeness
from .toydata import generate, split_dataset
from .workflow import (
    RunConfig,
    predict,
    run_accuracy_improvement,
    run_error_detection,
)


def _add_data_args(p):
    p.add_argument("--data", help="dataset file with a val/test split column")
    p.add_argument("--val", help="file whose rows are all reference (val) samples")
    p.add_argument("--test", help="file whose rows are all test samples")
    p.add_argument("--probability", action="store_true", help="validate features as probability vectors")
    p.add_argument("--class-count", type=int, default=None)


def _load_data(args) -> LabeledDataset:
    schema = IngestionSchema(is_probability=args.probability, class_count=args.class_count)
    if args.data:
        return load_dataset(args.data, schema)
    if not args.val:
        raise TransductError("provide --data or --val (optionally with --test)")
    return load_split_files(args.val, args.test, schema)


def _add_backend_args(p):
    p.add_argument("--backend", choices=["mock", "local", "remote"], default="local")
    p.add_argument("--endpoint", help="remote completions URL")
    p.add_argument("--model", default="text-davinci-003")
    p.add_argument("--api-key-env", default="OPENAI_API_KEY")
    p.add_argument("--rpm", type=int, default=60, help="requests per minute cap")
    p.add_argument("--budget", type=int, default=500, help="per-run request budget")
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--base-backoff-ms", type=int, default=500)
    p.add_argument("--s", type=float, default=1e-6, help="attention scale for the local backend")
    p.add_argument("--mock-fixtures", help="JSON file: prompt sha256 -> completion text(s)")
    p.add_argument("--mock-default", help="mock completion for unknown prompts")


def _read_json_object(path: str, flag: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise TransductError(f"{flag} {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise TransductError(f"{flag} {path}: expected a JSON object")
    return payload


def _backend_config(args) -> BackendConfig:
    kind = {"mock": "mock", "local": "local-attention", "remote": "remote"}[args.backend]
    fixtures = None
    if args.mock_fixtures:
        fixtures = _read_json_object(args.mock_fixtures, "--mock-fixtures")
    return BackendConfig(
        kind=kind,
        endpoint_url=args.endpoint,
        api_key_env=args.api_key_env,
        model_name=args.model,
        retry=RetryPolicy(args.max_attempts, args.base_backoff_ms),
        rate_limit_rpm=args.rpm,
        request_budget=args.budget,
        attention_scale=args.s,
        mock_fixtures=fixtures,
        mock_default=args.mock_default,
    )


def _add_selection_args(p):
    p.add_argument("--ratio", type=float, default=0.25, help="selection ratio (k = floor(ratio * m))")
    interleave = p.add_mutually_exclusive_group()
    interleave.add_argument("--interleave", dest="interleave", action="store_true", default=True)
    interleave.add_argument("--no-interleave", dest="interleave", action="store_false")
    p.add_argument("--decimals", type=int, default=2)
    p.add_argument("--token-budget", type=int, default=4000)


def _run_config(args, **method) -> RunConfig:
    """The selection, serialization and backend flags as a RunConfig; the
    method and its settings come as keyword fields."""
    return RunConfig(
        selection_ratio=args.ratio,
        interleave_by_class=args.interleave,
        backend=_backend_config(args),
        serialization=SerializationConfig(decimals=args.decimals, token_budget=args.token_budget),
        **method,
    )


def _write_lines(lines, out: str | None):
    """Write each line as it comes, to ``out`` or to stdout for ``-``."""
    lines = iter(lines)
    first = next(lines, "")  # its checks run before ``out`` is opened: a run refused there leaves it as it was
    with open(out, "w") if out and out != "-" else nullcontext(sys.stdout) as fh:
        fh.write(first)
        fh.writelines(lines)


def _write_json(payload, out: str | None):
    _write_lines([json.dumps(payload, indent=2, sort_keys=True) + "\n"], out)


def _cmd_plan(args) -> int:
    ds = _load_data(args)
    plan = build_plan(ds.reference, args.ratio, args.interleave)
    _write_json(
        {
            "k": plan.k,
            "ordered_indices": list(plan.ordered_indices),
            "rep_scores": representativeness(ds.reference.feature_matrix()),
        },
        args.out,
    )
    return 0


def _cmd_prompt(args) -> int:
    ds = _load_data(args)
    ser = SerializationConfig(decimals=args.decimals, token_budget=args.token_budget)
    n = len(ds.test_X)
    if not 0 <= args.test_index < n:
        raise TransductError(
            f"--test-index {args.test_index} outside [0, {n}): the dataset has {n} test rows"
        )
    plan = build_plan(ds.reference, args.ratio, args.interleave)
    bundle = build_bundle(ds.reference, ds.test_X[args.test_index], plan, ser)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "part1.txt").write_text(bundle.part1)
        (out / "part2.txt").write_text(bundle.part2)
        sys.stdout.write(f"wrote part1.txt and part2.txt to {out} (~{bundle.token_estimate} tokens)\n")
    else:
        sys.stdout.write(bundle.prompt)
    return 0


def _jsonl_records(results):
    """One JSONL audit record per ``(label, audit)`` of :func:`predict`. Each
    carries the SHA-256 of the run's Part 1; the first also carries its text."""
    for index, (_, audit) in enumerate(results):
        record = {"index": index, **vars(audit)}  # the audit's fields: strings, numbers and a tuple of strings
        part1 = record.pop("part1")
        if index == 0:
            record["part1"] = part1
            part1_sha256 = prompt_hash(part1)
        record["part1_sha256"] = part1_sha256
        yield json.dumps(record, sort_keys=True) + "\n"


def _cmd_infer(args) -> int:
    ds = _load_data(args)
    results = predict(ds.reference, ds.test_X, _run_config(args))
    _write_lines(_jsonl_records(results), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ds = _load_data(args)
    if ds.test_y is None:
        raise TransductError("evaluate requires labeled test rows")
    cfg = _run_config(
        args, method=args.method, positive_class=args.positive_class,
        knn=KnnConfig(k_neighbors=args.k, metric=args.metric), bags=args.bags, seed=args.seed,
    )
    data = (ds.reference.feature_matrix(), ds.reference.label_array(), ds.test_X, ds.test_y)
    payload = {"use_case": args.use_case, "method": args.method}
    if args.use_case == "error_detection":
        payload["report"] = asdict(run_error_detection(*data, cfg))
    else:
        report, base = run_accuracy_improvement(*data, cfg, class_count=ds.reference.class_count)
        payload.update(report=asdict(report), base_classifier=asdict(base))
    _write_json(payload, args.report)
    return 0


def _cmd_oracle_check(args) -> int:
    report = property_report(trials=args.trials, s=args.s, seed=args.seed)
    _write_json(report, args.out)
    return 0


def _cmd_gen_toy(args) -> int:
    features, labels = generate(
        args.dataset, n=args.n, noise=args.noise, seed=args.seed,
        equalize_norms=not args.no_equalize_norms,
    )
    ds = split_dataset(features, labels, reference_fraction=args.reference_fraction)
    save_dataset(ds, args.out)
    sys.stdout.write(
        f"wrote {args.n} rows ({ds.reference.size} val / {len(ds.test_X)} test) to {args.out}\n"
    )
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is named with its help; ``command`` is the one whose
    flags are added (all of them for None, none for a name that is not a subcommand)."""
    # every formatter of the parser (add_argument makes one per flag) takes the width HelpFormatter would read
    fmt = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="transduct",
        description="Transductive label propagation from a labeled reference set.",
        formatter_class=fmt,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON file of flag defaults (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, *add_shared):
        """``name``'s parser with its shared flags added, or None where its flags are not added."""
        if command not in (None, name):
            sub.add_parser(name, help=help, add_help=False)
            return None
        p = sub.add_parser(name, help=help, formatter_class=fmt)
        for add in add_shared:
            add(p)
        return p

    if p := subcommand("plan", "emit the selection plan as JSON", _add_data_args, _add_selection_args):
        p.add_argument("--out", default="-")
        p.set_defaults(func=_cmd_plan)

    if p := subcommand("prompt", "render the two-part prompt for one test sample", _add_data_args, _add_selection_args):
        p.add_argument("--test-index", type=int, default=0)
        p.add_argument("--out-dir", help="write part1.txt/part2.txt here instead of stdout")
        p.set_defaults(func=_cmd_prompt)

    shared = (_add_data_args, _add_selection_args, _add_backend_args)
    if p := subcommand("infer", "classify every test sample, JSONL with audit records", *shared):
        p.add_argument("--out", default="-")
        p.set_defaults(func=_cmd_infer)

    if p := subcommand("evaluate", "run a use-case pipeline and report metrics", *shared):
        p.add_argument("--use-case", choices=["error_detection", "accuracy_improvement"], required=True)
        p.add_argument("--method", choices=["prompt", "knn", "ubknn"], default="prompt")
        p.add_argument("--positive-class", type=int, default=1)
        p.add_argument("--k", type=int, default=5)
        p.add_argument("--metric", choices=["cosine", "euclidean"], default="cosine")
        p.add_argument("--bags", type=int, default=11)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", default="-")
        p.set_defaults(func=_cmd_evaluate)

    if p := subcommand("oracle-check", "run the attention property suites"):
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--s", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-")
        p.set_defaults(func=_cmd_oracle_check)

    if p := subcommand("gen-toy", "generate a seeded toy dataset CSV"):
        p.add_argument("--dataset", choices=["moons", "circles"], required=True)
        p.add_argument("--n", type=int, default=200)
        p.add_argument("--noise", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--reference-fraction", type=float, default=0.5)
        p.add_argument(
            "--no-equalize-norms",
            action="store_true",
            help="skip the norm-equalizing third coordinate (accuracy_improvement needs one column per class)",
        )
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_gen_toy)
    return parser


_COMMANDS = ("plan", "prompt", "infer", "evaluate", "oracle-check", "gen-toy")


def _named_command(argv) -> str:
    """The first argument of ``argv`` that names a subcommand and is not the value of ``--config``
    (or of a prefix of it, which argparse takes too), or "" if there is none."""
    after_config = False
    for arg in argv:
        if arg in _COMMANDS and not after_config:
            return arg
        after_config = len(arg) > 2 and "--config".startswith(arg)
    return ""


def _flag_value(action: argparse.Action, value):
    """A ``--config`` value as ``action``'s flag would set it, or a ValueError
    naming what the flag takes; null keeps a flag whose default is None unset."""
    if action.nargs == 0:  # a switch
        takes, ok = "true or false", isinstance(value, bool)
    elif value is None and action.default is None:
        return value
    elif action.choices is not None:
        takes, ok = "one of " + ", ".join(map(repr, action.choices)), value in action.choices
    else:
        takes = {int: "an integer", float: "a number"}.get(action.type, "a string")
        ok = isinstance(value, str) or (action.type is not None and type(value) in (int, float))
        try:
            value = action.type(str(value)) if ok and action.type else value
        except ValueError:
            ok = False
    if not ok:
        raise ValueError(takes)
    return value


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """The ``--config`` file's values for ``sub``'s flags, each checked as the flag's own value is."""
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in _read_json_object(path, "--config").items():
        if key in actions:
            try:
                defaults[key] = _flag_value(actions[key], value)
            except ValueError as exc:
                raise TransductError(f"--config {path}: {key} must be {exc}, got {json.dumps(value)}") from None
    return defaults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    named = _named_command(argv)
    parser = build_parser(named)
    args, unknown = parser.parse_known_args(argv)
    if args.command != named:  # argparse chose a subcommand whose flags were not added: add them all
        parser = build_parser()
    if unknown or args.command != named:
        args = parser.parse_args(argv)  # and argparse's own error for an argument no parser took
    try:
        if args.config:
            (commands,) = [
                a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ]
            sub = commands[args.command]
            sub.set_defaults(**_config_defaults(args.config, sub))
            args = parser.parse_args(argv)  # reparse so explicit flags still win
        return args.func(args)
    except (CredentialError, TransportError, RequestBudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (TransductError, OSError) as exc:  # an OSError: an output path that cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
