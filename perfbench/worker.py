"""Runs one workload in a fresh process and reports what it measured.

Usage: ``python3 perfbench/worker.py JOB.json`` (``run.py`` writes the job
file and starts this process; it is not meant to be run by hand).

A pass is one full entry-point call over the workload's CSV; a set-up is
``load_dataset`` plus ``build_plan`` alone. The job's ``src`` names the
directory ``transduct`` is imported from: the checkout's ``src`` for the
program, ``perfbench/refprog`` for the frozen reference copy.

Untraced jobs are served: the worker reads one command per stdin line
(``setup``, ``pass``, ``finish``) and answers each with one JSON line on
its original stdout, so that ``run.py`` can alternate two workers. The
program's own stdout and stderr go to ``worker.log`` in the job's
directory. A traced job repeats passes until the next one would end after
``seconds``, alternating untraced and traced ones, so the trace overhead is
measured inside the same process.

Outputs of each pass are read back after its timer stops; ``result.json``
holds the first pass's outputs and the peak RSS, and every later pass is
compared with the first.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import fake_remote
from tracer import Tracer


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import transduct

    where = Path(transduct.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"transduct imported from {where}, not from {src}")
    import transduct.cli  # noqa: F401  (load every module the tracer patches)

    return transduct


def _infer_pass(t, job, w, work: Path, tracer=None):
    out = work / "infer.jsonl"
    argv = [
        "infer", "--backend", "local", "--data", job["csv"], "--probability",
        "--ratio", str(w["ratio"]), "--interleave", "--decimals", str(w["decimals"]),
        "--token-budget", str(w["token_budget"]), "--out", str(out),
    ]
    start = time.perf_counter()
    rc = t.cli.main(argv)
    wall = time.perf_counter() - start
    records = []
    if rc == 0:
        with open(out) as fh:
            for line in fh:
                r = json.loads(line)
                if isinstance(r, dict) and "index" in r:
                    records.append([r["index"], r.get("label"), r.get("fallback")])
    size = out.stat().st_size if out.exists() else 0
    out.unlink(missing_ok=True)
    return wall, {"rc": rc, "records": records, "output_bytes": size}


def _evaluate_pass(t, job, w, work: Path, tracer=None):
    out = work / "report.json"
    argv = [
        "evaluate", "--use-case", "error_detection", "--method", "ubknn",
        "--k", str(w["k"]), "--bags", str(w["bags"]), "--seed", str(w["ubknn_seed"]),
        "--data", job["csv"], "--probability", "--report", str(out),
    ]
    start = time.perf_counter()
    rc = t.cli.main(argv)
    wall = time.perf_counter() - start
    report = json.loads(out.read_text()) if rc == 0 else None
    size = out.stat().st_size if out.exists() else 0
    out.unlink(missing_ok=True)
    return wall, {"rc": rc, "report": report, "output_bytes": size}


def _remote_pass(t, job, w, work: Path, tracer=None):
    from transduct.backends import BackendConfig
    from transduct.core import IngestionSchema
    from transduct.prompt import SerializationConfig

    clock = fake_remote.VirtualClock()
    transport = fake_remote.FakeTransport(job["seed"], 2, clock)
    send = transport
    if tracer is not None:
        clock.on_sleep = tracer.on_virtual_sleep
        send = tracer.wrap("bench.fake_transport", transport)  # keeps its CPU out of complete's self time
    start = time.perf_counter()
    ds = t.load_dataset(job["csv"], IngestionSchema(is_probability=True))
    ref = t.derive_error_detection_set(list(ds.reference.features), list(ds.reference.labels))
    plan = t.build_plan(ref, w["ratio"], True)
    cfg = BackendConfig(
        kind="remote",
        endpoint_url="http://fake-endpoint.invalid/v1/completions",
        request_budget=w["request_budget_per_sample"] * len(ds.test_features),
        rate_limit_rpm=w["rate_limit_rpm"],
    )
    backend = t.make_backend(
        cfg, transport=send, clock=clock.now, sleep=clock.sleep,
        env={cfg.api_key_env: "fake-key"},
    )
    ser = SerializationConfig(decimals=w["decimals"])
    records = []
    for f_test in ds.test_features:
        label, audit = t.classify(ref, f_test, plan, backend, ser)
        records.append([label, audit.fallback, len(audit.completions)])
    wall = time.perf_counter() - start
    tally = transport.tally
    return wall, {
        "rc": 0,
        "records": records,
        "requests": tally.requests,
        "by_kind": tally.by_kind,
        "part1": sorted(tally.part1),
        "sim_s": clock.t,
    }


def _setup(t, job, w, name, plan_peak=False):
    """Ingest plus plan as the workload does it: (seconds, plan's tracemalloc
    peak in bytes or None). The peak is only taken when asked for, because
    tracemalloc slows the call it watches."""
    from transduct.core import IngestionSchema

    start = time.perf_counter()
    ds = t.load_dataset(job["csv"], IngestionSchema(is_probability=True))
    if name == "evaluate-ubknn-m4k":
        return time.perf_counter() - start, None
    ref = ds.reference
    if name == "remote-faults-m2k":
        ref = t.derive_error_detection_set(list(ref.features), list(ref.labels))
    if plan_peak:
        tracemalloc.start()
    t.build_plan(ref, w["ratio"], True)
    peak = tracemalloc.get_traced_memory()[1] if plan_peak else None
    tracemalloc.stop()
    return time.perf_counter() - start, peak


PASSES = {
    "infer-local-m4k": _infer_pass,
    "evaluate-ubknn-m4k": _evaluate_pass,
    "remote-faults-m2k": _remote_pass,
}


def _serve(t, job, w, name, work: Path) -> dict:
    """Answers ``setup`` / ``pass`` commands until ``finish``."""
    reply = os.fdopen(os.dup(1), "w", buffering=1)
    log = os.open(work / "worker.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.dup2(log, 1)
    os.dup2(log, 2)
    result: dict = {"error": None}
    first = None
    while True:
        command = sys.stdin.readline().strip()
        if command == "setup":
            answer = {"setup_s": _setup(t, job, w, name)[0]}
        elif command == "pass":
            wall, out = PASSES[name](t, job, w, work)
            if first is None:
                first = result["outputs"] = out
            answer = {"wall_s": wall, "same_outputs": out == first}
        else:
            break
        reply.write(json.dumps(answer) + "\n")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _traced_run(t, job, w, name, work: Path) -> dict:
    result: dict = {"passes": [], "error": None}
    begin = time.perf_counter()
    tracer = Tracer()
    run_pass = PASSES[name]
    first = None
    while True:
        traced = len(result["passes"]) % 2 == 1
        if traced:
            tracer.limiter_wait_s = tracer.backoff_s = 0.0
            tracer.install()
        try:
            wall, out = run_pass(t, job, w, work, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        entry = {"wall_s": wall, "traced": traced}
        if traced:
            entry["limiter_wait_s"] = tracer.limiter_wait_s
            entry["backoff_s"] = tracer.backoff_s
        if first is None:
            first = result["outputs"] = out
        else:
            entry["same_outputs"] = out == first
        result["passes"].append(entry)
        elapsed = time.perf_counter() - begin
        step = elapsed / len(result["passes"])
        if len(result["passes"]) >= job["min_passes"] and elapsed + step > job["seconds"]:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["plan_peak_bytes"] = _setup(t, job, w, name, plan_peak=True)[1]
    (work / "spans.json").write_text(json.dumps(tracer.spans))
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    work = Path(job["work"])
    name, w = job["workload"], job["params"]
    try:
        t = _import_program(Path(job["src"]))
        if job["trace"]:
            result = _traced_run(t, job, w, name, work)
        else:
            result = _serve(t, job, w, name, work)
    except Exception:
        result = {"error": traceback.format_exc()}
    (work / "result.json").write_text(json.dumps(result))
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
