"""transduct benchmark: seeded workloads, correctness checks and metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/transduct``. For each
workload this script generates the inputs from ``--seed`` and runs the
workload for about ``--seconds``. With ``--trace 0`` two fresh worker
processes take turns, one running the program and one the frozen
reference copy in ``perfbench/refprog``, and the end-to-end times are
reported at the reference program's fixed nominal speed (see
perfbench/README.md); with ``--trace 1`` one worker runs the program
under the tracer and the per-layer metrics are reported. The program's
outputs are checked against the benchmark's own reference computations.
The metrics are printed one per line, then one JSON object as the last
line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--workload all`` every workload runs in turn and the last line maps each
name to its result.

The exit code is 0 only if every check passed. Without ``src/transduct``
next to this directory it exits with 2 before doing anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import analysis
import fake_remote
import gen
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_GRACE_S = 100  # a run may overrun --seconds by one round; beyond this its workers are killed
MIN_ROUNDS = 3  # the first round warms both processes up and is not timed
NPROC = len(os.sched_getaffinity(0))
# Every worker runs on this one CPU, with a one-thread BLAS pool: the CPUs of
# a shared host differ in speed from second to second, and a pair of passes
# compared on two different CPUs would measure that difference.
WORKER_CPU = min(os.sched_getaffinity(0))
BLAS_CAP = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _pin_to_worker_cpu():
    os.sched_setaffinity(0, {WORKER_CPU})

ATTENTION_TIE_TOL = 1e-5  # > s * ln(k) = 1e-6 * ln(1000): attention then equals 1-NN


# ---------------------------------------------------------------------------
# correctness checks: each returns (failed rows of one pass, facts to print)
# ---------------------------------------------------------------------------


def _check_labels(records, n, classes):
    """Rows whose record is missing, duplicated or has a label outside [0, C)."""
    seen = {}
    for index, label, *_ in records:
        if isinstance(index, int) and 0 <= index < n and index not in seen:
            seen[index] = label
        else:
            return set(range(n))
    return {i for i in range(n) if not (isinstance(seen.get(i), int) and 0 <= seen[i] < classes)}


def check_infer(out, val, test, w):
    n, classes = len(test.truth), val.probs.shape[1]
    records = out["records"]
    bad = _check_labels(records, n, classes)
    if len(bad) == n:
        return n, {}
    labels = np.full(n, -1)
    fallback = 0
    for index, label, fb in records:
        labels[index] = label if index not in bad else -1
        fallback += bool(fb)
        if fb is not False:
            bad.add(index)
    sel = ref.plan_indices(val.probs, val.truth, classes, w["ratio"])
    expect, ties = ref.cosine_1nn(
        ref.render(val.probs[sel], w["decimals"]), val.truth[sel],
        ref.render(test.probs, w["decimals"]), ATTENTION_TIE_TOL,
    )
    bad |= set(np.flatnonzero((labels != expect) & ~ties).tolist())
    facts = {
        "balanced_accuracy": ref.balanced_accuracy(labels, test.truth),
        "fallback_share": fallback / n,
        "tie_rows_skipped": int(ties.sum()),
        "output_bytes_per_sample": out["output_bytes"] / n,
    }
    return len(bad), facts


def check_evaluate(out, val, test, w):
    n = len(test.truth)
    report = (out.get("report") or {}).get("report") or {}
    conf = np.asarray(report.get("confusion", []))
    if conf.shape != (2, 2) or conf.sum() != n or report.get("n_test") != n:
        return n, {}
    recalls = [conf[c, c] / conf[c].sum() for c in range(2) if conf[c].sum()]
    balanced = sum(recalls) / len(recalls)
    if abs(balanced - report["balanced_accuracy"]) > 1e-12 or report.get("fallback_count") != 0:
        return n, {}
    expect, ties = ref.ubknn(val.probs, val.wrong, test.probs, w["k"], w["bags"], w["ubknn_seed"])
    diff = int(np.abs(conf - ref.confusion(expect, test.wrong, 2)).sum()) // 2
    facts = {
        "balanced_accuracy": float(report["balanced_accuracy"]),
        "tie_rows_skipped": int(ties.sum()),
        "output_bytes_per_sample": out["output_bytes"] / n,
    }
    return max(0, diff - int(ties.sum())), facts


def check_remote(out, val, test, w, seed):
    """Replays the fault script per row and compares with the program and
    with the transport's own tally."""
    n = len(test.truth)
    records = out["records"]
    if len(records) != n or len(out["part1"]) != 1:
        return n, {}
    part1 = out["part1"][0]
    errors = val.wrong
    sel = ref.plan_indices(val.probs, errors, 2, w["ratio"])
    rendered = ref.render(val.probs[sel], w["decimals"])
    expected_part1 = "".join(
        ref.render_line(row, w["decimals"])[:-1] + f" {int(errors[i])}\n"
        for i, row in zip(sel, val.probs[sel].tolist())
    )
    if part1 != expected_part1:
        return n, {"part1": "differs from the benchmark's plan and rendering"}
    unit = rendered / np.linalg.norm(rendered, axis=1, keepdims=True)
    unit_labels = errors[sel]
    fallback_label, fallback_ties = ref.cosine_1nn(val.probs[sel], errors[sel], test.probs)
    occurrences: dict[str, int] = {}
    kinds: dict[str, int] = {}
    bad, requests, fallbacks = 0, 0, 0
    labels = np.asarray([r[0] for r in records])
    for i, (label, fb, completions) in enumerate(records):
        line = ref.render_line(test.probs[i], w["decimals"])
        sha = hashlib.sha256((part1 + line).encode()).hexdigest()
        j = occurrences.get(sha, 0)
        occurrences[sha] = j + 1
        script = fake_remote.cycle(seed, sha, j)
        requests += len(script)
        for kind in script:
            kinds[kind] = kinds.get(kind, 0) + 1
        replies = [k for k in script if k in ("ok", "unparseable", "out_of_range")]
        expect_fb = "ok" not in replies
        fallbacks += expect_fb
        if expect_fb:
            ok = fallback_ties[i] or label == fallback_label[i]
        else:
            q = ref.render(test.probs[i], w["decimals"])
            ok = label == int(unit_labels[int(np.argmax(unit @ q))])
        if not (ok and fb == expect_fb and completions == len(replies)):
            bad += 1
    if requests != out["requests"] or kinds != out["by_kind"]:
        bad = n
    facts = {
        "balanced_accuracy": ref.balanced_accuracy(labels, test.wrong),
        "requests_per_sample": out["requests"] / n,
        "sim_s_per_sample": out["sim_s"] / n,
        "fallback_share": sum(bool(r[1]) for r in records) / n,
        "fallbacks_scripted": fallbacks,
        "retries_429": kinds.get("429", 0),
        "retries_5xx": kinds.get("5xx", 0),
        "timeouts": kinds.get("timeout", 0),
    }
    return bad, facts


# ---------------------------------------------------------------------------


class Worker:
    """One worker process serving ``setup`` / ``pass`` commands (worker.py)."""

    def __init__(self, job: dict, work: Path):
        self.work = work
        work.mkdir(parents=True)
        (work / "job.json").write_text(json.dumps({**job, "work": str(work)}))
        self.stderr = open(work / "stderr.txt", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
            cwd=ROOT, env={**os.environ, **BLAS_CAP}, preexec_fn=_pin_to_worker_cpu, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
        )

    def ask(self, command: str, deadline: float) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"worker gave no answer to {command!r}")
        return json.loads(line)

    def finish(self, kill: bool) -> dict:
        """Ends the process (killing it if asked to, or if it does not stop)
        and returns its result."""
        try:
            if kill:
                raise OSError("killed")
            self.proc.stdin.write("finish\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        result_file = self.work / "result.json"
        result = json.loads(result_file.read_text()) if result_file.exists() else {}
        if not result.get("error") and self.proc.returncode != 0:
            result["error"] = (self.work / "stderr.txt").read_text() or f"exit code {self.proc.returncode}"
        return result


def run_paired(job: dict, work: Path, w: dict, seconds: float):
    """Alternates the frozen reference program (perfbench/refprog) and the
    program, each in its own worker process. A round is four passes, then
    four slots of ``setups_per_pass`` set-ups, each in the order A, B, B, A;
    A is the reference in even rounds and the program in odd ones. Each
    program pass or set-up is paired with the neighbouring one of the other
    program; the two pairs of a round take a steady drift of the host's
    speed with opposite signs, and swapping A and B gives both programs the
    same mix of predecessors. Returns both results and the rounds; the
    first round is a warm-up whose outputs are checked but whose times are
    not used."""
    deadline = time.monotonic() + seconds + CHILD_GRACE_S
    workers = {}
    rounds = []
    error = "interrupted"
    try:
        workers["prog"] = Worker({**job, "src": str(ROOT / "src")}, work / "prog")
        workers["ref"] = Worker({**job, "src": str(HERE / "refprog")}, work / "ref")
        begin = time.perf_counter()
        while True:
            a, b = ("ref", "prog") if len(rounds) % 2 == 0 else ("prog", "ref")
            r = {who: {"setup_s": [], "wall_s": [], "same_outputs": []} for who in ("ref", "prog")}
            for who in (a, b, b, a):
                answer = workers[who].ask("pass", deadline)
                r[who]["wall_s"].append(answer["wall_s"])
                r[who]["same_outputs"].append(answer["same_outputs"])
            for who in (a, b, b, a):
                for _ in range(w["setups_per_pass"]):
                    r[who]["setup_s"].append(workers[who].ask("setup", deadline)["setup_s"])
            rounds.append(r)
            elapsed = time.perf_counter() - begin
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        error = None
    except (RuntimeError, OSError, ValueError) as exc:
        error = f"{exc}"
    finally:
        results = {who: wk.finish(kill=error is not None) for who, wk in workers.items()}
    for who in ("prog", "ref"):
        if who not in results:
            results[who] = {"error": error or "worker not started"}
        elif error and not results[who].get("error"):
            results[who]["error"] = error
    return results["prog"], results["ref"], rounds


def run_workload(name, params, seed, seconds, trace):
    w = params[name]
    val, test = gen.generate(seed, w["generator"])
    n = len(test.truth)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        csv = work / "data.csv"
        gen.write_csv(csv, val, test, w["test_labels_in_csv"])
        job = {"csv": str(csv), "workload": name, "params": w, "seed": seed}
        spans = []
        if trace:
            job.update(src=str(ROOT / "src"), work=str(work), seconds=seconds, trace=True, min_passes=2)
            (work / "job.json").write_text(json.dumps(job))
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                    cwd=ROOT, env={**os.environ, **BLAS_CAP}, preexec_fn=_pin_to_worker_cpu,
                    capture_output=True, text=True,
                    timeout=seconds + CHILD_GRACE_S,
                )
                child_err = proc.stderr
            except subprocess.TimeoutExpired:
                child_err = f"worker killed after {seconds + CHILD_GRACE_S} s"
            result_file = work / "result.json"
            result = json.loads(result_file.read_text()) if result_file.exists() else {}
            result.setdefault("error", None if result else child_err)
            passes = result.get("passes", [])
            if (work / "spans.json").exists():
                spans = json.loads((work / "spans.json").read_text())
                WORK.mkdir(exist_ok=True)
                shutil.copyfile(work / "spans.json", WORK / f"spans-{name}.json")
        else:
            job["trace"] = False
            result, ref_result, rounds = run_paired(job, work, w, seconds)
            passes = [
                {"wall_s": wall, "same_outputs": same}
                for r in rounds for wall, same in zip(r["prog"]["wall_s"], r["prog"]["same_outputs"])
            ]
            if not result.get("error") and (ref_result.get("error") or ref_result.get("outputs", {}).get("rc") != 0):
                result["error"] = f"reference program failed: {ref_result.get('error') or 'non-zero rc'}"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if result.get("error") or not passes:
        sys.stderr.write(f"{name}: worker failed\n{result.get('error')}\n")
        return {"correct": False, "attempted": n, "failed": n, "metrics": {}}, {}
    out = result["outputs"]
    if out.get("rc") != 0:
        failed_one, facts = n, {}
    elif name == "infer-local-m4k":
        failed_one, facts = check_infer(out, val, test, w)
    elif name == "evaluate-ubknn-m4k":
        failed_one, facts = check_evaluate(out, val, test, w)
    else:
        failed_one, facts = check_remote(out, val, test, w, seed)
    differing = sum(1 for p in passes[1:] if not p["same_outputs"])
    failed = failed_one * (len(passes) - differing) + n * differing
    attempted = n * len(passes)
    facts["failed_share"] = failed / attempted

    if trace:
        traced = analysis.Spans(spans)
        metrics = analysis.per_layer(traced, passes, {**out, "plan_peak_bytes": result.get("plan_peak_bytes")}, n)
        facts.update(analysis.report_lines(traced, passes, name))
    else:
        timed = rounds[1:]
        # each program pass or set-up is paired with the reference one next to it in time
        pass_ratio = statistics.median(
            p / q for r in timed for p, q in zip(r["prog"]["wall_s"], r["ref"]["wall_s"])
        )
        setup_ratio = statistics.median(
            p / q for r in timed for p, q in zip(r["prog"]["setup_s"], r["ref"]["setup_s"])
        )
        metrics = {
            "setup_s": {"value": w["reference_setup_s"] * setup_ratio, "unit": "s"},
            "samples_per_s": {"value": w["reference_samples_per_s"] / pass_ratio, "unit": "samples/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        facts["timed_rounds"] = len(timed)
        facts["pass_ratio_vs_reference"] = pass_ratio
        facts["setup_ratio_vs_reference"] = setup_ratio
        facts["raw_samples_per_s"] = statistics.median(n / x for r in timed for x in r["prog"]["wall_s"])
        facts["raw_reference_samples_per_s"] = statistics.median(n / x for r in timed for x in r["ref"]["wall_s"])
        facts["raw_setup_s"] = statistics.median(x for r in timed for x in r["prog"]["setup_s"])
        facts["pass_wall_s"] = " ".join(f"{x:.3f}" for r in rounds for x in r["prog"]["wall_s"])
        facts["reference_pass_wall_s"] = " ".join(f"{x:.3f}" for r in rounds for x in r["ref"]["wall_s"])
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, facts


UNITS = {
    "balanced_accuracy": "ratio", "fallback_share": "ratio", "failed_share": "ratio",
    "requests_per_sample": "requests/sample", "sim_s_per_sample": "virtual s/sample",
    "output_bytes_per_sample": "B/sample", "raw_samples_per_s": "samples/s",
    "raw_reference_samples_per_s": "samples/s", "raw_setup_s": "s",
}


def _print_result(name, res, facts):
    print(f"== {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    for key, m in res["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in facts.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {key} = {value} {UNITS.get(key, '')}".rstrip())


def main(argv=None) -> int:
    params = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*params, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "transduct" / "__init__.py").is_file():
        sys.stderr.write(f"error: no src/transduct in {ROOT}; run from a transduct checkout\n")
        return 2
    print(
        f"env: python {platform.python_version()}, numpy {np.__version__}, nproc {NPROC}, "
        f"workers on CPU {WORKER_CPU} with BLAS threads {BLAS_CAP['OPENBLAS_NUM_THREADS']}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}"
    )
    names = list(params) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res, facts = run_workload(name, params, args.seed, args.seconds, bool(args.trace))
        _print_result(name, res, facts)
        results[name] = res
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
