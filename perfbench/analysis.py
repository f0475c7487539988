"""Per-layer metrics derived from the spans of a traced run.

A span is ``[name, start, end, parent, exception, count]`` (see tracer.py).
A sample is an outermost ``backends.classify``, ``baselines.ubknn_classify``
or ``baselines.knn_classify`` span; per-sample counts divide by the number
of samples traced. Self time is a span's duration minus its children's.
Times are per call: the median, the highest of p99.9 / p99 / p95 / p90 / p50
with at least ten calls beyond it (the maximum when there are fewer than
20 calls), the median self time and the call count.
"""

from __future__ import annotations

import statistics

import numpy as np

# (metric prefix = span name, unit); the unit also sets the scale
TIMED = [
    ("cli.main", "s"),
    ("core.load_dataset", "s"),
    ("selection.build_plan", "s"),
    ("prompt.build_bundle", "ms"),
    ("prompt.parse_prompt", "ms"),
    ("backends.classify", "ms"),
    ("backends.complete", "ms"),
    ("attention.nn_attention_classify", "ms"),
    ("baselines.ubknn_classify", "ms"),
    ("baselines.knn_classify", "ms"),
    ("workflow.run_error_detection", "s"),
    ("workflow.compute_metrics", "s"),
]
COUNTS = [
    ("core.refset_builds_per_sample", "1/sample"),
    ("core.feature_matrix_rows_per_sample", "rows/sample"),
    ("selection.build_plan_peak_mb", "MB"),
    ("prompt.build_part1_calls", "calls/pass"),
    ("prompt.parsed_lines_per_sample", "lines/sample"),
    ("prompt.parse_completion_fail_share", "ratio"),
    ("backends.complete_calls_per_sample", "calls/sample"),
    ("backends.requests_per_sample", "requests/sample"),
    ("backends.sim_s_per_sample", "s/sample"),
    ("backends.retries_429", "count"),
    ("backends.retries_5xx", "count"),
    ("backends.timeouts", "count"),
    ("backends.limiter_wait_s", "s"),
    ("backends.backoff_s", "s"),
    ("backends.fallback_share", "ratio"),
    ("backends.fallbacks_unparseable", "count"),
    ("backends.fallbacks_out_of_range", "count"),
    ("baselines.knn_calls_per_sample", "calls/sample"),
    ("cli.output_bytes_per_sample", "B/sample"),
    ("trace.overhead_ratio", "ratio"),
]
SAMPLE_ROOTS = {"backends.classify", "baselines.ubknn_classify", "baselines.knn_classify"}
SCALE = {"s": 1.0, "ms": 1e3}
ROADMAP_M4000 = {"prompt.build_bundle": 9.3, "prompt.parse_prompt": 8.2, "backends.classify": 23.7}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for prefix, unit in TIMED:
        out += [(f"{prefix}_{unit}", unit), (f"{prefix}_tail_{unit}", unit),
                (f"{prefix}_self_{unit}", unit), (f"{prefix}_calls", "count")]
    return out + COUNTS


def tail(values: list[float]) -> tuple[str, float]:
    for p in (99.9, 99, 95, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p:g}", float(np.percentile(values, p))
    return "max", max(values)


class Spans:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        self.children: list[list[int]] = [[] for _ in spans]
        self.in_sample = [False] * len(spans)
        self.samples: list[int] = []
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            inside = parent >= 0 and self.in_sample[parent]
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]
                self.children[parent].append(i)
            if name in SAMPLE_ROOTS and not inside:
                self.samples.append(i)
            self.in_sample[i] = inside or name in SAMPLE_ROOTS

    def named(self, name: str, in_sample: bool = False) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and (not in_sample or self.in_sample[i])]

    def fallbacks(self) -> dict[str, int]:
        """Samples whose every completion failed to parse, by the last cause."""
        causes = {"unparseable": 0, "out_of_range": 0}
        for i in self.samples:
            parses = [c for c in self.children[i] if self.spans[c][0] == "prompt.parse_completion"]
            if parses and all(self.spans[c][4] for c in parses):
                last = self.spans[parses[-1]][4]
                causes["out_of_range" if last == "LabelOutOfRangeError" else "unparseable"] += 1
        return causes


def per_layer(s: Spans, passes: list[dict], out: dict, n: int) -> dict:
    traced = [p for p in passes if p["traced"]]
    samples = max(1, len(s.samples))
    metrics: dict[str, float] = {}
    for prefix, unit in TIMED:
        idx = s.named(prefix)
        scale = SCALE[unit]
        durs = [s.dur[i] * scale for i in idx]
        selfs = [s.self_time[i] * scale for i in idx]
        metrics[f"{prefix}_{unit}"] = statistics.median(durs) if durs else 0.0
        metrics[f"{prefix}_tail_{unit}"] = tail(durs)[1] if durs else 0.0
        metrics[f"{prefix}_self_{unit}"] = statistics.median(selfs) if selfs else 0.0
        metrics[f"{prefix}_calls"] = len(idx)
    counted = lambda name: sum(s.spans[i][5] or 0 for i in s.named(name, in_sample=True))  # noqa: E731
    parses = s.named("prompt.parse_completion")
    by_kind = out.get("by_kind", {})
    fallbacks = s.fallbacks()
    metrics.update({
        "core.refset_builds_per_sample": (len(s.named("core.ReferenceSet.build", True))
                                          + len(s.named("core.ReferenceSet.subset", True))) / samples,
        "core.feature_matrix_rows_per_sample": counted("core.ReferenceSet.feature_matrix") / samples,
        "selection.build_plan_peak_mb": (out.get("plan_peak_bytes") or 0) / 2**20,
        "prompt.build_part1_calls": len(s.named("prompt.build_part1")) / len(traced),
        "prompt.parsed_lines_per_sample": counted("prompt.parse_prompt") / samples,
        "prompt.parse_completion_fail_share": (sum(1 for i in parses if s.spans[i][4]) / len(parses)
                                               if parses else 0.0),
        "backends.complete_calls_per_sample": len(s.named("backends.complete")) / samples,
        "backends.requests_per_sample": out.get("requests", 0) / n,
        "backends.sim_s_per_sample": out.get("sim_s", 0.0) / n,
        "backends.retries_429": by_kind.get("429", 0),
        "backends.retries_5xx": by_kind.get("5xx", 0),
        "backends.timeouts": by_kind.get("timeout", 0),
        "backends.limiter_wait_s": statistics.median(p.get("limiter_wait_s", 0.0) for p in traced),
        "backends.backoff_s": statistics.median(p.get("backoff_s", 0.0) for p in traced),
        "backends.fallback_share": sum(fallbacks.values()) / samples,
        "backends.fallbacks_unparseable": fallbacks["unparseable"] / len(traced),
        "backends.fallbacks_out_of_range": fallbacks["out_of_range"] / len(traced),
        "baselines.knn_calls_per_sample": len(s.named("baselines.knn_classify")) / samples,
        "cli.output_bytes_per_sample": out.get("output_bytes", 0) / n,
        "trace.overhead_ratio": (statistics.median(p["wall_s"] for p in traced)
                                 / statistics.median(p["wall_s"] for p in passes if not p["traced"])),
    })
    return {name: {"value": metrics[name], "unit": unit} for name, unit in metric_names()}


def report_lines(s: Spans, passes: list[dict], workload: str) -> dict:
    """Human-readable facts: tail percentiles used, where the traced time
    went (self time by layer), and the ROADMAP comparison on infer-local-m4k."""
    traced_wall = sum(p["wall_s"] for p in passes if p["traced"])
    facts = {"samples_traced": len(s.samples)}
    for prefix, unit in TIMED:
        durs = [s.dur[i] * SCALE[unit] for i in s.named(prefix)]
        if durs:
            label, value = tail(durs)
            facts[f"{prefix} tail"] = f"{label} = {value:.6g} {unit} over {len(durs)} calls"
    totals: dict[str, float] = {}
    for i, span in enumerate(s.spans):
        totals[span[0]] = totals.get(span[0], 0.0) + s.self_time[i]
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:8]:
        facts[f"self share {name}"] = f"{total / traced_wall:.1%}"
    if workload == "infer-local-m4k":
        per = {k: statistics.median(s.dur[i] * 1e3 for i in s.named(k)) for k in ROADMAP_M4000 if s.named(k)}
        plans = [s.dur[i] for i in s.named("selection.build_plan")]
        if len(per) == len(ROADMAP_M4000) and plans:
            facts["vs ROADMAP m=4000 row"] = (
                "build_bundle / parse_prompt / classify per sample, plan: "
                f"{per['prompt.build_bundle']:.1f} / {per['prompt.parse_prompt']:.1f} / "
                f"{per['backends.classify']:.1f} ms, {statistics.median(plans):.2f} s "
                "(ROADMAP: 9.3 / 8.2 / 23.7 ms, ~0.45 s)"
            )
    return facts
