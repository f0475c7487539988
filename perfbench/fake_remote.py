"""A scripted stand-in for a rate-limited completions endpoint, on a virtual clock.

``FakeTransport`` has the signature of transduct's HTTP transport
(``transport(url, headers, payload) -> (status, body)``, raising
``TimeoutError`` on a timeout), so ``make_backend(..., transport=)`` uses
it instead of the network. No socket is opened.

Fault script. What a request meets depends only on the benchmark seed, the
SHA-256 of its prompt and how many times that prompt has been seen, never
on request order, so a program that sends fewer requests meets the same
faults per sample. The script for one prompt is a sequence of cycles, one
per classification of that prompt. A cycle is what the documented client
policy consumes for one sample:

* up to ``max_attempts - 1`` transient failures (429, 5xx or timeout), then
  a reply: a label, or a bad reply (no integer, or an out-of-range class);
* after a bad reply, the re-ask: again up to ``max_attempts - 1`` transient
  failures, then a second reply, good or bad. Two bad replies mean the
  client falls back to cosine 1-NN.

Good replies come from a simulated model: cosine 1-NN of the prompt's test
line over its Part 1 lines, as rendered, with the first best line winning.

The virtual clock advances by a fixed service time per request (longer for
a timeout) and by every sleep the client asks for (rate-limiter waits and
retry backoff). Nothing sleeps for real.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

MAX_FAULTS = 2  # max_attempts - 1 of transduct's default RetryPolicy
SERVICE_S = {"ok": 0.4, "unparseable": 0.4, "out_of_range": 0.4, "429": 0.05, "5xx": 0.2, "timeout": 10.0}
FIVE_XX = (500, 502, 503)
UNPARSEABLE = ("", " unknown", " n/a", " the class is")


# Fault script probabilities, per draw
FAULT = 0.15  # a complete() call meets a first transient failure
SECOND_FAULT = 0.3  # ... and a second one after it
KINDS = (("429", 0.5), ("5xx", 0.35), ("timeout", 0.15))
BAD_FIRST = 0.08  # the first reply of a sample is bad
BAD_REASK = 0.5  # the re-ask's reply is bad too (-> fallback)
OUT_OF_RANGE = 0.3  # a bad reply names a class >= C (else it has no integer)


def _uniforms(*key) -> list[float]:
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return [int.from_bytes(digest[i : i + 4], "big") / 2**32 for i in range(0, 32, 4)]


def cycle(seed: int, prompt_sha: str, occurrence: int) -> list[str]:
    """Outcomes for the ``occurrence``-th classification of one prompt.

    Each outcome is ``429``, ``5xx``, ``timeout``, ``ok``, ``unparseable``
    or ``out_of_range``.
    """
    u = iter(_uniforms(seed, prompt_sha, occurrence) + _uniforms(seed, prompt_sha, occurrence, 1))
    out: list[str] = []
    for bad_p in (BAD_FIRST, BAD_REASK):
        faults = 0
        if next(u) < FAULT:
            faults = MAX_FAULTS if next(u) < SECOND_FAULT else 1
        for _ in range(faults):
            x, acc = next(u), 0.0
            for kind, p in KINDS:
                acc += p
                if x < acc:
                    break
            out.append(kind)
        if next(u) >= bad_p:
            out.append("ok")
            return out
        out.append("out_of_range" if next(u) < OUT_OF_RANGE else "unparseable")
    return out


class VirtualClock:
    def __init__(self):
        self.t = 0.0
        self.on_sleep = None  # optional callback(seconds), used by the tracer

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        if self.on_sleep is not None:
            self.on_sleep(seconds)
        self.t += seconds


@dataclass
class Tally:
    """What the transport received and answered, counted independently of
    the program."""

    requests: int = 0
    by_kind: dict = field(default_factory=dict)
    prompts_seen: dict = field(default_factory=dict)  # prompt sha -> requests
    part1: set = field(default_factory=set)  # distinct Part 1 texts


class FakeTransport:
    def __init__(self, seed: int, classes: int, clock: VirtualClock):
        self.seed = seed
        self.classes = classes
        self.clock = clock
        self.tally = Tally()
        self._script: dict[str, tuple[list[str], int]] = {}  # sha -> (outcomes, cycles)
        self._keys: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _outcome(self, sha: str, seen: int) -> str:
        script, cycles = self._script.get(sha, ([], 0))
        while len(script) <= seen:
            script = script + cycle(self.seed, sha, cycles)
            cycles += 1
        self._script[sha] = (script, cycles)
        return script[seen]

    def _model_label(self, prompt: str) -> int:
        cut = prompt.rstrip("\n").rfind("\n") + 1
        part1, test_line = prompt[:cut], prompt[cut:]
        if part1 not in self._keys:
            rows, labels = [], []
            for line in part1.splitlines():
                body, label = line[1:].split("] is in class ")
                rows.append([float(v) for v in body.split(", ")])
                labels.append(int(label))
            keys = np.asarray(rows)
            self._keys[part1] = (keys / np.linalg.norm(keys, axis=1, keepdims=True), np.asarray(labels))
            self.tally.part1.add(part1)
        keys, labels = self._keys[part1]
        q = np.asarray([float(v) for v in test_line[1 : test_line.index("]")].split(", ")])
        return int(labels[int(np.argmax(keys @ q))])

    def __call__(self, url, headers, payload):
        prompt = payload["prompt"]
        sha = hashlib.sha256(prompt.encode()).hexdigest()
        seen = self.tally.prompts_seen.get(sha, 0)
        self.tally.prompts_seen[sha] = seen + 1
        kind = self._outcome(sha, seen)
        self.tally.requests += 1
        self.tally.by_kind[kind] = self.tally.by_kind.get(kind, 0) + 1
        self.clock.t += SERVICE_S[kind]
        variant = int(sha[:8], 16) + seen  # reply wording, also keyed on (prompt, times seen)
        if kind == "timeout":
            raise TimeoutError("simulated request timeout")
        if kind == "429":
            return 429, {"error": {"message": "rate limit exceeded"}}
        if kind == "5xx":
            return FIVE_XX[variant % len(FIVE_XX)], {"error": {"message": "server error"}}
        if kind == "ok":
            text = f" {self._model_label(prompt)}"
        elif kind == "out_of_range":
            text = f" {self.classes + variant % 7}"
        else:
            text = UNPARSEABLE[variant % len(UNPARSEABLE)]
        return 200, {"choices": [{"text": text}]}
