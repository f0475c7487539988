"""Completion backends: remote OpenAI-compatible endpoint, local attention
model, and a scripted mock.

All three expose ``complete(CompletionRequest) -> CompletionResponse`` so
the classification path is backend-agnostic. The remote backend adds
retry with exponential backoff (429/5xx/timeouts), a rolling-minute rate
limiter, and a per-run request budget; clock and sleep are injectable so
those behaviors are testable without waiting.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Literal, Mapping, Optional

import numpy as np

from .attention import nn_attention_classify
from .baselines import nearest_label
from .core import ReferenceSet, _read_only, checked_int, checked_real
from .errors import (
    CompletionParseError,
    ContractError,
    CredentialError,
    RequestBudgetError,
    TransportError,
)
from .prompt import (
    SerializationConfig,
    build_bundle,
    parse_completion,
    parse_prompt,
    parse_test_line,
)
from .selection import SelectionPlan

BackendKind = Literal["remote", "local-attention", "mock"]


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_tokens: int = 4

    def __post_init__(self):
        if not self.prompt:
            raise ContractError("prompt must be non-empty")
        checked_int(self.max_tokens, 1, "max_tokens")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    latency_ms: int
    raw: Any = None


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_ms: int = 500


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind = "mock"
    endpoint_url: Optional[str] = None
    api_key_env: str = "OPENAI_API_KEY"
    model_name: str = "text-davinci-003"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    rate_limit_rpm: int = 60
    request_budget: int = 500
    attention_scale: float = 1e-6  # softmax scale s of the local-attention backend
    mock_fixtures: Optional[Mapping[str, Any]] = None  # prompt hash -> text or list of texts
    mock_default: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("remote", "local-attention", "mock"):
            raise ContractError(f"unknown backend kind {self.kind!r}")
        if self.kind == "remote":  # only the remote backend reads these
            if not self.endpoint_url or not self.api_key_env:
                raise ContractError("remote backend requires endpoint_url and api_key_env")
            if not str(self.endpoint_url).lower().startswith(("http://", "https://")):
                raise ContractError(f"endpoint_url must be an http or https URL, got {self.endpoint_url!r}")
            checked_int(self.retry.max_attempts, 1, "max_attempts")
            checked_int(self.retry.base_backoff_ms, 0, "base_backoff_ms")
            checked_int(self.rate_limit_rpm, 1, "rate_limit_rpm")
            checked_int(self.request_budget, 0, "request_budget")
        checked_real(self.attention_scale, "attention_scale")


def prompt_hash(prompt: str) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which only infer and the mock need

    return hashlib.sha256(prompt.encode()).hexdigest()


class RateLimiter:
    """Admits at most ``rpm`` requests per rolling 60-second window."""

    def __init__(self, rpm: int, clock: Callable[[], float] = time.monotonic, sleep: Callable[[float], None] = time.sleep):
        if rpm < 1:
            raise ContractError("rate limit must be >= 1 rpm")
        self.rpm = rpm
        self._clock = clock
        self._sleep = sleep
        self._window: deque[float] = deque()

    def acquire(self) -> None:
        now = self._clock()
        while self._window and now - self._window[0] >= 60.0:
            self._window.popleft()
        if len(self._window) >= self.rpm:
            self._sleep(60.0 - (now - self._window[0]))
            now = self._clock()
            while self._window and now - self._window[0] >= 60.0:
                self._window.popleft()
        self._window.append(now)


class MockBackend:
    """Scripted completions keyed by SHA-256 of the prompt.

    A fixture value may be a single string or a non-empty list of strings
    consumed in order (the last entry repeats once exhausted). Any other
    fixture or ``mock_default`` is a ContractError when the backend is built.
    """

    backend_id = "mock"

    def __init__(self, cfg: BackendConfig):
        self._fixtures = {k: [v] if isinstance(v, str) else v for k, v in (cfg.mock_fixtures or {}).items()}
        for key, texts in self._fixtures.items():
            if not (isinstance(texts, (list, tuple)) and texts and all(isinstance(t, str) for t in texts)):
                raise ContractError(
                    f"mock fixture {key}: expected a string or a non-empty list of strings, got {texts!r}"
                )
        if not isinstance(cfg.mock_default, (str, type(None))):
            raise ContractError(f"mock_default must be a string, got {cfg.mock_default!r}")
        self._cursor: dict[str, int] = {}
        self._default = cfg.mock_default

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        key = prompt_hash(req.prompt)
        if key in self._fixtures:
            responses = self._fixtures[key]
            i = self._cursor.get(key, 0)
            text = responses[min(i, len(responses) - 1)]
            self._cursor[key] = i + 1
        elif self._default is not None:
            text = self._default
        else:
            raise TransportError(f"no mock fixture for prompt hash {key}")
        return CompletionResponse(text=text, latency_ms=0, raw={"hash": key})


class LocalAttentionBackend:
    """Answers prompts offline by re-parsing them and running the attention
    reference model (cosine nearest neighbor in the small-scale limit).

    The backend sees only the prompt text. It keeps the reference set of
    the last Part 1 it parsed, keyed by that exact text, so a run that
    sends the same Part 1 with every test line parses it once; the set
    keeps its own unit rows and one-hot labels, the attention keys and values.
    Its labels are those of Part 1 mapped to 0..c-1 over the c classes
    present there, ascending, which ``raw["classes"]`` names; the reply's
    ``raw["class_probs"]`` are the attention values over them.
    """

    backend_id = "local-attention"

    def __init__(self, cfg: BackendConfig):
        self._scale = cfg.attention_scale
        self._cache: Optional[tuple[str, ReferenceSet, np.ndarray]] = None  # (Part 1 text, its set, classes)

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        prompt = req.prompt
        # Part 1 ends at the line break before the last line. It ends with
        # "\n", so the prompt's lines are Part 1's followed by the tail's.
        cut = prompt.rfind("\n", 0, len(prompt) - 1) + 1
        part1, tail = prompt[:cut], prompt[cut:].splitlines()
        cache = self._cache
        if len(tail) == 1 and cache is not None and part1 == cache[0]:
            _, ref, classes = cache
            row = parse_test_line(tail[0], ref.size + 1)
        else:
            parsed, row = parse_prompt(prompt)  # raises GrammarError on mismatch
            # only the classes in Part 1 can be attended to; a distribution over
            # every class up to the largest label would grow with that label
            y = np.sort(parsed.y)
            classes = y[np.r_[True, y[1:] != y[:-1]]]  # np.unique would import numpy.ma (numpy 2), ~0.6 MB
            ref = ReferenceSet(parsed.X, _read_only(np.searchsorted(classes, parsed.y)), max(2, len(classes)))
            if len(tail) == 1:
                self._cache = (part1, ref, classes)
        probs = nn_attention_classify(ref, row, self._scale)[: len(classes)]
        return CompletionResponse(
            text=f" {classes[np.argmax(probs)]}",
            latency_ms=0,
            raw={"class_probs": probs.tolist(), "classes": classes.tolist()},
        )


def _requests_transport(url: str, headers: dict, payload: dict, timeout: float = 30.0):
    import requests

    try:
        resp = requests.post(url, headers=headers, json=payload, timeout=timeout)
    except requests.RequestException as exc:
        raise TimeoutError(str(exc)) from exc
    try:
        body = resp.json() if resp.content else {}
    except ValueError:  # an HTML error page, say: the status alone decides
        body = {}
    return resp.status_code, body


class RemoteBackend:
    """OpenAI-compatible completions client.

    Wire format: POST {model, prompt, max_tokens, temperature}, with the
    configured ``model_name`` and temperature 0; the reply is read from
    ``choices[0].text``, a string or null (an empty completion); any other
    text is a TransportError. 401/403 fail immediately; 429/5xx and
    timeouts are retried with exponential backoff.
    """

    backend_id = "remote"

    def __init__(
        self,
        cfg: BackendConfig,
        transport: Optional[Callable] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        env: Optional[Mapping[str, str]] = None,
    ):
        import os

        self._cfg = cfg
        self._transport = transport or _requests_transport
        self._clock = clock
        self._sleep = sleep
        self._limiter = RateLimiter(cfg.rate_limit_rpm, clock=clock, sleep=sleep)
        self._requests_made = 0
        environ = env if env is not None else os.environ
        self._api_key = environ.get(cfg.api_key_env)

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        if self._api_key is None:
            raise CredentialError(
                f"environment variable {self._cfg.api_key_env} is not set"
            )
        payload = {
            "model": self._cfg.model_name,
            "prompt": req.prompt,
            "max_tokens": req.max_tokens,
            "temperature": 0.0,
        }
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }
        last_error = "no attempts made"
        for attempt in range(1, self._cfg.retry.max_attempts + 1):
            if self._requests_made >= self._cfg.request_budget:
                raise RequestBudgetError(
                    f"request budget of {self._cfg.request_budget} exhausted"
                )
            self._limiter.acquire()
            self._requests_made += 1
            start = self._clock()
            try:
                status, body = self._transport(self._cfg.endpoint_url, headers, payload)
            except (TimeoutError, ConnectionError) as exc:
                status, body = None, None
                last_error = f"transport failure: {exc}"
            if status is not None:
                if status in (401, 403):
                    raise CredentialError(f"authentication failed with HTTP {status}")
                if status == 200:
                    try:
                        text = body["choices"][0]["text"]
                        if not isinstance(text, (str, type(None))):  # null: an empty completion
                            raise TypeError(text)
                    except (KeyError, IndexError, TypeError):
                        raise TransportError(f"malformed completion payload: {body!r}")
                    latency = int((self._clock() - start) * 1000)
                    return CompletionResponse(text=text or "", latency_ms=latency, raw=body)
                if status == 429 or status >= 500:
                    last_error = f"HTTP {status}"
                else:
                    raise TransportError(f"unexpected HTTP status {status}: {body!r}")
            if attempt < self._cfg.retry.max_attempts:
                self._sleep(self._cfg.retry.base_backoff_ms * 2 ** (attempt - 1) / 1000.0)
        raise TransportError(
            f"retries exhausted after {self._cfg.retry.max_attempts} attempts ({last_error})"
        )


def make_backend(cfg: BackendConfig, **remote_kwargs):
    if cfg.kind == "mock":
        return MockBackend(cfg)
    if cfg.kind == "local-attention":
        return LocalAttentionBackend(cfg)
    return RemoteBackend(cfg, **remote_kwargs)


@dataclass(frozen=True)
class ClassifyAudit:
    """Everything needed to audit one classification after the fact. The
    prompt sent was ``part1 + part2``; ``part1`` is the run's shared text."""

    part1: str
    part2: str
    completions: tuple[str, ...]
    label: int
    fallback: bool
    backend_id: str
    token_estimate: int


def classify(
    ref: ReferenceSet,
    f_test,
    plan: SelectionPlan,
    backend,
    ser: SerializationConfig = SerializationConfig(),
) -> tuple[int, ClassifyAudit]:
    """Prompt-based classification of one test sample (a FeatureVector or a row).

    The completion is asked for with max_tokens 4. On an unparseable or
    out-of-range completion the backend is asked once more with 8; if that
    also fails, the cosine-1NN label over the plan's selected samples is
    used (distance ties go to the sample first in plan order) and the
    fallback flag set. If every value of Part 2 renders as zero (no digit
    1-9), no request is sent and the fallback is taken at once. A zero-norm
    plan row, which the fallback cannot rank, is refused before any request.
    """
    ref.unit_rows(plan.index_array)
    bundle = build_bundle(ref, f_test, plan, ser)
    completions: list[str] = []
    label = None
    for tokens in (4, 8) if re.search("[1-9]", bundle.part2) else ():
        resp = backend.complete(CompletionRequest(bundle.prompt, max_tokens=tokens))
        completions.append(resp.text)
        try:
            label = parse_completion(resp.text, ref.class_count)
            break
        except CompletionParseError:
            continue
    fallback = label is None
    if fallback:
        label = nearest_label(ref, f_test, plan.index_array)
    audit = ClassifyAudit(
        part1=bundle.part1,
        part2=bundle.part2,
        completions=tuple(completions),
        label=label,
        fallback=fallback,
        backend_id=getattr(backend, "backend_id", "unknown"),
        token_estimate=bundle.token_estimate,
    )
    return label, audit
