import json
import tracemalloc

import numpy as np
import pytest

import requests

import transduct.backends as backends_mod
from transduct import (
    BackendConfig,
    CompletionRequest,
    FeatureVector,
    ReferenceSet,
    RetryPolicy,
    RunConfig,
    build_bundle,
    build_plan,
    classify,
    derive_error_detection_set,
    load_dataset,
    make_backend,
    run_error_detection,
)
from transduct.backends import (
    LocalAttentionBackend,
    MockBackend,
    RateLimiter,
    RemoteBackend,
    prompt_hash,
)
from transduct.errors import (
    ContractError,
    CredentialError,
    DegenerateInputError,
    GrammarError,
    RequestBudgetError,
    TransportError,
)

from transduct.attention import nn_attention_classify
from transduct.prompt import SerializationConfig, build_part1, parse_prompt
from transduct.workflow import predict

from conftest import oracle_1nn


def fv(*v):
    return FeatureVector.of(v)


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class ScriptedTransport:
    """Returns queued (status, body) pairs; records every call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, headers, payload):
        self.calls.append((url, headers, payload))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def remote_cfg(**kw):
    defaults = dict(
        kind="remote",
        endpoint_url="https://api.example.test/v1/completions",
        api_key_env="TEST_API_KEY",
    )
    defaults.update(kw)
    return BackendConfig(**defaults)


OK_BODY = {"choices": [{"text": " 1"}]}


class TestMockBackend:
    def test_scripted_response(self):
        prompt = "[0.10, 0.90] is in class 1\n[0.50, 0.50] is in class\n"
        cfg = BackendConfig(kind="mock", mock_fixtures={prompt_hash(prompt): " 1"})
        backend = make_backend(cfg)
        assert backend.complete(CompletionRequest(prompt)).text == " 1"
        assert backend.backend_id == "mock"

    def test_sequence_consumed_in_order(self):
        prompt = "p"
        backend = MockBackend(
            BackendConfig(kind="mock", mock_fixtures={prompt_hash(prompt): ["a", "b"]})
        )
        req = CompletionRequest(prompt)
        assert backend.complete(req).text == "a"
        assert backend.complete(req).text == "b"
        assert backend.complete(req).text == "b"  # last repeats

    def test_unknown_prompt_without_default(self):
        backend = MockBackend(BackendConfig(kind="mock"))
        with pytest.raises(TransportError):
            backend.complete(CompletionRequest("nope"))

class TestLocalBackend:
    def test_self_match_nn(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        bundle = build_bundle(small_ref, fv(0.1, 0.9), plan)
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        resp = backend.complete(CompletionRequest(bundle.prompt))
        assert resp.text == " 1"  # test line equals the known sample labeled 1

    def test_attention_scale_is_the_softmax_scale(self):
        prompt = "[0.90, 0.10] is in class 0\n[0.80, 0.20] is in class 0\n[0.70, 0.30] is in class 0\n[0.10, 0.90] is in class 1\n[0.50, 0.50] is in class\n"
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention", attention_scale=1e9))
        assert backend.complete(CompletionRequest(prompt)).raw["class_probs"] == pytest.approx([0.75, 0.25], abs=1e-6)

    def test_grammar_error_on_bad_prompt(self):
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        with pytest.raises(GrammarError):
            backend.complete(CompletionRequest("tell me a story"))

    def test_matches_1nn_oracle_through_prompt(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            feats = rng.uniform(0.05, 1.0, size=(10, 3))
            labels = rng.integers(0, 3, size=10)
            labels[:3] = [0, 1, 2]
            ref = ReferenceSet.build(feats, labels, 3)
            plan = build_plan(ref, 1.0)
            f = FeatureVector.of(rng.uniform(0.05, 1.0, size=3))
            from transduct.prompt import SerializationConfig, parse_prompt

            ser = SerializationConfig(decimals=6)
            bundle = build_bundle(ref, f, plan, ser)
            backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
            resp = backend.complete(CompletionRequest(bundle.prompt))
            ref_parsed, f_parsed = parse_prompt(bundle.prompt)
            assert resp.text == f" {oracle_1nn(ref_parsed, FeatureVector.of(f_parsed))}"

    def test_cost_does_not_grow_with_the_largest_label(self, small_ref, tmp_path):
        # one-hot values and a distribution over all 200001 classes up to the
        # largest label made each classify peak at 12.8 MB for this file
        path = tmp_path / "big-label.csv"
        path.write_text("f0,f1,label,split\n0.9,0.1,0,val\n0.2,0.8,200000,val\n0.6,0.4,3,val\n0.3,0.7,,test\n")
        data = load_dataset(path)
        ref = data.reference
        plan = build_plan(ref, 1.0, interleave_by_class=True)
        backend = make_backend(BackendConfig(kind="local-attention"))
        classify(small_ref, fv(0.3, 0.7), build_plan(small_ref, 1.0), backend)  # first-use imports
        for _ in range(2):  # the first call parses Part 1 and builds its values
            tracemalloc.start()
            try:
                label, audit = classify(ref, data.test_features[0], plan, backend)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert (label, audit.fallback) == (200000, False)
        resp = backend.complete(CompletionRequest(audit.part1 + audit.part2))
        assert resp.raw["classes"] == [0, 3, 200000]
        assert resp.raw["class_probs"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)


class TestRemoteBackend:
    def make(self, cfg, transport, env=None):
        clock = FakeClock()
        backend = RemoteBackend(
            cfg,
            transport=transport,
            clock=clock,
            sleep=clock.sleep,
            env=env if env is not None else {"TEST_API_KEY": "sk-test"},
        )
        return backend, clock

    def test_success_parses_first_choice(self):
        transport = ScriptedTransport([(200, OK_BODY)])
        backend, _ = self.make(remote_cfg(), transport)
        resp = backend.complete(CompletionRequest("p", max_tokens=4))
        assert resp.text == " 1"
        url, headers, payload = transport.calls[0]
        assert headers["Authorization"] == "Bearer sk-test"
        assert payload == {"model": "text-davinci-003", "prompt": "p", "max_tokens": 4, "temperature": 0.0}

    def test_configured_model_is_sent(self, small_ref):
        transport = ScriptedTransport([(200, OK_BODY)])
        backend, _ = self.make(remote_cfg(model_name="m"), transport)
        plan = build_plan(small_ref, 1.0)
        label, _ = classify(small_ref, fv(0.2, 0.8), plan, backend)
        assert label == 1
        assert transport.calls[0][2]["model"] == "m"

    @pytest.mark.parametrize("entry", ["predict", "run_error_detection"])
    def test_a_bad_test_row_sends_no_request(self, monkeypatch, entry):
        # test row 5 is NaN: the run is refused before its first sample, so rows 0-4 send nothing
        transport = ScriptedTransport([(200, OK_BODY)] * 8)
        monkeypatch.setattr(backends_mod, "make_backend", lambda cfg: self.make(cfg, transport)[0])
        val = [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.2, 0.8], [0.6, 0.4], [0.4, 0.6]]
        val_true = [0, 1, 1, 0, 0, 1]
        test = np.tile([[0.7, 0.3], [0.35, 0.65]], (4, 1))
        test[5, 1] = np.nan
        cfg = RunConfig(backend=remote_cfg(), selection_ratio=1.0)
        with pytest.raises(ContractError, match="test feature 5 contains non-finite values"):
            if entry == "predict":
                list(predict(derive_error_detection_set(val, val_true), test, cfg))
            else:
                run_error_detection(val, val_true, test, [0, 1] * 4, cfg)
        assert transport.calls == []

    def test_missing_key_is_credential_error(self):
        transport = ScriptedTransport([])
        backend, _ = self.make(remote_cfg(), transport, env={})
        with pytest.raises(CredentialError):
            backend.complete(CompletionRequest("p"))
        assert transport.calls == []  # zero requests, zero retries

    def test_auth_failure_not_retried(self):
        transport = ScriptedTransport([(401, {})])
        backend, _ = self.make(remote_cfg(), transport)
        with pytest.raises(CredentialError):
            backend.complete(CompletionRequest("p"))
        assert len(transport.calls) == 1

    def test_retry_schedule_on_429(self):
        transport = ScriptedTransport([(429, {}), (429, {}), (200, OK_BODY)])
        cfg = remote_cfg(retry=RetryPolicy(max_attempts=3, base_backoff_ms=100))
        backend, clock = self.make(cfg, transport)
        resp = backend.complete(CompletionRequest("p"))
        assert resp.text == " 1"
        assert len(transport.calls) == 3
        assert clock.sleeps == [0.1, 0.2]  # exponential backoff

    def test_retries_exhausted(self):
        transport = ScriptedTransport([(500, {}), (503, {}), (500, {})])
        cfg = remote_cfg(retry=RetryPolicy(max_attempts=3, base_backoff_ms=100))
        backend, clock = self.make(cfg, transport)
        with pytest.raises(TransportError):
            backend.complete(CompletionRequest("p"))
        assert len(transport.calls) == 3
        assert clock.sleeps == [0.1, 0.2]

    def test_timeouts_are_retried(self):
        transport = ScriptedTransport([TimeoutError("slow"), (200, OK_BODY)])
        cfg = remote_cfg(retry=RetryPolicy(max_attempts=2, base_backoff_ms=50))
        backend, _ = self.make(cfg, transport)
        assert backend.complete(CompletionRequest("p")).text == " 1"
        assert len(transport.calls) == 2

    def test_request_budget_enforced(self):
        transport = ScriptedTransport([(200, OK_BODY), (200, OK_BODY), (200, OK_BODY)])
        backend, _ = self.make(remote_cfg(request_budget=2), transport)
        backend.complete(CompletionRequest("p"))
        backend.complete(CompletionRequest("p"))
        with pytest.raises(RequestBudgetError):
            backend.complete(CompletionRequest("p"))

    def test_request_budget_caps_retries(self):
        transport = ScriptedTransport([(503, {}), (503, {}), (200, OK_BODY)])
        backend, _ = self.make(remote_cfg(request_budget=1), transport)
        with pytest.raises(RequestBudgetError):
            backend.complete(CompletionRequest("p"))
        assert len(transport.calls) == 1

    def test_request_budget_counts_every_attempt(self):
        transport = ScriptedTransport([(429, {}), (200, OK_BODY), (200, OK_BODY)])
        backend, _ = self.make(remote_cfg(request_budget=2), transport)
        assert backend.complete(CompletionRequest("p")).text == " 1"
        with pytest.raises(RequestBudgetError):
            backend.complete(CompletionRequest("p"))
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("text", [5, ["1"], b" 1", True], ids=["int", "list", "bytes", "bool"])
    def test_non_string_completion_text_is_a_transport_error(self, small_ref, text):
        # these escaped from classify as a raw TypeError
        transport = ScriptedTransport([(200, {"choices": [{"text": text}]})])
        backend, _ = self.make(remote_cfg(), transport)
        with pytest.raises(TransportError, match=r"^malformed completion payload"):
            classify(small_ref, fv(0.2, 0.8), build_plan(small_ref, 1.0), backend)
        assert len(transport.calls) == 1

    def test_null_completion_text_is_an_empty_completion(self, small_ref):
        transport = ScriptedTransport([(200, {"choices": [{"text": None}]})] * 2)
        backend, _ = self.make(remote_cfg(), transport)
        plan = build_plan(small_ref, 1.0)
        label, audit = classify(small_ref, fv(0.2, 0.8), plan, backend)
        assert audit.completions == ("", "") and audit.fallback
        assert label == oracle_1nn(small_ref.subset(list(plan.ordered_indices)), fv(0.2, 0.8))

    def test_rate_limiter_admission(self):
        clock = FakeClock()
        limiter = RateLimiter(3, clock=clock, sleep=clock.sleep)
        admitted = []
        for _ in range(7):
            limiter.acquire()
            admitted.append(clock.now)
            clock.now += 1.0
        # count admissions inside any rolling 60s window
        for start in admitted:
            in_window = sum(1 for t in admitted if start <= t < start + 60.0)
            assert in_window <= 3

    def test_rate_limiter_sleeps_until_window_frees(self):
        clock = FakeClock()
        limiter = RateLimiter(2, clock=clock, sleep=clock.sleep)
        limiter.acquire()
        limiter.acquire()
        limiter.acquire()
        assert clock.sleeps == [60.0]


class FakeHttpResponse:
    def __init__(self, status_code, content):
        self.status_code = status_code
        self.content = content.encode()

    def json(self):
        try:
            return json.loads(self.content)
        except ValueError as exc:
            raise requests.JSONDecodeError(str(exc), self.content.decode(), 0) from None


class TestRequestsTransport:
    """The default transport, with ``requests.post`` replaced."""

    HTML = "<html><body>Bad Gateway</body></html>"

    def post_replies(self, monkeypatch, replies):
        posts = []

        def post(url, headers, json, timeout):
            posts.append(json)
            return FakeHttpResponse(*replies[len(posts) - 1])

        monkeypatch.setattr(requests, "post", post)
        return posts

    def make(self, cfg):
        clock = FakeClock()
        return RemoteBackend(cfg, clock=clock, sleep=clock.sleep, env={"TEST_API_KEY": "sk-test"})

    def test_html_error_pages_are_retried(self, monkeypatch):
        posts = self.post_replies(
            monkeypatch, [(502, self.HTML), (429, self.HTML), (200, json.dumps(OK_BODY))]
        )
        assert self.make(remote_cfg()).complete(CompletionRequest("p")).text == " 1"
        assert len(posts) == 3

    def test_html_client_error_is_transport_error(self, monkeypatch):
        posts = self.post_replies(monkeypatch, [(404, self.HTML)])
        with pytest.raises(TransportError):
            self.make(remote_cfg()).complete(CompletionRequest("p"))
        assert len(posts) == 1

    def test_html_success_body_is_transport_error(self, monkeypatch):
        self.post_replies(monkeypatch, [(200, self.HTML)])
        with pytest.raises(TransportError):
            self.make(remote_cfg()).complete(CompletionRequest("p"))


def local_prompts(ref, plan, ser, tests):
    return [build_bundle(ref, f, plan, ser).prompt for f in tests]


class TestLocalBackendCache:
    """The local backend parses each Part 1 once and answers as a full parse would."""

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(21)
        feats = rng.dirichlet(np.ones(4), size=60)
        labels = np.arange(60) % 4
        ref = ReferenceSet.build(feats, labels, 4)
        tests = [FeatureVector.of(r) for r in rng.dirichlet(np.ones(4), size=12)]
        return ref, tests

    @staticmethod
    def expected_probs(prompt):
        return [float(p) for p in nn_attention_classify(*parse_prompt(prompt))]

    def test_cached_probs_equal_full_parse(self, data):
        ref, tests = data
        plan = build_plan(ref, 0.5, interleave_by_class=True)
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        for prompt in local_prompts(ref, plan, SerializationConfig(), tests):
            resp = backend.complete(CompletionRequest(prompt))
            assert resp.raw["class_probs"] == self.expected_probs(prompt)

    def test_part1_parsed_once_per_run(self, data, monkeypatch):
        ref, tests = data
        calls = []

        def spy(prompt):
            calls.append(prompt)
            return parse_prompt(prompt)

        monkeypatch.setattr(backends_mod, "parse_prompt", spy)
        plan = build_plan(ref, 0.25)
        backend = make_backend(BackendConfig(kind="local-attention"))
        labels = [classify(ref, f, plan, backend)[0] for f in tests]
        assert len(calls) == 1
        assert calls[0].startswith(build_part1(ref, plan))
        for prompt, label in zip(local_prompts(ref, plan, SerializationConfig(), tests), labels):
            ref_parsed, row = parse_prompt(prompt)
            assert label == oracle_1nn(ref_parsed, FeatureVector.of(row))

    def test_two_part1_texts_never_share_keys(self, data):
        ref, tests = data
        plan_a = build_plan(ref, 0.25)
        plan_b = build_plan(ref, 0.5, interleave_by_class=True)
        runs = [
            local_prompts(ref, plan_a, SerializationConfig(decimals=1), tests),
            local_prompts(ref, plan_a, SerializationConfig(decimals=4), tests),
            local_prompts(ref, plan_b, SerializationConfig(decimals=1), tests),
        ]
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        answered = {}
        for i in range(len(tests)):  # interleave the three runs prompt by prompt
            for prompts in runs:
                resp = backend.complete(CompletionRequest(prompts[i]))
                assert resp.raw["class_probs"] == self.expected_probs(prompts[i])
                answered[prompts[i]] = resp.text
        assert len(answered) == 3 * len(tests)

    def test_grammar_errors_after_caching(self, data):
        ref, tests = data
        plan = build_plan(ref, 0.25)
        prompt = local_prompts(ref, plan, SerializationConfig(), tests[:1])[0]
        part1 = prompt[: prompt.rindex("[")]
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        backend.complete(CompletionRequest(prompt))
        for bad_tail in ("[0.10, x] is in class\n", "[0.25, 0.25, 0.25, 0.25] is in class 1\n", "\n"):
            with pytest.raises(GrammarError):
                backend.complete(CompletionRequest(part1 + bad_tail))
            with pytest.raises(GrammarError):
                parse_prompt(part1 + bad_tail)
        with pytest.raises(ContractError):  # wrong test dimension
            backend.complete(CompletionRequest(part1 + "[0.50, 0.50] is in class\n"))

    def test_extra_line_break_in_tail_parses_like_full_prompt(self, data):
        ref, tests = data
        plan = build_plan(ref, 0.25)
        prompt = local_prompts(ref, plan, SerializationConfig(), tests[:1])[0]
        part1 = prompt[: prompt.rindex("[")]
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        backend.complete(CompletionRequest(prompt))
        # "\r" splits the tail into a labeled line plus the test line
        odd = part1 + "[0.25, 0.25, 0.25, 0.25] is in class 3\r[0.70, 0.10, 0.10, 0.10] is in class\n"
        resp = backend.complete(CompletionRequest(odd))
        assert resp.raw["class_probs"] == self.expected_probs(odd)
        assert backend.complete(CompletionRequest(prompt)).raw["class_probs"] == self.expected_probs(prompt)


class TestClassify:
    def test_end_to_end_mock(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        bundle = build_bundle(small_ref, fv(0.7, 0.3), plan)
        cfg = BackendConfig(kind="mock", mock_fixtures={prompt_hash(bundle.prompt): " 0"})
        label, audit = classify(small_ref, fv(0.7, 0.3), plan, make_backend(cfg))
        assert label == 0
        assert audit.fallback is False
        assert audit.completions == (" 0",)

    def test_unparseable_twice_falls_back_to_1nn(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        bundle = build_bundle(small_ref, fv(0.12, 0.88), plan)
        cfg = BackendConfig(
            kind="mock", mock_fixtures={prompt_hash(bundle.prompt): ["??", "??"]}
        )
        label, audit = classify(small_ref, fv(0.12, 0.88), plan, make_backend(cfg))
        selected = small_ref.subset(list(plan.ordered_indices))
        assert label == oracle_1nn(selected, fv(0.12, 0.88)) == 1
        assert audit.fallback is True
        assert audit.completions == ("??", "??")

    def test_a_digit_run_past_ints_limit_is_reasked_then_falls_back(self, small_ref):
        # int() refuses more than 4300 digits; the run is out of range, not a crash
        plan = build_plan(small_ref, 1.0)
        backend = make_backend(BackendConfig(kind="mock", mock_default="7" * 5000))
        label, audit = classify(small_ref, fv(0.12, 0.88), plan, backend)
        selected = small_ref.subset(list(plan.ordered_indices))
        assert label == oracle_1nn(selected, fv(0.12, 0.88))
        assert audit.fallback is True
        assert audit.completions == ("7" * 5000,) * 2

    def test_a_row_is_classified_as_its_feature_vector(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        backend = make_backend(BackendConfig(kind="local-attention"))
        row = np.array([0.12, 0.88])
        assert classify(small_ref, row, plan, backend) == classify(small_ref, fv(0.12, 0.88), plan, backend)

    @pytest.mark.parametrize(
        "f_test, error, message",
        [
            (fv(0.2, 0.5, 0.3), ContractError, "test feature 0 has dimension 3, expected 2"),
            (np.array([np.nan, 0.5]), ContractError, "test feature 0 contains non-finite values"),
            (np.array([0.0, 0.0]), DegenerateInputError, "test feature 0 has zero norm"),
        ],
        ids=["dimension", "non-finite", "zero-norm"],
    )
    def test_public_classify_checks_its_row(self, small_ref, f_test, error, message):
        # the mock has no completion: a request would raise TransportError
        plan = build_plan(small_ref, 1.0)
        with pytest.raises(error, match=message):
            classify(small_ref, f_test, plan, make_backend(BackendConfig(kind="mock")))
        if error is ContractError:
            with pytest.raises(error, match=message):
                build_bundle(small_ref, f_test, plan)

    def test_single_reask_recovers(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        bundle = build_bundle(small_ref, fv(0.7, 0.3), plan)
        cfg = BackendConfig(
            kind="mock", mock_fixtures={prompt_hash(bundle.prompt): ["??", " 1"]}
        )
        label, audit = classify(small_ref, fv(0.7, 0.3), plan, make_backend(cfg))
        assert label == 1
        assert audit.fallback is False
        assert len(audit.completions) == 2

    def test_local_backend_label_in_range(self):
        rng = np.random.default_rng(9)
        feats = rng.uniform(0.1, 1.0, size=(9, 3))
        labels = [0, 1, 2] * 3
        ref = ReferenceSet.build(feats, labels, 3)
        plan = build_plan(ref, 0.5, interleave_by_class=True)
        backend = make_backend(BackendConfig(kind="local-attention"))
        for _ in range(10):
            f = FeatureVector.of(rng.uniform(0.1, 1.0, size=3))
            label, _ = classify(ref, f, plan, backend)
            assert label in (0, 1, 2)

    def test_local_backend_equals_plan_restricted_1nn(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            feats = rng.uniform(0.05, 1.0, size=(12, 4))
            labels = rng.integers(0, 2, size=12)
            labels[:2] = [0, 1]
            ref = ReferenceSet.build(feats, labels, 2)
            plan = build_plan(ref, 0.5)
            backend = make_backend(
                BackendConfig(kind="local-attention"),
            )
            from transduct.prompt import SerializationConfig

            ser = SerializationConfig(decimals=8)
            f = FeatureVector.of(rng.uniform(0.05, 1.0, size=4))
            label, audit = classify(ref, f, plan, backend, ser)
            selected = ref.subset(list(plan.ordered_indices))
            assert label == oracle_1nn(selected, f)
            assert audit.fallback is False
