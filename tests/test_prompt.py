import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transduct import (
    FeatureVector,
    ReferenceSet,
    SerializationConfig,
    build_bundle,
    build_part1,
    build_part2,
    build_plan,
    parse_completion,
)
from transduct.errors import (
    CompletionParseError,
    ContractError,
    GrammarError,
    LabelOutOfRangeError,
    TokenBudgetError,
    TransductError,
)
from transduct import prompt as prompt_module
from transduct.prompt import parse_prompt, parse_test_line
from transduct.selection import SelectionPlan

from seed_copy import rowwise

GOLDEN = Path(__file__).parent / "golden"


def fv(*v):
    return FeatureVector.of(v)


def row(*v):
    return np.array(v, dtype=float)


class TestPart2Rendering:
    @pytest.mark.parametrize("make", [fv, row])
    def test_exact_decimals(self, make):
        assert build_part2(make(0.5, 0.25)) == "[0.50, 0.25] is in class\n"

    @pytest.mark.parametrize("make", [fv, row])
    def test_rounding(self, make):
        assert build_part2(make(1 / 3), SerializationConfig(decimals=4)) == "[0.3333] is in class\n"

    @pytest.mark.parametrize("make", [fv, row])
    def test_round_half_to_even(self, make):
        assert build_part2(make(0.125)) == "[0.12] is in class\n"
        assert build_part2(make(0.375)) == "[0.38] is in class\n"

    @pytest.mark.parametrize("make", [fv, row])
    def test_negative_values_that_round_to_zero_keep_their_sign(self, make):
        assert build_part2(make(-0.001, 0.5)) == "[-0.00, 0.50] is in class\n"

    @settings(max_examples=300, deadline=None)
    @given(
        decimals=st.integers(1, 6),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 0.125, -0.125, 0.375, 2.5, 0.25, 0.05, 1e-300, -1e-300, 1e300, -1e300]),
            min_size=1,
            max_size=6,
        ),
    )
    @example(decimals=1, values=[0.25, -0.0, 0.0])
    @example(decimals=6, values=[1e300, -1e-300, 0.0000005])
    def test_part2_is_byte_equal_to_the_frozen_per_value_rendering(self, decimals, values):
        cfg = SerializationConfig(decimals=decimals)
        want = rowwise.build_part2(rowwise.FeatureVector.of(values), rowwise.SerializationConfig(decimals=decimals))
        assert build_part2(FeatureVector.of(values), cfg) == want
        assert build_part2(np.array(values), cfg) == want


class TestBuildPart1:
    def test_single_line_format(self):
        ref = ReferenceSet.build([[0.5, 0.5], [0.2, 0.8], [0.1, 0.9]], [0, 0, 1], 2)
        plan = SelectionPlan((2,))
        assert build_part1(ref, plan) == "[0.10, 0.90] is in class 1\n"

    def test_line_count_and_last_line(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        text = build_part1(small_ref, plan)
        lines = text.splitlines()
        assert len(lines) == 2
        assert text.endswith("\n")
        top = plan.ordered_indices[-1]
        assert lines[-1].endswith(f"is in class {small_ref.labels[top]}")

    def test_empty_plan_impossible(self):
        with pytest.raises(ContractError):
            SelectionPlan(())

    def test_budget_error_carries_feasible_k(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        cfg = SerializationConfig(decimals=2, token_budget=4)
        with pytest.raises(TokenBudgetError) as err:
            build_part1(small_ref, plan, cfg)
        # at 27 chars per line, a budget of 4 tokens (16 chars) fits no full line
        assert err.value.max_feasible_k == 0
        # 15 tokens are 60 chars: two lines (54 chars) fit, three (81) do not
        cfg = SerializationConfig(decimals=2, token_budget=15)
        with pytest.raises(TokenBudgetError) as err:
            build_part1(small_ref, plan, cfg)
        assert err.value.max_feasible_k == 2

    def test_part1_at_exactly_the_token_budget_is_accepted(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        text = build_part1(small_ref, plan)
        tokens = prompt_module._estimate_tokens(text)
        assert build_part1(small_ref, plan, SerializationConfig(token_budget=tokens)) == text
        with pytest.raises(TokenBudgetError):
            build_part1(small_ref, plan, SerializationConfig(token_budget=tokens - 1))


class TestPart1Memo:
    """build_part1 renders once per (ref, plan, cfg) and never serves stale text."""

    @staticmethod
    def fresh(ref, plan, cfg=SerializationConfig()):
        # an equal but distinct reference set misses the memo, so this renders
        copy = ReferenceSet.build(ref.features, ref.labels, ref.class_count)
        return build_part1(copy, plan, cfg)

    def test_repeat_call_returns_the_rendered_text(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        first = build_part1(small_ref, plan)
        assert build_part1(small_ref, plan, SerializationConfig()) is first
        assert first == self.fresh(small_ref, plan)

    def test_rerenders_when_ref_differs(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        build_part1(small_ref, plan)
        other = ReferenceSet.build([[0.3, 0.7]] * 4, [1, 1, 1, 1], 2)
        assert build_part1(other, plan) == "[0.30, 0.70] is in class 1\n" * 2

    def test_rerenders_when_plan_differs(self, small_ref):
        half, full = build_plan(small_ref, 0.5), build_plan(small_ref, 1.0)
        assert build_part1(small_ref, half).count("\n") == 2
        text = build_part1(small_ref, full)
        assert text.count("\n") == 4
        assert text == self.fresh(small_ref, full)

    def test_rerenders_when_cfg_differs(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        two = build_part1(small_ref, plan, SerializationConfig(decimals=2))
        three = build_part1(small_ref, plan, SerializationConfig(decimals=3))
        assert "0.500" in three and "0.500" not in two
        assert build_part1(small_ref, plan, SerializationConfig(decimals=2)) == two

    def test_budget_is_checked_on_both_parts(self, small_ref):
        plan = build_plan(small_ref, 1.0)
        part1 = build_part1(small_ref, plan)
        part2 = build_part2(fv(0.5, 0.5))
        tokens = math.ceil((len(part1) + len(part2)) / 4)
        fits = SerializationConfig(token_budget=tokens)
        bundle = build_bundle(small_ref, fv(0.5, 0.5), plan, fits)
        assert bundle.token_estimate == tokens
        short = SerializationConfig(token_budget=tokens - 1)
        build_part1(small_ref, plan, short)  # part 1 alone still fits
        with pytest.raises(TokenBudgetError):
            build_bundle(small_ref, fv(0.5, 0.5), plan, short)

    @pytest.mark.parametrize("budget, outcome", [(10**6, "fits"), (4, "over")])
    def test_part1_then_the_bundle_render_once(self, small_ref, monkeypatch, budget, outcome):
        plan, cfg = build_plan(small_ref, 1.0), SerializationConfig(token_budget=budget)
        reads, read = [], ReferenceSet.feature_matrix  # a render reads the matrix once; Part 2 does not
        monkeypatch.setattr(ReferenceSet, "feature_matrix", lambda ref: reads.append(ref) or read(ref))
        outcomes = []
        for build in (lambda: build_part1(small_ref, plan, cfg), lambda: build_bundle(small_ref, fv(0.5, 0.5), plan, cfg)):
            try:
                build()
                outcomes.append("fits")
            except TokenBudgetError:
                outcomes.append("over")
        assert outcomes == [outcome] * 2 and reads == [small_ref]


class TestBuildPart2:
    def test_format(self):
        assert build_part2(fv(1.0, 0.0), SerializationConfig(decimals=1)) == "[1.0, 0.0] is in class\n"

    def test_grammar_compatible_continuation(self):
        rng = np.random.default_rng(4)
        line_grammar = re.compile(r"^\[\-?\d+\.\d+(, \-?\d+\.\d+)*\] is in class \d+$")
        for _ in range(20):
            f = FeatureVector.of(rng.normal(size=3))
            text = build_part2(f).rstrip("\n") + " 1"
            assert line_grammar.match(text)


class TestBundle:
    def test_token_estimate(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        cfg = SerializationConfig()
        bundle = build_bundle(small_ref, fv(0.7, 0.3), plan, cfg)
        assert bundle.token_estimate == math.ceil(len(bundle.part1 + bundle.part2) / 4)
        assert bundle.token_estimate <= cfg.token_budget

    def test_budget_rejects_exactly_at_threshold(self, small_ref):
        plan = build_plan(small_ref, 0.5)
        probe = build_bundle(small_ref, fv(0.7, 0.3), plan)
        exact = probe.token_estimate
        ok_cfg = SerializationConfig(token_budget=exact)
        build_bundle(small_ref, fv(0.7, 0.3), plan, ok_cfg)
        with pytest.raises(TokenBudgetError):
            build_bundle(
                small_ref, fv(0.7, 0.3), plan, SerializationConfig(token_budget=exact - 1)
            )

    @pytest.mark.parametrize(
        "features, labels, row",
        [
            ([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]], [0, 1, 0, 1], fv(0.9, 0.1)),
            (np.random.default_rng(7).uniform(size=(40, 3)), [0, 1] * 20, fv(0.123456, 0.5, 1.0)),
        ],
        ids=["4-rows", "40-rows"],
    )
    def test_budget_hint_counts_the_lines_that_fit_beside_part_2(self, features, labels, row):
        # whichever part overflows, the hinted k tail lines fit with Part 2 and k + 1 do not
        ref = ReferenceSet.build(features, labels, 2)
        plan = build_plan(ref, 1.0, True)
        full = build_bundle(ref, row, plan, SerializationConfig(token_budget=10**6)).token_estimate

        def fits(k, cfg):
            tail = SelectionPlan(plan.ordered_indices[len(plan.ordered_indices) - k :])
            try:
                build_bundle(ref, row, tail, cfg)
            except TokenBudgetError:
                return False
            return True

        part2_only = math.ceil(len(build_part2(row)) / 4)
        for budget in range(part2_only, full):
            cfg = SerializationConfig(token_budget=budget)
            with pytest.raises(TokenBudgetError) as err:
                build_bundle(ref, row, plan, cfg)
            k = err.value.max_feasible_k
            assert (k == 0 or fits(k, cfg)) and not fits(k + 1, cfg), budget
            assert f"{k} reference line" in str(err.value)


class TestGoldenFiles:
    def test_simple_plan(self, small_ref):
        plan = build_plan(small_ref, 0.5, interleave_by_class=False)
        bundle = build_bundle(small_ref, fv(0.7, 0.3), plan)
        assert bundle.prompt == (GOLDEN / "prompt_simple.txt").read_text()

    def test_interleaved_plan(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5, interleave_by_class=True)
        bundle = build_bundle(imbalanced_ref, fv(0.55, 0.45), plan)
        assert bundle.prompt == (GOLDEN / "prompt_interleaved.txt").read_text()

    def test_single_sample_plan(self, small_ref):
        plan = build_plan(small_ref, 0.25)
        bundle = build_bundle(small_ref, fv(0.7, 0.3), plan)
        assert bundle.prompt == (GOLDEN / "prompt_single.txt").read_text()

    def test_determinism(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 0.5, interleave_by_class=True)
        first = build_bundle(imbalanced_ref, fv(0.55, 0.45), plan)
        second = build_bundle(imbalanced_ref, fv(0.55, 0.45), plan)
        assert first.prompt == second.prompt


class TestParseCompletion:
    def test_direct_digit(self):
        assert parse_completion(" 1\n", 3) == 1

    def test_first_integer_scan(self):
        assert parse_completion("class 2 because...", 3) == 2

    def test_no_digit(self):
        with pytest.raises(CompletionParseError):
            parse_completion("maybe", 3)

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError) as err:
            parse_completion(" 7", 3)
        assert err.value.completion == " 7"

    def test_empty(self):
        with pytest.raises(CompletionParseError):
            parse_completion("", 3)

    @pytest.mark.parametrize(
        "run", ["7" * 5000, "1" + "0" * 5000, "9" * 4301, "12"], ids=["7x5000", "1e5000", "9x4301", "12"]
    )
    def test_a_digit_run_longer_than_the_largest_class_is_out_of_range(self, run):
        with pytest.raises(LabelOutOfRangeError) as err:
            parse_completion(f" {run} ", 3)
        assert err.value.completion == f" {run} "
        assert len(str(err.value)) < 80

    def test_leading_zeros_of_a_long_run_are_not_counted(self):
        assert parse_completion("0" * 5000 + "2", 3) == 2
        assert parse_completion(" " + "0" * 5000, 3) == 0
        assert parse_completion("0" * 5000 + "11", 12) == 11
        with pytest.raises(LabelOutOfRangeError, match="label 12 >= class_count 12"):
            parse_completion("0" * 5000 + "12", 12)

    @pytest.mark.parametrize("text", [" 2.", " 2", "2\n", "class 2 because...", "e.g. 2 or so"])
    def test_plain_integer_first(self, text):
        assert parse_completion(text, 3) == 2

    @pytest.mark.parametrize("text", [" -1", " 1.7", "+1", " 0.5", " .5", "class -1", " 1.0"])
    def test_signed_or_fractional_first_number_rejected(self, text):
        with pytest.raises(CompletionParseError) as err:
            parse_completion(text, 3)
        assert not isinstance(err.value, LabelOutOfRangeError)

    @pytest.mark.parametrize("text", [" \u0661", " \uff11", "class \u06f1", "\u0967"])
    def test_non_ascii_digits_are_not_a_label(self, text):
        with pytest.raises(CompletionParseError) as err:
            parse_completion(text, 3)
        assert not isinstance(err.value, LabelOutOfRangeError)


# Text in which the completion grammar sees no number: no ASCII digit (the
# parser reads no other script's digits), no sign and no decimal point.
NO_NUMBER = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="0123456789+-.")
)


class TestParseCompletionProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=NO_NUMBER, class_count=st.integers(1, 12))
    def test_no_number_is_unparseable(self, text, class_count):
        with pytest.raises(CompletionParseError) as err:
            parse_completion(text, class_count)
        assert not isinstance(err.value, LabelOutOfRangeError)

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=NO_NUMBER,
        sign=st.sampled_from(["", "+", "-"]),
        digits=st.text("0123456789", min_size=1, max_size=6),
        fraction=st.just("") | st.text("0123456789", min_size=1, max_size=3).map(".".__add__),
        suffix=st.text().filter(lambda t: re.match(r"\.?\d", t, re.ASCII) is None),
        class_count=st.integers(1, 12),
    )
    def test_label_only_for_a_plain_in_range_first_integer(
        self, prefix, sign, digits, fraction, suffix, class_count
    ):
        text = prefix + sign + digits + fraction + suffix
        plain = sign == "" and fraction == ""
        if plain and int(digits) < class_count:
            assert parse_completion(text, class_count) == int(digits)
            return
        with pytest.raises(CompletionParseError) as err:
            parse_completion(text, class_count)
        assert isinstance(err.value, LabelOutOfRangeError) == plain


FEATURE_VALUES = st.floats(-1e12, 1e12, allow_nan=False) | st.sampled_from(
    [-0.0, -1e-9, -0.004, -0.5e-8, 0.125, 1e12, -1e12]
)


class TestRenderParseRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(
        decimals=st.integers(1, 8),
        rows=st.integers(1, 4).flatmap(
            lambda d: st.lists(st.lists(FEATURE_VALUES, min_size=d, max_size=d), min_size=2, max_size=5)
        ),
    )
    @example(decimals=2, rows=[[-0.001, 0.5], [-0.0, 1e12]])
    def test_every_feature_within_half_a_unit_in_the_last_decimal(self, decimals, rows):
        *reference, test_row = rows
        ref = ReferenceSet.build(reference, [i % 2 for i in range(len(reference))], 2)
        plan = SelectionPlan(tuple(range(ref.size)))
        cfg = SerializationConfig(decimals=decimals, token_budget=10**6)
        ref_back, f_back = parse_prompt(build_bundle(ref, fv(*test_row), plan, cfg).prompt)
        assert ref_back.labels == ref.labels
        half_unit = 0.5 * 10**-decimals
        for got, want in zip([*ref_back.features, f_back], [*reference, test_row]):
            for g, w in zip(got, want):
                assert abs(g - w) <= half_unit + math.ulp(max(abs(w), 1.0)), (g, w)

    def test_negative_zero_renders_and_parses(self):
        assert build_part2(fv(-0.001, 0.5)) == "[-0.00, 0.50] is in class\n"
        ref_back, _ = parse_prompt("[-0.00, 0.50] is in class 1\n[0.10, 0.90] is in class\n")
        assert ref_back.features[0].values == (-0.0, 0.5)


class TestRoundTrip:
    def test_part1_lines_recover_labels_and_features(self, imbalanced_ref):
        plan = build_plan(imbalanced_ref, 1.0, interleave_by_class=True)
        cfg = SerializationConfig(decimals=3)
        bundle = build_bundle(imbalanced_ref, fv(0.55, 0.45), plan, cfg)
        ref_back, f_back = parse_prompt(bundle.prompt)
        assert list(ref_back.labels) == [
            imbalanced_ref.labels[i] for i in plan.ordered_indices
        ]
        for got, idx in zip(ref_back.features, plan.ordered_indices):
            original = imbalanced_ref.features[idx]
            assert got.values == pytest.approx(original.values, abs=10 ** -cfg.decimals)
        assert f_back.tolist() == pytest.approx([0.55, 0.45], abs=1e-9)
        assert f_back.dtype == np.float64 and not f_back.flags.writeable

    def test_test_line_parses_to_a_read_only_row(self):
        row = parse_test_line("[0.25, -0.00, 1e3] is in class", 2)
        assert row.dtype == np.float64 and row.shape == (3,) and not row.flags.writeable
        assert row.tolist() == [0.25, -0.0, 1000.0]
        for bad in ("[0.25, inf] is in class", "[nan] is in class", "[] is in class"):
            with pytest.raises(GrammarError, match="line 2: malformed feature list"):
                parse_test_line(bad, 2)

    def test_part1_line_of_words_is_a_grammar_error_naming_it(self):
        # Part 1 fails the read at once; the walk over its lines names the bad one
        prompt = "[0.10, 0.90] is in class 1\n[a, b] is in class 1\n[0.50, 0.50] is in class\n"
        with pytest.raises(GrammarError, match=re.escape("line 2: malformed feature list [a, b]")):
            parse_prompt(prompt)

    def test_cached_part1_names_the_test_line_after_it(self):
        from transduct.backends import BackendConfig, CompletionRequest, LocalAttentionBackend

        part1 = "[0.10, 0.90] is in class 1\n[0.80, 0.20] is in class 0\n"
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        assert backend.complete(CompletionRequest(part1 + "[0.70, 0.30] is in class")).text == " 0"
        # Part 1 is now cached: the test line is the prompt's third line
        with pytest.raises(GrammarError, match=re.escape("line 3: malformed feature list [0.70, x]")):
            backend.complete(CompletionRequest(part1 + "[0.70, x] is in class"))

    def test_parse_prompt_rejects_garbage(self):
        with pytest.raises(GrammarError):
            parse_prompt("hello\nworld\n")
        with pytest.raises(GrammarError):
            parse_prompt("[0.50] is in class 1\n[0.40] is in class 2\n")  # no cue line

    def test_non_ascii_part1_label_is_a_grammar_error(self):
        with pytest.raises(GrammarError):
            parse_prompt("[0.50, 0.50] is in class \u0661\n[0.40, 0.60] is in class\n")

    def test_part1_label_past_the_int_digit_limit_is_a_grammar_error(self):
        # int() refuses more than 4300 digits; the local backend parses the same text
        from transduct.backends import BackendConfig, CompletionRequest, LocalAttentionBackend

        prompt = "[0.10, 0.90] is in class " + "7" * 5000 + "\n[0.50, 0.50] is in class\n"
        backend = LocalAttentionBackend(BackendConfig(kind="local-attention"))
        for parse in (parse_prompt, lambda p: backend.complete(CompletionRequest(p))):
            with pytest.raises(GrammarError, match="line 1 does not match the labeled-line grammar"):
                parse(prompt)

    @pytest.mark.parametrize("label", [str(2**63 - 1), "0" * 30 + "1"])
    def test_part1_label_of_up_to_19_digits_past_leading_zeros_is_read(self, label):
        ref, _ = parse_prompt(f"[0.10, 0.90] is in class {label}\n[0.50, 0.50] is in class\n")
        assert ref.labels == (int(label),)

    @pytest.mark.parametrize(
        "prompt",
        [
            "[\u0661.\u0665, 0.50] is in class 1\n[\uff10.40, 0.60] is in class\n",
            "[1.5, 0.50] is in class 1\n[\uff10.40, 0.60] is in class\n",
            "[0.5, \u0665.0] is in class 1\n[0.40, 0.60] is in class\n",
        ],
    )
    def test_non_ascii_feature_digits_are_a_grammar_error(self, prompt):
        with pytest.raises(GrammarError):
            parse_prompt(prompt)


# --- parse_prompt against a per-line reader written from the grammar ----------------------------

_GOOD_NUMBERS = ["0.50", "0.25", "-0.00", "1.00", "12.5", "0.125"]
_ODD_NUMBERS = ["1_0", "١", "nan", "inf", "", "x", " 1.5", "1e5", "+1.0", "0.5 ", "１", "1,5"]
_ODD_LABELS = ["١", "-1", "1.0", "", "x", str(10**20), "1000", "7" * 5000, "0" * 30 + "1"]
_ODD_LINES = ["hello", "", "[0.5] is in class", "[0.5] is in class 1 x", "[0.5]] is in class 1", "[0.5 is in class 1"]


@st.composite
def prompts(draw):
    """Part 1 lines of d numbers and a test line, well formed or with up to
    two edits: an odd number, label or line, or a line of another arity."""
    d = draw(st.integers(1, 4))
    rows = [[[draw(st.sampled_from(_GOOD_NUMBERS)) for _ in range(d)], draw(st.sampled_from(["0", "1", "2", "007"]))]
            for _ in range(draw(st.integers(1, 8)))]
    lines = [f"[{', '.join(values)}] is in class {label}" for values, label in rows]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        values, label = rows[i]
        edit = draw(st.sampled_from(["number", "label", "line", "arity", "arity"]))
        if edit == "number":
            values[draw(st.integers(0, d - 1))] = draw(st.sampled_from(_ODD_NUMBERS))
        elif edit == "label":
            label = draw(st.sampled_from(_ODD_LABELS))
        elif edit == "arity":
            values = values[1:] if d > 1 and draw(st.booleans()) else [*values, "0.50"]
        lines[i] = draw(st.sampled_from(_ODD_LINES)) if edit == "line" else f"[{', '.join(values)}] is in class {label}"
    test_values = [draw(st.sampled_from(_GOOD_NUMBERS)) for _ in range(d)]
    if draw(st.integers(0, 3)) == 0:
        test_values[0] = draw(st.sampled_from(_ODD_NUMBERS))
    lines.append(f"[{', '.join(test_values)}] is in class")
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _grammar_outcome(prompt):
    """What the line grammar makes of ``prompt``, read line by line as ``str.splitlines`` splits it:
    (features, labels, test row), or the type of the error and the line it names (None for too few)."""
    lines = prompt.splitlines()
    if len(lines) < 2:
        return GrammarError, None
    rows, labels = [], []
    for line_no, line in enumerate(lines, start=1):
        head, cue, label = line.partition("] is in class")
        numbers = head[1:].split(", ")
        if line_no < len(lines):  # a labeled line: " " and ASCII digits, at most 19 past leading zeros
            digits = label[1:]
            if not (label[:1] == " " and digits.isascii() and digits.isdigit() and len(digits.lstrip("0")) <= 19):
                return GrammarError, line_no
        elif label:
            return GrammarError, line_no
        if not head.startswith("[") or not cue or "]" in head:
            return GrammarError, line_no
        # a number: ASCII, no blank and no "_", that float reads as a finite value
        if not all(v.isascii() and not any(c.isspace() or c == "_" for c in v) for v in numbers):
            return GrammarError, line_no
        try:
            values = [float(v) for v in numbers]
        except ValueError:
            return GrammarError, line_no
        if not all(map(math.isfinite, values)):
            return GrammarError, line_no
        if rows and line_no < len(lines) and len(values) != len(rows[0]):
            return ContractError, line_no
        rows.append(values)
        labels.append(int(label or 0))
    return np.array(rows[:-1]).tobytes(), tuple(labels[:-1]), np.array(rows[-1]).tobytes()


def _parse_outcome(prompt):
    """What parse_prompt makes of ``prompt``, in the form of :func:`_grammar_outcome`."""
    try:
        ref, f_test = parse_prompt(prompt)
    except TransductError as exc:
        named = re.search(r"\bline (\d+)", str(exc))
        return type(exc), named and int(named.group(1))
    X = ref.feature_matrix()
    assert not X.flags.writeable and not f_test.flags.writeable
    return X.tobytes(), ref.labels, f_test.tobytes()


@settings(max_examples=300, deadline=None)
@given(prompt=prompts())
@example(prompt="[0.10, 0.90] is in class " + "7" * 5000 + "\n[0.50, 0.50] is in class\n")
@example(prompt="[0.10, 0.90] is in class " + "0" * 30 + "1\n[0.50, 0.50] is in class\n")
@example(prompt="[0.10,  0.90] is in class 0\n[0.50, 0.50 ] is in class\n")
@example(prompt="[0.10, 0.90] is in class 0\r\n[0.80] is in class 1\r\n[0.50, 0.50] is in class")
def test_parse_prompt_reads_as_the_line_grammar(prompt):
    assert _parse_outcome(prompt) == _grammar_outcome(prompt)
