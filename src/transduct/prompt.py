"""Two-part prompt serialization and completion parsing.

Grammar (one line per sample)::

    line   := "[" number (", " number)* "] is in class" (" " int)? "\\n"

where ``number`` is a finite decimal number and ``int`` a non-negative
integer of at most 19 significant digits (int64), both in ASCII digits.

Part 1 holds the planned reference samples, one labeled line each, in plan
order. Part 2 is a single unlabeled line for the test sample ending in the
completion cue ``is in class``. Floats are rendered with a fixed number of
fractional digits (round-half-to-even) so identical inputs always yield
byte-identical prompts.

Part 1 is the same for every test sample of a run, so it is rendered once
per (reference set, plan, config) and kept on the set; the plan's indices
are checked against the set once, before that render.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import ReferenceSet, _read_only, _width, checked_int, checked_rows, inferred_class_count
from .errors import (
    CompletionParseError,
    ContractError,
    GrammarError,
    LabelOutOfRangeError,
    TokenBudgetError,
)
from .selection import SelectionPlan

LABEL_CUE = "is in class"
CHARS_PER_TOKEN = 4  # a prompt's token estimate: its characters / 4, rounded up

# one labeled line, or each line of a text of them: (body, label less its leading zeros)
_PART1_LINE = re.compile(r"^\[([^\]\n]*)\] is in class 0*(\d{1,19})$", re.ASCII | re.MULTILINE)
_PART2_LINE = re.compile(r"^\[(?P<body>[^\]]*)\] is in class$")


@dataclass(frozen=True)
class SerializationConfig:
    """Rendering precision (1 to 1,074 decimals) and token budgeting for prompts."""

    decimals: int = 2
    token_budget: int = 4000

    def __post_init__(self):
        checked_int(self.decimals, 1, "decimals", high=1074)  # 2**-1074, a float64's finest step, has 1,074
        checked_int(self.token_budget, 1, "token_budget")


def _estimate_tokens(*texts: str) -> int:
    """Token estimate of the concatenated texts."""
    return math.ceil(sum(map(len, texts)) / CHARS_PER_TOKEN)


@dataclass(frozen=True)
class PromptBundle:
    """A complete prompt: labeled reference lines plus the test cue line."""

    part1: str
    part2: str
    token_estimate: int

    @property
    def prompt(self) -> str:
        return self.part1 + self.part2


def _line_format(d: int, decimals: int) -> str:
    """The ``%`` format of a Part 2 line, or a Part 1 line up to its label."""
    number = f"%.{decimals}f"  # renders as format(v, f".{decimals}f")
    return f"[{', '.join([number] * d)}] {LABEL_CUE}"


def _over_budget(part1: str, part2: str, cfg: SerializationConfig) -> TokenBudgetError:
    """The error for ``part1`` (and ``part2``) over the token budget. Its ``max_feasible_k``
    counts the last lines of ``part1``, the most representative samples, that fit beside ``part2``."""
    lengths = [len(line) for line in reversed(part1.splitlines(keepends=True))]
    k = int(np.searchsorted(np.cumsum(lengths), cfg.token_budget * CHARS_PER_TOKEN - len(part2), side="right"))
    what, beside = ("prompt", " beside part 2") if part2 else ("part 1", "")
    return TokenBudgetError(
        f"{what} needs ~{_estimate_tokens(part1, part2)} tokens, budget is {cfg.token_budget};"
        f" {k} reference {'line fits' if k == 1 else 'lines fit'}{beside}",
        max_feasible_k=k,
    )


def _part1(ref: ReferenceSet, plan: SelectionPlan, cfg: SerializationConfig) -> str:
    """The plan's labeled lines in plan order, rendered once per (ref, plan, cfg): the text is kept
    on ``ref`` as ``(plan, cfg, text)``, freed with it, and returned for the same set and plan objects
    and an equal config. Each plan index is checked against the set once, before the render."""
    last = ref._derived.get("part1")
    if last is not None and last[0] is plan and last[1] == cfg:
        return last[2]
    size = ref.size  # read once, not per index
    if outside := [i for i in plan.ordered_indices if i >= size]:
        raise ContractError(f"plan index {outside[0]} outside reference set of size {size}")
    rows, line = plan.index_array, _line_format(ref.dimension, cfg.decimals) + " %d\n"
    lines = [line % (*f, y) for f, y in zip(ref.feature_matrix()[rows].tolist(), ref.label_array()[rows].tolist())]
    text = "".join(lines)  # the rows' values are freed by now, so they and the text do not peak together
    ref._derived["part1"] = (plan, cfg, text)
    return text


def build_part1(
    ref: ReferenceSet, plan: SelectionPlan, cfg: SerializationConfig = SerializationConfig()
) -> str:
    """Labeled reference lines in plan order, most representative last, rendered once per
    (ref, plan, cfg) and within the token budget on their own."""
    text = _part1(ref, plan, cfg)
    if _estimate_tokens(text) > cfg.token_budget:
        raise _over_budget(text, "", cfg)
    return text


def _part2(Q: np.ndarray, cfg: SerializationConfig) -> str:
    """The unlabeled test line of the one checked row of ``Q``."""
    return _line_format(Q.shape[1], cfg.decimals) % tuple(Q[0].tolist()) + "\n"


def build_part2(f_test, cfg: SerializationConfig = SerializationConfig()) -> str:
    """The unlabeled test line of a FeatureVector or a row of any width, checked
    by :func:`checked_rows`, ending in the completion cue."""
    return _part2(checked_rows([f_test], _width(f_test) or 1, cosine=False), cfg)  # any width d >= 1


def build_bundle(
    ref: ReferenceSet, f_test, plan: SelectionPlan, cfg: SerializationConfig = SerializationConfig()
) -> PromptBundle:
    """Assemble part 1 + part 2 of a FeatureVector or a row, checked first by
    :func:`checked_rows`, then the plan, then the total token budget: over it, whichever
    part overflows, ``max_feasible_k`` counts the lines that fit beside Part 2."""
    part2 = _part2(checked_rows([f_test], ref.dimension, cosine=False), cfg)
    part1 = _part1(ref, plan, cfg)
    estimate = _estimate_tokens(part1, part2)
    if estimate > cfg.token_budget:
        raise _over_budget(part1, part2, cfg)
    return PromptBundle(part1, part2, estimate)


_FIRST_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+)", re.ASCII)


def parse_completion(completion: str, class_count: int) -> int:
    """The first number in the completion, if it is a valid class index.

    The first number (ASCII digits, with an optional sign and fractional part) must be a plain
    non-negative integer: ``"class 2 because..."`` and ``" 2."`` read as 2, while ``" -1"`` and
    ``" 1.7"`` raise CompletionParseError rather than read as 1, as does a non-string completion.
    """
    if not isinstance(completion, str):
        raise CompletionParseError(f"completion must be a string, got {completion!r}", completion)
    if not completion:
        raise CompletionParseError("empty completion", completion)
    match = _FIRST_NUMBER.search(completion)
    if match is None:
        raise CompletionParseError(
            f"no integer found in completion {completion!r}", completion
        )
    if not match.group(0).isdigit():
        raise CompletionParseError(
            f"first number {match.group(0)!r} in completion {completion!r} "
            "is not a non-negative integer",
            completion,
        )
    digits = match.group(0).lstrip("0") or "0"
    if len(digits) > len(str(class_count - 1)):  # and int() refuses runs past 4300 digits
        raise LabelOutOfRangeError(
            f"completion label of {len(digits)} digits >= class_count {class_count}", completion
        )
    label = int(digits)
    if label >= class_count:
        raise LabelOutOfRangeError(
            f"completion label {label} >= class_count {class_count}", completion
        )
    return label


def parse_prompt(prompt: str) -> tuple[ReferenceSet, np.ndarray]:
    """Recover the reference set and the test row (read-only) of a prompt.

    Inverse of :func:`build_bundle` up to rendering precision; used by the
    local attention backend. Lines are those of ``str.splitlines``. Part 1 is
    read as columns in one pass; where that read rejects it, the per-line parse
    names the first malformed line.
    """
    cut = prompt.rfind("\n", 0, len(prompt) - 1) + 1  # where the last line starts
    tail = prompt[cut:].splitlines()
    columns = _parse_columns(prompt[:cut]) if len(tail) == 1 else None
    if columns is None:
        lines = prompt.splitlines()
        if len(lines) < 2:
            raise GrammarError("prompt must contain at least one reference line and a test line")
        columns, tail = _parse_lines(lines[:-1]), lines[-1:]
    features, labels = columns
    f_test = parse_test_line(tail[0], len(labels) + 1)
    return ReferenceSet.build(features, labels, inferred_class_count(labels)), f_test


def _parse_columns(text: str):
    """The features (an ``(m, d)`` array) and labels of ``text``, Part 1's lines each ending in ``"\\n"``, all
    read at once, or None unless ``text`` is ASCII and each line matches the labeled-line grammar with ``d``
    finite numbers. A number holds no character ``str.splitlines`` breaks at, so the lines are its lines."""
    first = _PART1_LINE.match(text)
    if first is None or not text.isascii():
        return None
    d = first.group(1).count(", ") + 1
    number = r"[^,\]\s\x1c-\x1e]*"
    row = re.compile(rf"^\[({number}(?:, {number}){{{d - 1}}})\] is in class 0*(\d{{1,19}})$", re.ASCII | re.MULTILINE)
    found = row.findall(text)
    if len(found) != text.count("\n"):
        return None
    bodies, labels = zip(*found)
    try:
        X = np.fromiter(map(float, ", ".join(bodies).split(", ")), np.float64, len(bodies) * d)
    except ValueError:
        return None
    if not np.isfinite(X).all():
        return None
    X.flags.writeable = False  # shared by the reference set, not copied
    return X.reshape(len(bodies), d), list(map(int, labels))


def _parse_lines(lines: list[str]):
    """The features and labels of Part 1 ``lines`` parsed line by line,
    raising GrammarError at the first malformed one."""
    features, labels = [], []
    for line_no, line in enumerate(lines, start=1):
        match = _PART1_LINE.match(line)
        if match is None:
            raise GrammarError(f"line {line_no} does not match the labeled-line grammar: {line!r}")
        features.append(_parse_body(match.group(1), line_no))
        labels.append(int(match.group(2)))
    return features, labels


def parse_test_line(line: str, line_no: int) -> np.ndarray:
    """Test row (read-only float64) of a Part 2 line (without its line
    break), the prompt's ``line_no``-th line."""
    match = _PART2_LINE.match(line)
    if match is None:
        raise GrammarError(f"final line does not match the test-line grammar: {line!r}")
    return _parse_body(match.group("body"), line_no)


def _parse_body(body: str, line_no: int) -> np.ndarray:
    """The read-only row of a line's ``[...]`` body: finite numbers separated
    by ``", "``, in ASCII digits (``float`` alone reads other scripts' digits)."""
    if body.isascii():
        try:
            values = [float(v) for v in body.split(", ")]
            if all(map(math.isfinite, values)):
                return _read_only(np.array(values))
        except ValueError:
            pass
    raise GrammarError(f"line {line_no}: malformed feature list [{body}]")
