"""The ranking kernels against exact arithmetic, over the whole float64 range.

Each set is m rows, each its own class, and a test row. Its values come from one band of
magnitudes, with about 10 % zeros and, in some sets, a near-duplicate of the test row. A kernel
may pick any row that float64 cannot tell from the best, so a pick is wrong only where the gap
is resolvable: the picked row's exact distance more than 1e-9 (relative) above the nearest's,
or its exact cosine more than 1e-12 below the best.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import FeatureVector, KnnConfig, ReferenceSet, knn_classify, nn_attention_classify, representativeness
from transduct.baselines import _distances, nearest_label
from transduct.core import _scaled_rows, unit_cosines, unit_rows
from transduct.errors import DegenerateInputError

BANDS = {  # the decimal exponents of a nonzero value's magnitude, drawn uniformly
    "1 to 10": lambda rng, size: rng.uniform(0.0, 1.0, size),
    "1e-300 to 1e300 in 50-decade steps": lambda rng, size: rng.choice(np.arange(-300, 301, 50), size) + rng.uniform(0.0, 1.0, size),
    "1e-320 to 1e-160": lambda rng, size: rng.uniform(-320.0, -160.0, size),
    "1e150 to 1e307": lambda rng, size: rng.uniform(150.0, 307.0, size),
    # every magnitude: differences past the float range, test rows far beyond their nearest rows
    "1e-323 to 1e308": lambda rng, size: rng.uniform(-323.0, 308.2, size),
}


def exact_case(band, seed):
    """``(rows, q, order)``: 2-6 rows and a test row of 1-4 values of ``band``, about 10 % of them zero;
    in 3 sets of 10 one row is a near-duplicate of ``q``. ``order`` is a permutation of the rows."""
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    values = rng.choice([-1.0, 1.0], (m + 1, d)) * 10.0 ** BANDS[band](rng, (m + 1, d)) * (rng.random((m + 1, d)) >= 0.1)
    rows, q = values[:m].tolist(), values[m].tolist()
    if rng.random() < 0.3:
        rows[int(rng.integers(0, m))] = [v * (1 + rng.choice([0.0, 1e-15, -1e-12, 1e-9, -1e-6])) for v in q]
    return rows, q, rng.permutation(m).tolist()


def squared_distances(rows, q):
    return [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, q)) for row in rows]


def cosines(rows, q):
    """The exact cosines, correctly rounded from their exact squares."""
    out = []
    for row in rows:
        dot = sum(Fraction(a) * Fraction(b) for a, b in zip(row, q))
        square = dot * dot / (sum(Fraction(a) ** 2 for a in row) * sum(Fraction(b) ** 2 for b in q))
        out.append(math.sqrt(float(square)) * (1 if dot >= 0 else -1))
    return out


def resolvably_farther(a, b) -> bool:
    """Whether the exact squared distance ``a`` is more than 1e-9 (relative) above ``b``."""
    return a > b * Fraction(1 + 1e-9) ** 2


def assert_ranked_as_exact(rows, q, exact):
    """``_distances`` of ``q`` to ``rows`` has no NaN and ranks every pair of rows that float64 can
    resolve as the exact squared distances ``exact`` do, so KNN at any k picks as exact arithmetic does."""
    D = _distances(np.array(rows, dtype=float), np.array([q], dtype=float))[0]
    assert not np.isnan(D).any(), D.tolist()
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert not (resolvably_farther(exact[j], exact[i]) and D[i] >= D[j]), (i, j, D.tolist())


@pytest.mark.parametrize("band", BANDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernels_pick_a_row_exact_arithmetic_cannot_resolve_from_the_best(band, seed):
    rows, q, order = exact_case(band, seed)
    m, f = len(rows), FeatureVector.of(q)
    ref = ReferenceSet.build(rows, list(range(m)), m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, divide or invalid-value warning on the way
        exact = squared_distances(rows, q)
        picked = knn_classify(ref, f, KnnConfig(1, "euclidean"))
        assert not resolvably_farther(exact[picked], min(exact))
        # every pair that float64 can resolve is ranked as exact arithmetic ranks it, so k > 1 holds too
        assert_ranked_as_exact(rows, q, exact)
        kernels = (
            lambda: knn_classify(ref, f, KnnConfig(1, "cosine")),
            lambda: nearest_label(ref, f, order),
            lambda: int(np.argmax(nn_attention_classify(ref, f, 1e-6))),
        )
        if not all(any(row) for row in rows) or not any(q):  # only an all-zero row is degenerate
            for kernel in kernels:
                with pytest.raises(DegenerateInputError):
                    kernel()
            return
        cos = cosines(rows, q)
        for kernel in kernels:
            assert cos[kernel()] >= max(cos) - 1e-12
        # every pair of cosines, so KNN at any k, and of representativeness scores, ranked as exact arithmetic ranks them
        C = unit_cosines(ref.unit_rows(), unit_rows(f.as_array()[None, :]))[0]
        rep, exact_rep = representativeness(rows), [sum(cosines(rows, row)) for row in rows]
        for i in range(m):
            for j in range(m):
                assert not (cos[i] > cos[j] + 1e-12 and C[i] <= C[j]), (i, j, C.tolist())
                assert not (exact_rep[i] > exact_rep[j] + 1e-9 and rep[i] <= rep[j]), (i, j, rep)


@pytest.mark.parametrize("rows, q, nearest", [
    ([[0.0, 0.0], [3e-170, 0.0]], [2e-170, 0.0], 1),  # both squared differences underflow to 0
    # a distance past the float range used to send the test row to one scale, 2e180, that flushed rows 3 and 4
    ([[8.7e100], [2.0e250], [-5.2e300], [6.3e-100], [-8.9e-150]], [6.6e-250], 4),
])
def test_distances_that_leave_the_normal_range_rank_as_exact_arithmetic_does(rows, q, nearest):
    ref = ReferenceSet.build(rows, list(range(len(rows))), len(rows))
    assert knn_classify(ref, FeatureVector.of(q), KnnConfig(1, "euclidean")) == nearest


@pytest.mark.parametrize("rows, q", [
    # row 0's difference is past the float range (2e308 in one value); row 1's are not, but it is farther
    ([[-1e308, 0.0], [-5e307, -5e307]], [1e308, 1e308]),
    # beside a difference past the range, near-duplicates of a huge test row and a row far beyond it
    ([[-1e308, -1e308], [1e308 * (1 - 2e-12), 1e308], [1e308 * (1 - 1e-12), 1e308], [0.0, 0.0], [1e308, -1e308]], [1e308, 1e308]),
    ([[1.7e308], [-1.7e308], [1e-300], [0.0], [-1e-300], [1.6e308]], [-1e300]),
    # far beyond its nearest row, which x - q loses bits of: row 1 (within 2**26) is nearer than row 0 (beyond)
    ([[0.0, 2e13], [-1.4e9, 0.0], [5e300, 0.0], [4e300, 0.0]], [1e17, 0.0]),
    # a tiny test row whose nearest row is zero, with two huge rows in order for k = 2
    ([[0.0], [5e300], [4e300], [1e-300]], [1e-250]),
])
def test_every_pair_of_rows_past_the_range_ranks_as_exact_arithmetic_does(rows, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_ranked_as_exact(rows, q, squared_distances(rows, q))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_row_whose_norm_is_in_range_keeps_its_bits(seed):
    """Rows of values from 1e-153 to 1e153 and a zero row: no row is scaled or copied, every unit row
    is ``np.linalg.norm``'s, and so is each euclidean distance of a test row near one of them."""
    rng = np.random.default_rng(seed)
    X = rng.choice([-1.0, 1.0], (5, 3)) * 10.0 ** rng.uniform(-153.0, 153.0, (5, 3)) * (rng.random((5, 3)) >= [0.0, 0.3, 0.3])
    X[0], X[1] = 0.0, rng.uniform(0.5, 2.0, 3)  # a zero row, and the row the test row is near
    norms = np.linalg.norm(X, axis=1)
    S, s, n = _scaled_rows(X)
    assert S is X and (s == 1.0).all() and np.array_equal(n, norms)
    assert np.array_equal(unit_rows(X, used=[1, 2, 3, 4])[1:], X[1:] / norms[1:, None])
    Q = X[1:2] * (1 + 1e-9)
    assert np.array_equal(_distances(X, Q), np.linalg.norm(X - Q[:, None, :], axis=2))


@pytest.mark.parametrize("X, s, n", [
    ([[1e-200, 1e-200]], [1e-200], [math.sqrt(2)]),
    ([[1e200, -1e200, 0.0]], [1e200], [math.sqrt(2)]),
    ([[0.0, 0.0]], [1.0], [0.0]),  # a zero row is not scaled: its norm is 0, so it is degenerate
    ([[5e-324, 0.0]], [5e-324], [1.0]),
    ([[2.0**-510, 0.0]], [1.0], [2.0**-510]),  # its square is a normal float: not scaled
    ([[2.0**-512, 0.0]], [2.0**-512], [1.0]),
])
def test_a_row_whose_norm_leaves_the_range_is_divided_by_its_largest_magnitude(X, s, n):
    S, got_s, got_n = _scaled_rows(np.array(X))
    assert got_s.tolist() == s and got_n.tolist() == pytest.approx(n, rel=1e-15)
    assert np.array_equal(S, np.array(X) / np.array(s)[:, None])
