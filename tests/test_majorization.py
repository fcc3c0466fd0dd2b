import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from uqcr import (
    LorenzCurve,
    ProbVector,
    direct_sum,
    from_unsorted,
    is_majorized_by,
    join,
    join_all,
    lorenz,
    meet,
    meet_all,
    relative_entropy_term,
    shannon_entropy,
)
from uqcr.majorization import (
    EmptySet,
    NegativeEntry,
    NotConcave,
    SumMismatch,
    SupportMismatch,
    TotalMismatch,
    from_prefix_sums,
    join_prefix_sums,
    least_concave_majorant,
)

from uqcr.errors import UqcrError

from helpers import brute_least_concave_majorant, prefix_majorized, random_probvector


def pv(*entries, total=1.0):
    return ProbVector(np.array(entries, dtype=float), total)


# ---------------------------------------------------------------------------
# construction

def test_from_unsorted_sorts():
    assert np.allclose(from_unsorted([0.3, 0.7]).entries, [0.7, 0.3])
    assert np.allclose(from_unsorted([0.25] * 4).entries, [0.25] * 4)
    assert np.allclose(from_unsorted([0.5, 0.1, 0.4]).entries, [0.5, 0.4, 0.1])


def test_from_unsorted_clamps_roundoff():
    p = from_unsorted([1.0 + 5e-13, -5e-13], 1.0)
    assert p.entries[1] == 0.0
    assert p.entries.sum() == 1.0


def test_from_unsorted_rejects_bad_input():
    with pytest.raises(NegativeEntry):
        from_unsorted([1.1, -0.1], 1.0)
    with pytest.raises(SumMismatch):
        from_unsorted([0.6, 0.3], 1.0)


def test_probvector_invariants():
    with pytest.raises(ValueError):
        pv(0.3, 0.7)  # increasing
    with pytest.raises(SumMismatch):
        ProbVector(np.array([0.6, 0.3]), 1.0)


@pytest.mark.parametrize("entries, total", [
    ([math.nan, 1.0], 2.0),
    ([1.0, math.nan], 2.0),
    ([0.5, 0.5], math.nan),
], ids=["first", "last", "total"])
def test_probvector_rejects_nan(entries, total):
    # NaN passes every comparison, so the sum check is written to fail on it
    with pytest.raises(SumMismatch, match="nan"):
        ProbVector(np.array(entries), total)


def test_padding_preserves_total():
    p = pv(0.7, 0.3).padded(4)
    assert len(p) == 4 and p.total == 1.0


# ---------------------------------------------------------------------------
# partial order

def test_majorization_extremes():
    assert is_majorized_by(pv(0.5, 0.5), pv(1.0, 0.0))
    assert not is_majorized_by(pv(1.0, 0.0), pv(0.5, 0.5))


def test_incomparable_pair():
    a = pv(0.6, 0.3, 0.1)
    b = pv(0.5, 0.45, 0.05)
    assert not is_majorized_by(a, b)
    assert not is_majorized_by(b, a)


def test_total_mismatch():
    with pytest.raises(TotalMismatch):
        is_majorized_by(pv(0.7, 0.3), pv(1.0, 1.0, total=2.0))


# ---------------------------------------------------------------------------
# meet / join

def test_meet_ordered_pair():
    assert np.allclose(meet(pv(0.8, 0.2), pv(0.6, 0.4)).entries, [0.6, 0.4])


def test_meet_prefix_minima():
    got = meet(pv(0.6, 0.3, 0.1), pv(0.5, 0.45, 0.05))
    assert np.allclose(got.entries, [0.5, 0.4, 0.1])


def test_meet_idempotent():
    a = pv(0.5, 0.3, 0.2)
    assert np.allclose(meet(a, a).entries, a.entries)


def test_meet_all_singleton_and_chain():
    assert np.allclose(meet_all([pv(0.7, 0.3)]).entries, [0.7, 0.3])
    chain = [pv(0.8, 0.2), pv(0.6, 0.4), pv(0.7, 0.3)]
    assert np.allclose(meet_all(chain).entries, [0.6, 0.4])


def test_meet_all_joint_prefix_minima():
    vs = [pv(0.6, 0.3, 0.1), pv(0.5, 0.45, 0.05), pv(0.55, 0.3, 0.15)]
    # independent oracle: joint minima of the cumulative sums
    prefixes = np.stack([np.cumsum(v.entries) for v in vs]).min(axis=0)
    expected = np.diff(prefixes, prepend=0.0)
    assert np.allclose(expected, [0.5, 0.35, 0.15])
    assert np.allclose(meet_all(vs).entries, expected)


def test_meet_all_empty():
    with pytest.raises(EmptySet):
        meet_all([])


def test_from_prefix_sums_pools_dust_and_refuses_a_bend():
    # differences 0.5, 0.25, 0.25 + 1e-10, -1e-13: the rise is pooled, the
    # negative entry clamped, and the excess taken off the first entry
    curve = np.cumsum([0.0, 0.5, 0.25, 0.25 + 1e-10, -1e-13])
    got = from_prefix_sums(curve, 1.0, 1e-9)
    assert np.allclose(got.entries, [0.5 - 1e-10, 0.25 + 5e-11, 0.25 + 5e-11, 0.0],
                       rtol=0.0, atol=1e-15)
    assert got.entries[-1] == 0.0 and got.entries[1] == got.entries[2]
    assert abs(got.entries.sum() - 1.0) <= 1e-15
    with pytest.raises(NotConcave, match="increases by 1.000e-10"):
        from_prefix_sums(curve, 1.0, 1e-11)
    assert issubclass(NotConcave, UqcrError) and issubclass(NotConcave, ValueError)


def test_join_concave_case():
    got = join(pv(0.6, 0.3, 0.1), pv(0.5, 0.45, 0.05))
    assert np.allclose(got.entries, [0.6, 0.35, 0.05])


def test_join_needs_flattening():
    got = join(pv(0.7, 0.1, 0.1, 0.1), pv(0.4, 0.4, 0.2, 0.0))
    assert np.allclose(got.entries, [0.7, 0.15, 0.15, 0.0])


def test_join_idempotent():
    a = pv(0.5, 0.3, 0.2)
    assert np.allclose(join(a, a).entries, a.entries)


def test_join_all_singleton_empty_and_bad_totals():
    a = pv(0.5, 0.3, 0.2)
    assert np.allclose(join_all([a]).entries, a.entries, rtol=0.0, atol=1e-15)
    with pytest.raises(EmptySet):
        join_all([])
    with pytest.raises(TotalMismatch):
        join_all([pv(0.7, 0.3), pv(1.2, 0.8, total=2.0)])
    with pytest.raises(SumMismatch):
        join_prefix_sums(np.array([[0.6, 1.0], [0.6, 1.1]]), 1.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_join_all_equals_left_fold(dim, count, seed):
    gen = np.random.default_rng(seed)
    vs = [random_probvector(gen, dim) for _ in range(count)]
    folded = functools.reduce(join, vs)
    assert np.allclose(
        join_all(vs).prefix_sums(), folded.prefix_sums(), rtol=0.0, atol=1e-12
    )


def test_lcm_matches_brute_force(rng):
    for _ in range(50):
        n = rng.integers(2, 9)
        a = random_probvector(rng, int(n))
        b = random_probvector(rng, int(n))
        high = np.concatenate(
            ([0.0], np.maximum(np.cumsum(a.entries), np.cumsum(b.entries)))
        )
        assert np.allclose(
            least_concave_majorant(high), brute_least_concave_majorant(high), atol=1e-10
        )


# ---------------------------------------------------------------------------
# direct sum / lorenz

def test_direct_sum_examples():
    got = direct_sum([pv(0.7, 0.3), pv(0.6, 0.4)])
    assert got.total == 2.0
    assert np.allclose(got.entries, [0.7, 0.6, 0.4, 0.3])
    got = direct_sum([pv(1.0, 0.0), pv(0.5, 0.5)])
    assert np.allclose(got.entries, [1.0, 0.5, 0.5, 0.0])
    got = direct_sum([pv(0.5, 0.5)] * 3)
    assert got.total == 3.0 and np.allclose(got.entries, [0.5] * 6)


def test_lorenz_examples():
    assert np.allclose(lorenz(pv(0.7, 0.3)).values, [0.0, 0.7, 1.0])
    assert np.allclose(
        lorenz(pv(0.5, 0.5, 0.5, 0.5, total=2.0)).values, [0.0, 0.5, 1.0, 1.5, 2.0]
    )
    assert np.allclose(lorenz(pv(1.0, 0.0)).values, [0.0, 1.0, 1.0])


def test_prefix_sums_are_cached_and_read_only():
    p = pv(0.5, 0.3, 0.2)
    sums = p.prefix_sums()
    assert p.prefix_sums() is sums
    np.testing.assert_allclose(sums, [0.5, 0.8, 1.0], rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError):
        sums[0] = 0.0


def test_entropy_is_computed_once_per_vector_and_unit(monkeypatch):
    # a fixed envelope's cap is read once per unit, with the same bits as
    # the formula, however many states it is checked against
    p = pv(0.5, 0.25, 0.25, 0.0)
    first = {unit: shannon_entropy(p, unit) for unit in ("bits", "nats")}
    assert first["bits"] == 1.5
    arr = p.entries[p.entries > 0.0]
    assert first["nats"] == float(-(arr * (np.log(arr) / math.log(math.e))).sum() + 0.0)
    monkeypatch.setattr(np, "log", None)  # a second computation would fail
    assert {unit: shannon_entropy(p, unit) for unit in ("bits", "nats")} == first
    with pytest.raises(KeyError):
        shannon_entropy(p, "hartleys")


def test_lorenz_curve_validation():
    with pytest.raises(ValueError):
        LorenzCurve(np.array([0.0, 0.2, 1.0]), 1.0)  # convex increments
    with pytest.raises(ValueError):
        LorenzCurve(np.array([0.1, 0.7, 1.0]), 1.0)  # does not start at zero
    with pytest.raises(ValueError):
        LorenzCurve(np.array([0.0, 0.7, 0.9]), 1.0)  # does not end at the total
    with pytest.raises(ValueError):
        LorenzCurve(np.array([0.0, 1.2, 1.0]), 1.0)  # decreasing


# ---------------------------------------------------------------------------
# entropy functionals

def test_shannon_entropy_values():
    assert shannon_entropy(pv(0.5, 0.5)) == pytest.approx(1.0)
    assert shannon_entropy(pv(1.0, 0.0)) == 0.0
    assert shannon_entropy(pv(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)
    assert shannon_entropy(pv(0.5, 0.5), unit="nats") == pytest.approx(math.log(2))


def test_relative_entropy_term():
    t = pv(0.5, 0.5)
    assert relative_entropy_term(t, t) == pytest.approx(0.0)
    with pytest.raises(SupportMismatch):
        relative_entropy_term(t, pv(1.0, 0.0))
    expected = 0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
    assert relative_entropy_term(t, pv(0.75, 0.25)) == pytest.approx(expected)
    assert expected == pytest.approx(0.2075, abs=1e-4)


def test_relative_entropy_nonnegative(rng):
    for _ in range(100):
        n = int(rng.integers(2, 8))
        t = random_probvector(rng, n)
        p = random_probvector(rng, n)
        assert relative_entropy_term(t, p) >= -1e-12


# ---------------------------------------------------------------------------
# lattice laws (property-based)

def _vector_strategy(dim):
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=dim, max_size=dim
    ).map(lambda raw: from_unsorted(np.array(raw) / sum(raw), 1.0))


@st.composite
def vector_pairs(draw, max_dim=8):
    dim = draw(st.integers(2, max_dim))
    return draw(_vector_strategy(dim)), draw(_vector_strategy(dim))


@settings(max_examples=120, deadline=None)
@given(vector_pairs())
def test_meet_join_bound_laws(pair):
    a, b = pair
    m, j = meet(a, b), join(a, b)
    assert prefix_majorized(m, a) and prefix_majorized(m, b)
    assert prefix_majorized(a, j) and prefix_majorized(b, j)
    # commutativity
    assert np.allclose(m.entries, meet(b, a).entries, atol=1e-12)
    assert np.allclose(j.entries, join(b, a).entries, atol=1e-12)
    # absorption
    assert np.allclose(meet(a, join(a, b)).entries, a.entries, atol=1e-10)
    assert np.allclose(join(a, meet(a, b)).entries, a.entries, atol=1e-10)
    # meet output stays concave
    assert np.all(np.diff(m.entries) <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(vector_pairs(max_dim=6))
def test_meet_is_greatest_lower_bound(pair):
    a, b = pair
    m = meet(a, b)
    n = len(a)
    uniform = ProbVector(np.full(n, 1.0 / n))
    # anything below both is below the meet; uniform mixes reach below both
    for lam in (0.25, 0.5, 0.9):
        c = from_unsorted(lam * uniform.entries + (1 - lam) * m.entries)
        assert prefix_majorized(c, a) and prefix_majorized(c, b)
        assert prefix_majorized(c, m)


@settings(max_examples=60, deadline=None)
@given(vector_pairs(max_dim=6), st.integers(0, 2 ** 32 - 1))
def test_random_common_lower_bounds_stay_below_meet(pair, seed):
    # c = (1 - lam) uniform + lam r with the largest lam in [0, 1] whose
    # prefixes stay at or below those of a and b
    a, b = pair
    n = len(a)
    r = random_probvector(np.random.default_rng(seed), n)
    floor = np.arange(1, n + 1) / n
    room = np.minimum(np.cumsum(a.entries), np.cumsum(b.entries)) - floor
    rise = np.cumsum(r.entries) - floor
    lam = max(0.0, min([1.0] + [float(x / y) for x, y in zip(room, rise) if y > 0.0]))
    c = ProbVector((1.0 - lam) / n + lam * r.entries)
    assert prefix_majorized(c, a) and prefix_majorized(c, b)
    assert prefix_majorized(c, meet(a, b))


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_bottom_and_top(pair):
    a, _ = pair
    n = len(a)
    assert prefix_majorized(ProbVector(np.full(n, 1.0 / n)), a)
    top = np.zeros(n)
    top[0] = 1.0
    assert prefix_majorized(a, ProbVector(top))


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_schur_concavity(pair):
    a, b = pair
    m = meet(a, b)
    assert shannon_entropy(m) >= shannon_entropy(a) - 1e-10
    assert shannon_entropy(m) >= shannon_entropy(b) - 1e-10
    j = join(a, b)
    assert shannon_entropy(j) <= shannon_entropy(a) + 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_associativity_and_direct_sum_endpoints(dim, m_count, seed):
    gen = np.random.default_rng(seed)
    a, b, c = (random_probvector(gen, dim) for _ in range(3))
    left = meet(meet(a, b), c)
    right = meet(a, meet(b, c))
    assert np.allclose(left.entries, right.entries, atol=1e-12)
    left = join(join(a, b), c)
    right = join(a, join(b, c))
    assert np.allclose(left.entries, right.entries, atol=1e-10)
    vs = [random_probvector(gen, dim) for _ in range(m_count)]
    curve = lorenz(direct_sum(vs))
    assert curve.values[0] == 0.0
    assert curve.values[-1] == pytest.approx(m_count, abs=1e-12)
