import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta as scipy_zeta

from helpers import (
    fit_alpha_continuous,
    ks_distance,
    powerlaw_values_oracle,
    quantile_oracle,
    replicate_ks_oracle,
    sample_discrete_powerlaw_oracle,
    select_xmin_oracle,
)
from wsdepnet import powerlaw
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.powerlaw import (
    degree_distribution_rows,
    fit_power_law,
    gof_pvalue,
    model_tail_cdf,
    pvalue_from_replicates,
    select_xmin,
)
from wsdepnet.report import PowerLawFit

EMPTY_SLOT = (None, None, None)


@pytest.fixture(autouse=True)
def empty_table_slot():
    """Each test starts with no CDF table in powerlaw's slot and leaves none
    behind: a table built under a patched _scaled_zeta must not outlive it."""
    with mock.patch.object(powerlaw, "_slot", EMPTY_SLOT):
        yield


# -- Hurwitz zeta -------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.5, 6.0, 10.0])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 10, 50])
def test_hurwitz_zeta_against_scipy(alpha, q):
    ours = float(powerlaw._scaled_zeta(alpha, q, 1.0))
    ref = float(scipy_zeta(alpha, q))
    assert ours == pytest.approx(ref, rel=1e-10)


@given(
    alpha=st.floats(1.05, 20.0),
    q=st.integers(1, 100),
)
def test_hurwitz_zeta_property(alpha, q):
    ours = float(powerlaw._scaled_zeta(alpha, q, 1.0))
    ref = float(scipy_zeta(alpha, q))
    assert ours == pytest.approx(ref, rel=1e-8)


def test_zeta_recurrence():
    # zeta(a, q) = zeta(a, q+1) + q^-a
    for alpha in (1.5, 2.5, 4.0):
        for q in (1, 4, 9):
            lhs = float(powerlaw._scaled_zeta(alpha, q, 1.0))
            rhs = float(powerlaw._scaled_zeta(alpha, q + 1, 1.0)) + q**-alpha
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0, 20.0, 300.0])
def test_scaled_zeta_within_5e_12_of_scipy(scale):
    # q < scale too, where the direct terms run from q and their ratios are below 1
    alpha = np.linspace(1.5, 8.0, 131)[:, None]
    q = np.arange(1.0, 1001.0)
    ours = powerlaw._scaled_zeta(alpha, q, scale)
    assert np.max(np.abs(ours / (scipy_zeta(alpha, q) * scale**alpha) - 1.0)) <= 5e-12


# small values, ties and gaps; values where float64 spaces integers 2 apart; up to 2**62
SCAN_VALUES = st.one_of(st.integers(1, 40), st.integers(2**53 - 20, 2**53 + 20), st.integers(1, 2**62))


@given(
    rows=st.tuples(st.integers(1, 3), st.integers(2, 30)).flatmap(
        lambda shape: st.lists(
            st.lists(SCAN_VALUES, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
        )
    )
)
@settings(max_examples=150)
def test_scan_zeta_values_equal_elementwise_calls(rows):
    """Each (candidate, value) pair of the scan's grouped _scaled_zeta call is
    bit-identical to the same pair alone, and to its cell of the oracle's
    (candidate x distinct value) matrix, whose masked cells raise nothing."""
    samples = np.sort(np.array(rows, dtype=np.int64), axis=1)
    zeta, calls = powerlaw._scaled_zeta, []

    def recorded(alpha, q, scale, group=None):
        calls.append((alpha, q, scale, group, zeta(alpha, q, scale, group)))
        return calls[-1][-1]

    # the exponents of tails tied past 2**53 may be refused, and other cells overflow
    with mock.patch.object(powerlaw, "_scaled_zeta", recorded), np.errstate(all="ignore"):
        cand_row, v, alphas, _ = powerlaw._ks_scan(samples)
    ((alpha, q, scale, group, scaled),) = calls
    with np.errstate(all="ignore"):
        assert zeta(alpha[group], q, scale[group]).tobytes() == scaled.tobytes()
        for i in range(0, q.size, max(1, q.size // 7)):
            assert zeta(alpha[group[i]], q[i], scale[group[i]]).tobytes() == scaled[i : i + 1].tobytes()

    pairs = [np.zeros(0)]
    for r, sample in enumerate(samples):
        values, first = np.unique(sample, return_index=True)
        if values.size < 2:
            continue
        tail = sample.size - first  # candidates by position, as values past 2**53 share floats
        at = np.flatnonzero(tail >= (powerlaw._MIN_TAIL if (tail >= powerlaw._MIN_TAIL).any() else 2))
        log_sums = np.log(sample[::-1].astype(float)).cumsum()[::-1][first[at]]
        with np.errstate(divide="ignore"):
            exponent = 1.0 + tail[at] / (log_sums - tail[at] * np.log(values[at] - 0.5))
        at = at[(exponent > 1) & (exponent < np.inf)]  # refused otherwise
        mine = cand_row == r
        assert np.array_equal(values[at].astype(float), v[mine])
        # the oracle's errstate; cells with w < v, so q < scale, are masked out there
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore", divide="raise"):
            warnings.simplefilter("error")
            matrix = zeta(alphas[mine, None], values.astype(float)[None, :] + 1.0, v[mine, None])
        pairs += [cells[i:] for cells, i in zip(matrix, at)]
    assert np.concatenate(pairs).tobytes() == scaled[v.size :].tobytes()


def test_scan_refuses_exponents_outside_one_to_inf():
    # Past 2**53, v - 1/2 rounds to v: a tail tied at v gets a zero
    # denominator (alpha = inf, and a KS of nan) or one rounded below 0
    # (alpha < 1). Both are refused, in the bootstrap's block scan as in
    # select_xmin, so neither a fit nor a replicate's KS can be nan.
    samples = np.sort(
        np.array([[1] * 3 + [2**60] * 10, [1, 2, 3] + [2**55] * 10, list(range(1, 14))], dtype=np.int64), axis=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, v, alphas, ks = powerlaw._ks_scan(samples)
        fits = [select_xmin(sample) for sample in samples]
        assert select_xmin([1, 2**60, 2**60]) == select_xmin_oracle([1, 2**60, 2**60])
    assert ((alphas > 1) & (alphas < np.inf)).all() and not np.isnan(ks).any()
    assert {2.0**55, 2.0**60}.isdisjoint(v.tolist())
    ks_values = np.full(len(samples), np.inf)
    np.minimum.at(ks_values, rows, ks)  # a replicate's KS, as _replicate_ks takes it
    assert ks_values.tolist() == [ks for _, _, ks in fits]
    assert select_xmin([1, 2**60, 2**60])[0] == 1
    with pytest.raises(DegenerateAnalysisError, match=r"no exponent in \(1, inf\)"):
        select_xmin([2**60, 2**60 + 1, 2**60 + 1])


# -- MLE ----------------------------------------------------------------------


def _scan_alpha(data, xmin: int) -> float:
    """The exponent the KS scan fits at the cutoff xmin of one sample."""
    _, v, alphas, _ = powerlaw._ks_scan(np.sort(np.asarray(data, dtype=np.int64))[None, :])
    (at,) = np.flatnonzero(v == xmin)
    return float(alphas[at])


def test_fit_alpha_hand_vector():
    data = [2, 4, 8, 16]
    expected = 1 + 4 / math.log(1024 / 1.5**4)
    assert _scan_alpha(data, xmin=2) == pytest.approx(expected, rel=1e-12)


def test_fit_alpha_ignores_below_xmin():
    assert _scan_alpha([1, 1, 2, 4, 8, 16], xmin=2) == _scan_alpha([2, 4, 8, 16], xmin=2)


def test_fit_alpha_degenerate_tail():
    # a cutoff keeping fewer than 2 observations is never a candidate
    _, v, _, _ = powerlaw._ks_scan(np.array([[1, 1, 1, 5]]))
    assert v.tolist() == [1.0]


def test_fit_alpha_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive integers"):
        select_xmin([0, 1, 2])
    with pytest.raises(ValueError, match="positive integers"):
        select_xmin([1.5, 2.0])


def test_fit_alpha_continuous_formula():
    data = [2.0, 4.0, 8.0]
    expected = 1 + 3 / sum(math.log(x / 2.0) for x in data)
    assert fit_alpha_continuous(data, xmin=2) == pytest.approx(expected)


@given(
    seed=st.integers(0, 10_000),
    alpha=st.floats(1.8, 3.0),
    xmin=st.integers(4, 9),
)
@settings(max_examples=25)
def test_fit_alpha_consistency_on_synthetic(seed, alpha, xmin):
    # the shifted approximation is only trustworthy for xmin >= 4
    rng = np.random.default_rng(seed)
    data = powerlaw._tail_values(alpha, xmin, rng.random(3000))
    estimate = _scan_alpha(data, xmin=xmin)
    assert abs(estimate - alpha) < 0.25


# -- model CDF and KS ---------------------------------------------------------


def test_model_tail_cdf_monotone_bounded():
    values = np.arange(2, 40)
    cdf = model_tail_cdf(2.5, 2, values)
    assert np.all(np.diff(cdf) > 0)
    assert cdf[0] == pytest.approx(2.0**-2.5 / float(scipy_zeta(2.5, 2)), rel=1e-9)
    assert 0.0 < cdf[0] < cdf[-1] < 1.0


def test_ks_distance_small_for_exact_model():
    rng = np.random.default_rng(1)
    data = powerlaw._tail_values(2.3, 3, rng.random(20_000))
    assert ks_distance(data, 2.3, 3) < 0.02


def test_ks_distance_large_for_wrong_alpha():
    rng = np.random.default_rng(1)
    data = powerlaw._tail_values(2.3, 3, rng.random(20_000))
    assert ks_distance(data, 4.0, 3) > 0.2


# -- xmin selection -----------------------------------------------------------


def test_select_xmin_recovers_planted_cutoff():
    rng = np.random.default_rng(0)
    tail = powerlaw._tail_values(2.5, 5, rng.random(5000))
    xmin, alpha, ks = select_xmin(tail)
    assert xmin == 5
    assert alpha == pytest.approx(2.5, abs=0.1)
    assert ks < 0.02


def test_select_xmin_with_noise_below_cutoff():
    rng = np.random.default_rng(0)
    tail = powerlaw._tail_values(2.5, 8, rng.random(4000))
    noise = rng.integers(1, 8, size=2000)
    data = np.concatenate([tail, noise])
    xmin, alpha, _ = select_xmin(data)
    # never selects inside the noise; may overshoot the planted cutoff a bit
    assert 8 <= xmin <= 16
    assert alpha == pytest.approx(2.5, abs=0.15)


def test_select_xmin_respects_min_tail():
    data = list(range(1, 30))
    xmin, _, _ = select_xmin(data)
    assert sum(1 for x in data if x >= xmin) >= 10


def test_select_xmin_falls_back_to_two():
    xmin, alpha, _ = select_xmin([1, 1, 2, 3])
    assert sum(1 for x in [1, 1, 2, 3] if x >= xmin) >= 2


def test_select_xmin_degenerate():
    with pytest.raises(DegenerateAnalysisError):
        select_xmin([7])
    with pytest.raises(DegenerateAnalysisError):
        select_xmin([])


def _constant_zeta(alpha, q, scale, group=None):
    return np.ones(np.broadcast(alpha, q, scale).shape if group is None else np.shape(q))


@given(
    data=st.lists(st.integers(1, 60), min_size=0, max_size=80),
    min_tail=st.sampled_from([2, 5, 10, 30]),
    tied=st.booleans(),
)
@settings(max_examples=150)
def test_select_xmin_matches_oracle(data, min_tail, tied):
    # Real zeta values give no exact KS ties between cutoffs, so the tied
    # case replaces the model CDF by 0: every cutoff then has KS = 1.0.
    with (
        mock.patch.object(powerlaw, "_scaled_zeta", _constant_zeta if tied else powerlaw._scaled_zeta),
        mock.patch.object(powerlaw, "_MIN_TAIL", min_tail),
    ):
        try:
            expected = select_xmin_oracle(data, min_tail=min_tail)
        except DegenerateAnalysisError:
            with pytest.raises(DegenerateAnalysisError, match="fewer than 2 distinct values"):
                select_xmin(data)
            return
        assert select_xmin(data) == expected
    if tied:
        assert expected[0] == min(data)


# -- sampling -----------------------------------------------------------------


def test_sampler_respects_xmin_and_determinism():
    a = powerlaw._tail_values(2.5, 4, np.random.default_rng(9).random(1000))
    b = powerlaw._tail_values(2.5, 4, np.random.default_rng(9).random(1000))
    assert np.array_equal(a, b)
    assert a.min() >= 4
    assert a.dtype.kind == "i"


def test_sampler_marginal_frequencies():
    rng = np.random.default_rng(11)
    data = powerlaw._tail_values(2.5, 1, rng.random(200_000))
    p1 = np.mean(data == 1)
    expected = 1.0 / float(scipy_zeta(2.5, 1))
    assert p1 == pytest.approx(expected, abs=0.005)


def test_shared_table_draws_match_per_call_draws():
    # At alpha = 2 about 6e-4 of the mass lies beyond the first 1024-entry
    # table, so the large first draw grows the slot's table; the small later
    # draws would fit in a fresh table but are looked up in the grown one.
    alpha, xmin = 2.0, 1
    sizes = [5000] + [5] * 40 + [0, 1, 200]
    powerlaw._tail_values(alpha, xmin, np.zeros(1))
    fresh_top = float(powerlaw._slot[2][-1])
    fit_fresh = 0
    for r, size in enumerate(sizes):
        rng, twin = (np.random.default_rng((7, r)) for _ in range(2))
        drawn = powerlaw._tail_values(alpha, xmin, rng.random(size))
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, sample_discrete_powerlaw_oracle(alpha, xmin, size, twin))
        assert rng.random() == twin.random()
        if r == 0:
            assert powerlaw._slot[2].size > 1024
        elif size:
            fit_fresh += float(np.random.default_rng((7, r)).random(size).max()) <= fresh_top
    assert fit_fresh >= 10


def test_tail_table_stops_at_2_20_entries():
    # At alpha = 1.85 one of these 90,000 draws lies past 2**20; the table
    # stops there (8 MB) and that draw bisects the exact CDF instead of
    # growing the table to 2**22 entries.
    alpha, xmin = 1.85, 1
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    past_table = 0
    for _ in range(300):
        drawn, u = powerlaw._tail_values(alpha, xmin, rng.random(300)), twin.random(300)
        cdf = powerlaw._slot[2]
        assert cdf.size <= 2**20
        inside = drawn < xmin + cdf.size
        assert np.array_equal(drawn[inside], xmin + np.searchsorted(cdf, u[inside], side="left"))
        for value, ui in zip(drawn[~inside], u[~inside]):
            past_table += 1
            assert value == powerlaw._quantile(alpha, xmin, float(ui))
    assert powerlaw._slot[2].size == 2**20
    assert past_table >= 1


def test_extreme_tail_draws_equal_per_draw_bisection():
    # At alpha = 1.3 about 1.6% of the mass lies past 2**20, so dozens of
    # these draws bisect the exact CDF together; the oracle bisects each
    # draw on its own
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    drawn = powerlaw._tail_values(1.3, 1, rng.random(3000))
    assert np.array_equal(drawn, sample_discrete_powerlaw_oracle(1.3, 1, 3000, twin))
    assert np.count_nonzero(drawn >= 1 + 2**20) >= 20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_draw_just_below_int64_max_equals_bisection():
    # at alpha = 1.05 these quantiles lie in (2**62, 2**63 - 1]: the doubling
    # stops at hi = 2**63 - 1, and lo + hi would wrap
    alpha, xmin = 1.05, 1
    low, high = powerlaw.model_tail_cdf(alpha, xmin, [2**62, 2**63 - 1])
    u = np.linspace(low, high, 7)[1:]
    drawn = powerlaw._tail_values(alpha, xmin, u)
    assert drawn.min() > 2**62
    assert drawn.tolist() == [quantile_oracle(alpha, xmin, float(ui)) for ui in u]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quantile_past_2_62_within_int64_equals_bisection():
    # for xmin > 1 hi runs (xmin + 1) * 2**k - 1, which passes 2**62 short of
    # these quantiles; the doubling stops at 2**63 - 1 rather than raising
    alpha = 1.05
    for xmin in [2, 3, 5, 7]:
        u = powerlaw.model_tail_cdf(alpha, xmin, [2**62 + 12345, 6.9e18, 8e18, 9.2e18])
        drawn = powerlaw._quantile(alpha, xmin, u)
        assert drawn.tolist() == [quantile_oracle(alpha, xmin, float(ui)) for ui in u]


def test_one_grown_table_per_process():
    # the slot keeps the table of the last law drawn from: each law drops the
    # table of the one before (B shares A's alpha, C shares B's xmin), and A's
    # draws, repeated, regrow it
    u = np.random.default_rng(3).random(5000)
    drawn, tables = [], []
    for alpha, xmin in [(2.0, 1), (2.0, 2), (1.8, 2)]:
        drawn.append(powerlaw._tail_values(alpha, xmin, u))
        assert np.array_equal(drawn[-1], powerlaw_values_oracle(alpha, xmin, u))
        law, _, cdf = powerlaw._slot
        assert law == (alpha, xmin) and cdf.size > 1024
        assert all(table() is None for table in tables)
        tables.append(weakref.ref(cdf))
    assert np.array_equal(powerlaw._tail_values(2.0, 1, u), drawn[0])


@pytest.mark.parametrize("alpha, xmin", [(2.0, 1), (1.3, 4)])
def test_table_grown_in_pieces_equals_one_shot_cumsum(alpha, xmin):
    norm = float(powerlaw._scaled_zeta(alpha, float(xmin), float(xmin)))
    one_shot = np.cumsum((np.arange(xmin, xmin + 2**20, dtype=float) / xmin) ** -alpha / norm)
    for size in [1024, 4**6, 4**7, 4**8, 4**9, 4**10]:
        # a draw of one_shot[size - 1] needs the first `size` entries
        assert powerlaw._tail_values(alpha, xmin, one_shot[[size - 1]]).tolist() == [xmin + size - 1]
        assert np.array_equal(powerlaw._slot[2], one_shot[:size])


def test_table_growth_to_2_20_entries_stays_under_12_mb():
    # the old table (2 MiB), the new one (8 MiB) and one piece of ratios (0.5 MiB);
    # the one-shot cumsum of all 2**20 entries took 26 MiB
    alpha, xmin = 2.0, 1
    u = powerlaw.model_tail_cdf(alpha, xmin, [2**19 + 5])
    tracemalloc.start()
    try:
        drawn = powerlaw._tail_values(alpha, xmin, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert powerlaw._slot[2].size == 2**20
    assert peak <= 12 * 2**20
    # the table agrees with the exact CDF to 1e-13, where the steps near 2**19 are
    # 2.2e-12 apart: u, exactly on the step of 2**19 + 5, may draw either side of
    # it, and uniforms 1e-13 off the step draw as the exact CDF's bisection does
    x = np.arange(xmin, xmin + 2**20, 16)
    assert np.abs(powerlaw._slot[2][x - xmin] - powerlaw.model_tail_cdf(alpha, xmin, x)).max() <= 1e-13
    exact = quantile_oracle(alpha, xmin, float(u[0]))
    assert exact == 2**19 + 5 and drawn[0] in (exact, exact + 1)
    off = u[0] + np.array([-1e-13, 1e-13])
    assert powerlaw._tail_values(alpha, xmin, off).tolist() == [exact, exact + 1]
    assert [quantile_oracle(alpha, xmin, float(ui)) for ui in off] == [exact, exact + 1]


def test_draw_past_int64_raises():
    # at alpha = 1.05 the quantile of 1 - 1e-12 lies near 1e240
    with pytest.raises(DegenerateAnalysisError, match="a bootstrap draw lies past the int64 range"):
        powerlaw._tail_values(1.05, 1, np.array([0.5, 1 - 1e-12]))


# -- goodness of fit ----------------------------------------------------------


def test_pvalue_from_replicates():
    assert pvalue_from_replicates(0.5, [0.1, 0.6, 0.7, 0.4]) == pytest.approx(0.5)
    assert pvalue_from_replicates(0.0, [0.1]) == 1.0


def test_gof_requires_enough_replicates():
    rng = np.random.default_rng(0)
    data = powerlaw._tail_values(2.5, 2, rng.random(500))
    fit = fit_power_law(data, replicates=0)
    with pytest.raises(ValueError, match="replicates"):
        gof_pvalue(data, fit, replicates=50, seed=0)


def _check_against_oracle(data, replicates, seed, min_tail, rows_per_block, tied=False):
    # a fresh table slot, so no table outlives the zeta it was built with
    with (
        mock.patch.object(powerlaw, "_scaled_zeta", _constant_zeta if tied else powerlaw._scaled_zeta),
        mock.patch.object(powerlaw, "_slot", EMPTY_SLOT),
        mock.patch.object(powerlaw, "_MIN_TAIL", min_tail),
    ):
        fit = fit_power_law(data, replicates=0)
        assert (fit.xmin, fit.alpha, fit.ks_statistic) == select_xmin_oracle(data, min_tail=min_tail)
        arr = np.asarray(data, dtype=np.int64)
        with mock.patch.object(powerlaw, "_BLOCK_CELLS", rows_per_block * arr.size):
            try:
                expected = replicate_ks_oracle(data, fit, replicates, seed, min_tail=min_tail)
            except OverflowError:  # a rare draw past the int64 range, possible where alpha < 1.3
                with pytest.raises(DegenerateAnalysisError, match="past the int64 range"):
                    powerlaw._replicate_ks(arr, fit, replicates, seed)
                return None
            got = powerlaw._replicate_ks(arr, fit, replicates, seed)
            p_value = gof_pvalue(data, fit, replicates=replicates, seed=seed)
    assert np.array_equal(got, expected)
    assert p_value == pvalue_from_replicates(fit.ks_statistic, expected)
    return expected


@given(
    data=st.lists(st.integers(1, 40), min_size=3, max_size=60),
    replicates=st.sampled_from([100, 101, 257]),
    seed=st.integers(0, 2**32 - 1),
    min_tail=st.sampled_from([2, 10, 30]),
    rows_per_block=st.sampled_from([1, 7, 100, 1000]),
    tied=st.booleans(),
)
@settings(max_examples=30)
# the oracle's scan meets inf - inf on pairs below the cutoff here
@example(data=[1, 1, 20], replicates=257, seed=87, min_tail=2, rows_per_block=1, tied=False)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_bootstrap_matches_per_replicate_oracle(data, replicates, seed, min_tail, rows_per_block, tied):
    try:
        _check_against_oracle(data, replicates, seed, min_tail, rows_per_block, tied)
    except DegenerateAnalysisError:
        assert len(set(data)) < 2


@given(
    data=st.lists(st.integers(1, 40), min_size=3, max_size=60),
    replicates=st.integers(1, 120),
    cuts=st.lists(st.integers(0, 120), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    min_tail=st.sampled_from([2, 10]),
    rows_per_block=st.sampled_from([1, 7, 1000]),
)
@settings(max_examples=40)
# replicates of this sample collapse to one value (KS = inf)
@example(data=[1, 1, 1, 1, 1, 1, 2, 2, 3], replicates=100, cuts=[37, 60], seed=0, min_tail=10, rows_per_block=7)
def test_replicate_ranges_join_into_one_range(data, replicates, cuts, seed, min_tail, rows_per_block):
    arr = np.asarray(data, dtype=np.int64)
    bounds = sorted({0, replicates, *(c for c in cuts if c < replicates)})
    with (
        mock.patch.object(powerlaw, "_MIN_TAIL", min_tail),
        mock.patch.object(powerlaw, "_BLOCK_CELLS", rows_per_block * arr.size),
    ):
        try:
            fit = fit_power_law(data, replicates=0)
        except DegenerateAnalysisError:
            assert len(set(data)) < 2
            return
        whole = powerlaw._replicate_ks(arr, fit, replicates, seed)
        parts = [powerlaw._replicate_ks(arr, fit, stop, seed, start) for start, stop in zip(bounds, bounds[1:])]
    assert [part.size for part in parts] == [stop - start for start, stop in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("most", [1, 3, 32])
def test_bootstrap_blocks_join_into_one_range(most):
    rng = np.random.default_rng(4)
    arr = np.concatenate([powerlaw._tail_values(2.3, 3, rng.random(200)), rng.integers(1, 3, size=70)])
    fit = fit_power_law(arr, replicates=0)
    whole = powerlaw._replicate_ks(arr, fit, 1000, 11)
    blocks = powerlaw.bootstrap_blocks(arr, fit, 1000, 11, most)
    assert len(blocks) <= most
    assert all(block.args[-1] % powerlaw._CHUNK == 0 for block in blocks)  # each starts a chunk
    assert np.array_equal(np.concatenate([block() for block in blocks]), whole)


def test_bootstrap_draw_past_int64_is_degenerate():
    # at alpha = 1.1 and xmin = 1 about 1.3% of the draws lie past 2**62
    fit = PowerLawFit(alpha=1.1, xmin=1, ks_statistic=0.1, p_value=None, n_tail=300, bootstrap_n=0)
    with pytest.raises(DegenerateAnalysisError, match="a bootstrap draw lies past the int64 range"):
        gof_pvalue(np.arange(1, 301), fit, 100, 0)


@pytest.mark.parametrize("replicates", [100, 101, 257])
def test_batched_bootstrap_edge_cases(replicates):
    # every replicate below min_tail takes the 2-observation fallback
    small = [1, 2, 2, 3, 5, 8, 13]
    _check_against_oracle(small, replicates, 3, 10, 100)
    # replicates that collapse to one value count as KS = inf
    collapsing = [1, 1, 1, 1, 1, 1, 2, 2, 3]
    assert np.isinf(_check_against_oracle(collapsing, replicates, 0, 10, 100)).any()
    # paper-scale sample (n = 270) in blocks of 100 replicates
    rng = np.random.default_rng(replicates)
    heavy = np.concatenate([powerlaw._tail_values(2.3, 3, rng.random(200)), rng.integers(1, 3, size=70)])
    _check_against_oracle(heavy, replicates, 5, 10, 100)


def test_fit_power_law_without_bootstrap():
    rng = np.random.default_rng(5)
    data = powerlaw._tail_values(2.2, 3, rng.random(2000))
    fit = fit_power_law(data, replicates=0)
    assert fit.p_value is None
    assert fit.bootstrap_n == 0
    assert fit.n_tail == int(np.sum(data >= fit.xmin))


def test_fit_power_law_deterministic():
    rng = np.random.default_rng(6)
    data = powerlaw._tail_values(2.5, 2, rng.random(800))
    a = fit_power_law(data, replicates=100, seed=3)
    b = fit_power_law(data, replicates=100, seed=3)
    assert a == b
    c = fit_power_law(data, replicates=100, seed=4)
    assert c.p_value != a.p_value or c == a


def test_fit_power_law_plausible_p_on_true_model():
    rng = np.random.default_rng(8)
    data = powerlaw._tail_values(2.5, 5, rng.random(3000))
    fit = fit_power_law(data, replicates=200, seed=0)
    assert fit.p_value is not None and fit.p_value > 0.05


def test_fit_power_law_rejects_uniform_data():
    rng = np.random.default_rng(2)
    data = rng.integers(1, 61, size=5000)
    fit = fit_power_law(data, replicates=200, seed=0)
    assert fit.p_value is not None and fit.p_value < 0.05


# -- degree distribution rows -------------------------------------------------


def test_degree_distribution_rows_basic():
    rows = degree_distribution_rows([1, 1, 2, 5])
    degrees = [r[0] for r in rows]
    counts = [r[1] for r in rows]
    ccdfs = [r[2] for r in rows]
    assert degrees == [1, 2, 5]
    assert counts == [2, 1, 1]
    assert ccdfs[0] == pytest.approx(1.0)
    assert ccdfs[1] == pytest.approx(0.5)
    assert ccdfs[2] == pytest.approx(0.25)


def test_degree_distribution_rows_skip_zeros_but_keep_in_ccdf():
    rows = degree_distribution_rows([0, 0, 1, 3])
    assert [r[0] for r in rows] == [0, 1, 3]
    assert rows[0][2] == pytest.approx(1.0)
