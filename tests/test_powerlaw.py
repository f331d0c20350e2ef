import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta as scipy_zeta

from helpers import (
    fit_alpha_continuous,
    ks_distance,
    model_tail_cdf,
    powerlaw_values_oracle,
    replicate_ks_oracle,
    scaled_zeta,
    select_xmin_oracle,
    tail_draws_oracle,
)
from wsdepnet import powerlaw
from wsdepnet.errors import DegenerateAnalysisError
from wsdepnet.powerlaw import (
    degree_distribution_rows,
    fit_power_law,
    gof_pvalue,
    pvalue_from_replicates,
    select_xmin,
)
from wsdepnet.report import PowerLawFit

# -- Hurwitz zeta -------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.5, 6.0, 10.0])
@pytest.mark.parametrize("q", [1, 2, 3, 5, 10, 50])
def test_hurwitz_zeta_against_scipy(alpha, q):
    ours = float(scaled_zeta(alpha, q, 1.0))
    ref = float(scipy_zeta(alpha, q))
    assert ours == pytest.approx(ref, rel=1e-10)


@given(
    alpha=st.floats(1.05, 20.0),
    q=st.integers(1, 100),
)
def test_hurwitz_zeta_property(alpha, q):
    ours = float(scaled_zeta(alpha, q, 1.0))
    ref = float(scipy_zeta(alpha, q))
    assert ours == pytest.approx(ref, rel=1e-8)


def test_zeta_recurrence():
    # zeta(a, q) = zeta(a, q+1) + q^-a
    for alpha in (1.5, 2.5, 4.0):
        for q in (1, 4, 9):
            lhs = float(scaled_zeta(alpha, q, 1.0))
            rhs = float(scaled_zeta(alpha, q + 1, 1.0)) + q**-alpha
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 2.0, 20.0, 300.0])
def test_scaled_zeta_within_5e_12_of_scipy(scale):
    alpha = np.linspace(1.5, 8.0, 131)[:, None]
    q = np.arange(scale, 1001.0)
    ours = scaled_zeta(alpha, q, scale)
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
    (candidate x distinct value >= candidate) cells, which raise nothing."""
    samples = np.sort(np.array(rows, dtype=np.int64), axis=1)
    zeta, calls = powerlaw._scaled_zeta, []

    def recorded(alpha, q, scale, group):
        calls.append((alpha, q, scale, group, zeta(alpha, q, scale, group)))
        return calls[-1][-1]

    # the exponents of tails tied past 2**53 may be refused
    with mock.patch.object(powerlaw, "_scaled_zeta", recorded), np.errstate(all="ignore"):
        cand_row, v, alphas, _ = powerlaw._ks_scan(samples)
    ((alpha, q, scale, group, scaled),) = calls
    with np.errstate(all="ignore"):
        assert scaled_zeta(alpha[group], q, scale[group]).tobytes() == scaled.tobytes()
        for i in range(0, q.size, max(1, q.size // 7)):
            assert scaled_zeta(alpha[group[i]], q[i], scale[group[i]]).tobytes() == scaled[i : i + 1].tobytes()

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
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            pairs += [scaled_zeta(a, values[i:].astype(float) + 1.0, c) for a, c, i in zip(alphas[mine], v[mine], at)]
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
    data = powerlaw_values_oracle(alpha, xmin, rng.random(3000))
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
    data = powerlaw_values_oracle(2.3, 3, rng.random(20_000))
    assert ks_distance(data, 2.3, 3) < 0.02


def test_ks_distance_large_for_wrong_alpha():
    rng = np.random.default_rng(1)
    data = powerlaw_values_oracle(2.3, 3, rng.random(20_000))
    assert ks_distance(data, 4.0, 3) > 0.2


# -- xmin selection -----------------------------------------------------------


def test_select_xmin_recovers_planted_cutoff():
    rng = np.random.default_rng(0)
    tail = powerlaw_values_oracle(2.5, 5, rng.random(5000))
    xmin, alpha, ks = select_xmin(tail)
    assert xmin == 5
    assert alpha == pytest.approx(2.5, abs=0.1)
    assert ks < 0.02


def test_select_xmin_with_noise_below_cutoff():
    rng = np.random.default_rng(0)
    tail = powerlaw_values_oracle(2.5, 8, rng.random(4000))
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


def _constant_zeta(alpha, q, scale, group):
    return np.ones(np.shape(q))


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
    a = powerlaw._tail_draws(np.random.default_rng(9), 2.5, 4, 1000)
    b = powerlaw._tail_draws(np.random.default_rng(9), 2.5, 4, 1000)
    assert np.array_equal(a, b)
    assert a.size == 1000 and a.min() >= 4
    assert np.array_equal(a, np.floor(a))


def test_sampler_marginal_frequencies():
    rng = np.random.default_rng(11)
    data = powerlaw._tail_draws(rng, 2.5, 1, 200_000)
    p1 = np.mean(data == 1)
    expected = 1.0 / float(scipy_zeta(2.5, 1))
    assert p1 == pytest.approx(expected, abs=0.005)


@pytest.mark.parametrize("alpha, xmin, count", [(2.5, 1, 0), (2.5, 1, 1), (2.09, 4, 3000), (1.05, 1, 500)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_draws_equal_per_proposal_oracle(alpha, xmin, count):
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    drawn = powerlaw._tail_draws(rng, alpha, xmin, count)
    assert drawn.tolist() == tail_draws_oracle(twin, alpha, xmin, count)
    assert rng.random() == twin.random()  # both left the stream at the same place


@pytest.mark.parametrize("alpha, xmin", [(1.05, 1), (1.5, 1), (2.09, 4), (2.5, 3), (3.5, 10)])
def test_tail_draws_follow_the_exact_law(alpha, xmin):
    # frequencies of the first 20 values and two tail masses, each within 5
    # standard errors of the law P(X = k) = k**-alpha / zeta(alpha, xmin)
    size = 200_000
    drawn = powerlaw._tail_draws(np.random.default_rng(int(100 * alpha) + xmin), alpha, xmin, size)
    norm = float(scipy_zeta(alpha, xmin))
    values = np.arange(xmin, xmin + 20)
    freq = [np.mean(drawn == k) for k in values] + [np.mean(drawn >= 10 * xmin), np.mean(drawn >= 100 * xmin)]
    exact = np.concatenate([values**-alpha, scipy_zeta(alpha, [10 * xmin, 100 * xmin])]) / norm
    assert np.all(np.abs(np.array(freq) - exact) <= 5 * np.sqrt(exact * (1 - exact) / size))


def test_rounds_too_small_for_one_pass_draw_in_order_and_ranges_join():
    # 16 proposals a round: every chunk takes several rounds of proposals
    rng = np.random.default_rng(2)
    arr = np.concatenate([powerlaw_values_oracle(2.3, 3, rng.random(200)), rng.integers(1, 3, size=70)])
    fit = fit_power_law(arr, replicates=0)
    with mock.patch.object(powerlaw, "_OVERDRAW", 0.0):
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        drawn = powerlaw._tail_draws(rng, 2.3, 3, 500)
        assert drawn.tolist() == tail_draws_oracle(twin, 2.3, 3, 500, overdraw=0.0)
        assert rng.random() == twin.random()
        whole = powerlaw._replicate_ks(arr, fit, 100, 11)
        parts = [powerlaw._replicate_ks(arr, fit, stop, 11, start) for start, stop in [(0, 13), (13, 64), (64, 100)]]
    assert np.array_equal(np.concatenate(parts), whole)
    assert not np.array_equal(powerlaw._replicate_ks(arr, fit, 100, 11), whole)  # the rounds moved the draws


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_draw_past_int64_raises():
    # at alpha = 1.01 and xmin = 1 two proposals in three overflow past 2**63,
    # and two in three of those are kept
    fit = PowerLawFit(alpha=1.01, xmin=1, ks_statistic=0.1, p_value=None, n_tail=50, bootstrap_n=0)
    with pytest.raises(DegenerateAnalysisError, match="a bootstrap draw lies past the int64 range"):
        powerlaw._replicate_ks(np.arange(1, 51), fit, 8, 0)


@pytest.mark.parametrize("seed, dropped", [(6, "rejected"), (1, "surplus")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_proposals_past_int64_not_kept_raise_nothing(seed, dropped):
    # Chunk 0 of the two values [1, 2] under alpha = 1.1 and xmin = 1 needs
    # 16 tail draws from one round of 39 proposals; with these seeds a
    # proposal past 2**63 is rejected or kept past the 16th, and none of the
    # 16 draws lies past 2**63
    alpha = 1.1
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    need = int(rng.binomial(2, 1.0, 8).sum())
    w, v = rng.random((2, int(1.45 * need) + 16))
    with np.errstate(over="ignore"):
        x = np.minimum(np.floor((1.0 - w) ** (-1.0 / (alpha - 1.0))), 2.0**63)
    g = -np.expm1((1.0 - alpha) * np.log1p(1.0 / np.append(x, 1.0)))
    keep = v * x * g[:-1] <= g[-1]
    kept = np.flatnonzero(keep)
    past = x >= 2**63
    assert need == 16 and kept.size >= need and not past[kept[:need]].any()
    assert (past & ~keep).any() if dropped == "rejected" else past[kept[need:]].any()
    fit = PowerLawFit(alpha=alpha, xmin=1, ks_statistic=0.1, p_value=None, n_tail=2, bootstrap_n=0)
    ks = powerlaw._replicate_ks(np.array([1, 2]), fit, 8, seed)
    assert ks.shape == (8,) and not np.isnan(ks).any()


# -- goodness of fit ----------------------------------------------------------


def test_pvalue_from_replicates():
    assert pvalue_from_replicates(0.5, [0.1, 0.6, 0.7, 0.4]) == pytest.approx(0.5)
    assert pvalue_from_replicates(0.0, [0.1]) == 1.0


def test_gof_requires_enough_replicates():
    rng = np.random.default_rng(0)
    data = powerlaw_values_oracle(2.5, 2, rng.random(500))
    fit = fit_power_law(data, replicates=0)
    with pytest.raises(ValueError, match="replicates"):
        gof_pvalue(data, fit, replicates=50, seed=0)


def _check_against_oracle(data, replicates, seed, min_tail, rows_per_block, tied=False):
    with (
        mock.patch.object(powerlaw, "_scaled_zeta", _constant_zeta if tied else powerlaw._scaled_zeta),
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
    arr = np.concatenate([powerlaw_values_oracle(2.3, 3, rng.random(200)), rng.integers(1, 3, size=70)])
    fit = fit_power_law(arr, replicates=0)
    whole = powerlaw._replicate_ks(arr, fit, 1000, 11)
    blocks = powerlaw.bootstrap_blocks(arr, fit, 1000, 11, most)
    assert len(blocks) <= most
    assert all(block.args[-1] % powerlaw._CHUNK == 0 for block in blocks)  # each starts a chunk
    assert np.array_equal(np.concatenate([block() for block in blocks]), whole)


def test_bootstrap_draw_past_int64_is_degenerate():
    # at alpha = 1.1 and xmin = 1 about 1.2% of the draws lie past 2**63
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
    heavy = np.concatenate([powerlaw_values_oracle(2.3, 3, rng.random(200)), rng.integers(1, 3, size=70)])
    _check_against_oracle(heavy, replicates, 5, 10, 100)


def test_fit_power_law_without_bootstrap():
    rng = np.random.default_rng(5)
    data = powerlaw_values_oracle(2.2, 3, rng.random(2000))
    fit = fit_power_law(data, replicates=0)
    assert fit.p_value is None
    assert fit.bootstrap_n == 0
    assert fit.n_tail == int(np.sum(data >= fit.xmin))


def test_fit_power_law_deterministic():
    rng = np.random.default_rng(6)
    data = powerlaw_values_oracle(2.5, 2, rng.random(800))
    a = fit_power_law(data, replicates=100, seed=3)
    b = fit_power_law(data, replicates=100, seed=3)
    assert a == b
    c = fit_power_law(data, replicates=100, seed=4)
    assert c.p_value != a.p_value or c == a


def test_fit_power_law_plausible_p_on_true_model():
    rng = np.random.default_rng(8)
    data = powerlaw_values_oracle(2.5, 5, rng.random(3000))
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
