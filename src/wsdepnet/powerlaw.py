"""Discrete power-law fitting with KS-minimizing cutoff selection and a
semiparametric bootstrap goodness-of-fit p-value.

The exponent comes from the standard discrete maximum-likelihood
approximation alpha = 1 + n / sum(ln(x_i / (xmin - 1/2))). The lower cutoff
is chosen among observed values by minimizing the Kolmogorov-Smirnov
distance between the empirical tail CDF and the fitted model CDF. The
p-value refits every bootstrap replicate, so it measures the whole
procedure, not just the final exponent. Replicates are drawn in chunks of
eight from one RNG stream per chunk, their tail values by rejection from
the continuous power law, with no state kept between draws; they go
through the KS scan in blocks of rows, and select_xmin is the one-row case
of the same scan.

Hurwitz zeta values (the discrete normalization) sum their terms directly
up to an edge set by the exponent and the cutoff, and add the
Euler-Maclaurin tail there, so all values of one candidate cutoff share
their direct terms; ratios are evaluated in scaled form so huge exponents
do not underflow to 0/0.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateAnalysisError
from .report import PowerLawFit

_DIRECT = 28  # most direct terms of a zeta value before its Euler-Maclaurin tail
_BLOCK_CELLS = 1 << 14  # bootstrap samples scanned at once; bounds the scan's memory
_CHUNK = 8  # bootstrap replicates drawn from one RNG stream
_MIN_TAIL = 10  # least tail size of a candidate cutoff (2 where no cutoff keeps 10)


def _scaled_zeta(alpha, q, scale, group) -> np.ndarray:
    """The Hurwitz zeta sum over k >= 0 of (q[i] + k)**-a (a > 1), times s**a,
    for each q[i] with a = alpha[group[i]] and s = scale[group[i]], where
    q[i] >= s >= 1.

    Terms below a group's edge E = max(s, min(ceil(1.5 (a + 10)), s + _DIRECT))
    are summed directly, smallest first, before the Euler-Maclaurin tail at E
    (through B10); q >= E takes the tail at q alone. A group shares its row
    of terms from s, their suffix sums and the tail at E, and each value is
    bit-identical in its group or alone in a group of the same a and s.
    Stable for large a: every base ratio is >= 1, so terms underflow to 0.
    """
    edge = np.fmax(scale, np.fmin(np.ceil(1.5 * (alpha + 10.0)), scale + _DIRECT))
    width = (edge - scale).astype(np.intp)  # direct terms of each row
    row = np.repeat(np.arange(width.size), width)
    col = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
    terms = np.zeros((width.size, width.max(initial=0) + 1))  # a zero column past every row
    terms[row, col] = np.power((scale[row] + col) / scale[row], -alpha[row])
    suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # smallest first; 0 past a row's terms

    # the tail at `at`, each group's E and each q past its E, with y = 1 / at: scale (at / scale)**(1 - alpha)
    # (1 / (alpha - 1) + y / 2 + alpha / 12 y**2 (1 - c1 y**2 (1 - c2 y**2 (1 - c3 y**2 (1 - c4 y**2)))))
    past = q >= edge[group]
    far, near = np.flatnonzero(past), np.flatnonzero(~past)
    at, by = np.concatenate([edge, q[far]]), np.concatenate([np.arange(edge.size), group[far]])
    y = 1.0 / at
    series, x = 1.0, y * y
    for k, d in ((7.0, 39.6), (5.0, 40.0), (3.0, 42.0), (1.0, 60.0)):
        series = 1.0 - ((alpha + k) * (alpha + k + 1.0) / d)[by] * x * series
    power = np.power(at / scale[by], (1.0 - alpha)[by])
    tail = scale[by] * power * ((1.0 / (alpha - 1.0))[by] + y * (0.5 + (alpha / 12.0)[by] * y * series))
    out, g = np.empty(q.size), group[near]
    out[far] = tail[edge.size :]
    out[near] = suffix[g, (q[near] - scale[g]).astype(np.intp)] + tail[g]
    return out


def _as_positive_ints(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.size and (not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr))):
        raise ValueError("data must be positive integers")
    arr = arr.astype(np.int64)
    if arr.size and arr.min() < 1:
        raise ValueError("data must be positive integers")
    return arr


def _ks_scan(samples: np.ndarray):
    """KS distance of every candidate cutoff of every row of `samples`.

    `samples` is an (R, n) array sorted along its rows. Candidates are the
    distinct values keeping at least _MIN_TAIL observations in the tail
    where the row has any such value, and at least 2 otherwise; each gets
    the (xmin - 1/2) exponent of the module docstring, unless rounding puts
    that outside (1, inf), as it may for a tail tied past 2^53. Returns (row,
    xmin, alpha, ks) with one entry per candidate, rows ascending and cutoffs
    ascending within a row; rows with fewer than 2 distinct values have no
    candidates. Only the (candidate, distinct value >= candidate) pairs of
    all rows go through one _scaled_zeta call, grouped by candidate.
    """
    rows, n = samples.shape
    step = samples[:, 1:] != samples[:, :-1]
    edge = np.ones((rows, 1), dtype=bool)
    row, first = np.nonzero(np.hstack([edge, step]))  # one entry per distinct value
    _, last = np.nonzero(np.hstack([step, edge]))
    tail = n - first
    distinct = np.bincount(row, minlength=rows)
    keep = tail >= _MIN_TAIL
    fallback = np.bincount(row[keep], minlength=rows) == 0
    cand = np.flatnonzero(np.where(fallback[row], tail >= 2, keep) & (distinct[row] >= 2))

    # all candidate exponents from suffix log sums, refusing a denominator <= 0 (alpha = inf or < 1)
    suffix_logsum = np.cumsum(np.log(samples.astype(float))[:, ::-1], axis=1)[:, ::-1]
    cand = cand[suffix_logsum[row[cand], first[cand]] > tail[cand] * np.log(samples[row[cand], first[cand]] - 0.5)]
    cand_row, cand_first = row[cand], first[cand]
    v = samples[cand_row, cand_first].astype(float)
    n_tail = tail[cand].astype(float)
    alphas = 1.0 + n_tail / (suffix_logsum[cand_row, cand_first] - n_tail * np.log(v - 0.5))

    # pair p joins candidate pc[p] with distinct value j[p] of the same row, j >= candidate
    width = np.cumsum(distinct)[cand_row] - cand
    starts = np.cumsum(width) - width
    pc = np.repeat(np.arange(cand.size), width)
    j = np.arange(pc.size) + np.repeat(cand - starts, width)
    w = samples[row[j], first[j]].astype(float)
    scaled = _scaled_zeta(alphas, np.concatenate([v, w + 1.0]), v, np.concatenate([np.arange(cand.size), pc]))
    model = 1.0 - scaled[cand.size :] / scaled[: cand.size][pc]
    empirical = (last[j] + 1 - cand_first[pc]) / n_tail[pc]
    gaps = np.abs(empirical - model)
    ks = np.maximum.reduceat(gaps, starts) if cand.size else gaps
    return cand_row, v, alphas, ks


def select_xmin(data) -> tuple[int, float, float]:
    """Pick the cutoff among observed values minimizing the KS distance.

    Candidates are restricted to cutoffs keeping at least _MIN_TAIL (10)
    observations where possible (at least 2 otherwise); KS ties go to the
    smaller cutoff. Returns (xmin, alpha, ks_statistic), alpha from the
    (xmin - 1/2) approximation of _ks_scan.
    """
    arr = np.sort(_as_positive_ints(data))
    _, v, alphas, ks = _ks_scan(arr[None, :])
    if ks.size == 0:
        reason = "fewer than 2 distinct values" if not arr.size or arr[0] == arr[-1] else "no exponent in (1, inf)"
        raise DegenerateAnalysisError("power-law-fit", reason)
    best = int(np.argmin(ks))  # first minimum == smallest cutoff
    return int(v[best]), float(alphas[best]), float(ks[best])


_INT64_END = 2.0**63  # the least float past the int64 range
# proposals per draw still needed in a round of _tail_draws: above 1 / ln 2,
# the inverse of the least acceptance rate (alpha -> 1 at xmin = 1)
_OVERDRAW = 1.45


def _tail_draws(rng: np.random.Generator, alpha: float, xmin: int, count: int) -> np.ndarray:
    """`count` draws of the discrete power law P(X = k) ~ k**-alpha on {xmin,
    xmin + 1, ...}, as floats, by rejection from the continuous power law on
    [xmin, inf): each pair (w, v) of a round of random((2, m)) proposes
    x = floor(xmin (1 - w)**(-1 / (alpha - 1))), which puts mass
    (xmin / k)**(alpha - 1) g(k) on k, g(k) = 1 - (1 + 1/k)**(1 - alpha), and
    keeps it where v x g(x) <= xmin g(xmin). 1 / (k g(k)) falls with k, so
    the kept values follow the law exactly. Rounds of m = floor(_OVERDRAW r)
    + 16 proposals, r the draws still needed, run until `count` are kept, in
    order. A proposal past 2**63, inf included, is capped there and tested
    like any other; past 2**53 proposals are float-spaced.
    """
    bound = xmin * -np.expm1((1.0 - alpha) * np.log1p(1.0 / xmin))
    kept, need = [np.zeros(0)], count
    while need:
        w, v = rng.random((2, int(_OVERDRAW * need) + 16))
        with np.errstate(over="ignore"):
            x = np.fmin(np.floor(xmin * np.power(1.0 - w, -1.0 / (alpha - 1.0))), _INT64_END)
        x = x[v * x * -np.expm1((1.0 - alpha) * np.log1p(1.0 / x)) <= bound][:need]
        kept.append(x)
        need -= x.size
    return np.concatenate(kept)


def pvalue_from_replicates(observed_ks: float, replicate_ks) -> float:
    """Fraction of replicate KS statistics at or above the observed one."""
    replicate_ks = np.asarray(replicate_ks, dtype=float)
    return float(np.mean(replicate_ks >= observed_ks))


def _block_rows(n: int) -> int:
    """Replicates of n values scanned at once: whole chunks, at most
    max(_BLOCK_CELLS, _CHUNK * n) samples."""
    return _CHUNK * max(1, _BLOCK_CELLS // (_CHUNK * n))


def _replicate_ks(
    arr: np.ndarray,
    fit: PowerLawFit,
    stop: int,
    seed: int,
    start: int = 0,
) -> np.ndarray:
    """Minimum KS distance of bootstrap replicates start, ..., stop - 1 (inf
    where one collapsed to one value), scanned in blocks of _block_rows(n)
    replicates. Replicates 8c, ..., 8c + 7 (chunk c, _CHUNK = 8) draw from
    the stream (seed, c); a range draws every chunk it overlaps and keeps
    its own rows, so the arrays of consecutive ranges join into the array
    of their union.

    A chunk makes its RNG calls in this order: binomial(n, n_tail/n) tail
    sizes k of its rows, the rounds of _tail_draws for all their tail draws,
    and the indices of its values below xmin (the draws of
    choice(below, replace=True)), made only when there is one. Row i takes
    its k[i] tail draws first. A tail draw of a row in range past the int64
    range raises DegenerateAnalysisError.
    """
    n = arr.size
    below = arr[arr < fit.xmin]
    p_tail = (n - below.size) / n
    chunks, end = _block_rows(n) // _CHUNK, -(-stop // _CHUNK)
    ks_values = np.full(stop - start, np.inf)
    for first in range(start // _CHUNK, end, chunks):
        tail_sizes, draws, picks = [], [], []
        for chunk in range(first, min(first + chunks, end)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))))
            k = rng.binomial(n, p_tail, _CHUNK)
            tail_sizes.append(k)
            draws.append(_tail_draws(rng, fit.alpha, fit.xmin, int(k.sum())))
            if below_count := _CHUNK * n - k.sum():
                picks.append(rng.integers(0, below.size, below_count))
        sizes = np.concatenate(tail_sizes)
        lo, hi = max(start - first * _CHUNK, 0), min(stop - first * _CHUNK, sizes.size)  # rows in range
        before, through = int(sizes[:lo].sum()), int(sizes[:hi].sum())  # their tail draws
        in_tail = np.arange(n) < sizes[lo:hi, None]
        samples = np.empty(in_tail.shape, dtype=np.int64)
        tail = np.concatenate(draws)[before:through]
        if (tail >= _INT64_END).any():
            raise DegenerateAnalysisError("power-law-fit", "a bootstrap draw lies past the int64 range")
        samples[in_tail] = tail
        if picks:
            samples[~in_tail] = below[np.concatenate(picks)[lo * n - before : hi * n - through]]
        samples.sort(axis=1)
        rows, _, _, ks = _ks_scan(samples)
        np.minimum.at(ks_values, first * _CHUNK + lo - start + rows, ks)
    return ks_values


def bootstrap_blocks(arr: np.ndarray, fit: PowerLawFit, replicates: int, seed: int, most: int) -> list:
    """At most `most` zero-argument calls whose arrays, joined in order, are the
    replicate KS distances of gof_pvalue(arr, fit, replicates, seed). Each
    takes whole chunks and at least one scan block of replicates."""
    step = max(_block_rows(arr.size), -(-replicates // (most * _CHUNK)) * _CHUNK)
    return [
        functools.partial(_replicate_ks, arr, fit, min(start + step, replicates), seed, start)
        for start in range(0, replicates, step)
    ]


def gof_pvalue(data, fit: PowerLawFit, replicates: int, seed: int) -> float:
    """Semiparametric bootstrap p-value for the fitted power law.

    Each replicate draws len(data) values, from the fitted model above xmin
    with probability n_tail/n and uniformly from the empirical values below
    xmin otherwise, then reruns the whole cutoff selection. Replicates
    8c, ..., 8c + 7 draw from one RNG stream derived from (seed, c), so the
    result is independent of evaluation order and of how replicates are
    grouped into blocks. A replicate that collapsed to one value counts as
    extreme (KS = inf). A draw past the int64 range (alpha near 1) raises
    DegenerateAnalysisError.
    """
    if replicates < 100:
        raise ValueError("replicates must be >= 100")
    ks_values = _replicate_ks(_as_positive_ints(data), fit, replicates, seed)
    return pvalue_from_replicates(fit.ks_statistic, ks_values)


def fit_power_law(data, replicates: int = 1000, seed: int = 0) -> PowerLawFit:
    """Full procedure: cutoff selection, exponent fit, bootstrap p-value.

    With replicates=0 the p-value is skipped (None).
    """
    xmin, alpha, ks = select_xmin(data)
    arr = _as_positive_ints(data)
    fit = PowerLawFit(
        alpha=alpha,
        xmin=xmin,
        ks_statistic=ks,
        p_value=None,
        n_tail=int(np.sum(arr >= xmin)),
        bootstrap_n=replicates,
    )
    if replicates:
        fit.p_value = gof_pvalue(data, fit, replicates=replicates, seed=seed)
    return fit


def degree_distribution_rows(degrees) -> list[tuple[int, int, float]]:
    """(degree, count, ccdf) rows sorted by degree; ccdf = P(X >= degree)."""
    arr = np.asarray(list(degrees), dtype=np.int64)
    if arr.size == 0:
        return []
    values, counts = np.unique(arr, return_counts=True)
    ccdf = 1.0 - np.concatenate([[0], np.cumsum(counts)[:-1]]) / arr.size
    return [(int(v), int(c), float(f)) for v, c, f in zip(values, counts, ccdf)]


def degree_distribution_csv(degrees) -> str:
    """The `degree,count,ccdf` CSV of degree_distribution_rows, ccdf at full precision."""
    rows = degree_distribution_rows(degrees)
    return "degree,count,ccdf\n" + "".join(f"{degree},{count},{ccdf!r}\n" for degree, count, ccdf in rows)
