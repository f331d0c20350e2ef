"""Discrete power-law fitting with KS-minimizing cutoff selection and a
semiparametric bootstrap goodness-of-fit p-value.

The exponent comes from the standard discrete maximum-likelihood
approximation alpha = 1 + n / sum(ln(x_i / (xmin - 1/2))). The lower cutoff
is chosen among observed values by minimizing the Kolmogorov-Smirnov
distance between the empirical tail CDF and the fitted model CDF. The
p-value refits every bootstrap replicate, so it measures the whole
procedure, not just the final exponent. Replicates are drawn in chunks of
eight, one RNG stream and three RNG calls per chunk, through one CDF table
per process that grows in pieces and belongs to the last law drawn from;
they go through the KS scan in blocks of rows, and select_xmin is the
one-row case of the same scan.

Hurwitz zeta values (the discrete normalization) are computed by direct
summation with an Euler-Maclaurin tail correction, accurate to ~1e-12
relative; ratios are evaluated in scaled form so huge exponents do not
underflow to 0/0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAnalysisError

_EM_TERMS = 28  # direct-sum terms before the tail correction
_BLOCK_CELLS = 1 << 14  # bootstrap samples scanned at once; bounds the scan's memory
_CHUNK = 8  # bootstrap replicates drawn from one RNG stream
_MIN_TAIL = 10  # default least tail size of a candidate cutoff


def _scaled_zeta(alpha: np.ndarray | float, q: np.ndarray | float, scale: np.ndarray | float) -> np.ndarray:
    """hurwitz_zeta(alpha, q) * scale**alpha, elementwise with broadcasting.

    Stable for large alpha when q >= scale >= 1: every power has a base
    ratio >= 1, so terms underflow to zero instead of overflowing.
    """
    alpha = np.asarray(alpha, dtype=float)
    q = np.asarray(q, dtype=float)
    scale = np.asarray(scale, dtype=float)
    shape = np.broadcast(alpha, q, scale).shape
    total = np.zeros(shape)
    neg_alpha = -alpha
    # + and / round exactly in any kernel, so they run in place; the power
    # gets its own buffer, as numpy may pick another pow kernel in place
    ratio, term = np.empty(shape), np.empty(shape)
    for t in range(_EM_TERMS):
        np.add(q, t, out=ratio)
        np.divide(ratio, scale, out=ratio)
        np.power(ratio, neg_alpha, out=term)
        total += term
    edge = q + _EM_TERMS
    ratio_pow = (edge / scale) ** -alpha
    total = total + scale * (edge / scale) ** (1.0 - alpha) / (alpha - 1.0)
    total = total + ratio_pow / 2.0
    total = total + alpha * ratio_pow / (12.0 * edge)
    total = total - alpha * (alpha + 1.0) * (alpha + 2.0) * ratio_pow / (720.0 * edge**3)
    return total


def hurwitz_zeta(alpha, q):
    """Hurwitz zeta: sum over k >= 0 of (q + k)**-alpha, for alpha > 1, q >= 1."""
    return _scaled_zeta(alpha, q, 1.0)


@dataclass
class PowerLawFit:
    alpha: float
    xmin: int
    ks_statistic: float
    p_value: float | None
    n_tail: int
    bootstrap_n: int


def _as_positive_ints(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.size and (not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.floor(arr))):
        raise ValueError("data must be positive integers")
    arr = arr.astype(np.int64)
    if arr.size and arr.min() < 1:
        raise ValueError("data must be positive integers")
    return arr


def fit_alpha(data, xmin: int) -> float:
    """Discrete ML exponent over the tail x >= xmin.

    Uses the (xmin - 1/2) shifted approximation to the discrete MLE. It is
    accurate for xmin >= 4 or so and biased low for tiny xmin; the KS stage
    of select_xmin avoids those cutoffs in practice because the implied
    model CDF fits poorly there.
    """
    arr = _as_positive_ints(data)
    if xmin < 1:
        raise ValueError("xmin must be >= 1")
    tail = arr[arr >= xmin]
    if tail.size < 2:
        raise DegenerateAnalysisError("power-law-fit", f"degenerate tail: fewer than 2 observations >= {xmin}")
    log_sum = float(np.sum(np.log(tail / (xmin - 0.5))))
    return 1.0 + tail.size / log_sum


def model_tail_cdf(alpha: float, xmin: int, values) -> np.ndarray:
    """P(X <= v | X >= xmin) of the discrete power law, for integer v >= xmin."""
    values = np.asarray(values, dtype=float)
    return 1.0 - _scaled_zeta(alpha, values + 1.0, float(xmin)) / _scaled_zeta(alpha, float(xmin), float(xmin))


def _ks_scan(samples: np.ndarray, min_tail: int):
    """KS distance of every candidate cutoff of every row of `samples`.

    `samples` is an (R, n) array sorted along its rows. Candidates are the
    distinct values keeping at least `min_tail` observations in the tail
    where the row has any such value, and at least 2 otherwise. Returns
    (row, xmin, alpha, ks) with one entry per candidate, rows ascending and
    cutoffs ascending within a row; rows with fewer than 2 distinct values
    have no candidates. Only the (candidate, distinct value >= candidate)
    pairs of all rows go through one _scaled_zeta call.
    """
    rows, n = samples.shape
    step = samples[:, 1:] != samples[:, :-1]
    edge = np.ones((rows, 1), dtype=bool)
    row, first = np.nonzero(np.hstack([edge, step]))  # one entry per distinct value
    _, last = np.nonzero(np.hstack([step, edge]))
    tail = n - first
    distinct = np.bincount(row, minlength=rows)
    keep = tail >= max(min_tail, 2)
    fallback = np.bincount(row[keep], minlength=rows) == 0
    cand = np.flatnonzero(np.where(fallback[row], tail >= 2, keep) & (distinct[row] >= 2))

    # all candidate exponents from suffix log sums
    suffix_logsum = np.cumsum(np.log(samples.astype(float))[:, ::-1], axis=1)[:, ::-1]
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
    scaled = _scaled_zeta(
        np.concatenate([alphas, alphas[pc]]), np.concatenate([v, w + 1.0]), np.concatenate([v, v[pc]])
    )
    model = 1.0 - scaled[cand.size :] / scaled[: cand.size][pc]
    empirical = (last[j] + 1 - cand_first[pc]) / n_tail[pc]
    gaps = np.abs(empirical - model)
    ks = np.maximum.reduceat(gaps, starts) if cand.size else gaps
    return cand_row, v, alphas, ks


def select_xmin(data, min_tail: int = _MIN_TAIL) -> tuple[int, float, float]:
    """Pick the cutoff among observed values minimizing the KS distance.

    Candidates are restricted to cutoffs keeping at least `min_tail`
    observations where possible (at least 2 otherwise); KS ties go to the
    smaller cutoff. Returns (xmin, alpha, ks_statistic).
    """
    _, v, alphas, ks = _ks_scan(np.sort(_as_positive_ints(data))[None, :], min_tail)
    if ks.size == 0:
        raise DegenerateAnalysisError("power-law-fit", "fewer than 2 distinct values")
    best = int(np.argmin(ks))  # first minimum == smallest cutoff
    return int(v[best]), float(alphas[best]), float(ks[best])


_MAX_TABLE = 2**20
_PIECE = 1 << 16  # table entries computed at once while a table grows
_INT64_MAX = 2**63 - 1
# ((alpha, xmin), zeta normalization, CDF table) of the last law drawn from:
# a process keeps one table, whichever laws it draws from and in what order
_slot = (None, None, None)


def _tail_values(alpha: float, xmin: int, u: np.ndarray) -> np.ndarray:
    """The draws of the uniforms `u` from the discrete power law on {xmin,
    xmin+1, ...}: for each, the least x >= xmin whose CDF reaches it.

    They are looked up in the CDF table over [xmin, xmin + L) that _slot
    keeps for the last law drawn from; another law replaces it. L starts at
    1024 and grows x4 only when a draw needs it, up to _MAX_TABLE entries
    (8 MB); draws beyond the table bisect the exact CDF instead (_quantile).
    A grown table keeps its prefix and continues it in pieces of _PIECE
    entries, each piece's cumsum starting from the last entry. cumsum is
    sequential, so every table equals the one-shot cumsum of its length,
    and a longer table gives every draw the index a shorter one would.
    """
    global _slot
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    law, norm, cdf = _slot  # one read, so a table always goes with its own law
    if law != (alpha, xmin):
        law, norm, cdf = (alpha, xmin), float(_scaled_zeta(alpha, float(xmin), float(xmin))), np.zeros(0)
    u_max = float(u.max())
    while cdf.size == 0 or (cdf[-1] < u_max and cdf.size < _MAX_TABLE):
        table = np.empty(4 * cdf.size or 1024)
        table[: cdf.size] = cdf
        for first in range(cdf.size, table.size, _PIECE):
            stop = min(first + _PIECE, table.size)
            # / and + round exactly in place, as in _scaled_zeta; the power
            # writes to the table, a buffer apart from its input
            ratio = np.arange(xmin + first, xmin + stop, dtype=float)
            ratio /= xmin
            piece = np.power(ratio, -alpha, out=table[first:stop])
            piece /= norm
            if first:
                piece[0] += table[first - 1]
            np.cumsum(piece, out=piece)
        cdf = table
        _slot = law, norm, cdf  # a new law's first 1024 entries drop the old law's table
    out = xmin + np.searchsorted(cdf, u, side="left")
    past = out >= xmin + cdf.size  # extreme tail, bisected on the exact CDF
    if past.any():
        out[past] = _quantile(alpha, xmin, u[past])
    return out.astype(np.int64)


def sample_discrete_powerlaw(alpha: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from the discrete power law on {xmin, xmin+1, ...}."""
    return _tail_values(alpha, xmin, rng.random(size))


def _quantile(alpha: float, xmin: int, u) -> np.ndarray:
    """For each uniform of `u`, the least x >= xmin with model_tail_cdf(x) >= u,
    all bisected together: hi doubles (h -> 2h + 1, capped at 2**63 - 1) from
    xmin until its CDF reaches u, then [xmin, hi] is halved. Each uniform
    takes the steps it would take alone, so its result does not depend on
    the others. A u whose CDF at 2**63 - 1 is still short raises
    DegenerateAnalysisError: its draw lies past the int64 range."""
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).reshape(-1)
    lo = np.full(u.shape, xmin, dtype=np.int64)
    hi = lo.copy()
    short = model_tail_cdf(alpha, xmin, hi) < u
    while short.any():
        if hi[short].max() == _INT64_MAX:
            raise DegenerateAnalysisError("power-law-fit", "a bootstrap draw lies past the int64 range")
        hi[short] = 2 * np.minimum(hi[short], _INT64_MAX // 2) + 1
        short[short] = model_tail_cdf(alpha, xmin, hi[short]) < u[short]
    open_ = lo < hi
    while open_.any():
        mid = lo[open_] + (hi[open_] - lo[open_]) // 2  # (lo + hi) // 2 may pass 2**63
        reached = model_tail_cdf(alpha, xmin, mid) >= u[open_]
        hi[open_] = np.where(reached, mid, hi[open_])
        lo[open_] = np.where(reached, lo[open_], mid + 1)
        open_ = lo < hi
    return lo.reshape(shape)


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
    min_tail: int,
    start: int = 0,
) -> np.ndarray:
    """Minimum KS distance of bootstrap replicates start, ..., stop - 1 (inf
    where one collapsed to one value), scanned in blocks of _block_rows(n)
    replicates. Replicates 8c, ..., 8c + 7 (chunk c, _CHUNK = 8) draw from
    the stream (seed, c); a range draws every chunk it overlaps and keeps
    its own rows, so the arrays of consecutive ranges join into the array
    of their union.

    A chunk makes three RNG calls: binomial(n, n_tail/n) tail sizes k of
    its rows, the uniforms of all its tail draws, and the indices of its
    values below xmin (the draws of choice(below, replace=True)), made
    only when there is one. Row i takes its k[i] tail draws first. The
    tail uniforms of a whole block go through _tail_values at once; a draw
    past the int64 range raises DegenerateAnalysisError.
    """
    n = arr.size
    below = arr[arr < fit.xmin]
    p_tail = (n - below.size) / n
    chunks, end = _block_rows(n) // _CHUNK, -(-stop // _CHUNK)
    ks_values = np.full(stop - start, np.inf)
    for first in range(start // _CHUNK, end, chunks):
        tail_sizes, uniforms, picks = [], [], []
        for chunk in range(first, min(first + chunks, end)):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))))
            k = rng.binomial(n, p_tail, _CHUNK)
            tail_sizes.append(k)
            uniforms.append(rng.random(k.sum()))
            if below_count := _CHUNK * n - k.sum():
                picks.append(rng.integers(0, below.size, below_count))
        sizes = np.concatenate(tail_sizes)
        lo, hi = max(start - first * _CHUNK, 0), min(stop - first * _CHUNK, sizes.size)  # rows in range
        before, through = int(sizes[:lo].sum()), int(sizes[:hi].sum())  # their tail draws
        in_tail = np.arange(n) < sizes[lo:hi, None]
        samples = np.empty(in_tail.shape, dtype=np.int64)
        samples[in_tail] = _tail_values(fit.alpha, fit.xmin, np.concatenate(uniforms)[before:through])
        if picks:
            samples[~in_tail] = below[np.concatenate(picks)[lo * n - before : hi * n - through]]
        samples.sort(axis=1)
        rows, _, _, ks = _ks_scan(samples, min_tail)
        np.minimum.at(ks_values, first * _CHUNK + lo - start + rows, ks)
    return ks_values


def bootstrap_blocks(arr: np.ndarray, fit: PowerLawFit, replicates: int, seed: int, most: int) -> list:
    """At most `most` zero-argument calls whose arrays, joined in order, are the
    replicate KS distances of gof_pvalue(arr, fit, replicates, seed). Each
    takes whole chunks and at least one scan block of replicates."""
    step = max(_block_rows(arr.size), -(-replicates // (most * _CHUNK)) * _CHUNK)
    return [
        functools.partial(_replicate_ks, arr, fit, min(start + step, replicates), seed, _MIN_TAIL, start)
        for start in range(0, replicates, step)
    ]


def gof_pvalue(data, fit: PowerLawFit, replicates: int, seed: int, min_tail: int = _MIN_TAIL) -> float:
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
    ks_values = _replicate_ks(_as_positive_ints(data), fit, replicates, seed, min_tail)
    return pvalue_from_replicates(fit.ks_statistic, ks_values)


def fit_power_law(data, replicates: int = 1000, seed: int = 0, min_tail: int = _MIN_TAIL) -> PowerLawFit:
    """Full procedure: cutoff selection, exponent fit, bootstrap p-value.

    With replicates=0 the p-value is skipped (None).
    """
    xmin, alpha, ks = select_xmin(data, min_tail=min_tail)
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
        fit.p_value = gof_pvalue(data, fit, replicates=replicates, seed=seed, min_tail=min_tail)
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
