"""Per-series predictability: discretization, entropy rate, accuracy bound.

A real-valued series is binned into Q symbols, its entropy rate is
estimated from Lempel-Ziv style match lengths, and the largest prediction
accuracy consistent with that rate and the realized alphabet is obtained by
inverting a binary-entropy inequality.  The pipeline uses the paper's
estimator; a bias-corrected estimate from the same match lengths sits
beside it.

The match length at position i is the length of the shortest substring
starting at i that never occurs starting at any earlier position (earlier
occurrences may overlap i): one more than the longest previous factor at i.
It is computed exactly, in numpy with no Python loop over positions:

1. the suffix array by prefix doubling, sorting one int64 key per round
   and keeping each round's ranks;
2. for every suffix-array rank, the nearest ranks on either side whose
   text position is smaller, by binary lifting over a sparse min-table;
3. the longest previous factor as the longer common prefix with those two
   neighbors, each common prefix found by descending the stored ranks.

Ranks, positions, table rows and nearest-smaller bounds are int32; the
bounds may overshoot to 3n, which bounds n by 2**31 // 3.

``dataset_predictability`` sweeps a list of Q.  It checks every input,
bins each variate for every Q from one ``np.quantile`` over all the Qs'
probabilities (one ``searchsorted`` per Q gives ``discretize``'s
symbols) and drains the (Q, variate) passes on two threads with
``pool.drain``, in ascending Q: a larger Q gives shorter matches, so the
last passes, which one thread may finish alone, are short.  A pass
returns its exact match-length sum and distinct-symbol count and calls
no public function of this module, so a wrapper around one runs on the
caller alone.  S and the Fano bound are computed in the caller, so the
reports equal those of the public functions applied one Q and variate at
a time.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import ArgumentError, DataError

log = logging.getLogger(__name__)

FANO_RESIDUAL_TOL = 1e-10
FANO_CLAMP_RTOL = 1e-12
# the largest series length: _nearest_smaller's int32 bounds reach 3n
_MAX_N = 2**31 // 3


@dataclass
class DiscreteSeries:
    """Integer symbol sequence over an alphabet of at most ``q`` bins."""

    symbols: np.ndarray
    q: int

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def distinct(self) -> int:
        return int(len(np.unique(self.symbols)))


def _check_series(x: np.ndarray, q: int, mode: str) -> None:
    if x.ndim != 1:
        raise ArgumentError(f"discretize: expected a 1-d series, got shape {x.shape}")
    if q < 2:
        raise ArgumentError(f"discretize: Q must be >= 2, got {q}")
    if not 2 <= len(x) <= _MAX_N:
        raise ArgumentError(f"discretize: series length {len(x)} outside [2, 2**31 // 3]")
    if np.isnan(x).any():
        raise DataError("discretize: series contains NaN")
    if not np.isfinite(x).all():
        raise DataError("discretize: series contains non-finite values")
    if mode not in ("equal-frequency", "equal-width"):
        raise ArgumentError(f"discretize: unknown mode '{mode}'")


def _bin(x: np.ndarray, q: int, mode: str, bounds: np.ndarray | None) -> np.ndarray:
    """x's int64 symbols: searchsorted into ``bounds`` (the quantiles at
    arange(1, q) / q) for equal-frequency, else equal-width."""
    if mode == "equal-frequency":
        return np.searchsorted(bounds, x, side="left").astype(np.int64, copy=False)
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros(len(x), dtype=np.int64)
    return np.minimum((x - lo) / (hi - lo) * q, q - 1).astype(np.int64)


def discretize(series, q: int, mode: str = "equal-frequency") -> DiscreteSeries:
    """Bin a real sequence into ``q`` integer symbols.

    equal-frequency uses empirical quantile boundaries with ties resolved
    toward the lower bin; equal-width splits [min, max] uniformly.  A
    constant series maps to a single symbol in either mode.
    """
    x = np.asarray(series, dtype=np.float64)
    _check_series(x, q, mode)
    bounds = np.quantile(x, np.arange(1, q) / q) if mode == "equal-frequency" else None
    return DiscreteSeries(_bin(x, q, mode, bounds), q)


def _suffix_array(s: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Suffix array by prefix doubling (Manber & Myers 1993), with the rank
    array of every round but the last.

    Round k sorts the single int64 key rank[i] * (n+1) + rank[i+k] + 1,
    where a suffix shorter than k+1 gets rank[i+k] = -1.  Ties among equal
    keys may land in any order without changing the ranks, and the last
    round's keys are all distinct, so the default (unstable) sort is enough.
    The rank of suffix i in the round of width 2^l is equal to that of
    suffix j != i only when their first 2^l symbols agree.  Every stored
    rank array ends in a -1 sentinel standing for the empty suffix n.
    """
    n = len(s)
    lo = int(s.min())
    if int(s.max()) - lo < n:
        rank = (s - lo).astype(np.int32)
    else:
        rank = np.unique(s, return_inverse=True)[1].astype(np.int32)
    levels = []
    k = 1
    while True:
        levels.append(np.append(rank, np.int32(-1)))
        key = rank.astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        sorted_key = key[order]
        dense = np.zeros(n, dtype=np.int32)
        np.cumsum(sorted_key[1:] != sorted_key[:-1], out=dense[1:])
        if dense[-1] == n - 1:
            return order.astype(np.int32), levels
        rank = np.empty(n, dtype=np.int32)
        rank[order] = dense
        k *= 2


def _pair_lcp(levels: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common prefix length of suffixes i[m] and j[m], for all m at once.

    Descends the doubling rounds from the widest: at width 2^l the match
    extends by 2^l where the ranks of i+h and j+h agree.  Each pair must be
    two distinct positions in [0, n]; n is the empty suffix.
    """
    h = np.zeros(len(i), dtype=np.int32)
    for lvl in range(len(levels) - 1, -1, -1):
        rank = levels[lvl]
        h += (rank.take(i + h) == rank.take(j + h)) * np.int32(1 << lvl)
    return h


def _nearest_smaller(sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every rank r, the nearest ranks left and right of r whose text
    position sa[.] is smaller than sa[r]; -1 and n where there is none.

    Binary lifting over a sparse min-table (row l holds the minimum of
    sa over each window of 2^l ranks): from the widest window down, r's
    bound moves past a window whose minimum exceeds sa[r].  A window that
    would cross the end of sa is clipped to it, which leaves the answer
    unchanged: the clipped window either holds r itself, so the bound
    stays, or adds only ranks already known to exceed sa[r], so the bound
    may overshoot the end, and is clamped back on return.
    """
    n = len(sa)
    table = [sa]
    w = 1
    while 2 * w <= n:
        table.append(np.minimum(table[-1][:-w], table[-1][w:]))
        w *= 2
    left = np.arange(n, dtype=np.int32)
    right = np.arange(n, dtype=np.int32)
    for lvl in range(len(table) - 1, -1, -1):
        row = table[lvl]
        w = np.int32(1 << lvl)
        left -= (row.take(left - w, mode="clip") > sa) * w
        right += (row.take(right + 1, mode="clip") > sa) * w
    return np.maximum(left, 0) - 1, np.minimum(right, n - 1) + 1


def _longest_previous_factor(s: np.ndarray) -> np.ndarray:
    """lpf[i] = longest prefix of s[i:] occurring at some start j < i.

    Among the suffixes starting before i, the one sharing the longest
    prefix with suffix i is its nearest neighbor on either side in
    suffix-array order, so lpf = max(LCP(i, psv), LCP(i, nsv)) (Crochemore
    & Ilie 2008).
    """
    n = len(s)
    sa, levels = _suffix_array(s)
    psv, nsv = _nearest_smaller(sa)
    # a missing neighbor (-1 or n) reads as the empty suffix n
    neighbor_pos = np.append(sa, np.int32(n))
    h = _pair_lcp(levels, np.concatenate([sa, sa]), neighbor_pos[np.concatenate([psv, nsv])])
    lpf = np.empty(n, dtype=np.int64)
    lpf[sa] = np.maximum(h[:n], h[n:])
    return lpf


def lz_match_lengths(symbols: np.ndarray) -> np.ndarray:
    """Shortest-never-seen-before substring length at every position.

    The first position always scores 1; a position whose entire suffix has
    occurred before scores suffix length + 1.  Symbols may be any int64
    values.  Ranks, the suffix array, the sparse-table rows and the
    nearest-smaller bounds are int32 and only the doubling sort key is
    int64; the bounds may overshoot to 3n, so n must be at most 2**31 // 3.
    """
    s = np.asarray(symbols, dtype=np.int64)
    if len(s) < 2:
        raise ArgumentError(f"lz_match_lengths: need n >= 2, got {len(s)}")
    if len(s) > _MAX_N:
        raise ArgumentError(f"lz_match_lengths: need n <= 2**31 // 3, got {len(s)}")
    return _longest_previous_factor(s) + 1


def lz_entropy_rate(d: DiscreteSeries) -> float:
    """The paper's entropy-rate estimate, S = n log2 n / sum(Lambda_i), in
    bits per symbol.

    It is biased low at finite n.  The match lengths grow as
    E[Lambda_i] = log2(i) / H + C + o(1) (Szpankowski 1993; Kontoyiannis et
    al. 1998), where C is a source-dependent constant, gamma/ln k + 1/2 for an
    iid uniform source over k symbols.  Summing gives
    S ~= H log2 n / (log2 n - log2 e + C H), so a positive C H - log2 e pulls
    S below H by a term that decays only like 1/log n: about -0.18 bits at
    n = 20000 on uniform 8-symbol data (2.82 instead of 3).
    ``lz_entropy_rate_corrected`` removes C from the same match lengths.
    """
    if d.n < 2:
        raise ArgumentError(f"lz_entropy_rate: need n >= 2, got {d.n}")
    lam_sum = int(lz_match_lengths(d.symbols).sum())
    return d.n * math.log2(d.n) / lam_sum


def lz_entropy_rate_corrected(d: DiscreteSeries) -> float:
    """Bias-corrected entropy-rate estimate in bits per symbol.

    Uses the expansion E[Lambda_i] = log2(i) / H + C + o(1) of the match
    length at 1-based position i.  The paper's estimator divides n log2 n by
    sum(Lambda_i), so C stays in its denominator.  Here the least-squares
    line Lambda_i = a log2 i + b is fitted to the same match lengths: the
    intercept b absorbs C, and the slope a = 1 / H does not depend on it.
    On iid uniform 8-symbol data at n = 20000 this reads 2.99 +/- 0.03 over
    40 seeds, where the paper's estimator reads 2.82.

    For a repeating series the match lengths are set by the end of the
    series and shrink as i grows; the negative slope means H = 0.  A zero
    slope (every symbol new) means the largest rate.  The result is clamped
    to [0, log2 q].
    """
    if d.n < 2:
        raise ArgumentError(f"lz_entropy_rate_corrected: need n >= 2, got {d.n}")
    lam = lz_match_lengths(d.symbols).astype(np.float64)
    x = np.log2(np.arange(1, d.n + 1, dtype=np.float64))
    xc = x - x.mean()
    slope = float(np.dot(xc, lam - lam.mean()) / np.dot(xc, xc))
    s_max = math.log2(d.q)
    if slope <= 0.0:
        return 0.0 if slope < 0.0 else s_max
    return min(1.0 / slope, s_max)


def _fano_rhs(pi: float, n_distinct: int) -> float:
    h = 0.0
    if 0.0 < pi < 1.0:
        h = -pi * math.log2(pi) - (1.0 - pi) * math.log2(1.0 - pi)
    rest = (1.0 - pi) * math.log2(n_distinct - 1) if n_distinct > 1 else 0.0
    return h + rest


def fano_upper_bound(s_bits: float, n_distinct: int) -> float:
    """Largest accuracy consistent with entropy rate ``s_bits`` over an
    alphabet of ``n_distinct`` symbols.

    Solves s = H(pi) + (1-pi) log2(N-1) for pi in [1/N, 1] by bisection;
    the right-hand side decreases monotonically from log2(N) to 0 on that
    interval.  Out-of-range rates are clamped, with a logged warning unless
    they are out of range by no more than rounding (FANO_CLAMP_RTOL of
    log2 N).
    """
    if n_distinct < 1:
        raise ArgumentError(f"fano_upper_bound: N must be >= 1, got {n_distinct}")
    if n_distinct == 1:
        return 1.0
    s_max = math.log2(n_distinct)
    if s_bits < 0.0 or s_bits > s_max:
        # n log2 n / n can land an ulp above log2 n: clamp that silently
        if max(-s_bits, s_bits - s_max) > FANO_CLAMP_RTOL * s_max:
            log.warning("fano_upper_bound: clamping S=%.6g into [0, %.6g]", s_bits, s_max)
        s_bits = min(max(s_bits, 0.0), s_max)
    if s_bits <= 0.0:
        return 1.0
    if s_bits >= s_max:
        return 1.0 / n_distinct

    lo, hi = 1.0 / n_distinct, 1.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        resid = _fano_rhs(mid, n_distinct) - s_bits
        if abs(resid) <= FANO_RESIDUAL_TOL:
            return mid
        if resid > 0.0:
            lo = mid
        else:
            hi = mid
        if lo == hi:
            break
    return mid


@dataclass
class VariatePredictability:
    name: str
    s_bits: float
    pi_max: float
    n_distinct: int


@dataclass
class PredictabilityReport:
    variates: list[VariatePredictability]
    mean_pi_max: float
    q: int
    mode: str

    def to_dict(self) -> dict:
        return {
            "variates": [
                {"name": v.name, "S_bits": v.s_bits, "pi_max": v.pi_max, "N": v.n_distinct}
                for v in self.variates
            ],
            "mean_pi_max": self.mean_pi_max,
            "Q": self.q,
            "mode": self.mode,
        }


def dataset_predictability(dataset, q_values, mode: str = "equal-frequency") -> list[PredictabilityReport]:
    """The discretize -> entropy-rate -> bound pipeline per variate, one
    report per Q of ``q_values``, in that order.

    The bound for each variate uses that variate's realized alphabet size,
    and the dataset aggregate is the arithmetic mean over variates.
    """
    values = dataset.values
    if values.size == 0:
        raise DataError("dataset_predictability: empty dataset")
    if not q_values:
        return []
    for x in values.T:
        _check_series(x, min(q_values), mode)
    bounds = [[None] * len(q_values)] * len(dataset.names)
    if mode == "equal-frequency":
        probs = [np.arange(1, q) / q for q in q_values]
        cuts = np.cumsum([len(p) for p in probs])[:-1]
        bounds = [np.split(np.quantile(x, np.concatenate(probs)), cuts) for x in values.T]
    order = sorted(range(len(q_values)), key=q_values.__getitem__)
    counts = {}

    def run(task):
        k, c = task
        symbols = _bin(values[:, c], q_values[k], mode, bounds[c][k])
        lam_sum = int(_longest_previous_factor(symbols).sum()) + len(symbols)
        counts[task] = lam_sum, int(np.count_nonzero(np.bincount(symbols)))

    pool.drain([(k, c) for k in order for c in range(len(dataset.names))], run)
    n = len(values)
    reports = []
    for k, q in enumerate(q_values):
        entries = []
        for c, name in enumerate(dataset.names):
            lam_sum, n_distinct = counts[k, c]
            s = n * math.log2(n) / lam_sum
            entries.append(VariatePredictability(name, s, fano_upper_bound(s, n_distinct), n_distinct))
        reports.append(PredictabilityReport(entries, float(np.mean([v.pi_max for v in entries])), q, mode))
    return reports
