"""Per-series predictability: discretization, entropy rate, accuracy bound.

A real-valued series is binned into Q symbols, its entropy rate is
estimated from Lempel-Ziv style match lengths, and the largest prediction
accuracy consistent with that rate and the realized alphabet is obtained by
inverting a binary-entropy inequality.  The pipeline uses the paper's
estimator; a bias-corrected estimate from the same match lengths sits
beside it.

The match length at position i is the length of the shortest substring
starting at i that never occurs starting at any earlier position (earlier
occurrences may overlap i).  Match lengths are computed exactly via a
suffix array and a longest-previous-factor sweep, so the estimator scales
to datasets with tens of thousands of steps.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError

log = logging.getLogger(__name__)

FANO_RESIDUAL_TOL = 1e-10


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


def discretize(series, q: int, mode: str = "equal-frequency") -> DiscreteSeries:
    """Bin a real sequence into ``q`` integer symbols.

    equal-frequency uses empirical quantile boundaries with ties resolved
    toward the lower bin; equal-width splits [min, max] uniformly.  A
    constant series maps to a single symbol in either mode.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ArgumentError(f"discretize: expected a 1-d series, got shape {x.shape}")
    if q < 2:
        raise ArgumentError(f"discretize: Q must be >= 2, got {q}")
    if len(x) < 2:
        raise ArgumentError(f"discretize: series too short ({len(x)} values)")
    if np.isnan(x).any():
        raise DataError("discretize: series contains NaN")
    if not np.isfinite(x).all():
        raise DataError("discretize: series contains non-finite values")

    if mode == "equal-frequency":
        bounds = np.quantile(x, np.arange(1, q) / q)
        symbols = np.searchsorted(bounds, x, side="left")
    elif mode == "equal-width":
        lo, hi = x.min(), x.max()
        if hi == lo:
            symbols = np.zeros(len(x), dtype=np.int64)
        else:
            symbols = np.minimum((x - lo) / (hi - lo) * q, q - 1).astype(np.int64)
    else:
        raise ArgumentError(f"discretize: unknown mode '{mode}'")
    return DiscreteSeries(symbols.astype(np.int64), q)


def _suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling on integer symbols."""
    n = len(s)
    rank = np.unique(s, return_inverse=True)[1].astype(np.int64)
    k = 1
    order = np.argsort(rank, kind="stable")
    while rank[order[-1]] != n - 1 and k < n:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        boundary = (rank[order[1:]] != rank[order[:-1]]) | (second[order[1:]] != second[order[:-1]])
        new_rank = np.zeros(n, dtype=np.int64)
        new_rank[order[1:]] = np.cumsum(boundary)
        rank = new_rank
        k *= 2
    return order


def _lcp_array(s: np.ndarray, sa: np.ndarray) -> list[int]:
    """Kasai: lcp[r] = common prefix length of suffixes sa[r-1] and sa[r].

    The sweep runs over Python lists, and returns one: indexing a list is
    several times cheaper than reading a numpy scalar.
    """
    n = len(s)
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[sa] = np.arange(n)
    text, order, rank = s.tolist(), sa.tolist(), rank_arr.tolist()
    lcp = [0] * n
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = order[r - 1]
        while i + h < n and j + h < n and text[i + h] == text[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _longest_previous_factor(s: np.ndarray) -> np.ndarray:
    """lpf[i] = longest prefix of s[i:] occurring at some start j < i.

    Positions are peeled off a doubly linked list over suffix-array ranks in
    decreasing text order, so the rank neighbors of a position are always
    its best earlier-starting candidates.  Like ``_lcp_array``, the sweep
    runs over Python lists.
    """
    n = len(s)
    sa = _suffix_array(s)
    # left_lcp[r] = current common-prefix length between list node r and its
    # left neighbor; updated as nodes are removed.
    left_lcp = _lcp_array(s, sa)
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[sa] = np.arange(n)
    rank = rank_arr.tolist()

    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    lpf = [0] * n
    for pos in range(n - 1, -1, -1):
        r = rank[pos]
        left = prev[r]
        right = nxt[r]
        with_left = left_lcp[r] if left >= 0 else 0
        with_right = left_lcp[right] if right < n else 0
        lpf[pos] = max(with_left, with_right)
        # unlink r; the surviving pair's lcp is the min across the removed node
        if right < n:
            left_lcp[right] = min(with_left, with_right) if left >= 0 else 0
            prev[right] = left
        if left >= 0:
            nxt[left] = right
    return np.asarray(lpf, dtype=np.int64)


def lz_match_lengths(symbols: np.ndarray) -> np.ndarray:
    """Shortest-never-seen-before substring length at every position.

    The first position always scores 1; a position whose entire suffix has
    occurred before scores suffix length + 1.
    """
    s = np.asarray(symbols, dtype=np.int64)
    if len(s) < 2:
        raise ArgumentError(f"lz_match_lengths: need n >= 2, got {len(s)}")
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
    interval.  Out-of-range rates are clamped with a logged warning.
    """
    if n_distinct < 1:
        raise ArgumentError(f"fano_upper_bound: N must be >= 1, got {n_distinct}")
    if n_distinct == 1:
        return 1.0
    s_max = math.log2(n_distinct)
    if s_bits < 0.0 or s_bits > s_max:
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


def dataset_predictability(dataset, q: int = 10, mode: str = "equal-frequency") -> PredictabilityReport:
    """Run the discretize -> entropy-rate -> bound pipeline per variate.

    The bound for each variate uses that variate's realized alphabet size,
    and the dataset aggregate is the arithmetic mean over variates.
    """
    if dataset.values.size == 0:
        raise DataError("dataset_predictability: empty dataset")
    entries = []
    for c, name in enumerate(dataset.names):
        d = discretize(dataset.values[:, c], q, mode)
        s = lz_entropy_rate(d)
        pi = fano_upper_bound(s, d.distinct)
        entries.append(VariatePredictability(name, s, pi, d.distinct))
    mean_pi = float(np.mean([v.pi_max for v in entries]))
    return PredictabilityReport(entries, mean_pi, q, mode)
