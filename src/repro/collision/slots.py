"""Exact computation of the paper's ``mu(K, s)`` (Eq. 2).

``mu(K, s)`` is the probability that, when ``K`` items are dropped
uniformly and independently into ``s`` buckets, at least one bucket ends
up with exactly one item.  In the broadcasting analysis the items are
the neighbors that decided to transmit, the buckets are the ``s`` slots
of a phase, and a singleton bucket is a collision-free reception.

The paper states a recursion (Eq. 2) over the occupancy of the first
bucket and evaluates it numerically.  We implement the complementary
form, which is numerically friendlier and has a clean base case:

    ``Q(K, s) = P(no bucket holds exactly one item)``
    ``Q(K, s) = sum_{j != 1} Binom(K, j; 1/s) * Q(K - j, s - 1)``
    ``Q(0, s) = 1``,  ``Q(K, 1) = [K != 1]``

and ``mu = 1 - Q``.  The whole table ``K = 0..Kmax`` is filled in one
vectorized sweep per bucket and cached, so repeated queries from the
ring-model recursion are table lookups.  The cache is per process: a
table's prefix never changes as ``Kmax`` grows (entry ``k`` depends only
on ``k`` and ``s``), so every :class:`SlotCollisionTable` shares one
read-only table per slot count.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.utils.stats import gammaln
from repro.utils.validation import check_positive_int

__all__ = [
    "no_singleton_table",
    "mu_exact",
    "mu_real",
    "expected_singleton_slots",
    "SlotCollisionTable",
]


def _binom_pmf_matrix(kmax: int, q: float) -> np.ndarray:
    """``W[k, j] = P(Binomial(k, q) = j)`` for ``0 <= j <= k <= kmax``.

    Computed in log space with ``gammaln`` so large ``k`` does not
    overflow the binomial coefficient.
    """
    k = np.arange(kmax + 1)[:, None].astype(float)
    j = np.arange(kmax + 1)[None, :].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_comb = gammaln(k + 1.0) - gammaln(j + 1.0) - gammaln(k - j + 1.0)
        logw = log_comb + j * np.log(q) + (k - j) * np.log1p(-q)
    w = np.where(j <= k, np.exp(logw), 0.0)
    # log(0) paths: q==1 handled by caller (s==1 short-circuits earlier).
    return w


def no_singleton_table(kmax: int, slots: int) -> np.ndarray:
    """``Q(k, slots)`` for ``k = 0..kmax``: probability of *no* singleton bucket."""
    kmax = check_positive_int("kmax", kmax)
    slots = check_positive_int("slots", slots)
    ks = np.arange(kmax + 1)
    # s = 1: the only bucket holds all k items; singleton iff k == 1.
    q_prev = (ks != 1).astype(float)
    for s in range(2, slots + 1):
        w = _binom_pmf_matrix(kmax, 1.0 / s)
        w[:, 1] = 0.0  # exclude "exactly one item in this bucket"
        q_next = np.empty(kmax + 1)
        for k in range(kmax + 1):
            # sum_j W[k, j] * q_prev[k - j]
            q_next[k] = float(np.dot(w[k, : k + 1], q_prev[k::-1]))
        q_prev = q_next
    # The recursion is a convex-ish combination of probabilities; clip the
    # ~1e-14 round-off so downstream invariants (mu in [0, 1]) hold exactly.
    return np.clip(q_prev, 0.0, 1.0)


def mu_exact(k: int, slots: int) -> float:
    """The paper's ``mu(K, s)`` for a single integer ``K >= 0``.

    ``mu(0, s) = 0`` (no transmitter, nothing to receive) and
    ``mu(1, s) = 1`` (a lone transmitter never collides), matching
    Eq. (2)'s base case.
    """
    if k < 0:
        raise ValueError(f"item count must be non-negative, got {k}")
    if k == 0:
        return 0.0
    return float(1.0 - no_singleton_table(k, slots)[k])


class _SharedTables:
    """The longest ``mu(0..Kmax, s)`` table built so far, per slot count.

    ``no_singleton_table(n, s)[: m + 1]`` equals
    ``no_singleton_table(m, s)`` bit for bit, so the longest table gives
    every caller the bits its own table would hold.  Tables are
    read-only; a longer build replaces, never rewrites, the shorter one,
    so a caller holding the shorter table keeps valid bits.  Two threads
    may both run a missing DP; either result is the same table.
    """

    def __init__(self) -> None:
        self._tables: dict[int, np.ndarray] = {}

    def get(self, slots: int, kmax: int) -> np.ndarray:
        """A read-only table of at least ``kmax + 1`` entries."""
        table = self._tables.get(slots)
        if table is None or len(table) <= kmax:
            table = 1.0 - no_singleton_table(kmax, slots)
            table.setflags(write=False)
            self._tables[slots] = table
        return table


_SHARED = _SharedTables()


class SlotCollisionTable:
    """Cached, growable tables of ``mu(K, s)`` for fast repeated queries.

    The ring-model recursion evaluates ``mu`` at every quadrature node of
    every ring of every phase; this class amortizes the DP by caching the
    full ``K = 0..Kmax`` table per slot count and doubling ``Kmax`` on
    demand.  The arrays themselves come from one process-wide, read-only
    table per slot count, so the DP runs once per process however many
    models ask.

    Thread-safety: instances are not thread-safe; share one per model.
    """

    def __init__(self, initial_kmax: int = 256) -> None:
        self._kmax = check_positive_int("initial_kmax", initial_kmax)
        self._tables: dict[int, np.ndarray] = {}

    def table(self, slots: int, kmax: int | None = None) -> np.ndarray:
        """``mu(0..Kmax, slots)`` as a read-only array, growing the cache if needed.

        The grow check compares the cached table against what *this*
        query needs, not against the shared ``Kmax`` high-water mark:
        once a slot count's table covers the request it is returned
        as-is, even if a different slot count has since grown the mark.
        Rebuilds only happen when the request genuinely outgrows the
        cache, and they double ``Kmax`` so growth stays amortized; a
        rebuild runs the DP only if no table in the process is long
        enough yet.
        """
        slots = check_positive_int("slots", slots)
        need = self._kmax if kmax is None else kmax
        cached = self._tables.get(slots)
        if cached is not None and len(cached) > need:
            return cached
        size = self._kmax
        while size < need:
            size *= 2
        self._kmax = size
        table = _SHARED.get(slots, size)
        self._tables[slots] = table
        return table

    def mu(self, k: ArrayLike, slots: int) -> float | np.ndarray:
        """Vectorized ``mu`` for integer item counts ``k`` (array-friendly)."""
        k_arr = np.asarray(k)
        if np.any(k_arr < 0):
            raise ValueError("item counts must be non-negative")
        kmax = int(k_arr.max()) if k_arr.size else 0
        tab = self.table(slots, kmax)
        out = tab[k_arr]
        return float(out[()]) if out.ndim == 0 else out

    def mu_real(
        self, lam: ArrayLike, slots: int, method: str = "interpolate"
    ) -> float | np.ndarray:
        """``mu`` extended to real-valued expected counts ``lam``.

        ``method="interpolate"`` (default) linearly interpolates between
        the integer table entries — the natural reading of the paper's
        ``mu(g(x) * p, s)`` with non-integer argument.
        ``method="poisson"`` instead treats the transmitter count as
        Poisson-distributed with mean ``lam`` and returns the exact
        closed form for that mixture (see :mod:`repro.collision.poisson`);
        the ablation benchmark compares the two.
        """
        lam_arr = np.asarray(lam, dtype=float)
        if lam_arr.size and lam_arr.min() < 0:
            raise ValueError("expected counts must be non-negative")
        if method == "poisson":
            from repro.collision.poisson import mu_poisson

            return mu_poisson(lam_arr, slots)
        if method != "interpolate":
            raise ValueError(f"unknown method {method!r}")
        kmax = int(np.ceil(lam_arr.max())) + 1 if lam_arr.size else 1
        tab = self.table(slots, kmax)
        floor = np.floor(lam_arr)
        lo = floor.astype(int)
        frac = lam_arr - floor
        out = (1.0 - frac) * tab[lo] + frac * tab[1:][lo]
        return float(out[()]) if out.ndim == 0 else out


_DEFAULT_TABLE = SlotCollisionTable()


def mu_real(
    lam: ArrayLike, slots: int, method: str = "interpolate"
) -> float | np.ndarray:
    """Module-level convenience wrapper over a shared :class:`SlotCollisionTable`."""
    return _DEFAULT_TABLE.mu_real(lam, slots, method=method)


def expected_singleton_slots(k: ArrayLike, slots: int) -> float | np.ndarray:
    """Expected number of singleton buckets for ``k`` items in ``slots`` buckets.

    ``E = k * ((s-1)/s)^(k-1)`` — each item is alone in its bucket with
    probability ``((s-1)/s)^(k-1)``.  Evaluated with the continuous
    extension in ``k`` (used by the flooding success-rate analysis of
    Fig. 12, where ``k`` is an expectation).
    """
    slots = check_positive_int("slots", slots)
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0):
        raise ValueError("item counts must be non-negative")
    if slots == 1:
        out = np.where(np.abs(k_arr - 1.0) < 1e-12, 1.0, k_arr * 0.0)
        # continuous extension through k=1 for s=1 is degenerate; report
        # the k * 0^(k-1) limit: 1 at k=1, 0 elsewhere (k=0 gives 0).
        return float(out[()]) if out.ndim == 0 else out
    ratio = (slots - 1.0) / slots
    out = k_arr * ratio ** np.maximum(k_arr - 1.0, 0.0)
    return float(out[()]) if out.ndim == 0 else out
