"""The two-type slot-collision probability of Appendix A: ``mu'(K1, K2, s)``.

``K1`` in-range transmitters (type A) and ``K2`` carrier-sense-only
transmitters (type B) each pick one of ``s`` slots uniformly; the
receiver succeeds iff some slot holds exactly one A and zero B.  As with
Eq. (2), we compute the complement:

    ``Q(k1, k2, s) = P(no good slot)``
    ``Q(k1, k2, s) = sum_{(i,j) != (1,0)} Multinom(i, j) * Q(k1-i, k2-j, s-1)``
    ``Q(k1, k2, 1) = [not (k1 == 1 and k2 == 0)]``

where ``Multinom(i, j) = C(k1,i) C(k2,j) (1/s)^{i+j} ((s-1)/s)^{k1+k2-i-j}``
is the probability the first bucket receives ``i`` A-items and ``j``
B-items.  The exact DP costs ``O(s * K1^2 * K2^2)``; above a configurable
size threshold we fall back to the Poisson closed form, which is already
accurate to a few 1e-3 at those counts (the tests quantify this).

Like the one-type tables, the ``mu'`` tables are shared per process:
entry ``(k1, k2)`` depends only on ``k1``, ``k2`` and ``s``, so the
largest table built so far serves every smaller request bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.utils.stats import gammaln

from repro.collision.poisson import mu_poisson_carrier
from repro.utils.validation import check_positive_int

__all__ = ["no_good_slot_table", "mu_carrier_exact", "CarrierCollisionTable", "mu_carrier_real"]


def _binom_pmf_matrix(kmax: int, q: float) -> np.ndarray:
    """``W[k, j] = P(Binomial(k, q) = j)`` (duplicated locally to keep this
    module importable without :mod:`repro.collision.slots`)."""
    k = np.arange(kmax + 1)[:, None].astype(float)
    j = np.arange(kmax + 1)[None, :].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_comb = gammaln(k + 1.0) - gammaln(j + 1.0) - gammaln(k - j + 1.0)
        logw = log_comb + j * np.log(q) + (k - j) * np.log1p(-q)
    return np.where(j <= k, np.exp(logw), 0.0)


def no_good_slot_table(k1max: int, k2max: int, slots: int) -> np.ndarray:
    """``Q(k1, k2, slots)`` for all ``k1 <= k1max, k2 <= k2max``.

    Returns an array of shape ``(k1max + 1, k2max + 1)``.
    """
    k1max = check_positive_int("k1max", k1max, minimum=0)
    k2max = check_positive_int("k2max", k2max, minimum=0)
    slots = check_positive_int("slots", slots)

    # s = 1 base: the single bucket is good iff (k1, k2) == (1, 0).
    q_prev = np.ones((k1max + 1, k2max + 1))
    if k1max >= 1:
        q_prev[1, 0] = 0.0

    for s in range(2, slots + 1):
        w1 = _binom_pmf_matrix(k1max, 1.0 / s)
        w2 = _binom_pmf_matrix(k2max, 1.0 / s)
        q_next = np.empty_like(q_prev)
        for k1 in range(k1max + 1):
            # Reversed slices give Qprev[k1 - i, k2 - j] as a matrix in (i, j).
            b1 = w1[k1, : k1 + 1]
            for k2 in range(k2max + 1):
                b2 = w2[k2, : k2 + 1]
                block = q_prev[k1::-1, k2::-1]
                total = float(b1 @ block @ b2)
                if k1 >= 1:
                    # remove the (i, j) = (1, 0) term: first bucket good
                    total -= float(b1[1] * b2[0] * q_prev[k1 - 1, k2])
                q_next[k1, k2] = total
        q_prev = q_next
    # Clip ~1e-14 round-off so mu' = 1 - Q stays inside [0, 1] exactly.
    return np.clip(q_prev, 0.0, 1.0)


def mu_carrier_exact(k1: int, k2: int, slots: int) -> float:
    """Exact ``mu'(K1, K2, s)`` for one integer pair (Appendix A, Eq. A.1)."""
    if k1 < 0 or k2 < 0:
        raise ValueError("item counts must be non-negative")
    if k1 == 0:
        return 0.0
    return float(1.0 - no_good_slot_table(k1, k2, slots)[k1, k2])


class _SharedTables:
    """The largest read-only ``mu'`` table built so far, per slot count.

    ``no_good_slot_table(n1, n2, s)[: m1 + 1, : m2 + 1]`` equals
    ``no_good_slot_table(m1, m2, s)`` bit for bit, so the largest table
    gives every caller the bits its own table would hold.  Tables are
    read-only and replaced, never rewritten, as they grow.
    """

    def __init__(self) -> None:
        self._tables: dict[int, np.ndarray] = {}

    def get(self, slots: int, rows: int, cols: int) -> np.ndarray:
        """A read-only ``mu'`` table of at least ``rows x cols`` entries."""
        table = self._tables.get(slots)
        if table is None or table.shape[0] < rows or table.shape[1] < cols:
            if table is not None:
                rows = max(rows, table.shape[0])
                cols = max(cols, table.shape[1])
            table = 1.0 - no_good_slot_table(rows - 1, cols - 1, slots)
            table[0, :] = 0.0  # no in-range transmitter => no reception
            table.setflags(write=False)
            self._tables[slots] = table
        return table


_SHARED = _SharedTables()


class CarrierCollisionTable:
    """Cached ``mu'`` tables with bilinear real-argument interpolation.

    Parameters
    ----------
    exact_limit:
        Maximum ``k1 + k2`` for which the exact DP is used.  Larger
        arguments fall back to :func:`repro.collision.poisson.mu_poisson_carrier`,
        whose error at such counts is far below the quantities of
        interest (``mu'`` itself is nearly 0 or the counts are large
        enough for the Poisson limit to hold).
    """

    def __init__(self, exact_limit: int = 96) -> None:
        self.exact_limit = check_positive_int("exact_limit", exact_limit)
        self._tables: dict[int, np.ndarray] = {}
        self._shape: tuple[int, int] = (0, 0)

    def _ensure(self, slots: int, k1max: int, k2max: int) -> np.ndarray:
        cached = self._tables.get(slots)
        need1 = max(k1max + 1, self._shape[0], 8)
        need2 = max(k2max + 1, self._shape[1], 8)
        if cached is None or cached.shape[0] < need1 or cached.shape[1] < need2:
            self._tables[slots] = _SHARED.get(slots, need1, need2)
            self._shape = (need1, need2)
        return self._tables[slots]

    def mu(self, k1: ArrayLike, k2: ArrayLike, slots: int) -> float | np.ndarray:
        """Vectorized exact ``mu'`` for integer counts (within ``exact_limit``)."""
        k1a = np.asarray(k1)
        k2a = np.asarray(k2)
        k1max = int(k1a.max()) if k1a.size else 0
        k2max = int(k2a.max()) if k2a.size else 0
        if k1max + k2max > self.exact_limit:
            raise ValueError(
                f"counts {k1max}+{k2max} exceed exact_limit={self.exact_limit}; "
                "use mu_real which falls back to the Poisson form"
            )
        tab = self._ensure(slots, k1max, k2max)
        out = tab[k1a, k2a]
        return float(out[()]) if out.ndim == 0 else out

    def mu_real(
        self, lam1: ArrayLike, lam2: ArrayLike, slots: int
    ) -> float | np.ndarray:
        """``mu'`` at real-valued expected counts.

        Bilinear interpolation on the exact table where
        ``ceil(lam1) + ceil(lam2) <= exact_limit``; the Poisson closed
        form elsewhere.  The two branches agree to ~1e-3 at the
        crossover, so the switch introduces no visible artifacts.
        """
        l1 = np.atleast_1d(np.asarray(lam1, dtype=float))
        l2 = np.atleast_1d(np.asarray(lam2, dtype=float))
        l1, l2 = np.broadcast_arrays(l1, l2)
        if np.any(l1 < 0) or np.any(l2 < 0):
            raise ValueError("expected counts must be non-negative")
        out = np.empty(l1.shape, dtype=float)
        exact = np.ceil(l1) + np.ceil(l2) <= self.exact_limit
        if np.any(exact):
            e1 = l1[exact]
            e2 = l2[exact]
            tab = self._ensure(
                slots, int(np.ceil(e1.max())) + 1, int(np.ceil(e2.max())) + 1
            )
            i1 = np.floor(e1).astype(int)
            i2 = np.floor(e2).astype(int)
            f1 = e1 - i1
            f2 = e2 - i2
            out[exact] = (
                (1 - f1) * (1 - f2) * tab[i1, i2]
                + f1 * (1 - f2) * tab[i1 + 1, i2]
                + (1 - f1) * f2 * tab[i1, i2 + 1]
                + f1 * f2 * tab[i1 + 1, i2 + 1]
            )
        if np.any(~exact):
            out[~exact] = mu_poisson_carrier(l1[~exact], l2[~exact], slots)
        shaped = out.reshape(np.broadcast(np.asarray(lam1), np.asarray(lam2)).shape)
        return float(shaped[()]) if shaped.ndim == 0 else shaped


_DEFAULT = CarrierCollisionTable()


def mu_carrier_real(
    lam1: ArrayLike, lam2: ArrayLike, slots: int
) -> float | np.ndarray:
    """Module-level convenience wrapper over a shared :class:`CarrierCollisionTable`."""
    return _DEFAULT.mu_real(lam1, lam2, slots)
