"""Monte Carlo checks of truncated moment inequalities and path regularity.

The objects here live on a finite surrogate space R^q: elementary
integrands are step processes in time whose value on each subinterval is a
scalar multiple of the identity, with the scalar drawn from one of three
families (a constant, a bounded functional of the driving Wiener path, or
a time-zero mark exp(G^2), which does not even have a finite mean).  The
point of the third family is that the truncated inequalities stay
informative where classical second-moment bounds are vacuous, so the
checks assert finiteness and cross-seed stability of the truncated
ratios, never a specific constant.

A Monte Carlo batch is drawn and integrated ``CHUNK_PATHS`` paths at a
time, bit for bit as one whole-batch pass, by the one loop ``_batch``: a
helper thread, joined with the batch, draws chunk k + 1 of the one keyed
stream, in stream order, while the caller integrates chunk k.  A batch keeps
per-path results, not paths: O(paths) and three chunk arrays.  A path's ``quad_var``
is numpy's row sum of its own window terms, so no result depends on the
batch size, the chunk size or the BLAS thread count.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CapacityError,
    DomainError,
    InsufficientDataError,
    StatisticalAlarm,
)
from .rng import L0_MARK_TAG, L0_WIENER_TAG, drawn_ahead, keyed_generator

FAMILIES = ("deterministic_const", "wiener_functional", "heavy_tailed_scale")

#: Fewest Monte Carlo paths for which the ratio estimators are meaningful.
MIN_PATHS = 1000

#: Most Wiener increments (paths x steps x dim_q) one batch may draw: the
#: 10x rerun of the default 1e5-path, 64-step check draws 6.4e7 of them.
MAX_DRAWS = 2**26

#: Paths a batch draws and integrates at a time: at 64 steps the three chunk
#: arrays in flight (two draws, the integral) fit a 2 MB L2 (4096: 50% slower).
CHUNK_PATHS = 1024


@dataclass(frozen=True)
class ElementaryIntegrand:
    """Step-process integrand on the partition, valued in scalar * identity.

    ``support`` optionally restricts the integrand to the subintervals
    contained in a window, which is how disjoint-block sequences for the
    summed inequality are built.  The scalar for a subinterval (t_n, t_{n+1}]
    depends only on information available at t_n.
    """

    dim_q: int
    partition: np.ndarray
    family: str
    scale: float = 1.0
    support: tuple[float, float] | None = None

    def __post_init__(self):
        part = np.asarray(self.partition, dtype=float)
        if part.ndim != 1 or part.size < 2:
            raise DomainError("partition needs at least two time points")
        if part[0] != 0.0 or part[-1] != 1.0 or np.any(np.diff(part) <= 0.0):
            raise DomainError("partition must increase from 0 to 1")
        if self.family not in FAMILIES:
            raise DomainError(f"unknown integrand family {self.family!r}")
        if self.dim_q < 1:
            raise DomainError(f"dim_q must be >= 1, got {self.dim_q}")
        object.__setattr__(self, "partition", part)

    def step_mask(self) -> np.ndarray:
        """Boolean mask of subintervals inside the support window."""
        if self.support is None:
            return np.ones(self.partition.size - 1, dtype=bool)
        lo, hi = self.support
        mids = 0.5 * (self.partition[:-1] + self.partition[1:])
        return (mids > lo) & (mids < hi)

    def step_scalars(self, w_left: np.ndarray, marks: np.ndarray) -> np.ndarray:
        """Scalar multiplier per (path, subinterval) of the support window.

        ``w_left`` holds the first Wiener coordinate at the left endpoints
        of the window's subintervals, ``marks`` the per-path time-zero
        standard normals.
        """
        n_paths, n_steps = w_left.shape
        if self.family == "deterministic_const":
            vals = np.full((n_paths, n_steps), self.scale)
        elif self.family == "wiener_functional":
            vals = self.scale * np.cos(w_left)
        else:  # heavy_tailed_scale: exp(G^2) is not square integrable
            vals = np.empty((n_paths, n_steps))
            vals[:] = (self.scale * np.exp(marks**2))[:, None]
        return vals


@dataclass(frozen=True)
class IntegralSample:
    """Per-path results of a Monte Carlo batch of one elementary stochastic integral."""

    terminal: np.ndarray  # (n_paths, q) integral at t = 1
    sup_norm: np.ndarray  # (n_paths,) max euclidean norm over partition points
    quad_var: np.ndarray  # (n_paths,) integral of the squared HS norm


def check_draws(n_paths: int, steps: int, dim_q: int) -> None:
    """Raise ``CapacityError`` if one batch would exceed ``MAX_DRAWS``."""
    if n_paths * steps * dim_q > MAX_DRAWS:
        raise CapacityError(
            f"{n_paths} paths x {steps} steps x dim_q {dim_q} exceed the "
            f"guard of {MAX_DRAWS} Wiener increments"
        )


@contextmanager
def _batch(phi: ElementaryIntegrand, seed: int, n_paths: int):
    """Check the path count and the draw guard, then yield an iterator of the
    batch's ``(rows, marks, dw, x)`` chunks; ``x`` is the chunk's integral buffer.

    Chunk k + 1 of the one keyed Wiener stream is drawn on a helper thread
    (``rng.drawn_ahead``) while the caller uses chunk k; leaving the ``with``
    block, however it is left, joins the helper.
    """
    if n_paths < 1:
        raise DomainError(f"need at least one path, got {n_paths}")
    dts = np.diff(phi.partition)
    check_draws(n_paths, dts.size, phi.dim_q)
    gen = keyed_generator(seed, L0_WIENER_TAG)
    marks = keyed_generator(seed, L0_MARK_TAG).standard_normal(n_paths)
    root_dts = np.sqrt(dts)[:, None]
    chunks = [slice(k, min(k + CHUNK_PATHS, n_paths)) for k in range(0, n_paths, CHUNK_PATHS)]
    dw = np.empty((2, min(n_paths, CHUNK_PATHS), dts.size, phi.dim_q))
    x = np.empty((min(n_paths, CHUNK_PATHS), dts.size + 1, phi.dim_q))
    # chunk k + 1 fills the buffer of chunk k - 1 while chunk k is used
    bufs = [dw[k % 2, : rows.stop - rows.start] for k, rows in enumerate(chunks)]

    def fill(buf: np.ndarray) -> np.ndarray:
        gen.standard_normal(out=buf)
        buf *= root_dts
        return buf

    with drawn_ahead(fill, bufs, True) as drawn:
        yield ((rows, marks[rows], chunk, x[: len(chunk)])
               for rows, chunk in zip(chunks, drawn))


def _integrate(phi: ElementaryIntegrand, dw, marks, x) -> tuple[np.ndarray, np.ndarray]:
    """Integrate one chunk of paths into ``x``; return their sup norms and
    quadratic variations.

    ``dw`` may be shared, so it is only read.  Only the steps ``s0 .. s1 - 1``
    of the support window are integrated: before them ``x`` is zero and
    after them constant, so the sup is taken over the window's points.  A
    path's quadratic variation is the row sum of its window terms
    ``dim_q * scalar**2 * dt``, pairwise in numpy's fixed order.
    """
    inside = np.flatnonzero(phi.step_mask())
    s0, s1 = (inside[0], inside[-1] + 1) if inside.size else (0, 0)
    w_left = np.zeros((len(dw), s1))  # first Wiener coordinate at left endpoints
    if phi.family == "wiener_functional":  # the other families read its shape only
        np.cumsum(dw[:, : max(s1 - 1, 0), 0], axis=1, out=w_left[:, 1:])
    scalars = phi.step_scalars(w_left[:, s0:], marks)
    window = x[:, s0 : s1 + 1]
    x[:, : s0 + 1] = 0.0
    np.multiply(scalars[:, :, None], dw[:, s0:s1], out=window[:, 1:])
    np.cumsum(window[:, 1:], axis=1, out=window[:, 1:])
    x[:, s1 + 1 :] = x[:, s1 : s1 + 1]
    # C order makes every row one contiguous pairwise sum
    terms = np.square(scalars, order="C")
    terms *= phi.dim_q
    terms *= np.diff(phi.partition)[s0:s1]
    # sqrt is monotone, so taking it after the max is exact; q = 1 needs no sum
    squares = np.square(window)
    sq_norms = squares[..., 0] if phi.dim_q == 1 else squares.sum(axis=2)
    return np.sqrt(sq_norms.max(axis=1)), terms.sum(axis=1)


def ito_integral_elementary(
    phi: ElementaryIntegrand, seed: int, n_paths: int = 1
) -> IntegralSample:
    """The defining sum's terminal value, sup norm and quad_var, path by path."""
    with _batch(phi, seed, n_paths) as chunks:
        out = IntegralSample(np.empty((n_paths, phi.dim_q)), *np.empty((2, n_paths)))
        for rows, marks, dw, x in chunks:
            out.sup_norm[rows], out.quad_var[rows] = _integrate(phi, dw, marks, x)
            out.terminal[rows] = x[:, -1]
    return out


def dp_metric(samples: np.ndarray, p: float) -> float:
    """Truncated moment metric estimate: (mean of min(1, s^p))^(1/p)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InsufficientDataError("dp_metric needs at least one sample")
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if np.any(samples < 0.0):
        raise DomainError("distance samples must be nonnegative")
    return float(np.mean(np.minimum(1.0, samples) ** p) ** (1.0 / p))


def _rerun_ratios(name: str, attempt, n_paths: int) -> list[float]:
    """``lhs / rhs`` of each pair of ``attempt(paths)``, 0/0 being 0 as for the zero
    integrand; while some pair has rhs = 0 < lhs, one rerun at 10x the paths
    decides it, and pairs decided before keep their ratios."""
    ratios: list[float | None] = []
    for paths in (n_paths, 10 * n_paths):
        fresh = [lhs / rhs if rhs else None if lhs else 0.0 for lhs, rhs in attempt(paths)]
        ratios = [f if r is None else r for r, f in zip(ratios or fresh, fresh)]
        if None not in ratios:
            return ratios
    raise StatisticalAlarm(
        f"{name} degenerate at {10 * n_paths} paths: lhs > 0 with rhs = 0"
    )


def bdg_ratios(
    phi: ElementaryIntegrand, ps: list[float], n_paths: int, seed: int = 0
) -> list[float]:
    """Truncated-supremum to truncated-quadratic-variation ratio per p, from one batch.

    Estimates E[(1 ^ sup_t |X(t)|)^p] / E[1 ^ quad_var]^{p/2}; the inequality
    under test asserts this is bounded by a constant depending only on p.  A
    zero denominator with positive numerator is a violation candidate and
    triggers one automatic rerun at 10x the paths before raising an alarm.
    """
    if min(ps, default=1.0) <= 0.0:
        raise DomainError(f"p must be positive, got {min(ps)}")
    if n_paths < MIN_PATHS:
        raise DomainError(f"need at least {MIN_PATHS} paths, got {n_paths}")

    def attempt(paths):
        sample = ito_integral_elementary(phi, seed, paths)
        sup, qv = np.minimum(1.0, sample.sup_norm), np.mean(np.minimum(1.0, sample.quad_var))
        return [(float((sup**p).mean()), float(qv ** (p / 2.0))) for p in ps]

    return _rerun_ratios("bdg_ratio", attempt, n_paths)


def bdg_ratio(phi: ElementaryIntegrand, p: float, n_paths: int, seed: int = 0) -> float:
    """``bdg_ratios`` at the one exponent ``p``."""
    return bdg_ratios(phi, [p], n_paths, seed)[0]


def bdg_sum_ratio(
    phis: list[ElementaryIntegrand], p: float, n_paths: int, seed: int = 0
) -> float:
    """Ratio for the summed inequality over a finite integrand sequence.

    All integrands are driven by the same Wiener paths; the truncation sits
    outside the sums on both sides, and the denominator carries the
    (integral)^{p/2} structure per sequence member.
    """
    if p < 2.0:
        raise DomainError(f"summed inequality requires p >= 2, got {p}")
    if not phis:
        raise DomainError("empty integrand list")
    if n_paths < MIN_PATHS:
        raise DomainError(f"need at least {MIN_PATHS} paths, got {n_paths}")
    base = phis[0]
    for phi in phis[1:]:
        if phi.dim_q != base.dim_q or not np.array_equal(
            phi.partition, base.partition
        ):
            raise DomainError("integrands must share dimension and partition")

    def attempt(paths):
        with _batch(base, seed, paths) as chunks:
            sup_sum, qv_sum = np.zeros(paths), np.zeros(paths)
            for rows, marks, dw, x in chunks:
                for phi in phis:
                    sup, qv = _integrate(phi, dw, marks, x)
                    sup_sum[rows] += sup**p
                    qv_sum[rows] += qv ** (p / 2.0)
        lhs = float(np.mean(np.minimum(1.0, sup_sum)))
        return [(lhs, float(np.mean(np.minimum(1.0, qv_sum))))]

    return _rerun_ratios("bdg_sum_ratio", attempt, n_paths)[0]


@dataclass(frozen=True)
class HolderEstimate:
    exponent: float
    degenerate: bool
    levels: np.ndarray  # dyadic levels m used
    increments: np.ndarray  # S(m) = max increment norm at level m


def holder_exponent(snapshots, m_min: int, norm=None) -> HolderEstimate:
    """Empirical Hölder exponent from dyadic increment maxima.

    ``snapshots`` holds the path at all times j * 2**-m_max (so
    2**m_max + 1 entries, scalars or vectors).  For each m from m_min to
    m_max the statistic S(m) is the maximum norm of the level-m dyadic
    increments; the exponent is the negated least-squares slope of
    log2 S(m) against m.  A level with S(m) = 0 marks the path as
    degenerate (e.g. constant in time) and no slope is fitted.  ``norm``,
    if given, maps a ``(k, n)`` block of increments, one per row, to their
    k norms (e.g. ``FemOperators.m_norm``); it is called once per level.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    n_pts = snapshots.shape[0]
    m_max = int(math.log2(n_pts - 1)) if n_pts > 1 else 0
    if n_pts != 2**m_max + 1:
        raise DomainError(
            f"snapshot count {n_pts} is not 2^m + 1 for integer m"
        )
    if m_min < 0 or m_max - m_min + 1 < 4:
        raise InsufficientDataError(
            f"need >= 4 dyadic levels, got m in [{m_min}, {m_max}]"
        )
    ms = np.arange(m_min, m_max + 1)
    incs = np.empty(ms.size)
    for i, m in enumerate(ms):
        stride = 2 ** (m_max - m)
        pts = snapshots[::stride]
        diffs = np.diff(pts, axis=0)
        if norm is not None:
            norms = norm(diffs)
        elif diffs.ndim == 1:
            norms = np.abs(diffs)
        else:
            norms = np.linalg.norm(diffs, axis=1)
        incs[i] = norms.max()
    if np.any(incs == 0.0):
        return HolderEstimate(
            exponent=float("nan"), degenerate=True, levels=ms, increments=incs
        )
    slope, _ = np.polyfit(ms, np.log2(incs), 1)
    return HolderEstimate(
        exponent=float(-slope), degenerate=False, levels=ms, increments=incs
    )


def brownian_path(seed: int, m_max: int) -> np.ndarray:
    """Scalar Brownian path on the dyadic grid of level m_max (control case)."""
    n = 2**m_max
    steps = keyed_generator(seed, L0_WIENER_TAG).standard_normal(n) / math.sqrt(n)
    return np.concatenate([[0.0], np.cumsum(steps)])


def block_integrands(
    family: str,
    n_blocks: int,
    steps_per_block: int,
    dim_q: int = 1,
) -> list[ElementaryIntegrand]:
    """Sequence of identical integrands supported on disjoint time blocks."""
    if n_blocks < 1:
        raise DomainError(f"n_blocks must be >= 1, got {n_blocks}")
    partition = np.linspace(0.0, 1.0, n_blocks * steps_per_block + 1)
    return [
        ElementaryIntegrand(dim_q=dim_q, partition=partition, family=family,
                            support=(i / n_blocks, (i + 1) / n_blocks))
        for i in range(n_blocks)
    ]
