"""Cumulative quadrature table behind the gamma and beta posterior CDFs.

The table has a fixed, reproducible node layout and consumes no
randomness.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

Vectorized = Callable[[np.ndarray], np.ndarray]


def cumulative_table(
    f: Vectorized,
    lo: float,
    hi: float,
    *,
    start_panels: int = 256,
    tol: float = 1e-12,
    fail_tol: float = 1e-8,
    max_panels: int = 16384,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cumulative integral of ``f`` tabulated on panel endpoints.

    Each panel is integrated by Simpson's rule on its endpoints and
    midpoint.  The panel count doubles until two successive refinements
    agree to ``tol`` at every shared endpoint (relative to the total
    integral).  If the panel cap is hit first, the best table is still
    returned as long as the achieved agreement is within ``fail_tol``;
    beyond that the failure is loud.

    Returns the endpoint grid (``panels + 1`` nodes), the cumulative
    values starting at zero, and the achieved relative agreement.
    """
    if not lo < hi:
        raise DomainError(f"integration range must satisfy lo < hi, got [{lo}, {hi}]")

    def table(panels: int) -> tuple[np.ndarray, np.ndarray]:
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        fe = np.asarray(f(edges), dtype=float)
        fm = np.asarray(f(mids), dtype=float)
        h = (hi - lo) / panels
        per_panel = (fe[:-1] + 4.0 * fm + fe[1:]) * h / 6.0
        cdf = np.concatenate(([0.0], np.cumsum(per_panel)))
        return edges, cdf

    panels = start_panels
    edges, cdf = table(panels)
    achieved = np.inf
    while panels < max_panels:
        edges2, cdf2 = table(panels * 2)
        scale = max(abs(cdf2[-1]), 1.0)
        achieved = float(np.max(np.abs(cdf2[::2] - cdf))) / scale
        if achieved <= tol:
            return edges2, cdf2, achieved
        panels *= 2
        edges, cdf = edges2, cdf2
    if achieved <= fail_tol:
        return edges, cdf, achieved
    raise AccuracyError(
        f"cumulative quadrature stalled at {achieved:.3e} relative agreement "
        f"({max_panels} panels); needed {fail_tol:.1e} or better"
    )
