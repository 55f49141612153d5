"""Error-free float transforms used by the server aggregation step.

The server update w' = w - lr * sum_i b_i * (w - f_i) is evaluated
coordinatewise in double-double precision (value + error term). Keeping the
residuals w - f_i exact is what makes the aggregation identities hold at the
bit level: all-zero updates leave w untouched, a single party with unit
weight hands back exactly its final model, and bitwise-equal coefficient
vectors produce bitwise-equal aggregates.

All helpers are vectorized over numpy arrays and assume round-to-nearest
float64 (no FMA is required).

combine_updates runs over fixed blocks of BLOCK coordinates so that its
dozen or so temporaries stay in cache instead of streaming model-sized
arrays through memory once per operation. Blocking cannot change a bit:
every operation is elementwise, so each coordinate sees the same float
operations, on the same operands and in the same order, whichever block it
falls in; the coefficients and scale are the same scalars in every block.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant

# Coordinates per combine_updates block. A block keeps about 12 float64
# temporaries live (inputs, accumulators, error terms and the transforms'
# intermediates): 12 * 64 KiB = 768 KiB at 8192, inside a 2 MiB per-core L2
# with room left for the rest of the process. Measured at 10 parties x
# 159,010 coordinates (one 784-200-10 model) on a 2-core Xeon: unblocked
# 70 ms; blocks of 4096 take 42 ms, 8192 through 32768 a flat 34-35 ms, so
# 8192 is the smallest block on that plateau.
BLOCK = 8192


def two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e == a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def two_diff(a, b):
    """(d, e) with d = fl(a - b) and d + e == a - b exactly."""
    d = a - b
    bb = d - a
    e = (a - (d - bb)) - (b + bb)
    return d, e


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def combine_updates(base, coeffs, residual_targets, scale):
    """fl(base - scale * sum_i coeffs[i] * (base - residual_targets[i])).

    base: float64 vector. coeffs: per-term float scalars. residual_targets:
    per-term float64 vectors. The sum runs in list order; each residual
    base - target is expanded exactly, products and the final subtraction
    are tracked with error terms, and the result is rounded once at the end.
    Runs block by block (see BLOCK) into one new output vector; the inputs
    are never written to.
    """
    out = np.empty_like(base)
    for start in range(0, base.shape[0], BLOCK):
        stop = start + BLOCK
        out[start:stop] = _combine_block(
            base[start:stop], coeffs, [t[start:stop] for t in residual_targets], scale
        )
    return out


def _combine_block(base, coeffs, residual_targets, scale):
    acc_hi = np.zeros_like(base)
    acc_lo = np.zeros_like(base)
    for coeff, target in zip(coeffs, residual_targets):
        r_hi, r_lo = two_diff(base, target)
        p_hi, p_lo = two_prod(coeff, r_hi)
        p_lo = p_lo + coeff * r_lo
        acc_hi, carry = two_sum(acc_hi, p_hi)
        acc_lo = acc_lo + (carry + p_lo)
    if scale != 1.0:
        s_hi, s_lo = two_prod(scale, acc_hi)
        acc_hi, acc_lo = s_hi, s_lo + scale * acc_lo
    out_hi, out_lo = two_diff(base, acc_hi)
    return out_hi + (out_lo - acc_lo)
