"""Shared builders and independent reference implementations.

The reference routines recompute quantities through a different route
than the package (explicit transfer matrices, direct kernel sums,
central differences), so tests compare two independent paths instead
of checking an implementation against itself.
"""

import math

import numpy as np

from bellmp import (
    Dimension,
    KernelVariant,
    MeasurementSettings,
    PhaseVector,
    bell_value,
    kernel_f,
    make_state,
)

SETTING_SIGNS = (((1, 1), 1.0), ((1, 2), 1.0), ((2, 1), -1.0), ((2, 2), 1.0))


def random_phase_vector(rng, dim):
    return PhaseVector(dim, tuple(rng.uniform(0.0, 2.0 * math.pi, dim.d)))


def random_settings(rng, d):
    dim = Dimension(d)
    return MeasurementSettings(
        dim, *(random_phase_vector(rng, dim) for _ in range(4))
    )


def random_state(rng, d, signed=False):
    lo = -1.0 if signed else 0.05
    values = rng.uniform(lo, 1.0, d)
    while float(values @ values) < 1e-4:  # reject near-degenerate draws
        values = rng.uniform(lo, 1.0, d)
    return make_state(Dimension(d), tuple(values))


def settings_from_rows(dim, rows):
    return MeasurementSettings(dim, *(PhaseVector(dim, tuple(r)) for r in rows))


def settings_rows(settings):
    return [
        list(settings.a1.phases),
        list(settings.a2.phases),
        list(settings.b1.phases),
        list(settings.b2.phases),
    ]


def transfer_matrix(phases):
    """U[m, k] = gamma^{mk} e^{i phi_k} / sqrt(d), built from scratch."""
    d = len(phases)
    gamma = np.exp(2j * math.pi / d)
    mk = np.outer(np.arange(d), np.arange(d))
    return gamma ** mk * np.exp(1j * np.asarray(phases)) / math.sqrt(d)


def reference_table(state, settings):
    """P(m, n) for all settings by contracting the transfer matrices."""
    d = state.dim.d
    a = np.asarray(state.coefficients)
    out = np.empty((2, 2, d, d))
    for i, alice in enumerate((settings.a1, settings.a2), start=1):
        ua = transfer_matrix(alice.phases)
        for j, bob in enumerate((settings.b1, settings.b2), start=1):
            ub = transfer_matrix(bob.phases)
            amp = np.einsum("k,mk,nk->mn", a, ua, ub)
            out[i - 1, j - 1] = np.abs(amp) ** 2 / d
    return out


def reference_correlation(table_slice, i, j, dim):
    total = 0.0
    for m in range(dim.d):
        for n in range(dim.d):
            total += kernel_f(i, j, m, n, dim, KernelVariant.PLUS) * table_slice[m, n]
    return total / dim.spin


def reference_bell_value(state, settings):
    """I from the reference table plus direct kernel sums."""
    table = reference_table(state, settings)
    total = 0.0
    for (i, j), sign in SETTING_SIGNS:
        total += sign * reference_correlation(
            table[i - 1, j - 1], i, j, state.dim
        )
    return total


def cglmp_coefficients(d):
    """(d - 1) c[(i, j)][a, b] as an int (2, 2, d, d) array indexed
    [i - 1, j - 1, a, b], where c is the coefficient of P(A_i = a, B_j = b)
    in CGLMP's expression (Collins, Gisin, Linden, Massar and Popescu
    2002), transcribed term by term:

        I_d = sum_{k=0}^{floor(d/2)-1} (1 - 2k/(d - 1)) [P(A1 = B1 + k)
              + P(B1 = A2 + k + 1) + P(A2 = B2 + k) + P(B2 = A1 + k)
              - P(A1 = B1 - k - 1) - P(B1 = A2 - k) - P(A2 = B2 - k - 1)
              - P(B2 = A1 - k - 1)],

    with outcomes compared mod d.  The weight (d - 1)(1 - 2k/(d - 1)) is
    the integer d - 1 - 2k."""
    out = np.zeros((2, 2, d, d), dtype=np.int64)
    for k in range(d // 2):
        weight = d - 1 - 2 * k
        # (i, j, s, sign, alice_first): P(A_i = B_j + s) if alice_first,
        # else P(B_j = A_i + s).
        terms = ((1, 1, k, 1, True), (2, 1, k + 1, 1, False),
                 (2, 2, k, 1, True), (1, 2, k, 1, False),
                 (1, 1, -k - 1, -1, True), (2, 1, -k, -1, False),
                 (2, 2, -k - 1, -1, True), (1, 2, -k - 1, -1, False))
        for i, j, s, sign, alice_first in terms:
            for a in range(d):
                b = (a - s) % d if alice_first else (a + s) % d
                out[i - 1, j - 1, a, b] += sign * weight
    return out


def central_difference_gradient(state, settings, variant=KernelVariant.PLUS, step=1e-6):
    """d I / d phi by central differences, ordered A1, A2, B1, B2.
    bell_value evaluates the paper's kernel alone, so variant must be
    KernelVariant.PLUS."""
    if variant is not KernelVariant.PLUS:
        raise ValueError(f"bell_value evaluates KernelVariant.PLUS only, got {variant!r}")
    dim = state.dim
    rows = settings_rows(settings)
    grad = np.empty(4 * dim.d)
    for r in range(4):
        for k in range(dim.d):
            hi = [row[:] for row in rows]
            lo = [row[:] for row in rows]
            hi[r][k] += step
            lo[r][k] -= step
            f_hi = bell_value(state, settings_from_rows(dim, hi))
            f_lo = bell_value(state, settings_from_rows(dim, lo))
            grad[r * dim.d + k] = (f_hi - f_lo) / (2.0 * step)
    return grad
