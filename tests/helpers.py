"""Shared builders and independent reference implementations.

The reference routines recompute quantities through a different route
than the package (explicit transfer matrices, direct kernel sums,
central differences), so tests compare two independent paths instead
of checking an implementation against itself.
"""

import itertools
import math
import random

import numpy as np

from bellmp import (
    Dimension,
    KernelVariant,
    MeasurementSettings,
    PAIR_SLOTS,
    PhaseVector,
    VertexExtrema,
    VertexWitness,
    bell_value,
    kernel_f,
    make_state,
    maximally_entangled_state,
    sorted_magnitudes,
    vertex_patterns,
)
from bellmp.engine import _pair_sum, _phased, _theta_gradient
from bellmp.optimize import _THETA as THETA

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


def angles_dsweep_states():
    """The states of the bench's angles_dsweep workload, keyed by (d, k):
    k = 0 is the flat state, k = 1 and 2 the two states one
    random.Random(0) draws per d, in the order the bench draws them."""
    rng = random.Random(0)
    states = {}
    for d in (2, 3, 4, 6, 8):
        dim = Dimension(d)
        states[d, 0] = maximally_entangled_state(dim)
        for k in (1, 2):
            states[d, k] = make_state(dim, [rng.uniform(0.1, 1.0) for _ in range(d)])
    return states


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
            total += kernel_f(i, j, m, n, dim) * table_slice[m, n]
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
    rows = [list(row) for row in settings.phases]
    grad = np.empty(4 * dim.d)
    for r in range(4):
        for k in range(dim.d):
            hi = [row[:] for row in rows]
            lo = [row[:] for row in rows]
            hi[r][k] += step
            lo[r][k] -= step
            f_hi = bell_value(state, MeasurementSettings.from_phases(dim, hi))
            f_lo = bell_value(state, MeasurementSettings.from_phases(dim, lo))
            grad[r * dim.d + k] = (f_hi - f_lo) / (2.0 * step)
    return grad


_VERTEX_ASSIGNMENTS = np.array(list(itertools.permutations(range(4))))


def reference_vertex_candidates(state):
    """vertex_candidates by a loop over the six slots: each slot's
    sign * A_x * A_y over all patterns and assignments is added to the
    running total, from 0.0, in PAIR_SLOTS order."""
    a = np.array(sorted_magnitudes(state))[_VERTEX_ASSIGNMENTS]
    signs = np.array([pattern.signs for pattern in vertex_patterns()])
    values = 0.0
    for slot, (x, y) in enumerate(PAIR_SLOTS):
        values = values + signs[:, slot, None] * a[:, x] * a[:, y]
    n = len(_VERTEX_ASSIGNMENTS)
    witnesses = tuple(
        VertexWitness(vertex_patterns()[i // n],
                      tuple(_VERTEX_ASSIGNMENTS[i % n].tolist()))
        for i in (int(values.argmax()), int(values.argmin()))
    )
    return VertexExtrema(float(values.max()), float(values.min()), witnesses)


def vertex_slot_sum(state, witness):
    """sum over slots of (sign * A_x) * A_y for one pattern and assignment,
    in Python floats from 0.0, with A the sorted magnitudes."""
    magnitudes = sorted_magnitudes(state)
    a = [magnitudes[k] for k in witness.assignment]
    total = 0.0
    for (x, y), sign in zip(PAIR_SLOTS, witness.pattern.signs):
        total += sign * a[x] * a[y]
    return total


# The expressions below are the optimizer's earlier forms, kept so that
# the faster forms in the package can be checked against them bit for
# bit, signed zeros included.

def reference_shifted(H, lowest, mu):
    """H + (mu + max(0, -lambda_min)) I per row, with I from np.eye: the
    matrix the regularized Newton step solves with."""
    shift = mu + np.maximum(0.0, -lowest)
    return H + shift[:, None, None] * np.eye(H.shape[-1])


def reference_coordinate_map(d, columns):
    """C = Theta (x) (the given columns of I_d) through np.kron."""
    return np.kron(THETA, np.eye(d)[:, columns])


def reference_theta_hessian(P, coefficients, pa):
    """The block-diagonal theta Hessian of a^T M a, with the diagonal
    taken by fancy indexing and the blocks written through the einsum
    view of the diagonal blocks."""
    d = P.shape[-1]
    a = coefficients[..., None, :]
    blocks = a[..., :, None] * a[..., None, :] * P.real
    diagonal = np.arange(d)
    blocks[..., diagonal, diagonal] -= a * pa.real
    blocks *= 2.0 / ((d - 1) * d**3)
    H = np.zeros(blocks.shape[:-3] + (4, d, 4, d))
    np.einsum("...rmrn->...rmn", H)[...] = blocks
    return H


def reference_extreme_hessian(theta, largest, rows=...):
    """The theta Hessian of d lambda_ext(M) that
    engine.extreme_value_and_gradient forms, with J built in the
    (..., 4, d, d) layout and moved to (..., d, 4 d) by np.moveaxis."""
    d = theta.shape[-1]
    P = _phased(theta)
    w, V = np.linalg.eigh(_pair_sum(P))
    k = -1 if largest else 0
    a = math.sqrt(d) * V[..., k]
    _, pa = _theta_gradient(P, a)
    Pr, Vr, wr = P[rows], V[rows], w[rows]
    H = reference_theta_hessian(Pr, a[rows], pa[rows])
    im_pv = np.imag(Pr @ Vr[..., None, :, :])
    J = (Vr[..., None, :, :] * im_pv[..., k, None] + Vr[..., k][..., None, :, None] * im_pv) \
        * (-1.0 / ((d - 1) * d**3))
    J = np.moveaxis(J, -1, -3).reshape(J.shape[:-3] + (d, 4 * d))
    gaps = wr[..., k, None] - wr
    weights = np.divide(2.0 * d, gaps, out=np.zeros_like(gaps), where=gaps != 0.0)
    H += ((J.swapaxes(-1, -2) * weights[..., None, :]) @ J).reshape(H.shape)
    return H
