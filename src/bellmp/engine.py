"""Quantum side of the experiment: multiport interferometers, joint
outcome probabilities, correlation functions, the Bell value and its
analytic gradient, the T-coefficient decomposition, and finite-shot
sampling.

The measurement model: each party feeds its half of the entangled
state through an unbiased d-port Fourier multiport with per-input
phase shifters.  With state coefficients a_k (sum a_k^2 = d) and phase
vectors phi^{A_i}, phi^{B_j}, the joint outcome distribution for a
setting pair depends on the outcomes only through u = (m + n) mod d:

    P(m, n) = (1/d^3) |sum_k a_k gamma^{k(m+n)} e^{i(phi_k^{A_i} + phi_k^{B_j})}|^2

with gamma = exp(2 pi i / d).  The 1/d^3 prefactor is the unique
normalization making each setting's table sum to one under the state
convention above.  All heavy paths exploit the class structure in u:
for fixed phases the Bell value is the quadratic form I = a^T M a in
the state coefficients, with one pair matrix M (see pair_matrix), and
the d = 4 T coefficients are T_kl = 2 M_kl.

Every route here evaluates the paper's m + n kernel, model.kernel_table.
The array kernels read d from the last axis of their arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    PAIR_SIGNS,
    PAIR_SLOTS,
    SETTING_PAIRS,
    Dimension,
    MeasurementSettings,
    PureState,
    ValidationError,
    _as_array,
    _as_float_tuple,
    _as_int,
    _require_dimension,
    kernel_table,
)
from .analytic import gamma_constants

__all__ = [
    "MultiportUnitary",
    "JointProbabilityTable",
    "TCoefficients",
    "SampleEstimate",
    "multiport_unitary",
    "joint_probabilities",
    "correlation_q",
    "bell_value",
    "bell_value_noisy",
    "t_coefficients",
    "pair_matrix",
    "bell_gradient",
    "value_and_gradient_arrays",
    "extreme_value_and_gradient",
    "sample_experiment",
]

_NEGATIVE_CLAMP = -1e-14
_SLICE_SUM_TOL = 1e-12
_UNITARY_TOL = 1e-12


@lru_cache(maxsize=None)
def _dft(d: int) -> np.ndarray:
    # V[u, k] = gamma^{u k}
    u = np.arange(d)
    V = np.exp(2j * np.pi * np.outer(u, u) / d)
    V.flags.writeable = False
    return V


@lru_cache(maxsize=None)
def _outcome_classes(d: int) -> np.ndarray:
    # u[m, n] = (m + n) mod d, the outcome class of the pair (m, n).
    u = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d
    u.flags.writeable = False
    return u


@lru_cache(maxsize=None)
def _circulant(d: int) -> np.ndarray:
    # C[r, k, l] = sum_u W_r[u] gamma^{u(k - l)}, where W_r[u] = d K[r, 0, u]
    # sums the signed, doubled kernel K[r] over the d outcome pairs of the
    # class (m + n) mod d = u, on all of which K[r] takes one value.
    V = _dft(d)
    C = np.empty((4, d, d), dtype=complex)
    for r, K in enumerate(kernel_table(d)):
        C[r] = (V.T * (d * K[0])) @ V.conj()
    C.flags.writeable = False
    return C


# theta = L phi: row r of the incidence L marks the phase rows (A1, A2,
# B1, B2) whose sum is the summed phase theta_r = phi^{A_i} + phi^{B_j} of
# SETTING_PAIRS[r].  L^T q collects, on each phase row, the rows q_r of
# the setting pairs that contain it.  Every entry of either product sums
# two phases, so it equals the plain addition bit for bit.
_PAIRS = np.array([[float(p in (i - 1, j + 1)) for p in range(4)] for i, j in SETTING_PAIRS])
_PAIRS.flags.writeable = False


# The kernel functions below take summed phases with any leading batch
# axes, (..., 4, d); every row of a batch is computed exactly as it
# would be alone.
def _phased(theta: np.ndarray) -> np.ndarray:
    # P[..., r, :, :] = diag(e^{i theta_r}) C[r] diag(e^{-i theta_r}); each
    # is Hermitian and I = a^T Re(sum_r P[..., r, :, :]) a / ((d - 1) d^3).
    z = np.exp(1j * theta)
    P = z[..., :, None] * _circulant(theta.shape[-1])
    P *= z.conj()[..., None, :]
    return P


def _pair_sum(P: np.ndarray) -> np.ndarray:
    # Summing before the division by (d - 1) d^3 keeps the zero-phase
    # d = 4 entries at exactly 1/6.
    d = P.shape[-1]
    return np.real(P.sum(axis=-3)) / ((d - 1) * d**3)


@dataclass(frozen=True, eq=False)
class MultiportUnitary:
    """Transfer matrix of one party's phased Fourier multiport:
    U[i, j] = (1/sqrt d) gamma^{ij} e^{i phi_j}, indices 0-based."""

    dim: Dimension
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = _require_dimension(self.dim)
        m = _as_array(self.matrix, complex, "matrix entries")
        if m.shape != (d, d):
            raise ValidationError(f"expected a {d}x{d} matrix, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValidationError("matrix entries must be finite")
        if np.max(np.abs(m.conj().T @ m - np.eye(d))) > _UNITARY_TOL:
            raise ValidationError("matrix is not unitary within 1e-12")
        if np.max(np.abs(np.abs(m) - 1.0 / math.sqrt(d))) > _UNITARY_TOL:
            raise ValidationError("matrix is not unbiased within 1e-12")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def multiport_unitary(dim: Dimension, phases) -> MultiportUnitary:
    d = _require_dimension(dim)
    if phases.dim != dim:
        raise ValidationError(f"phases have dimension {phases.dim.d}, expected {d}")
    U = _dft(d) / math.sqrt(d) * np.exp(1j * np.asarray(phases.phases))[None, :]
    return MultiportUnitary(dim, U)


@dataclass(frozen=True, eq=False)
class JointProbabilityTable:
    """P(m, n) for all four setting pairs, shape (2, 2, d, d).

    Entries may carry negative round-off down to -1e-14, which is
    clamped to zero; anything more negative is rejected.  Every
    setting's slice must sum to one within 1e-12.  The stored array is
    C-contiguous whatever the input's layout, so its reshapes are views.
    """

    dim: Dimension
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        d = _require_dimension(self.dim)
        p = _as_array(self.probabilities, float, "probabilities")
        if p.shape != (2, 2, d, d):
            raise ValidationError(f"expected shape (2, 2, {d}, {d}), got {p.shape}")
        if not np.isfinite(p).all():
            raise ValidationError("probabilities must be finite")
        lowest = p.min()
        if lowest < _NEGATIVE_CLAMP:
            raise ValidationError(
                f"probability {lowest!r} below the -1e-14 round-off allowance"
            )
        # A new C-order array: the caller's input stays writeable.
        p = np.maximum(p, 0.0, order="C")
        sums = p.sum(axis=(2, 3))
        if abs(sums - 1.0).max() > _SLICE_SUM_TOL:
            raise ValidationError(
                f"setting slices must sum to 1 within 1e-12, got {sums.tolist()!r}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    def setting(self, i: int, j: int) -> np.ndarray:
        i, j = _as_int(i, "setting index i", 1, 2), _as_int(j, "setting index j", 1, 2)
        return self.probabilities[i - 1, j - 1]


def joint_probabilities(state: PureState, settings: MeasurementSettings) -> JointProbabilityTable:
    if state.dim != settings.dim:
        raise ValidationError(
            f"state dimension {state.dim.d} != settings dimension {settings.dim.d}"
        )
    d = state.dim.d
    theta = _PAIRS @ np.array(settings.phases)
    c = np.asarray(state.coefficients) * np.exp(1j * theta)
    ahat = c @ _dft(d).T
    class_p = np.abs(ahat) ** 2 / d**3
    p = np.take(class_p, _outcome_classes(d), axis=1).reshape(2, 2, d, d)
    return JointProbabilityTable(state.dim, p)


def correlation_q(table: JointProbabilityTable, i: int, j: int) -> float:
    """Q_ij = (1/S) sum_{m,n} f_ij(m, n) P(m, n), in [-1, 1]."""
    p = table.setting(i, j)
    d, r = table.dim.d, 2 * (i - 1) + (j - 1)
    # The sign comes off on the integers, so a zero Q21 stays +0.0.
    return float(np.sum(PAIR_SIGNS[r] * kernel_table(d)[r] * p) / (d - 1))


def bell_value_from_table(table: JointProbabilityTable) -> float:
    """I = sum(K P) / (d - 1) for the signed, doubled kernel table K:
    the four settings' sums of K P in one contraction, each divided by
    d - 1, then added in setting order."""
    d = table.dim.d
    sums = (kernel_table(d) * table.probabilities.reshape(4, d, d)).reshape(4, d * d).sum(axis=1)
    return sum((sums / (d - 1)).tolist())


def mix_uniform_noise(table: JointProbabilityTable, noise_fraction: float) -> JointProbabilityTable:
    """The table (1 - F) P + F / d^2 of uniform noise at fraction F in
    [0, 1]; F must be a real number (model._as_float_tuple)."""
    (f,) = _as_float_tuple((noise_fraction,), "noise fractions")
    if not 0.0 <= f <= 1.0:
        raise ValidationError(f"noise fraction must lie in [0, 1], got {noise_fraction!r}")
    d = table.dim.d
    return JointProbabilityTable(table.dim, (1.0 - f) * table.probabilities + f / d**2)


def bell_value(state: PureState, settings: MeasurementSettings) -> float:
    """The Bell value I of the model, evaluated through the probability table."""
    return bell_value_from_table(joint_probabilities(state, settings))


def bell_value_noisy(state: PureState, settings: MeasurementSettings,
                     noise_fraction: float) -> float:
    """Bell value of the uniform-noise admixture: the outcome table is
    (1 - F) P + F / d^2.  Every row and every column of the kernel
    table sums to zero, so the uniform part, like any noise with a
    uniform marginal, contributes nothing, and the result equals
    (1 - F) times the noiseless value; it is still evaluated on the
    mixed table rather than by that shortcut."""
    mixed = mix_uniform_noise(joint_probabilities(state, settings), noise_fraction)
    return bell_value_from_table(mixed)


def pair_matrix(phases: np.ndarray) -> np.ndarray:
    """The pair matrix M of the (4, d) phase matrix (rows A1, A2, B1,
    B2): real, and symmetric with a zero diagonal to round-off (about
    1e-16), such that the Bell value of every state is the quadratic
    form I = a^T M a.  No validation happens here."""
    return _pair_sum(_phased(_PAIRS @ phases))


@dataclass(frozen=True)
class TCoefficients:
    """The six pair coefficients of the bilinear decomposition
    I = sum_{k<l} a_k a_l T_kl (d = 4).

    Magnitudes are bounded by Gamma_1 for index gaps 1 and 3 and by
    Gamma_2 for gap 2; the constructor takes only real numbers
    (model._as_float_tuple), stores them as plain floats and enforces
    the bounds with a 1e-9 allowance.
    """

    t01: float
    t02: float
    t03: float
    t12: float
    t13: float
    t23: float

    def __post_init__(self) -> None:
        g = gamma_constants()
        bounds = {1: g.gamma1, 2: g.gamma2, 3: g.gamma1}
        values = _as_float_tuple(self.values(), "T coefficients")
        for (k, l), value in zip(PAIR_SLOTS, values):
            object.__setattr__(self, f"t{k}{l}", value)
            if abs(value) > bounds[l - k] + 1e-9:
                raise ValidationError(
                    f"|T{k}{l}| = {abs(value)!r} exceeds its bound {bounds[l - k]!r}"
                )

    def values(self) -> tuple[float, ...]:
        return (self.t01, self.t02, self.t03, self.t12, self.t13, self.t23)

    def bilinear(self, state: PureState) -> float:
        """sum_{k<l} a_k a_l T_kl for the given d = 4 state."""
        if state.dim.d != 4:
            raise ValidationError(
                f"the T decomposition is defined for dimension 4, got {state.dim.d}"
            )
        a = state.coefficients
        return sum(a[k] * a[l] * t for (k, l), t in zip(PAIR_SLOTS, self.values()))


def t_coefficients(settings: MeasurementSettings) -> TCoefficients:
    """Pair coefficients such that bell_value(state, settings) equals
    TCoefficients.bilinear(state) for every d = 4 state: the
    off-diagonal entries T_kl = 2 M_kl of the pair matrix."""
    if settings.dim.d != 4:
        raise ValidationError(
            f"the T decomposition is defined for dimension 4, got {settings.dim.d}"
        )
    M = pair_matrix(np.array(settings.phases))
    return TCoefficients(*(2.0 * float(M[k, l]) for k, l in PAIR_SLOTS))


def _theta_gradient(P: np.ndarray, coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Setting pair r contributes -2 a Im(P[r] a) / ((d - 1) d^3) to the
    # gradient over its summed phases theta_r.  Also returns P a.
    d = P.shape[-1]
    a = coefficients[..., None, :]
    pa = (P @ a[..., None])[..., 0]
    return (-2.0 / ((d - 1) * d**3)) * a * pa.imag, pa


def _theta_hessian(P: np.ndarray, coefficients: np.ndarray, pa: np.ndarray) -> np.ndarray:
    # No setting pair couples two summed phases, so the (..., 4, d, 4, d)
    # Hessian over theta is block diagonal; pair r contributes the block
    # 2 (a_m a_n Re P[r, m, n] - delta_mn a_m Re(P[r] a)_m) / ((d - 1) d^3).
    d = P.shape[-1]
    a = coefficients[..., None, :]
    blocks = a[..., :, None] * a[..., None, :] * P.real
    # Every (d + 1)-th entry of a block, flattened, is on its diagonal.
    blocks.reshape(blocks.shape[:-2] + (d * d,))[..., ::d + 1] -= a * pa.real
    blocks *= 2.0 / ((d - 1) * d**3)
    H = np.zeros(blocks.shape[:-3] + (4, d, 4, d))
    # einsum returns a writeable view of the diagonal blocks.
    np.einsum("...rmrn->...rmn", H)[...] = blocks
    return H


def value_and_gradient_arrays(coefficients: np.ndarray, theta: np.ndarray):
    """Low-level evaluation on raw arrays: the Bell value a^T M a of the
    (d,) coefficients a at the (4, d) summed phases theta =
    phi^{A_i} + phi^{B_j} (rows in SETTING_PAIRS order), its gradient
    over theta, and a function that forms the (4, d, 4, d) Hessian over
    theta, block diagonal across setting pairs, only when called:
    hessian(rows) for the batch rows given, hessian() for all.

    A (..., 4, d) stack of summed phases is evaluated as one batch,
    returning (...) and (..., 4, d) arrays, so a lone (4, d) matrix gives
    a 0-d value; row r equals the call on row r alone, bit for bit, and
    so does its Hessian whichever rows are formed with it.  No
    validation happens here; this is the optimizer's hot path.
    """
    P = _phased(theta)
    Ma = _pair_sum(P) @ coefficients[..., None]
    value = (coefficients[..., None, :] @ Ma)[..., 0, 0]
    gradient, pa = _theta_gradient(P, coefficients)

    def hessian(rows=...):
        return _theta_hessian(P[rows], coefficients, pa[rows])

    return value, gradient, hessian


def extreme_value_and_gradient(theta: np.ndarray, largest: bool):
    """The Bell value optimized over states at fixed phases, on raw
    arrays: d lambda of the pair matrix's largest (or smallest)
    eigenvalue lambda at the (4, d) summed phases theta, its gradient
    over theta, and a function that forms its Hessian over theta, as in
    value_and_gradient_arrays.

    On the sphere sum a^2 = d, a^T M a is extremal at a = sqrt(d) v for
    the extreme unit eigenvector v.  By the Hellmann-Feynman theorem the
    gradient is the theta gradient of a^T M a at that fixed a; the
    Hessian adds the second-order eigenvalue perturbation term to that
    of a^T M a (Overton and Womersley 1995), which couples the setting
    pairs.  Both exist only where the eigengap is positive, which
    optimize_joint tests at each restart's final phases.  Batches
    behave as in value_and_gradient_arrays.  No validation happens
    here.
    """
    d = theta.shape[-1]
    P = _phased(theta)
    # eigh sorts the spectrum w ascending: the extreme column k is the last or the first.
    w, V = np.linalg.eigh(_pair_sum(P))
    k = -1 if largest else 0
    a = math.sqrt(d) * V[..., k]
    gradient, pa = _theta_gradient(P, a)

    def hessian(rows=...):
        Pr, Vr, wr = P[rows], V[rows], w[rows]
        H = _theta_hessian(Pr, a[rows], pa[rows])
        # Second-order perturbation of a simple eigenvalue: d lambda gains
        # 2 d sum_{j != ext} J_j J_j^T / (lambda_ext - lambda_j), where J_j
        # over theta holds v_j^T (dM / d theta) v.  A zero gap has weight 0.
        # im_pv[..., j, r, m] = Im(P[r] v_j)_m = (Im P[r] v_j)_m, as V is
        # real: a view of one real product.
        im_pv = np.moveaxis(Pr.imag @ Vr[..., None, :, :], -1, -3)
        # J[..., j, r, m] is formed in the order its rows are read, so the
        # (d, 4 d) reshape below needs no copy.
        V_jm = Vr.swapaxes(-1, -2)
        J = V_jm[..., :, None, :] * im_pv[..., k, None, :, :]
        J += V_jm[..., k, None, None, :] * im_pv
        J *= -1.0 / ((d - 1) * d**3)
        J = J.reshape(J.shape[:-2] + (4 * d,))
        gaps = wr[..., k, None] - wr
        weights = np.divide(2.0 * d, gaps, out=np.zeros(gaps.shape), where=gaps != 0.0)
        H += ((J.swapaxes(-1, -2) * weights[..., None, :]) @ J).reshape(H.shape)
        return H

    return d * w[..., k], gradient, hessian


def bell_gradient(state: PureState, settings: MeasurementSettings) -> np.ndarray:
    """Partial derivatives of bell_value with respect to every phase,
    ordered A1, A2, B1, B2 with d entries each."""
    if state.dim != settings.dim:
        raise ValidationError(
            f"state dimension {state.dim.d} != settings dimension {settings.dim.d}"
        )
    P = _phased(_PAIRS @ np.array(settings.phases))
    return (_PAIRS.T @ _theta_gradient(P, np.asarray(state.coefficients))[0]).reshape(-1)


@dataclass(frozen=True, eq=False)
class SampleEstimate:
    """Finite-shot estimate of the Bell value.

    counts holds non-negative integers in shape (2, 2, d, d); each
    setting slice sums to shots_per_setting, an int >= 1 (not a bool).
    value_estimate and std_error are real numbers
    (model._as_float_tuple), std_error >= 0.
    value_estimate is the plug-in value from raw
    empirical frequencies.  std_error propagates per-setting
    multinomial variances computed from half-count smoothed
    frequencies, so it stays positive even when all shots land in one
    cell.
    """

    shots_per_setting: int
    counts: np.ndarray
    value_estimate: float
    std_error: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        shots = _as_int(self.shots_per_setting, "shots_per_setting", 1)
        object.__setattr__(self, "shots_per_setting", shots)
        if counts.dtype.kind not in "iu":
            raise ValidationError(f"counts must be integers, got dtype {counts.dtype}")
        if counts.ndim != 4 or counts.shape[:2] != (2, 2) or counts.shape[2] != counts.shape[3]:
            raise ValidationError(f"counts must have shape (2, 2, k, k), got {counts.shape}")
        if (counts.sum(axis=(2, 3)) != shots).any():
            raise ValidationError("each setting slice must sum to shots_per_setting")
        if counts.min() < 0:
            raise ValidationError("counts must be non-negative")
        value, std_error = _as_float_tuple((self.value_estimate, self.std_error),
                                           "value_estimate and std_error")
        if std_error < 0.0:
            raise ValidationError(f"std_error must be >= 0, got {self.std_error!r}")
        object.__setattr__(self, "value_estimate", value)
        object.__setattr__(self, "std_error", std_error)


def sample_experiment(state: PureState, settings: MeasurementSettings,
                      shots_per_setting: int, seed: int) -> SampleEstimate:
    """Draw the counts of shots_per_setting outcomes per setting pair as
    one multinomial draw from a seeded PRNG; deterministic for a fixed
    seed, and O(d^2) per setting whatever the shot count."""
    d = state.dim.d
    # |K| <= d - 1, so the upper bound keeps every K . counts sum within int64.
    shots = _as_int(shots_per_setting, f"shots_per_setting at d = {d}", 1, (2**63 - 1) // (d - 1))
    seed = _as_int(seed, "seed", 0)
    # One row per setting, in setting order on one stream.
    P = joint_probabilities(state, settings).probabilities.reshape(4, d * d)
    c = np.random.default_rng(seed).multinomial(shots, P / P.sum(axis=1, keepdims=True))

    # All four settings at once, one row each; the per-setting terms are
    # then added in setting order.  K doubles the kernel, so d - 1 = 2S
    # stands in for the spin.
    K = kernel_table(d).reshape(4, d * d)
    smoothed = (c + 0.5) / (shots + 0.5 * d * d)
    m1 = (smoothed * K).sum(axis=1)
    # Centred second moment: no cancellation when the smoothing mass
    # falls below round-off, as it does at large shot counts.
    m2 = (smoothed * (K - m1[:, None]) ** 2).sum(axis=1)
    value = 0.0
    variance = 0.0
    for term, spread in zip((K * c).sum(axis=1) / ((d - 1) * shots), m2.tolist()):
        value += term
        variance += spread / ((d - 1) ** 2 * shots)
    return SampleEstimate(shots, c.reshape(2, 2, d, d), value, math.sqrt(variance))
