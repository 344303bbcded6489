"""Two-mode Gaussian states in the quadrature picture.

All variances are linear and normalized to shot noise (vacuum = 1).
A two-mode state is carried by the coherent amplitudes of beams x and y
plus the 4x4 correlation matrix over the quadrature operators
(X+_x, X-_x, X+_y, X-_y), where + labels amplitude and - phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Row/column labels of :class:`CorrelationMatrix4`, in fixed order.
QUADRATURE_ORDER = ("xp", "xm", "yp", "ym")

#: Block-diagonal symplectic form encoding [X+, X-] = 2i per mode.  A
#: correlation matrix describes a physical state iff CM + i*OMEGA >= 0.
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

SYMMETRY_TOL = 1e-12
#: Slack allowed on the uncertainty relation by the physicality checks.
PHYSICALITY_TOL = 1e-9
#: Largest cross-quadrature entry, and largest x/y variance mismatch, that
#: still counts as zero in the block-form and interchangeable-beams tests.
FORM_TOL = 1e-9

_QUADRATURE_INDEX = {"+": (0, 2), "-": (1, 3)}


@dataclass(frozen=True)
class QuadratureVariancePair:
    """Amplitude/phase quadrature variances of a single beam.

    Attributes:
        v_plus: amplitude-quadrature variance (shot noise = 1).
        v_minus: phase-quadrature variance (shot noise = 1).
    """

    v_plus: float
    v_minus: float

    def __post_init__(self) -> None:
        if not (self.v_plus > 0.0 and self.v_minus > 0.0):
            raise ValueError(
                f"quadrature variances must be positive, got "
                f"v_plus={self.v_plus}, v_minus={self.v_minus}"
            )

    @property
    def uncertainty_product(self) -> float:
        return self.v_plus * self.v_minus

    def is_physical(self) -> bool:
        """Whether the pair respects the uncertainty bound V+ * V- >= 1."""
        return self.uncertainty_product >= 1.0 - PHYSICALITY_TOL


@dataclass(frozen=True)
class SqueezedBeam:
    """One optical mode: quadrature variances plus coherent amplitude.

    ``alpha_plus``/``alpha_minus`` are the real/imaginary parts of the
    frequency-domain coherent amplitude, in shot-noise units.
    """

    variances: QuadratureVariancePair
    alpha_plus: float = 0.0
    alpha_minus: float = 0.0

    @classmethod
    def pure(cls, v_plus: float) -> "SqueezedBeam":
        """Minimum-uncertainty beam with amplitude variance ``v_plus``.

        Raises:
            ValueError: if ``v_plus`` is not positive.
        """
        if not v_plus > 0.0:
            raise ValueError(f"squeezed variance must be positive, got {v_plus}")
        return cls(QuadratureVariancePair(v_plus, 1.0 / v_plus))

    @classmethod
    def vacuum(cls) -> "SqueezedBeam":
        return cls(QuadratureVariancePair(1.0, 1.0))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix4:
    """Symmetrized second-moment matrix of two beams' quadrature fluctuations.

    Row/column order is fixed as (X+_x, X-_x, X+_y, X-_y).  Construction
    enforces symmetry and positive diagonal entries only; the stronger
    uncertainty-relation check is opt-in via :meth:`is_physical` so that
    measured matrices that barely violate it through rounding can still
    be analyzed.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("correlation matrix entries must be finite")
        asym = np.max(np.abs(arr - arr.T))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"correlation matrix is not symmetric (max asymmetry {asym:g})")
        if np.any(np.diag(arr) <= 0.0):
            raise ValueError(f"diagonal variances must be positive, got {np.diag(arr)}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationMatrix4):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    @classmethod
    def identity(cls) -> "CorrelationMatrix4":
        return cls(np.eye(4))

    @classmethod
    def symmetric_form(
        cls, v_plus: float, v_minus: float, c_plus: float, c_minus: float
    ) -> "CorrelationMatrix4":
        """Matrix for interchangeable beams with no cross-quadrature terms.

        Args:
            v_plus: amplitude variance of either beam.
            v_minus: phase variance of either beam.
            c_plus: amplitude cross-correlation between the beams.
            c_minus: phase cross-correlation between the beams.
        """
        return cls(
            np.array(
                [
                    [v_plus, 0.0, c_plus, 0.0],
                    [0.0, v_minus, 0.0, c_minus],
                    [c_plus, 0.0, v_plus, 0.0],
                    [0.0, c_minus, 0.0, v_minus],
                ]
            )
        )

    # Named accessors for the entries every analysis touches.
    @property
    def cxx_plus(self) -> float:
        return float(self.entries[0, 0])

    @property
    def cxx_minus(self) -> float:
        return float(self.entries[1, 1])

    @property
    def cyy_plus(self) -> float:
        return float(self.entries[2, 2])

    @property
    def cyy_minus(self) -> float:
        return float(self.entries[3, 3])

    @property
    def cxy_plus(self) -> float:
        return float(self.entries[0, 2])

    @property
    def cxy_minus(self) -> float:
        return float(self.entries[1, 3])

    def uncertainty_violation(self) -> float:
        """Minimum eigenvalue of CM + i*OMEGA (negative means unphysical)."""
        herm = self.entries + 1j * OMEGA
        return float(np.linalg.eigvalsh(herm)[0])

    def is_physical(self) -> bool:
        return self.uncertainty_violation() >= -PHYSICALITY_TOL

    def to_json_dict(self) -> dict:
        return {"order": list(QUADRATURE_ORDER), "matrix": self.entries.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationMatrix4":
        try:
            order = tuple(data["order"])
            matrix = data["matrix"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"correlation-matrix JSON needs 'order' and 'matrix' keys: {exc}")
        if order != QUADRATURE_ORDER:
            raise ValueError(f"unsupported quadrature order {order}; expected {QUADRATURE_ORDER}")
        return cls(np.array(matrix, dtype=float))


@dataclass(frozen=True)
class TwoModeState:
    """Coherent amplitudes of both beams plus their correlation matrix."""

    alpha_x: tuple[float, float]
    alpha_y: tuple[float, float]
    cm: CorrelationMatrix4

    @classmethod
    def from_cm(cls, cm: CorrelationMatrix4) -> "TwoModeState":
        return cls((0.0, 0.0), (0.0, 0.0), cm)

    def to_json_dict(self) -> dict:
        return {
            "alpha_x": list(self.alpha_x),
            "alpha_y": list(self.alpha_y),
            "cm": self.cm.to_json_dict(),
        }


def entangle_on_beamsplitter(sqz1: SqueezedBeam, sqz2: SqueezedBeam) -> TwoModeState:
    """Interfere two squeezed beams on a 50/50 beam splitter.

    The relative phase is fixed at pi/2 so the squeezed quadratures are
    orthogonal at the splitter.  The output quadratures follow the linear map

        X+_x = (X+_1 - X-_2)/sqrt(2),   X-_x = (X-_1 + X+_2)/sqrt(2),
        X+_y = (X+_1 + X-_2)/sqrt(2),   X-_y = (X-_1 - X+_2)/sqrt(2),

    which preserves the quadrature commutators and, with two amplitude
    squeezed inputs, anti-correlates the amplitude quadratures and
    correlates the phase quadratures of the outputs.

    Args:
        sqz1: first input beam; must satisfy the uncertainty bound.
        sqz2: second input beam; must satisfy the uncertainty bound.

    Raises:
        ValueError: if either input violates the uncertainty bound.
    """
    for label, beam in (("first", sqz1), ("second", sqz2)):
        if not beam.variances.is_physical():
            raise ValueError(
                f"{label} input beam is unphysical: V+ * V- = "
                f"{beam.variances.uncertainty_product:.6g} < 1"
            )

    v1p, v1m = sqz1.variances.v_plus, sqz1.variances.v_minus
    v2p, v2m = sqz2.variances.v_plus, sqz2.variances.v_minus

    var_plus = 0.5 * (v1p + v2m)
    var_minus = 0.5 * (v1m + v2p)
    c_plus = 0.5 * (v1p - v2m)
    c_minus = 0.5 * (v1m - v2p)
    cm = CorrelationMatrix4.symmetric_form(var_plus, var_minus, c_plus, c_minus)

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    a1p, a1m = sqz1.alpha_plus, sqz1.alpha_minus
    a2p, a2m = sqz2.alpha_plus, sqz2.alpha_minus
    alpha_x = ((a1p - a2m) * inv_sqrt2, (a1m + a2p) * inv_sqrt2)
    alpha_y = ((a1p + a2m) * inv_sqrt2, (a1m - a2p) * inv_sqrt2)

    return TwoModeState(alpha_x, alpha_y, cm)


def apply_loss(state: TwoModeState, eta_x: float, eta_y: float) -> TwoModeState:
    """Send each beam through a vacuum-admixture loss channel.

    Beam x keeps a fraction ``eta_x`` of its field (likewise y): same-mode
    variances map to eta*V + (1 - eta), cross-mode correlations scale by
    sqrt(eta_x * eta_y), and coherent amplitudes scale by sqrt(eta).

    Raises:
        ValueError: if an efficiency lies outside [0, 1].
    """
    for name, eta in (("eta_x", eta_x), ("eta_y", eta_y)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {eta}")

    e = np.array(state.cm.entries)
    e[0:2, 0:2] = eta_x * e[0:2, 0:2] + (1.0 - eta_x) * np.eye(2)
    e[2:4, 2:4] = eta_y * e[2:4, 2:4] + (1.0 - eta_y) * np.eye(2)
    cross = math.sqrt(eta_x * eta_y)
    e[0:2, 2:4] *= cross
    e[2:4, 0:2] *= cross

    sx, sy = math.sqrt(eta_x), math.sqrt(eta_y)
    alpha_x = (state.alpha_x[0] * sx, state.alpha_x[1] * sx)
    alpha_y = (state.alpha_y[0] * sy, state.alpha_y[1] * sy)
    return TwoModeState(alpha_x, alpha_y, CorrelationMatrix4(e))


def apply_local_squeezing(
    cm: CorrelationMatrix4, gain: float
) -> CorrelationMatrix4:
    """Apply equal local squeezing (X+ -> g X+, X- -> X-/g) to both beams."""
    if gain <= 0.0:
        raise ValueError(f"squeezing gain must be positive, got {gain}")
    s = np.diag([gain, 1.0 / gain, gain, 1.0 / gain])
    return CorrelationMatrix4(s @ cm.entries @ s)


def _as_cm(state_or_cm: TwoModeState | CorrelationMatrix4) -> CorrelationMatrix4:
    if isinstance(state_or_cm, TwoModeState):
        return state_or_cm.cm
    return state_or_cm


def quadrature_entries(
    cm: CorrelationMatrix4, quadrature: str
) -> tuple[float, float, float]:
    """(C_xx, C_yy, C_xy) of one quadrature: "+" (amplitude) or "-" (phase).

    Raises:
        ValueError: on any other quadrature token.
    """
    try:
        i, j = _QUADRATURE_INDEX[quadrature]
    except KeyError:
        raise ValueError(f"quadrature must be '+' or '-', got {quadrature!r}") from None
    e = cm.entries
    return float(e[i, i]), float(e[j, j]), float(e[i, j])


def sum_diff_variance(
    state_or_cm: TwoModeState | CorrelationMatrix4, quadrature: str, sign: str
) -> float:
    """Normalized sum/difference variance between the beams.

    Returns <(dX_x +/- dX_y)^2> / 2 for the chosen quadrature, i.e. the
    two-beam shot-noise normalized combination (C_xx + C_yy)/2 +/- C_xy.
    Equals 1 for a pair of vacua.

    Args:
        state_or_cm: a two-mode state or its correlation matrix.
        quadrature: "+" (amplitude) or "-" (phase).
        sign: "sum" or "diff".
    """
    c_xx, c_yy, c_xy = quadrature_entries(_as_cm(state_or_cm), quadrature)
    if sign not in ("sum", "diff"):
        raise ValueError(f"sign must be 'sum' or 'diff', got {sign!r}")
    s = 1.0 if sign == "sum" else -1.0
    return 0.5 * (c_xx + c_yy) + s * c_xy


def min_sum_diff_variance(
    state_or_cm: TwoModeState | CorrelationMatrix4, quadrature: str
) -> float:
    """The smaller of the normalized sum and difference variances."""
    return min(
        sum_diff_variance(state_or_cm, quadrature, "sum"),
        sum_diff_variance(state_or_cm, quadrature, "diff"),
    )


def is_block_form(cm: CorrelationMatrix4) -> bool:
    """Whether all cross-quadrature entries vanish (amplitude and phase decouple)."""
    e = cm.entries
    return max(abs(e[0, 1]), abs(e[0, 3]), abs(e[1, 2]), abs(e[2, 3])) <= FORM_TOL


def check_symmetric_form(cm: CorrelationMatrix4) -> bool:
    """Whether the matrix has interchangeable beams and no cross-quadrature terms.

    True iff every cross-quadrature entry is within :data:`FORM_TOL` of zero
    and the per-quadrature variances of beams x and y agree within it.
    """
    if not is_block_form(cm):
        return False
    e = cm.entries
    return abs(e[0, 0] - e[2, 2]) <= FORM_TOL and abs(e[1, 1] - e[3, 3]) <= FORM_TOL
