"""Two-mode Gaussian states in the quadrature picture.

All variances are linear and normalized to shot noise (vacuum = 1).
A two-mode state is carried by its 4x4 correlation matrix over the
quadrature operators (X+_x, X-_x, X+_y, X-_y), where + labels amplitude
and - phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING


class _Numpy:
    """numpy, imported on the first attribute read: ``np.array`` is
    ``numpy.array``, read from the module on every read.  Only the code
    that builds an array reads it, so a caller that needs none never loads
    numpy."""

    __slots__ = ()

    # Not __getattr__, which runs only after the normal lookup has failed:
    # that doubles the cost of a read.
    def __getattribute__(self, name: str):
        import numpy

        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()

#: Row/column labels of :class:`CorrelationMatrix4`, in fixed order.
QUADRATURE_ORDER = ("xp", "xm", "yp", "ym")

SYMMETRY_TOL = 1e-12
#: Slack allowed on the uncertainty relation by the physicality checks.
PHYSICALITY_TOL = 1e-9
#: Largest cross-quadrature entry, and largest x/y variance mismatch, that
#: still counts as zero in the block-form and interchangeable-beams tests.
FORM_TOL = 1e-9

_QUADRATURE_INDEX = {"+": 0, "-": 1}


def _require_positive_finite(value, name: str) -> None:
    """ValueError, naming ``name``, unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_fraction(value, name: str) -> None:
    """ValueError, naming ``name``, unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class SqueezedBeam:
    """One optical mode: its two quadrature variances.

    Attributes:
        v_plus: amplitude-quadrature variance (shot noise = 1).
        v_minus: phase-quadrature variance (shot noise = 1).
    """

    v_plus: float
    v_minus: float

    def __post_init__(self) -> None:
        _require_positive_finite(self.v_plus, "v_plus")
        _require_positive_finite(self.v_minus, "v_minus")

    def is_physical(self) -> bool:
        """Whether the beam respects the uncertainty bound V+ * V- >= 1."""
        return self.v_plus * self.v_minus >= 1.0 - PHYSICALITY_TOL

    @classmethod
    def pure(cls, v_plus: float) -> "SqueezedBeam":
        """Minimum-uncertainty beam with amplitude variance ``v_plus``.

        Raises:
            ValueError: if ``v_plus`` is not positive and finite, or is so
                small that the phase variance 1/v_plus overflows.
        """
        if not v_plus > 0.0:
            raise ValueError(f"squeezed variance must be positive, got {v_plus}")
        return cls(v_plus, 1.0 / v_plus)


class CorrelationMatrix4:
    """Symmetrized second-moment matrix of two beams' quadrature fluctuations.

    Row/column order is fixed as (X+_x, X-_x, X+_y, X-_y).  Construction
    enforces symmetry and positive diagonal entries only; the stronger
    uncertainty-relation check is opt-in via :meth:`is_physical` so that
    measured matrices that barely violate it through rounding can still
    be analyzed.

    The matrix is validated once, when it is built, and keeps its 16
    entries as Python floats, which the named accessors and the scalar
    measures read with no numpy call.  ``entries``, the same entries as a
    read-only float64 (4, 4) array, is built on its first read and kept.
    """

    __slots__ = ("_flat", "_entries")

    def __init__(self, entries) -> None:
        # Row-major: entry (i, j) is flat[4 * i + j].
        flat = _sixteen(entries)
        if flat is None:  # not 4 lists of 4 numbers: numpy reads it, or names its shape
            arr = np.array(entries, dtype=float)
            if arr.shape != (4, 4):
                raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
            flat = tuple(arr.ravel().tolist())
        if not all(map(math.isfinite, flat)):
            raise ValueError("correlation matrix entries must be finite")
        # Entries (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3) against their mirrors.
        asym = max(
            abs(flat[1] - flat[4]),
            abs(flat[2] - flat[8]),
            abs(flat[3] - flat[12]),
            abs(flat[6] - flat[9]),
            abs(flat[7] - flat[13]),
            abs(flat[11] - flat[14]),
        )
        if asym > SYMMETRY_TOL:
            raise ValueError(f"correlation matrix is not symmetric (max asymmetry {asym:g})")
        if not (flat[0] > 0.0 and flat[5] > 0.0 and flat[10] > 0.0 and flat[15] > 0.0):
            # The message prints the diagonal as numpy does.
            raise ValueError(f"diagonal variances must be positive, got {np.array(flat[::5])}")
        self._flat = flat
        self._entries = None

    @property
    def entries(self) -> np.ndarray:
        """The read-only float64 (4, 4) array of the entries, built on the first read."""
        if self._entries is None:
            flat = np.array(self._flat)
            flat.setflags(write=False)  # and so its (4, 4) view
            self._entries = flat.reshape(4, 4)
        return self._entries

    def _rows(self) -> list[list[float]]:
        f = self._flat
        return [list(f[0:4]), list(f[4:8]), list(f[8:12]), list(f[12:16])]

    def __repr__(self) -> str:
        return f"CorrelationMatrix4({self._rows()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationMatrix4):
            return NotImplemented
        return self._flat == other._flat

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
            [
                [v_plus, 0.0, c_plus, 0.0],
                [0.0, v_minus, 0.0, c_minus],
                [c_plus, 0.0, v_plus, 0.0],
                [0.0, c_minus, 0.0, v_minus],
            ]
        )

    # Named accessors for the entries every analysis touches.
    @property
    def cxx_plus(self) -> float:
        return self._flat[0]

    @property
    def cxx_minus(self) -> float:
        return self._flat[5]

    @property
    def cyy_plus(self) -> float:
        return self._flat[10]

    @property
    def cyy_minus(self) -> float:
        return self._flat[15]

    @property
    def cxy_plus(self) -> float:
        return self._flat[2]

    @property
    def cxy_minus(self) -> float:
        return self._flat[7]

    def uncertainty_violation(self) -> float:
        """Minimum eigenvalue of CM + i*OMEGA (negative means unphysical).

        OMEGA, the block-diagonal symplectic form, encodes [X+, X-] = 2i per
        mode: a correlation matrix describes a physical state iff
        CM + i*OMEGA >= 0.
        """
        omega = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        return float(np.linalg.eigvalsh(self.entries + 1j * omega)[0])

    def is_physical(self) -> bool:
        return self.uncertainty_violation() >= -PHYSICALITY_TOL

    def to_json_dict(self) -> dict:
        return {"order": list(QUADRATURE_ORDER), "matrix": self._rows()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationMatrix4":
        """The matrix of a parsed ``{"order": [...], "matrix": [[...], ...]}`` object.

        Raises:
            ValueError: on a missing key, another quadrature order, a shape
                other than 4x4, a cell that is not a JSON number (named by
                its indices), or a matrix the constructor refuses.
        """
        try:
            order = tuple(data["order"])
            matrix = data["matrix"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"correlation-matrix JSON needs 'order' and 'matrix' keys: {exc}")
        if order != QUADRATURE_ORDER:
            raise ValueError(f"unsupported quadrature order {order}; expected {QUADRATURE_ORDER}")
        try:
            if len(matrix) != 4 or any(len(row) != 4 for row in matrix):
                raise ValueError  # named below, by its shape
            for i, row in enumerate(matrix):
                for j, cell in enumerate(row):
                    _json_number(cell, f"matrix cell [{i}][{j}]")
        except (TypeError, ValueError):
            # Refused: by its shape as numpy reads it, as the message has always
            # named it, unless numpy reads 4x4, when the cell's message stands.
            shape = np.array(matrix, dtype=object).shape
            if shape != (4, 4):
                raise ValueError(f"expected a 4x4 matrix, got shape {shape}") from None
            raise
        return cls(matrix)


def _sixteen(entries) -> tuple[float, ...] | None:
    """The 16 entries, row-major, as Python floats, of 4 lists (or tuples) of
    4 numbers that ``float`` takes; None for anything else."""
    if type(entries) in (list, tuple) and len(entries) == 4:
        r0, r1, r2, r3 = entries
        if all(type(row) in (list, tuple) and len(row) == 4 for row in entries):
            try:
                return tuple(map(float, (*r0, *r1, *r2, *r3)))
            except (TypeError, ValueError, OverflowError):
                pass
    return None


def _json_number(value, name: str):
    """``value``, unchanged; ValueError naming ``name`` if it is not a JSON
    number (a string, bool, list, object or null) or is an integer too
    large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            digits = len(str(abs(value)))
            raise ValueError(
                f"{name} is an integer of {digits} digits, too large for a float"
            ) from None
    return value


@dataclass(frozen=True)
class TwoModeState:
    """Two beams, held as their correlation matrix."""

    cm: CorrelationMatrix4


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
    # Unrolled: a loop over (label, beam) pairs takes twice as long.
    if not sqz1.is_physical():
        raise ValueError(
            f"first input beam is unphysical: V+ * V- = {sqz1.v_plus * sqz1.v_minus:.6g} < 1"
        )
    if not sqz2.is_physical():
        raise ValueError(
            f"second input beam is unphysical: V+ * V- = {sqz2.v_plus * sqz2.v_minus:.6g} < 1"
        )

    v1p, v1m = sqz1.v_plus, sqz1.v_minus
    v2p, v2m = sqz2.v_plus, sqz2.v_minus

    var_plus = _mean(v1p, v2m)
    var_minus = _mean(v1m, v2p)
    c_plus = 0.5 * (v1p - v2m)
    c_minus = 0.5 * (v1m - v2p)
    return TwoModeState(CorrelationMatrix4.symmetric_form(var_plus, var_minus, c_plus, c_minus))


def apply_loss(state: TwoModeState, eta_x: float, eta_y: float) -> TwoModeState:
    """Send each beam through a vacuum-admixture loss channel.

    Beam x keeps a fraction ``eta_x`` of its field (likewise y): same-mode
    variances map to eta*V + (1 - eta), cross-mode correlations scale by
    sqrt(eta_x * eta_y).

    Raises:
        ValueError: if an efficiency lies outside [0, 1].
    """
    _require_fraction(eta_x, "eta_x")
    _require_fraction(eta_y, "eta_y")

    # Entry by entry: eta*C + (1 - eta)*delta within a beam's block (the
    # (1 - eta)*0.0 term turns a -0.0 product into 0.0), C*cross across them.
    cross = math.sqrt(eta_x * eta_y)
    gx, gy = 1.0 - eta_x, 1.0 - eta_y
    c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 = (
        state.cm._flat
    )
    e = [
        [eta_x * c00 + gx, eta_x * c01 + gx * 0.0, c02 * cross, c03 * cross],
        [eta_x * c10 + gx * 0.0, eta_x * c11 + gx, c12 * cross, c13 * cross],
        [c20 * cross, c21 * cross, eta_y * c22 + gy, eta_y * c23 + gy * 0.0],
        [c30 * cross, c31 * cross, eta_y * c32 + gy * 0.0, eta_y * c33 + gy],
    ]
    return TwoModeState(CorrelationMatrix4(e))


def apply_local_squeezing(
    cm: CorrelationMatrix4, gain: float
) -> CorrelationMatrix4:
    """Apply equal local squeezing (X+ -> g X+, X- -> X-/g) to both beams:
    entry (i, j) becomes g_i C_ij g_j, with g = (g, 1/g, g, 1/g)."""
    _require_positive_finite(gain, "squeezing gain")
    g = (gain, 1.0 / gain) * 2
    f = cm._flat
    return CorrelationMatrix4([[g[i] * f[4 * i + j] * g[j] for j in range(4)] for i in range(4)])


def _as_cm(state_or_cm: TwoModeState | CorrelationMatrix4) -> CorrelationMatrix4:
    if isinstance(state_or_cm, TwoModeState):
        return state_or_cm.cm
    return state_or_cm


def _quadratures(f) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """(C_xx, C_yy, C_xy) of the amplitude and of the phase quadrature, from
    a matrix's 16 row-major entries ``f``."""
    return (f[0], f[10], f[2]), (f[5], f[15], f[7])


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
    try:
        index = _QUADRATURE_INDEX[quadrature]
    except KeyError:
        raise ValueError(f"quadrature must be '+' or '-', got {quadrature!r}") from None
    c_xx, c_yy, c_xy = _quadratures(_as_cm(state_or_cm)._flat)[index]
    if sign not in ("sum", "diff"):
        raise ValueError(f"sign must be 'sum' or 'diff', got {sign!r}")
    s = 1.0 if sign == "sum" else -1.0
    return _mean(c_xx, c_yy) + s * c_xy


def _min_sum_diff(c_xx, c_yy, c_xy):
    """(C_xx + C_yy)/2 - |C_xy|, elementwise over floats or numpy arrays; the
    mean is :func:`_mean`'s.

    The smaller of the sum and difference variances of
    :func:`sum_diff_variance`, bit for bit: rounding is monotone, so
    subtracting |C_xy| picks the same value as taking the minimum.
    """
    return _mean(c_xx, c_yy) - abs(c_xy)


def _mean(a, b, c=None, d=None):
    """The mean of two or four non-negative terms, elementwise over floats or
    numpy arrays (under the caller's ``np.errstate``): their sum, left to
    right, over their count, bit for bit wherever the sum is finite, and the
    sum of the scaled terms where it overflows.  Floats make no numpy call."""
    mean = (a + b) / 2.0 if c is None else (a + b + c + d) / 4.0
    if type(mean) is float:
        if mean < math.inf:
            return mean
    elif np.fmax.reduce(mean, axis=None, initial=0.0) < math.inf:  # one pass on the common path
        return mean
    scaled = a / 2.0 + b / 2.0 if c is None else a / 4.0 + b / 4.0 + c / 4.0 + d / 4.0
    return scaled if type(mean) is float else np.where(np.isinf(mean), scaled, mean)


def _sqrt_product(a, b):
    """sqrt(a b), elementwise over floats or numpy arrays: ``math.sqrt(a * b)``,
    bit for bit, wherever a b is finite.  Where a b overflows it is taken on the
    operands scaled by 2^-600 and scaled back, which is exact, as in
    ``epr._residual_variance``; floats make no numpy call."""
    product = a * b
    if isinstance(product, float):
        if product < math.inf:
            return math.sqrt(product)
        return math.sqrt(a * 2.0**-600 * (b * 2.0**-600)) * 2.0**600
    if not (over := np.isinf(product)).any():
        return np.sqrt(product)
    scaled = np.sqrt(a * 2.0**-600 * (b * 2.0**-600)) * 2.0**600
    return np.where(over, scaled, np.sqrt(product))


def check_symmetric_form(cm: CorrelationMatrix4) -> bool:
    """Whether the matrix has interchangeable beams and no cross-quadrature terms.

    True iff every cross-quadrature entry is within :data:`FORM_TOL` of zero
    and the per-quadrature variances of beams x and y agree within it.
    """
    return _form(cm._flat)[1]


def _form(f) -> tuple[bool, bool]:
    """(block form: every cross-quadrature entry vanishes, so amplitude and
    phase decouple; :func:`check_symmetric_form`) of a matrix's 16 row-major
    entries ``f``."""
    # Entries (0, 1), (0, 3), (1, 2) and (2, 3).
    block = max(abs(f[1]), abs(f[3]), abs(f[6]), abs(f[11])) <= FORM_TOL
    return block, block and abs(f[0] - f[10]) <= FORM_TOL and abs(f[5] - f[15]) <= FORM_TOL
