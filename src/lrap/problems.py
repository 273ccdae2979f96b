"""Benchmark targets: random uniform matrices, grayscale images, and the
closed-form solution of the two-component coagulation equation with a unit
constant kernel and initial total number sqrt(K), on an equidistant grid."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .sketching import _rng

__all__ = [
    "SmoluchowskiSpec",
    "gen_uniform",
    "load_image_pgm",
    "smoluchowski_concentration",
    "smoluchowski_solution",
]

@dataclass(frozen=True)
class SmoluchowskiSpec:
    """Parameters of the analytic coagulation solution and its grid.

    With ``K = kernel_constant``, ``a = rate_a``, ``b = rate_b`` and the
    dimensionless time ``tau = sqrt(K) * time``, the concentration is

        n(v1, v2, t) = sqrt(K) a b / (1 + tau/2)**2 * exp(-a v1 - b v2)
                       * I0(2 sqrt(a b v1 v2 tau / (tau + 2)))

    It starts from ``sqrt(K) a b exp(-a v1 - b v2)``, and its total number
    ``N(t) = sqrt(K) / (1 + tau/2)`` obeys ``dN/dt = -N**2 / 2``: ``K``
    scales the initial number and the time scale ``tau``, so the kernel
    acts as a unit constant kernel, not as the constant ``K``.  The grid is
    ``nodes`` points per axis at spacing ``step``, starting at ``origin``.
    """

    kernel_constant: float = 100.0
    rate_a: float = 1.0
    rate_b: float = 1.0
    time: float = 6.0
    step: float = 0.1
    nodes: int = 1024
    origin: float = 0.0

    def __post_init__(self):
        # NaN passes every comparison below, and JSON's NaN and Infinity reach here.
        for name in ("kernel_constant", "rate_a", "rate_b", "time", "step", "origin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kernel_constant <= 0 or self.rate_a <= 0 or self.rate_b <= 0:
            raise ValueError("kernel constant and rate parameters must be positive")
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.nodes < 1:
            raise ValueError(f"node count must be >= 1, got {self.nodes}")
        if self.origin < 0:
            raise ValueError(f"grid origin must be >= 0, got {self.origin}")

    def grid(self) -> np.ndarray:
        return self.origin + self.step * np.arange(self.nodes)


def gen_uniform(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix of iid Uniform[0, 1) entries, deterministic per seed."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    return _rng(seed).random((rows, cols))


# Rows per block of the Bessel factor's upper triangle.
_BESSEL_ROWS = 64


def smoluchowski_concentration(spec: SmoluchowskiSpec) -> np.ndarray:
    """Particle concentration n(v1, v2, t) sampled on the grid.

    Finite and nonnegative: I0 is evaluated as ``i0e(z) * exp(z)``, whose
    exponent ``z - a v1 - b v2`` is never positive (AM-GM), so nothing
    overflows where I0 would.  Coarse grids underflow to zero off the diagonal.
    """
    # Imported here: scipy.special adds ~3 MB of RSS that no other target needs.
    from scipy.special import i0e
    v = spec.grid()
    root_k = math.sqrt(spec.kernel_constant)
    tau = root_k * spec.time
    prefactor = root_k * spec.rate_a * spec.rate_b / (1.0 + tau / 2.0) ** 2
    # Outer products keep the matrix exactly symmetric when rate_a == rate_b.
    decay = (spec.rate_a * v)[:, None] + (spec.rate_b * v)[None, :]
    mixing = spec.rate_a * spec.rate_b * tau / (tau + 2.0)
    argument = 2.0 * np.sqrt(mixing * np.outer(v, v))
    # The argument is exactly symmetric for any rates, so i0e, the costliest
    # factor, is evaluated on row blocks of the upper triangle and mirrored.
    bessel = np.empty_like(argument)
    for start in range(0, spec.nodes, _BESSEL_ROWS):
        stop = min(start + _BESSEL_ROWS, spec.nodes)
        bessel[start:stop, start:] = i0e(argument[start:stop, start:])
        bessel[stop:, start:stop] = bessel[start:stop, stop:].T
    return prefactor * (bessel * np.exp(argument - decay))


def smoluchowski_solution(spec: SmoluchowskiSpec) -> np.ndarray:
    """Mass concentration ``(v1 + v2) * n(v1, v2, t)`` on the grid.

    This is the matrix the approximation experiments target.  All entries
    are finite and nonnegative; when the grid includes the origin the
    corner entry is exactly zero because the mass weight vanishes there.
    """
    v = spec.grid()
    weight = v[:, None] + v[None, :]
    return weight * smoluchowski_concentration(spec)


# Whitespace and '#' comments, then one token up to the next whitespace or '#'.
# A comment must run to its newline or the end: a bare #[^\n]* could stop
# early and let the token start inside the comment.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")


# Bytes of a P2 payload that np.fromstring reads as bytes.split() would: ASCII
# digits and the six ASCII whitespace bytes.
_DIGITS_AND_SPACE = b"0123456789 \t\n\r\x0b\x0c"


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if match is None:
        raise ValueError("malformed PGM header: unexpected end of file")
    return match.group(1), match.end()


def load_image_pgm(path) -> np.ndarray:
    """Load a PGM image (ASCII ``P2`` or binary ``P5``) as a matrix in [0, 1].

    Pixels are divided by the declared maximum value.  Malformed headers,
    truncated payloads, out-of-range pixels, and non-positive maxima raise
    ``ValueError``.
    """
    with open(path, "rb") as handle:
        data = handle.read()

    magic, pos = _read_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unsupported PGM magic {magic!r}, expected P2 or P5")
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"malformed PGM header field {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM dimensions {width}x{height}")
    if maxval <= 0:
        raise ValueError(f"PGM maxval must be positive, got {maxval}")
    if maxval > 65535:
        raise ValueError(f"PGM maxval must be at most 65535, got {maxval}")

    count = width * height
    if magic == b"P2":
        payload = data[pos:]
        if payload.translate(None, _DIGITS_AND_SPACE) or payload.isspace():
            # Signs, other bytes, and a blank payload (which np.fromstring reads
            # as one 0) keep Python's tokens and messages.
            tokens = payload.split()
            try:
                try:
                    pixels = np.array(tokens, dtype=np.int64)
                except OverflowError:
                    # A token past int64 is clipped to just outside [0, maxval],
                    # so it fails the range check below as a saturated one does.
                    pixels = np.array([min(max(int(t), -1), maxval + 1) for t in tokens], dtype=np.int64)
            except ValueError:
                raise ValueError("malformed PGM payload: non-numeric pixel") from None
        else:
            # Unsigned decimals only, parsed in C; one past int64 saturates and
            # fails the range check below.
            pixels = np.fromstring(payload, dtype=np.int64, sep=" ")
        if pixels.size != count:
            raise ValueError(f"PGM payload has {pixels.size} pixels, expected {count}")
    else:
        pos += 1  # exactly one whitespace byte separates header and payload
        wide = maxval > 255
        need = count * (2 if wide else 1)
        payload = data[pos : pos + need]
        if len(payload) != need:
            raise ValueError(f"truncated PGM payload: {len(payload)} bytes, expected {need}")
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
        pixels = (raw[0::2] << 8) | raw[1::2] if wide else raw
    if (pixels < 0).any() or (pixels > maxval).any():
        raise ValueError("PGM pixel value outside [0, maxval]")
    return pixels.reshape(height, width).astype(np.float64) / float(maxval)
