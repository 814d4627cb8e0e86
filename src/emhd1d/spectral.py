"""Periodic pseudospectral fields and Fourier-multiplier operators.

Fields live on the torus [-L, L) sampled at N equispaced nodes, held in
FFT order 0, dx, ..., L - dx, -L, ..., -dx (``GridSpec.nodes``).  A field
is held as Fourier coefficients (its physical samples are made when first
read) with the convention

    coef_k = (1/N) * sum_j phys_j * exp(-i xi_k x_j),    xi_k = pi k / L,

so that ``evaluate_at`` is a plain trigonometric sum.  Every field is real, so
its coefficients are Hermitian, coef_(-k) = conj(coef_k), and only the
non-negative half k = 0, 1, ..., N/2 is stored: a ``coef`` array has N/2 + 1
entries.  Node j sits at j dx mod 2L, so the transforms are numpy's real
FFTs with ``norm="forward"``, and nothing more.  The Nyquist entry k = N/2
keeps its FFT-order wavenumber -pi N / (2L), so every multiplier has the
value it has in the full FFT-ordered spectrum.  Sums over the full spectrum
become sums over the half with weights (1, 2, ..., 2, 1): ``GridSpec.norm2``
and ``GridSpec.inner`` are the Plancherel pair, and
``GridSpec.sobolev_norm2`` is every squared H^s norm.  All nonlocal
operators (Hilbert transform, fractional Laplacian, Riesz potential) are
exact diagonal multipliers in this basis.  The Hilbert transform uses
m(xi) = -i sgn(xi), the unique sign choice for which Lambda = H d/dx holds
with Lambda = |xi|.

``trig_sums`` is the one off-grid sum: the complex sums
sum_k w_k c_k exp(i xi_k x) over the stored half, weights (1, 2, ..., 2, 1),
with every xi_k >= 0.  The Nyquist term enters as conj(c_(N/2))
exp(i pi N x / (2L)), the conjugate of its FFT-order term, so on a real
field f's row the sum is f + i H f; ``evaluate_at`` is its real part.
``trig_blocks`` lays rows out once, weights applied, as zero-padded
(rows, A, B) blocks with k = a B + b and B a power of two near sqrt(N/2).
A sum at a point then takes two short exponential tables, exp(i xi_(aB) x)
and exp(i xi_b x), and two small matrix products, with no phase table.
Like ``GridSpec.to_phys``, the layout reads a shorter row as zero-padded
and keeps only the blocks it reaches: a coarser grid's row, Nyquist entry
dropped, costs only its own band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Quadratic products keep |k| < DEALIAS_FRACTION * N/2, the 2/3 rule: strict,
# because at N = 3K the product of two modes K aliases onto mode -K.
DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length).

    ``n_modes`` is the number of physical samples; it must be even and at
    least 8.
    """

    half_length: float
    n_modes: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.half_length) and self.half_length > 0):
            raise ValueError("half_length must be positive and finite")
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ValueError("n_modes must be even and >= 8")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_modes

    @cached_property
    def nodes(self) -> np.ndarray:
        """Sample points -L + 2 L j / N in FFT order (``np.fft.ifftshift``):
        0, dx, ..., L - dx, -L, ..., -dx.  ``phys`` is sampled here."""
        L, N = self.half_length, self.n_modes
        x = np.fft.ifftshift(-L + 2.0 * L * np.arange(N) / N)
        x.flags.writeable = False
        return x

    @cached_property
    def mode_index(self) -> np.ndarray:
        """Integer mode numbers of the stored half: 0, 1, ..., N/2-1, -N/2
        (the Nyquist entry keeps its FFT-order sign)."""
        # not fftfreq(N, d=1/N): it rounds 1/N, so k is non-integral at N = 98
        k = np.arange(self.n_modes // 2 + 1, dtype=float)
        k[-1] = -k[-1]
        k.flags.writeable = False
        return k

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """xi_k = pi k / L of the stored half."""
        xi = np.pi * self.mode_index / self.half_length
        xi.flags.writeable = False
        return xi

    @cached_property
    def _pair_weight(self) -> np.ndarray:
        # each stored 0 < k < N/2 stands for the pair +-k
        w = np.full(self.n_modes // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        w.flags.writeable = False
        return w

    @cached_property
    def _trig_blocks(self) -> tuple[int, np.ndarray]:
        # block size B (a power of two near sqrt(N/2)), then i xi_b for b < B
        # followed by i xi_(aB) for a = 0..N/(2B), all at k >= 0: one
        # exponential of a prefix gives both tables of trig_sums
        half = self.n_modes // 2
        block = 1 << (half.bit_length() // 2)
        ixi = 1j * (np.pi * np.arange(half + 1) / self.half_length)
        tables = np.concatenate((ixi[:block], ixi[::block]))
        tables.flags.writeable = False
        return block, tables

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = DEALIAS_FRACTION * self.n_modes / 2.0
        m = (np.abs(self.mode_index) < cut).astype(float)
        m.flags.writeable = False
        return m

    @property
    def xi_max_dealiased(self) -> float:
        """Largest wavenumber magnitude surviving the dealias mask."""
        return float(np.max(np.abs(self.wavenumbers) * self.dealias_mask))

    def to_coef(self, phys: np.ndarray) -> np.ndarray:
        """Coefficients k = 0..N/2 of real samples at ``nodes``, last axis."""
        return np.fft.rfft(phys, norm="forward")

    def to_phys(self, coef: np.ndarray) -> np.ndarray:
        """Real samples at ``nodes`` of coefficients k = 0..N/2, last axis.

        Of the mean and Nyquist entries only the real parts are read: at the
        nodes, that is all a real field carries.  A shorter row is read as
        zero-padded, so the coefficients of a coarser grid whose Nyquist
        entry is 0 give that field's values at these nodes.
        """
        return np.fft.irfft(coef, n=self.n_modes, norm="forward")

    def norm2(self, coef: np.ndarray, weight: "float | np.ndarray" = 1.0) -> np.ndarray:
        """Weighted squared L2 norm 2L sum_k weight_k |coef_k|^2 over the
        full spectrum, along the last axis (Plancherel)."""
        return self.power_sum(np.abs(coef) ** 2, weight)

    def power_sum(self, power: np.ndarray, weight: "float | np.ndarray" = 1.0) -> np.ndarray:
        """``norm2`` from ``power`` = |coef_k|^2, so that many weights can
        share one squaring."""
        w = self._pair_weight * weight
        return 2.0 * self.half_length * np.sum(w * power, axis=-1)

    def sobolev_norm2(self, coef: np.ndarray, s: float, homogeneous: bool = True) -> np.ndarray:
        """Squared H^s norms along the last axis: ``norm2`` weighted by
        ``sobolev_weight(wavenumbers, s, homogeneous)``."""
        return self.norm2(coef, sobolev_weight(self.wavenumbers, s, homogeneous))

    def inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """L2 inner product 2L Re sum_k a_k conj(b_k) over the full spectrum,
        along the last axis (Plancherel)."""
        return 2.0 * self.half_length * np.sum(self._pair_weight * np.real(a * np.conj(b)), axis=-1)


@dataclass(frozen=True)
class SpectralField:
    """Immutable real periodic field: Fourier coefficients, and physical
    samples on first read.

    Construct via :meth:`from_phys`, :meth:`from_coef`, or
    :meth:`from_function`; the arrays are read-only.  ``phys`` holds the
    values at ``grid.nodes``, in their FFT order, so samples passed to
    :meth:`from_phys` must be taken there.  A field built from samples keeps
    them as ``phys``; one built from coefficients transforms them only when
    ``phys`` is first read, since most fields are only ever read through
    ``coef``.
    """

    grid: GridSpec
    coef: np.ndarray

    def __post_init__(self) -> None:
        if self.coef.shape != (self.grid.n_modes // 2 + 1,):
            raise ValueError("coef has wrong shape for grid")
        self.coef.flags.writeable = False

    @cached_property
    def phys(self) -> np.ndarray:
        phys = self.grid.to_phys(self.coef)
        phys.flags.writeable = False
        return phys

    @classmethod
    def from_phys(cls, grid: GridSpec, phys: np.ndarray) -> "SpectralField":
        phys = np.ascontiguousarray(phys, dtype=float).copy()
        # N + 1 samples would give N/2 + 1 coefficients and pass the coef check
        if phys.shape != (grid.n_modes,):
            raise ValueError("phys has wrong shape for grid")
        f = cls(grid, grid.to_coef(phys))
        phys.flags.writeable = False
        object.__setattr__(f, "phys", phys)  # the cached_property's slot
        return f

    @classmethod
    def from_coef(cls, grid: GridSpec, coef: np.ndarray) -> "SpectralField":
        return cls(grid, np.ascontiguousarray(coef, dtype=complex).copy())

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[[np.ndarray], np.ndarray]) -> "SpectralField":
        return cls.from_phys(grid, fn(grid.nodes))

    @property
    def mean(self) -> float:
        return float(np.real(self.coef[0]))

    def l2_norm(self) -> float:
        """L2 norm on the torus by Plancherel."""
        return float(np.sqrt(self.grid.norm2(self.coef)))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.phys)))


def sobolev_weight(xi: np.ndarray, s: float, homogeneous: bool = True) -> np.ndarray:
    """Weight of |coef_k|^2 in the squared H^s norm.

    Homogeneous: |xi|^(2s) with the zero mode excluded (masked, so s < 0 is
    fine); this is also the multiplier of Lambda^(2s) on the zero-mean gauge.
    Inhomogeneous: (1 + xi^2)^s, which counts the mean.
    """
    if not homogeneous:
        return (1.0 + xi**2) ** s
    w = np.zeros_like(xi)
    nz = xi != 0.0
    w[nz] = np.abs(xi[nz]) ** (2.0 * s)
    return w


def hilbert(f: SpectralField) -> SpectralField:
    """Hilbert transform, multiplier -i sgn(xi); the zero mode maps to 0."""
    m = -1j * np.sign(f.grid.wavenumbers)
    return SpectralField.from_coef(f.grid, m * f.coef)


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    """Spatial derivative of the given order, multiplier (i xi)^order."""
    m = (1j * f.grid.wavenumbers) ** order
    return SpectralField.from_coef(f.grid, m * f.coef)


def frac_laplacian(f: SpectralField, alpha: float) -> SpectralField:
    """Fractional Laplacian Lambda^alpha, multiplier |xi|^alpha.

    The zero mode always maps to 0, consistent with the zero-mean gauge
    (also avoids 0^0 = 1 for alpha = 0).
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return SpectralField.from_coef(f.grid, sobolev_weight(f.grid.wavenumbers, alpha / 2.0) * f.coef)


def riesz_potential(f: SpectralField, r: float) -> SpectralField:
    """Riesz potential, multiplier |xi|^(-r) off the zero mode.

    Inverse to ``frac_laplacian(., r)`` on zero-mean fields.  Only
    0 < r < 1 is accepted.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("riesz_potential requires 0 < r < 1")
    return SpectralField.from_coef(f.grid, sobolev_weight(f.grid.wavenumbers, -r / 2.0) * f.coef)


def product(f: SpectralField, g: SpectralField, dealiased: bool = True) -> SpectralField:
    """Pointwise product, dealiased by default (2/3 rule after the product)."""
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("operands live on different grids")
    c = f.grid.to_coef(f.phys * g.phys)
    if dealiased:
        c = c * f.grid.dealias_mask
    return SpectralField.from_coef(f.grid, c)


def remove_mean(f: SpectralField) -> SpectralField:
    c = f.coef.copy()
    c[0] = 0.0
    return SpectralField.from_coef(f.grid, c)


def trig_blocks(grid: GridSpec, coef: np.ndarray) -> np.ndarray:
    """Coefficient rows laid out once for ``trig_sums``.

    ``coef`` is one row of at most N/2 + 1 coefficients or a stack of rows,
    along the last axis; a row shorter than N/2 + 1 is read as zero-padded.
    Returns the weighted terms w_k c_k, the Nyquist one conjugated (module
    docstring), zero-padded to A B entries, as blocks of shape
    coef.shape[:-1] + (A, B) with k = a B + b.
    """
    m, half = coef.shape[-1], grid.n_modes // 2
    if m > half + 1:
        raise ValueError("coefficient rows are longer than N/2 + 1")
    block = grid._trig_blocks[0]
    a = -(-m // block)
    out = np.zeros(coef.shape[:-1] + (a * block,), dtype=complex)
    np.multiply(coef, 2.0, out=out[..., :m])  # the pair weight, exact
    out[..., 0] = coef[..., 0]  # k = 0 counts once
    if m == half + 1:
        out[..., half] = np.conj(coef[..., half])  # the Nyquist term counts once, at +pi N / (2L)
    return out.reshape(coef.shape[:-1] + (a, block))


def trig_sums(grid: GridSpec, blocks: np.ndarray, x: "float | np.ndarray") -> np.ndarray:
    """Complex sums sum_k w_k c_k exp(i xi_k x) of rows laid out by
    ``trig_blocks``, at the points ``x``, reduced mod 2L into [-L, L).

    The result has shape blocks.shape[:-2] + shape(x); its real parts are
    the rows' trigonometric sums, and on the row of a real field f its
    imaginary parts are H f (module docstring).  A row's sums do not depend
    on the rows stacked with it: each row's blocks take their own matrix
    product per point.
    """
    L = grid.half_length
    xa = (x + L) % (2.0 * L) - L
    block, ixi = grid._trig_blocks
    e = np.exp(np.multiply.outer(xa, ixi[: block + blocks.shape[-2]]))  # shape(x) + (B + A,)
    # per row, the A-table times its blocks, then that times the B-table:
    # one vector-matrix product and one dot product per row and point
    partial = e[..., block:] @ blocks
    return (partial[..., None, :] @ e[..., :block, None])[..., 0, 0]


def evaluate_at(f: SpectralField, x: "float | np.ndarray") -> "float | np.ndarray":
    """Evaluate the trigonometric series of ``f`` at arbitrary points.

    Exact (to roundoff) for any band-limited field; agrees with ``phys`` at
    the grid nodes.  A scalar ``x`` gives a float.
    """
    vals = trig_sums(f.grid, trig_blocks(f.grid, f.coef), np.array(x, dtype=float, ndmin=1)).real
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals
