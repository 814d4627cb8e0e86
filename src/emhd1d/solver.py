"""Time evolution of the 1D electron-MHD models.

Two model kinds are evolved for a mean-free magnetic field B on the torus:

  full:       B_t = -(B J_x - J B_x) - mu Lambda^alpha B,   J = -Lambda B
  transport:  B_t = Lambda B * B_x - mu Lambda^alpha B

Both quadratic terms are products of B_x, Lambda B, Lambda B_x and B, which
one inverse transform of a stack of multiplier rows forms; the products are
dealiased (2/3 rule) and the term is projected mean-free, so with no linear
damping of k = 0 a step keeps the datum's zero mean exactly.  The diagonal
linear part mu |xi|^alpha is propagated exactly, either by an integrating
factor wrapped around classical RK4 (default) or by ETDRK4; both are exact
when the nonlinearity vanishes.
A scheme is one row of ``_SCHEMES``: the build of its factors at
z = -dt mu |xi|^alpha (IF-RK4's exponentials, the ETDRK4 coefficients) and
its step.  Each ladder rung's factors are rebuilt whenever the scheme or dt
changes, so on every adaptive step, and once per rung in a fixed-dt run.
mu |xi_k|^alpha grows with k on the stored half, so in the ETDRK4 build one
index splits z: the Cox-Matthews closed forms (Cox & Matthews 2002,
J. Comput. Phys. 176:430) are evaluated only where |z| >= 1, and below that
one Horner series of phi_3 gives phi_2 and phi_1 by
phi_{k-1} = z phi_k + 1/(k-1)!.  Cubes are products:
an array ``**3`` goes through libm ``pow`` and cost more than the rest of the
build.

Adaptive stepping enforces the advective CFL dt <= cfl * dx / max|Lambda B|
and additionally caps dt by cfl / max|Lambda B_x| so the local Riccati-type
growth near a singularity stays resolved.  The full model's B (Lambda B)_x
term is dispersive: linearized about B it has the symbol i xi |xi| B, which
both schemes treat explicitly, so its dt is also capped by
cfl * 2 / (max|B| xi_max^2), inside RK4's reach of about 2.8 along the
imaginary axis (Trefethen, Spectral Methods in MATLAB, 2000, ch. 10).

Every run steps on a ladder of grids N/2^j, ..., N/2, N, because a smooth
spectrum needs only the coarse grids: a blowup's widens only as the
singularity nears, and a dissipative run's narrows as mu Lambda^alpha damps
its top modes (Sulem, Sulem & Frisch 1983, J. Comput. Phys. 50:138).  A rung
is its ``_Ops``, whose tail index is the first mode of the top third of its
dealiased band, and a run builds its rungs once.  One rule, fixed-dt or
adaptive, picks the rung of each accepted state from the share of
sum |c_k|^2 held from a rung's tail index up: the state moves up one rung
when its rung's share exceeds ``LADDER_TAIL``, and otherwise down while the
halving's share is at most ``LADDER_TAIL``, so the first state starts on the
coarsest halving the datum fits.  Moving up zero-pads the coefficients,
exact in this normalization; moving down cuts them to the halving's band
with a zero Nyquist entry, dropping a share of at most ``LADDER_TAIL``.  A
state stays on its rung while its share from the rung's tail index is at
most ``LADDER_TAIL`` and its share from the halving's, a lower index,
exceeds it; the gap between the two indices keeps the rung from
flickering.  A step's dt takes its scale from the rung it is taken on, its
dx and dealiased xi_max, since a rung's state holds only that rung's band;
so a coarse rung steps at its own CFL, and most of a blowup run's steps are
coarse and long.  The sups that set dt or stop the run, sup|Lambda B|,
sup|Lambda B_x| (and sup|B|), are read on the finest grid, from one inverse
transform of the rung's coefficients onto its nodes; every (N/n)-th of them
is a node of rung n, so it also gives the nonlinear term.  The rungs are
chosen from |c_k|, which a translation leaves alone, so a translation by
whole fine nodes stays an exact symmetry.  A datum that fills the band
stays on N until its top third has decayed.

A transport run stops as ``ill_posed`` when its linear symbol amplifies
roundoff.  Linearized about B, the real part of its symbol at high |xi| is
B_x |xi| - mu |xi|^alpha (Kreiss & Lorenz, Initial-Boundary Value Problems
and the Navier-Stokes Equations, 1989), so with a = max B_x, read on the
finest nodes, the top of the rung's dealiased band grows at the rate
gamma = a xi - mu xi^alpha.  Once G = sum max(0, gamma) dt exceeds
``ILL_POSED_GAIN`` the run stops.  The full model's symbol is another, so
its G is recorded but never stops it.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .gates import Gate, at_most
from .spectral import GridSpec, SpectralField, sobolev_weight


@dataclass(frozen=True)
class ModelParams:
    """Model kind and coefficients."""

    kind: Literal["full", "transport"]
    mu: float
    alpha: float

    def __post_init__(self) -> None:
        if self.kind not in ("full", "transport"):
            raise ValueError("kind must be 'full' or 'transport'")
        if not (math.isfinite(self.mu) and math.isfinite(self.alpha)):
            raise ValueError("mu and alpha must be finite")
        if self.mu < 0 or self.alpha < 0:
            raise ValueError("mu and alpha must be nonnegative")


@dataclass(frozen=True)
class StepperConfig:
    scheme: Literal["ifrk4", "etdrk4"] = "ifrk4"
    dt_init: float = 1e-3
    cfl_safety: float = 0.5
    t_end: float = 1.0
    blowup_threshold: float = math.inf  # stop once max|Lambda B_x| exceeds it
    adaptive: bool = True
    snapshot_cadence: int = 1  # store a field snapshot every k-th step

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_init) and math.isfinite(self.t_end)):
            raise ValueError("dt_init and t_end must be finite")
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if not self.blowup_threshold > 0:  # NaN included
            raise ValueError("blowup_threshold must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.scheme not in _SCHEMES:
            raise ValueError("unknown scheme")
        if self.snapshot_cadence < 1:
            raise ValueError("snapshot_cadence must be at least 1")


class _Ops:
    """Multiplier tables of one (grid, params), built once by ``_ops``; read-only
    apart from the one slot that keeps the factors of the last (scheme, dt).
    As a ladder rung, ``tail`` is where the share the ladder tests begins."""

    def __init__(self, grid: GridSpec, params: ModelParams):
        self.grid = grid
        self.params = params
        self.xi = grid.wavenumbers
        absxi, ddx = np.abs(self.xi), 1j * self.xi
        # d/dx, Lambda, Lambda d/dx and 1 as complex rows: every physical
        # field the models multiply is a row of one broadcast product, so a
        # stack of rows takes one inverse transform
        self.rows = np.stack((ddx, absxi, absxi * ddx, np.ones_like(self.xi)))
        self.mask = grid.dealias_mask
        self.tail = 2 * int(np.flatnonzero(self.mask)[-1]) // 3  # top third of the band
        self.lin = params.mu * sobolev_weight(self.xi, params.alpha / 2.0)
        self.xi_top = grid.xi_max_dealiased
        # dt <= cfl * scale / sup for sup|Lambda B|, sup|Lambda B_x| and, for
        # the full model, sup|B|: a step's rate is the largest sup / scale
        self.scale = np.array([grid.dx, 1.0, 2.0 / self.xi_top**2])[: 3 if params.kind == "full" else 2]
        for a in (self.rows, self.lin, self.scale):
            a.flags.writeable = False
        self._factors: tuple = (None, math.nan, ())

    def factors(self, scheme: str, dt: float) -> tuple:
        """The read-only factors of ``scheme`` at step dt, rebuilt only when
        the scheme or dt changes, so a fixed-dt run builds them once per
        rung.  The (scheme, dt, factors) slot is replaced whole, so no caller
        of the table ``_ops`` shares, on any thread, pairs one dt with
        another's arrays."""
        last = self._factors
        if last[:2] != (scheme, dt):
            last = (scheme, dt, _SCHEMES[scheme][0](self.lin, dt))
            for a in last[2]:
                a.flags.writeable = False
            self._factors = last
        return last[2]

    def form(self, phys) -> np.ndarray:
        """The model's quadratic term, dealiased and mean-free, from the
        physical fields (B_x, Lambda B, Lambda B_x, B) of ``rows * c``: the
        transport term reads the first two, the full term all four, and
        extra rows are ignored.  Each field may be a stack of rows, one
        term per row."""
        prod = phys[1] * phys[0]
        if self.params.kind == "full":
            prod = phys[3] * phys[2] - prod
        out = self.grid.to_coef(prod)
        out *= self.mask
        out[..., 0] = 0.0
        return out

    def nonlinear(self, c: np.ndarray, tau: float = 0.0) -> np.ndarray:
        """Dealiased, mean-free quadratic term of the chosen model from one
        inverse transform of ``rows[:4]`` (full) or ``rows[:2]`` (transport)
        times ``c``; ``tau`` (the stage's fraction of the step) is unused:
        the model is autonomous."""
        n = 4 if self.params.kind == "full" else 2
        return self.form(self.grid.to_phys(self.rows[:n] * c))


# bounded, so that a sweep over many (grid, params) does not keep every table
_ops = functools.lru_cache(maxsize=32)(_Ops)

# A run moves to the next finer rung of its grid ladder once the share of
# sum |c_k|^2 held from the top third of the rung's dealiased band upwards
# exceeds this, and to the next coarser one while the halving's share is at
# most this.
LADDER_TAIL = 1e-26

# A transport run stops as ``ill_posed`` once the growth G of its linear
# symbol exceeds this: roundoff amplified by e^18, about 1e8.
ILL_POSED_GAIN = 18.0

# A run stops as ``max_steps`` after this many accepted steps.
MAX_STEPS = 1_000_000

# A fixed-dt run reserves at most this many bytes of snapshot table before
# its first step; a longer run doubles the table as an adaptive run does.
TABLE_BUDGET = 2**28


def _tail_exceeds(c: np.ndarray, start: int, cap: float) -> bool:
    """Whether the share of sum |c_k|^2 from mode ``start`` up exceeds
    ``LADDER_TAIL``, with ``cap`` the state's ``LADDER_TAIL`` * sum |c_k|^2,
    taken once for all the rungs it is tested on.  A share that is not a
    finite ratio, a NaN or an energy that overflows, exceeds it, so no
    descent cuts such a state away."""
    tail = c[start:]
    return not np.vdot(tail, tail).real <= cap < math.inf


def rhs(B: SpectralField, params: ModelParams) -> SpectralField:
    """Full right-hand side dB/dt, dealiased and mean-free."""
    ops = _ops(B.grid, params)
    return SpectralField.from_coef(B.grid, ops.nonlinear(B.coef) - ops.lin * B.coef)


_PHI3_SERIES = tuple(1.0 / math.factorial(n + 3) for n in range(17))  # z^17 / 20! < 5e-19


def _etdrk4_coeffs(lin: np.ndarray, dt: float):
    """Cox-Matthews ETDRK4 coefficients at z = -dt * lin.

    ``lin`` must be >= 0 and non-decreasing, as ``_Ops.lin`` = mu |xi_k|^alpha
    is on the half layout: two indices then split z into three slices.
      z = 0:         the exact limits q = dt/2, f1 = f2 = f3 = dt/6.
      0 < |z| < 1:   f1 = dt(phi1 - 3 phi2 + 4 phi3), f2 = dt(phi2 - 2 phi3),
                     f3 = dt(4 phi3 - phi2), where the closed forms would
                     lose digits to cancellation.  One Horner series gives
                     phi3; phi2 = z phi3 + 1/2 and phi1 = z phi2 + 1 follow
                     (stable for |z| < 1).
      |z| >= 1:      the closed forms, with the cube as a product (an array
                     ``**3`` goes through libm ``pow``, slower than the rest
                     of the build together).
    q = (dt/2) phi1(z/2) = dt expm1(z/2) / z on every z != 0.
    """
    r = dt * lin  # |z|
    z = -r
    e_half, e_full = _ifrk4_factors(lin, dt)
    i0 = int(np.searchsorted(r, 0.0, side="right"))
    i1 = int(np.searchsorted(r, 1.0))
    q, f1, f2, f3 = (np.empty_like(z) for _ in range(4))
    q[:i0] = 0.5 * dt
    f1[:i0] = f2[:i0] = f3[:i0] = dt / 6.0
    zq = z[i0:]
    q[i0:] = dt * np.expm1(zq / 2.0) / zq

    zs = z[i0:i1]
    p3 = np.full_like(zs, _PHI3_SERIES[-1])
    for coef in _PHI3_SERIES[-2::-1]:
        p3 *= zs
        p3 += coef
    p2 = zs * p3 + 0.5
    p1 = zs * p2 + 1.0
    f1[i0:i1] = dt * (p1 - 3.0 * p2 + 4.0 * p3)
    f2[i0:i1] = dt * (p2 - 2.0 * p3)
    f3[i0:i1] = dt * (4.0 * p3 - p2)

    zl, el = z[i1:], e_full[i1:]
    z2 = zl * zl
    s = dt / (z2 * zl)
    f1[i1:] = (-4.0 - zl + el * (4.0 - 3.0 * zl + z2)) * s
    f2[i1:] = (2.0 + zl + el * (zl - 2.0)) * s
    f3[i1:] = (-4.0 - 3.0 * zl - z2 + el * (4.0 - zl)) * s
    return e_half, e_full, q, f1, f2, f3


def _ifrk4_factors(lin: np.ndarray, dt: float):
    """The integrating factors exp(-dt lin / 2) and exp(-dt lin)."""
    return np.exp(-0.5 * dt * lin), np.exp(-dt * lin)


# A stepper advances c_t = nl(c, tau) - lin * c by dt from k1 = nl(c, 0), with
# ``factors`` its scheme's build at (lin, dt); nl receives the stage's fraction
# tau of the step (0, 1/2, 1/2, 1).
def _step_ifrk4(nl: Callable, c: np.ndarray, dt: float, k1: np.ndarray, factors: tuple):
    e_half, e_full = factors
    ec = e_full * c
    k2 = nl(e_half * (c + 0.5 * dt * k1), 0.5)
    k3 = nl(e_half * c + 0.5 * dt * k2, 0.5)
    k4 = nl(ec + dt * e_half * k3, 1.0)
    return ec + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


def _step_etdrk4(nl: Callable, c: np.ndarray, dt: float, k1: np.ndarray, factors: tuple):
    e_half, e_full, q, f1, f2, f3 = factors
    a = e_half * c + q * k1
    na = nl(a, 0.5)
    b = e_half * c + q * na
    nb = nl(b, 0.5)
    cc = e_half * a + q * (2.0 * nb - k1)
    nc = nl(cc, 1.0)
    return e_full * c + f1 * k1 + 2.0 * f2 * (na + nb) + f3 * nc


_SCHEMES = {"ifrk4": (_ifrk4_factors, _step_ifrk4), "etdrk4": (_etdrk4_coeffs, _step_etdrk4)}


def step(
    B: SpectralField,
    t: float,
    dt: float,
    params: ModelParams,
    cfg: StepperConfig,
) -> tuple[SpectralField, float]:
    """Advance one step of size dt (no adaptivity); returns (B_next, dt)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ops = _ops(B.grid, params)
    stepper = _SCHEMES[cfg.scheme][1]
    c = stepper(ops.nonlinear, B.coef, dt, ops.nonlinear(B.coef), ops.factors(cfg.scheme, dt))
    return SpectralField.from_coef(B.grid, c), dt


def hermite(vals, dots, n: "int | np.ndarray", dt: float) -> np.ndarray:
    """Cubic Hermite dense output at the midpoint t_n + dt / 2 of a step.

    ``vals[n]`` and ``dots[n]`` are a state and its time derivative at step
    boundary n, rows of a table or the (start, end) pair of one step with
    n = 0, rows or scalars (a state's value at one point); the step from n
    to n + 1 has length dt.  On a table, an index array ``n`` gives one row
    per index, each bitwise the row its own index gives.
    """
    return 0.5 * vals[n] + 0.125 * dt * dots[n] + 0.5 * vals[n + 1] - 0.125 * dt * dots[n + 1]


def snapshots(keep: Callable, cadence: int) -> Callable:
    """The observer of ``evolve`` that calls ``keep(t, c)`` with every
    ``cadence``-th state, the first included, and with the last state."""
    count = itertools.count()

    def observe(t: float, ops: _Ops, c: np.ndarray, nl: np.ndarray, last: bool) -> None:
        if next(count) % cadence == 0 or last:
            keep(t, c)

    return observe


@dataclass
class TimeSeries:
    """Output of :func:`evolve`.

    ``coefs`` holds one coefficient row per snapshot, taken at the requested
    cadence (always including the initial and final states), and ``times``
    their times; both arrays are read-only and on the N grid.  From
    :func:`evolve`, ``coefs`` is a read-only view of the leading rows of a
    table the run filled as it went, and a run that handed its states to an
    observer has no rows in either array (nor a ``final``); ``observer`` is
    that observer, or None.  ``observer_s`` is the wall seconds the run
    spent in its observer, the given one or its own snapshot table's; a
    :func:`picard_solve` series has 0.0.  No run stores per-step fields: a
    consumer of the states takes what it needs as they pass, and ``lam_b``
    and ``lam_b_dot`` are one read-only empty array.
    """

    grid: GridSpec
    params: ModelParams
    config: StepperConfig
    times: np.ndarray  # (n,)
    coefs: np.ndarray  # (n, N/2+1)
    step_times: np.ndarray
    diagnostics: dict[str, np.ndarray]
    termination: str
    observer: Callable | None = None
    observer_s: float = 0.0
    lam_b = lam_b_dot = np.zeros(0, dtype=complex)  # class attributes, not fields: always empty
    lam_b.flags.writeable = False

    def __post_init__(self) -> None:
        self.times.flags.writeable = False
        self.coefs.flags.writeable = False

    @property
    def final(self) -> SpectralField:
        return SpectralField.from_coef(self.grid, self.coefs[-1])


def evolve(
    B0: SpectralField, params: ModelParams, cfg: StepperConfig, observe: Callable | None = None
) -> TimeSeries:
    """Run until t_end, the blowup threshold, CFL collapse, a non-finite
    field, an ill-posed transport run, or ``MAX_STEPS``; the cause is
    recorded on the result.

    ``diagnostics`` holds one entry per accepted step, at ``step_times[1:]``:
    dt, the sup|Lambda B| and sup|Lambda B_x| that bounded it, the signed
    max of Lambda B_x (``max_lam_bx``), the ladder rung (``n_modes``) it was
    taken on, the ``bound`` that was largest among its rates sup / scale,
    with the rung's scale (0 advective, 1 Riccati, 2 dispersive; on a
    fixed-dt run the one that would have bounded it), a = max B_x of the
    state it began at, the rate gamma = a xi - mu xi^alpha at the top xi of
    its rung's dealiased band, and the growth G = sum max(0, gamma) dt of
    the linear symbol up to its end (module docstring).

    Every run, fixed-dt or adaptive, steps on the grid ladder (module
    docstring): each state is on the rung the ladder's rule picks for it,
    and step n starts from state n, on that rung.  Every accepted state,
    the last included, goes in order to one observer,
    ``observe(t, ops, c, nl, last)``: its time, its rung's ``_Ops``, its
    coefficients c and nonlinear term nl, each n/2 + 1 entries on a rung of
    n modes, and whether it is the run's last state.  c and nl are
    read-only, as the run steps on from them.  The result's ``observer_s``
    sums the wall time of these calls, so a consumer's cost is told apart
    from the steps' with no clock of its own.

    Without ``observe``, the run's own observer is ``snapshots`` at the
    config's cadence into one zero table on ``B0.grid``: each snapshot row
    is written once, zero-padded from its rung's entries, and ``coefs`` is
    a read-only view of the rows written.  A fixed-dt run sizes the table
    from its step count, up to ``TABLE_BUDGET`` bytes; an adaptive one
    starts at two rows.  Either doubles the table when it is full.  Given
    ``observe``, the run holds no table, and the result's ``times`` and
    ``coefs`` have no rows.
    """
    grid = B0.grid
    half = grid.n_modes // 2 + 1
    stepper = _SCHEMES[cfg.scheme][1]
    c = B0.coef.copy()
    c[0] = 0.0  # zero-mean gauge, set once: every step keeps c[0] = 0 exactly
    # the run's ladder, finest first: N, then each halving while it is even
    # and at least 8; a rung's ``_Ops`` is built once, not per state
    ladder = [_ops(grid, params)]
    while (m := ladder[-1].grid.n_modes) % 4 == 0 and m // 2 >= 8:
        ladder.append(_ops(GridSpec(grid.half_length, m // 2), params))
    rung = 0  # the index of the state's rung in ``ladder``
    dispersive = params.kind == "full"
    t = gain = observer_s = 0.0

    times: list[float] = []  # of the snapshots in the table
    observer = observe
    if observer is None:
        # from np.zeros, so the pages of rows never written are never touched
        rows = 2 if cfg.adaptive else min(math.ceil(cfg.t_end / cfg.dt_init), MAX_STEPS) // cfg.snapshot_cadence + 2
        capacity = max(2, min(rows, TABLE_BUDGET // (16 * half)))  # 16 bytes a complex entry
        table = np.zeros((capacity, half), dtype=complex)

        def keep(t: float, c: np.ndarray) -> None:
            nonlocal table
            if len(times) == len(table):
                grown = np.zeros((2 * len(table), half), dtype=complex)
                grown[: len(table)] = table
                table = grown
            table[len(times), : c.size] = c
            times.append(t)

        observer = snapshots(keep, cfg.snapshot_cadence)
    else:
        table = np.zeros((0, half), dtype=complex)

    step_times = [0.0]
    # one row of ``keys`` per accepted step: a growing list per key (two
    # more for a and G) moved the heap of the fixed-dt CLI run at N = 2048
    # from 60.7 to 64.7 MB peak RSS
    keys = ("dt", "bound", "sup_lam_b", "sup_lam_bx", "max_lam_bx", "n_modes", "a", "gamma", "G")
    per_step: list[tuple] = []

    n = 0
    while True:
        # every accepted state, the last one included, passes through here
        # once: its rung, its nonlinear term, its CFL sups, the stop checks
        # and the observer
        cap = LADDER_TAIL * np.vdot(c, c).real
        if rung and _tail_exceeds(c, ladder[rung].tail, cap):
            rung -= 1
            c = np.pad(c, (0, ladder[rung].xi.size - c.size))  # exact in this normalization
        else:
            while rung + 1 < len(ladder) and not _tail_exceeds(c, ladder[rung + 1].tail, cap):
                rung += 1
            if ladder[rung].xi.size < c.size:
                # the cut leaves the rung's Nyquist entry 0, as every finite step does
                c = np.append(c[: ladder[rung].xi.size - 1], 0.0)
        ops = ladder[rung]
        # one stack on the finest nodes: rows 0-3 are B_x, Lambda B,
        # Lambda B_x and, for the dispersive bound, B; read at every (N/n)-th
        # node, a node of the rung n, its rows give the state's nonlinear term
        phys = grid.to_phys(ops.rows[: 4 if dispersive else 3] * c)
        sups = np.max(np.abs(phys[1:]), axis=-1)
        rates = sups / ops.scale
        rate, bound = float(rates.max()), int(rates.argmax())
        nl = ops.form(phys[:, :: grid.n_modes // ops.grid.n_modes])
        a, max_lam_bx = phys[0:3:2].max(axis=-1).tolist()  # max B_x and max Lambda B_x
        # freed now, its memory serves the observer, the step and the next
        # state's transform (kept, it cost ~1 MB of peak RSS at N = 4096)
        del phys

        dt = min(cfg.cfl_safety / rate, cfg.dt_init * 1e6) if cfg.adaptive and rate > 0 else cfg.dt_init
        if not math.isfinite(rate):
            termination = "non_finite"
        elif params.kind == "transport" and gain > ILL_POSED_GAIN:
            termination = "ill_posed"
        elif sups[1] > cfg.blowup_threshold:
            termination = "blowup_threshold"
        elif t >= cfg.t_end - 1e-14:
            termination = "t_end"
        elif n >= MAX_STEPS:
            termination = "max_steps"
        elif dt < 1e-12:
            termination = "cfl_collapse"
        else:
            termination = None
        c.flags.writeable = nl.flags.writeable = False
        start = time.perf_counter()
        observer(t, ops, c, nl, termination is not None)
        observer_s += time.perf_counter() - start
        if termination is not None:
            break
        dt = min(dt, cfg.t_end - t)

        c = stepper(ops.nonlinear, c, dt, nl, ops.factors(cfg.scheme, dt))
        t += dt
        n += 1
        gamma = a * ops.xi_top - params.mu * ops.xi_top**params.alpha
        gain += max(0.0, gamma) * dt

        per_step.append((dt, bound, sups[0], sups[1], max_lam_bx, ops.grid.n_modes, a, gamma, gain))
        step_times.append(t)

    columns = zip(*per_step) if per_step else [()] * len(keys)
    return TimeSeries(
        grid=grid,
        params=params,
        config=cfg,
        times=np.array(times),
        coefs=table[: len(times)],
        step_times=np.array(step_times),
        diagnostics=dict(zip(keys, map(np.array, columns))),
        termination=termination,
        observer=observe,
        observer_s=observer_s,
    )


@dataclass
class PicardResult:
    iterates: list[np.ndarray]  # final-time coefficient row of each iterate
    gap_history: list[float]  # sup-in-time H^s gap between consecutive iterates
    converged: bool
    series: TimeSeries  # per-step series of the last iterate


def picard_solve(
    B0: SpectralField,
    params: ModelParams,
    cfg: StepperConfig,
    k_max: int = 12,
) -> PicardResult:
    """Iteratively solve the linearized approximating system.

    Iterate k solves B_t + B^(k-1) J_x - J^(k-1) B_x + mu Lambda^alpha B = 0
    with coefficients frozen from iterate k-1 (B^(-1) = 0, so iterate 0 is
    the pure dissipation semigroup), in m fixed steps of the ``cfg.scheme``
    stepper.  The frozen fields Lambda B^(k-1) and B^(k-1) are at t_n the
    stored rows of iterate k-1, and at t_(n+1/2) their cubic Hermite
    interpolation from its stored (value, time-derivative) pairs.  Stops
    when the sup-in-time inhomogeneous H^s gap between consecutive
    iterates, s = 3 - alpha, drops below 1e-10, or after iterate ``k_max``.

    The iterates run as a pipeline, the schedule of revisionist integral
    deferred correction (Christlieb, Macdonald & Ong 2010, SIAM J. Sci.
    Comput. 32:818).  Iterate 0 steps alone.  Iterates k >= 1 are rows of
    one stack, and at each tick every one in flight takes one step: one
    inverse transform gives C_x and Lambda C_x of the whole stack, one the
    frozen fields at t_(n+1/2) and t_(n+1) from each predecessor's rows n
    and n + 1, and each later stage one more.  Iterate k + 1 starts on the
    tick after iterate k's running gap, the sup over its states so far,
    stops being below 1e-10 (a NaN gap never is), if k + 1 <= ``k_max``:
    from then on the solve is certain to need it, so no step is
    speculative.  Each row gets the transforms, Hermite rows, stepper
    arithmetic and Sobolev sums it would get alone, so the result is
    bitwise that of stepping one iterate after the other.  The solve holds
    the (value, time-derivative) histories of the iterates in flight and of
    their predecessors: an iterate's are freed once its successor has
    retired at step m, and the last iterate's values are the series.
    """
    if params.kind != "full" or params.mu <= 0:
        raise ValueError("picard_solve applies to the full model with mu > 0")
    grid = B0.grid
    ops = _ops(grid, params)
    stepper = _SCHEMES[cfg.scheme][1]
    m = max(1, int(round(cfg.t_end / cfg.dt_init)))
    dt = cfg.t_end / m
    factors = ops.factors(cfg.scheme, dt)
    weight = sobolev_weight(grid.wavenumbers, 3.0 - params.alpha, homogeneous=False)

    c0 = B0.coef.copy()
    c0[0] = 0.0  # zero-mean gauge, set once

    def frozen(table: np.ndarray) -> np.ndarray:
        """Lambda A and A of the coefficient rows ``table``, along a new
        second-to-last axis, from one inverse transform."""
        return grid.to_phys(ops.rows[1:4:2] * table[..., None, :])

    def frozen_nl(c: np.ndarray, fz: np.ndarray) -> np.ndarray:
        """A (Lambda C)_x - Lambda A C_x, dealiased and mean-free, for a
        stack of C with (Lambda A, A) the rows of ``fz``; at A = C it is the
        full model's term, so ``form`` makes it from (C_x, Lambda A,
        Lambda C_x, A)."""
        phys = grid.to_phys(ops.rows[0:3:2] * c[:, None])
        return ops.form((phys[:, 0], fz[:, 0], phys[:, 1], fz[:, 1]))

    # each iterate's (values, time derivatives) at the m + 1 step boundaries
    shape = (2, m + 1, c0.size)
    hist = {0: np.empty(shape, dtype=complex)}
    vals, dots = hist[0]
    c = c0.copy()
    for n in range(m + 1):
        vals[n] = c
        k1 = np.zeros_like(c)
        dots[n] = k1 - ops.lin * c
        if n == m:
            break
        c = stepper(lambda c, tau: np.zeros_like(c), c, dt, k1, factors)
    finals = [vals[m].copy()]
    gaps: list[float] = []

    # the iterates in flight are first, first + 1, ..., iterate first + j at
    # state ns[j]: row j of c, of fz (its Lambda A and A at t_n) and of run
    # (its running gap)
    first, ns = 1, []
    c, fz, run = np.empty((0, c0.size), dtype=complex), np.empty((0, 2, grid.n_modes)), np.empty(0)
    new = k_max >= 1
    while new or ns:
        if new:
            hist[first + len(ns)] = np.empty(shape, dtype=complex)
            ns.append(0)
            c = np.concatenate((c, c0[None]))
            fz = np.concatenate((fz, frozen(c0)[None]))  # every iterate's row 0 is c0
            run = np.append(run, 0.0)
        ks = range(first, first + len(ns))
        k1 = frozen_nl(c, fz)
        for k, n, row, dot in zip(ks, ns, c, k1 - ops.lin * c):
            hist[k][:, n] = row, dot
        prev = np.stack([hist[k - 1][0][n] for k, n in zip(ks, ns)])
        run = np.maximum(run, np.sqrt(grid.norm2(c - prev, weight)))
        new = ks[-1] < k_max and not run[-1] < 1e-10
        if ns[0] == m:  # the front iterate retires
            finals.append(hist[first][0][m].copy())
            gaps.append(float(run[0]))
            del hist[first - 1]
            first += 1
            c, fz, run, k1, ks, ns = c[1:], fz[1:], run[1:], k1[1:], ks[1:], ns[1:]
        if ns:
            pv, pd = np.stack([hist[k - 1][:, n : n + 2] for k, n in zip(ks, ns)], axis=2)
            mid, fz = frozen(np.stack((hermite(pv, pd, 0, dt), pv[1])))
            at = {0.5: mid, 1.0: fz}
            c = stepper(lambda c, tau: frozen_nl(c, at[tau]), c, dt, k1, factors)
            ns = [n + 1 for n in ns]

    times = np.linspace(0.0, cfg.t_end, m + 1)
    series = TimeSeries(
        grid=grid,
        params=params,
        config=replace(cfg, adaptive=False),
        times=times,
        coefs=hist[first - 1][0],
        step_times=times,
        diagnostics={},
        termination="t_end",
    )
    return PicardResult(iterates=finals, gap_history=gaps, converged=bool(gaps) and gaps[-1] < 1e-10, series=series)


def scaling_symmetry_mismatch(
    B: SpectralField, params: ModelParams, lam: float, t_end: float, n_steps: int, scheme: str
) -> float:
    """Relative L2 mismatch of the rescaling B -> lam^(a-2) B(lam x, lam^a t).

    Run A evolves ``B`` to lam^alpha * t_end, run B the rescaled datum on the
    grid contracted by ``lam`` to ``t_end``, both in ``n_steps`` fixed steps.
    The schemes commute with the rescaling, so the final-time mismatch is
    roundoff-level before blowup; it is non-finite when either run overflows.
    """
    g = B.grid
    scale = lam ** (params.alpha - 2.0)
    grid_b = GridSpec(g.half_length / lam, g.n_modes)
    B_b = SpectralField.from_phys(grid_b, scale * B.phys)
    dt_b = t_end / n_steps
    cfg_b = StepperConfig(scheme=scheme, dt_init=dt_b, t_end=t_end, adaptive=False, snapshot_cadence=10**9)
    cfg_a = replace(cfg_b, dt_init=dt_b * lam**params.alpha, t_end=t_end * lam**params.alpha)
    ref = scale * evolve(B, params, cfg_a).final.phys
    diff = np.linalg.norm(evolve(B_b, params, cfg_b).final.phys - ref)
    return float(diff / max(np.linalg.norm(ref), 1e-300))


def scaling_symmetry_verdict(
    B: SpectralField, params: ModelParams, lam: float, t_end: float, n_steps: int, scheme: str
) -> tuple[dict, list[Gate]]:
    """``scaling_symmetry_mismatch`` as the ``symmetry.json`` dict and its gate."""
    rel = scaling_symmetry_mismatch(B, params, lam, t_end, n_steps, scheme)
    report = {"lambda": lam, "alpha": params.alpha, "rel_l2_mismatch": rel}
    return report, [at_most("rel_l2_mismatch", rel, 1e-6)]
