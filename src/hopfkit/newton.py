"""Banded linear algebra for space-time Newton systems.

The unknown of the periodic problems is a trajectory: per spatial point,
two fields, each with ``R = 2*n_t + 1`` real Fourier unknowns
(``a_0, Re a_1, Im a_1, ..., Re a_nt, Im a_nt``).  `TrajectoryLayout`
flattens trajectories point-major -- all unknowns of one grid point stay
contiguous -- so every operator with finite spatial stencil becomes a
*banded* real matrix: time differentiation and multiplication by a
time-periodic coefficient act within a point's block, the spatial operator
couples neighbouring blocks.

A layout may keep a subset of the modes.  The half-wave set `odd_modes`
(``1, 3, 5, ...``) holds the trajectories with ``u(t + pi) = -u(t)``; at
such a base an odd nonlinearity's ``h_u`` has only even modes, so the
Jacobian maps odd modes to odd modes and its band on the odd set has a
block of ``2 n_t`` per point (``n_t`` even) instead of ``4 n_t + 2``:
about a quarter of the entries, with ``kl`` halved.  A layout may also
keep mode 1 alone (``range(1, 2)``), the space of single harmonics: a
block of 4 per point, whatever ``n_t``.

`assemble_jacobian_band` builds the band for ``v -> v_t - (sigma+1)(A v +
h_u(lam, u) v)`` exactly (including the collocation aliasing of the
pseudo-spectral product, so Newton gets the true derivative of the
discrete residual).  It reads the ``h_u`` entries from
`problem.stencil_couplings`, the one colour-probe decoder, which also
gives ``h_u(lam, 0)`` its sparse matrix; here the probes are one
constant-in-time unit comb per field and stencil colour.  Each entry
becomes one coupling block (`coupling_blocks`) built from the collocated
product's own DFT matrices, the cached real pair the residual's time
transforms use, at the block offset `TrajectoryLayout.first_slot` gives.
``kl``/``ku`` are the reach of the block offsets present, not the
stencil's worst case.  The blocks of one offset are made once, a bounded
chunk at a time, and written into the band as they are made, so assembly
needs the band plus a fixed workspace, whatever the grid.
`BandedMatrix` keeps LAPACK band storage in the Fortran order `dgbtrf`
takes, one contiguous run per matrix column.  A band holds its own LU
(``BandedMatrix.lu``), made once by `BandedMatrix.factorize`.  The Newton
steps factor it in place, so a factorized Newton band is one band-sized
array; solves that refine against the band factor a copy instead.

`BorderedSystem` solves the band plus two extra columns (parameter
derivatives) and two extra rows (the phase functionals) by a 2x2 Schur
complement, with optional matrix-free iterative refinement -- needed
because the core band is *exactly singular* at a solved branch point (time
translation) while the bordered system is not.
Given a ``rotation``, `BorderedSystem` puts new borders on a band factored
once, with the core conjugated by `TrajectoryLayout.rotate` (the flat form
of a time shift), so one factor serves every time translate of its base
trajectory.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack as lapack

from .problem import stencil_couplings
from .trajectory import _adopt, _dft_matrices

__all__ = [
    "TrajectoryLayout",
    "odd_modes",
    "band_bytes_bound",
    "coupling_blocks",
    "assemble_jacobian_band",
    "BandedMatrix",
    "BorderedSystem",
    "SingularBandError",
]


# Bytes of h_u coupling blocks that `assemble_jacobian_band` makes at once.
_CHUNK_BYTES = 8 * 2**20


class SingularBandError(RuntimeError):
    """The banded factorization or the bordered reduction failed."""


def odd_modes(n_t):
    """The half-wave mode set ``1, 3, 5, ... <= n_t``: the Fourier modes of
    a trajectory with ``u(t + pi) = -u(t)``."""
    return range(1, int(n_t) + 1, 2)


def _rows(modes):
    """The coefficient rows of a mode ``range`` as a slice (a view)."""
    return slice(modes.start, modes.stop, modes.step)


class TrajectoryLayout:
    """Index map between trajectory coefficients and a flat real vector.

    The layout keeps the Fourier modes ``modes``, a ``range`` within ``0
    .. n_t``: all of them by default, `odd_modes` for the half-wave
    space of trajectories with ``u(t + pi) = -u(t)``, or ``range(1, 2)``
    for the single harmonics.  Per field, mode 0
    (when kept) has one slot, its real part, and every other kept mode two,
    its real and imaginary parts, in mode order: ``R = 2 * len(modes) - 1``
    slots with mode 0, ``2 * len(modes)`` without.  Flat index of (grid
    point ``j``, field ``f``, slot ``s``) is ``j * block + f * R + s`` with
    ``block = 2 * R``; with all modes, ``R = 2*n_t + 1``.  Modes left out
    read as zero.  Every slot computation (`flatten`, `unflatten`,
    `rotate`, `first_slot`, and through it `functional_rows` and the band)
    reads the mode set from here.
    """

    def __init__(self, n_t, nx, dx, modes=None):
        self.n_t = int(n_t)
        self.nx = int(nx)
        self.dx = float(dx)
        self.modes = range(self.n_t + 1) if modes is None else modes
        if not (self.modes and self.modes.step > 0
                and 0 <= self.modes[0] and self.modes[-1] <= self.n_t):
            raise ValueError(f"{self.modes} is not a mode set within 0 .. {self.n_t}")
        # Slot 0 holds mode 0 when it is kept; the modes n >= 1 (``waves``)
        # follow as (Re, Im) pairs from slot ``mean_slots``.
        self.mean_slots = int(self.modes[0] == 0)
        self.waves = self.modes[self.mean_slots:]
        self.r_per_field = 2 * len(self.modes) - self.mean_slots
        self.block = 2 * self.r_per_field
        self.size = self.nx * self.block

    def first_slot(self, state_index):
        """Flat index of slot 0 of state component ``state_index = f * nx
        + j`` (field ``f`` at grid point ``j``): ``j * block + f * R``."""
        fld, point = np.divmod(state_index, self.nx)
        return point * self.block + fld * self.r_per_field

    def flatten(self, coeffs):
        """Coefficients ``(n_t+1, 2*nx)`` (complex) to the flat real vector."""
        coeffs = np.asarray(coeffs)
        nx, m, rows = self.nx, self.mean_slots, _rows(self.waves)
        out = np.empty((nx, 2, self.r_per_field))
        # per field f: columns of coeffs are [f*nx : (f+1)*nx]
        for f in range(2):
            cols = coeffs[:, f * nx : (f + 1) * nx]
            if m:
                out[:, f, 0] = cols[0].real
            out[:, f, m::2] = cols[rows].real.T
            out[:, f, m + 1::2] = cols[rows].imag.T
        return out.reshape(self.size)

    def unflatten(self, y):
        """Inverse of `flatten`; modes left out are zero."""
        nx, m, rows = self.nx, self.mean_slots, _rows(self.waves)
        arr = np.asarray(y).reshape(nx, 2, self.r_per_field)
        coeffs = np.zeros((self.n_t + 1, 2 * nx), dtype=complex)
        for f in range(2):
            if m:
                coeffs[0, f * nx : (f + 1) * nx] = arr[:, f, 0]
            coeffs[rows, f * nx : (f + 1) * nx] = (
                arr[:, f, m::2] + 1j * arr[:, f, m + 1::2]
            ).T
        return coeffs

    def flatten_trajectory(self, traj):
        return self.flatten(traj.coeffs)

    def rotate(self, y, psi):
        """The flat form of ``time_shift(psi)``: the ``(Re, Im)`` pair of
        mode ``n`` turns by ``n * psi`` at every point and field.

        ``y`` is a flat vector or a ``(size, k)`` stack of them; the inverse
        is ``rotate(., -psi)``.  O(size).
        """
        y = np.asarray(y, dtype=float)
        m = self.mean_slots
        arr = y.reshape(2 * self.nx, self.r_per_field, -1)
        angles = np.array(self.waves)[:, None] * float(psi)
        cos, sin = np.cos(angles), np.sin(angles)
        re, im = arr[:, m::2], arr[:, m + 1::2]
        out = np.empty_like(arr)
        if m:
            out[:, 0] = arr[:, 0]
        out[:, m::2] = cos * re - sin * im
        out[:, m + 1::2] = sin * re + cos * im
        return out.reshape(y.shape)

    def to_trajectory(self, y):
        return _adopt(self.unflatten(y), self.dx)

    def functional_rows(self, weight):
        """The two phase-functional rows as (indices, values) pairs.

        ``l1 u = 2 * sum_c w_c * Re u_hat(1)_c * dx`` and
        ``l2 u = -2 * sum_c w_c * Im u_hat(1)_c * dx``; both touch only the
        first-harmonic slots.
        """
        if 1 not in self.waves:
            raise ValueError("layout has no first harmonic")
        w = np.asarray(weight, dtype=float)
        if w.size != 2 * self.nx:
            raise ValueError("weight length does not match the grid")
        slot = self.mean_slots + 2 * self.waves.index(1)  # Re u_hat(1)
        idx_re = self.first_slot(np.arange(2 * self.nx)) + slot
        vals = 2.0 * w * self.dx
        return (idx_re, vals), (idx_re + 1, -vals)


def band_bytes_bound(nx, n_t, h_stencil):
    """Upper bound on the bytes of one Newton band, 8 per stored entry.

    `TrajectoryLayout` with all modes has ``block = 4 n_t + 2`` unknowns
    per grid point, and `assemble_jacobian_band` gives ``kl = ku <=
    (max(1, h_stencil) + 1) * block``, of which LAPACK band storage keeps
    ``2 kl + ku + 1`` rows.  The half-wave and mode-1 bands are smaller,
    so this bounds every Newton band.  Computed in floats, so an infinite ``nx`` gives
    ``inf``.
    """
    block = 4.0 * n_t + 2.0
    half_width = (max(1, h_stencil) + 1) * block
    return 8.0 * (3.0 * half_width + 1.0) * nx * block


def coupling_blocks(samples, n_t, modes=None):
    """Mode-coupling blocks of multiplication by sampled functions.

    Parameters
    ----------
    samples : array, shape (M, batch)
        Collocation samples (``M = 2*n_t + 2``) of one real coefficient
        function per batch column.
    n_t : int
        Temporal truncation.
    modes : range, optional
        The mode set of the slots (`TrajectoryLayout.modes`), all modes
        ``0 .. n_t`` by default.

    Returns
    -------
    array, shape (batch, R, R)
        Real matrices acting on the per-component slot vector of the mode
        set: block ``b`` is ``analysis @ diag(samples[:, b]) @ synthesis``
        with the real DFT pair of `trajectory._dft_matrices` cut to the
        kept slots, the matrix of the pseudo-spectral product that
        `ProblemDef.residual_g` evaluates, aliasing included.  Each entry
        is summed over the samples alone, so a block does not depend on
        the rest of the batch, and a subset's blocks are bitwise the
        matching sub-blocks of the full ones.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != 2 * n_t + 2:
        raise ValueError("expected 2*n_t + 2 collocation samples")
    layout = TrajectoryLayout(n_t, 1, 1.0, modes)
    # Slot 0 is Re c_0 (when mode 0 is kept); then Re c_n, Im c_n pairs:
    # synthesis columns 2n, 2n+1 and analysis rows n, n_t+1+n.
    cols = [c for n in layout.modes for c in ((2 * n, 2 * n + 1) if n else (0,))]
    rows = [k for n in layout.modes for k in ((n, n_t + 1 + n) if n else (0,))]
    synthesis, analysis = _dft_matrices(n_t)
    terms = analysis[rows].T[:, :, None] * synthesis[:, cols][:, None, :]
    # With the samples contiguous in j, each entry is one reduction over j
    # in a fixed order, whatever the batch, its layout or the mode set (a
    # BLAS product over the batch sums in an order set by the batch size).
    return np.einsum("bj,jrs->brs", np.ascontiguousarray(samples.T), terms)


class BandedMatrix:
    """A real banded matrix in LAPACK general-band storage.

    ``ab[kl + ku + i - j, j]`` holds entry ``(i, j)`` for ``-ku <= i - j <=
    kl``; rows ``0 .. kl - 1`` of ``ab`` are fill-in workspace for
    `dgbtrf`.  ``ab`` is the transpose of a C-contiguous ``(size, 2*kl +
    ku + 1)`` array: the Fortran-ordered ``AB`` of LAPACK, with every
    matrix column one contiguous run.  The band holds its own LU: ``lu``
    is ``None`` until `factorize` makes it, from a copy of ``ab`` or in
    place; in place, the band is *consumed* (``ab`` holds LU data) and the
    products refuse to run.
    """

    def __init__(self, size, kl, ku):
        self.size = size
        self.kl = kl
        self.ku = ku
        self.ab = np.zeros((size, 2 * kl + ku + 1)).T
        self.consumed = False
        self.lu = None

    def factorize(self, overwrite=False):
        """LU factor ``(lub, ipiv)`` of the band by `dgbtrf`, made on the
        first call and kept as ``lu``; later calls return it.

        ``overwrite`` factors ``ab`` in place, which consumes the band;
        otherwise the factor is a copy.  An exactly zero pivot is set to
        ``1e-13`` times the largest diagonal magnitude: dgbtrf computed no
        multipliers for its column, so the factor is exact for the band
        with that one diagonal entry perturbed, and refinement against the
        exact operator absorbs the perturbation.
        """
        if self.lu is None:
            kl, ku = self.kl, self.ku
            scale = np.abs(self.ab[kl + ku]).max() or 1.0
            lub, ipiv, info = lapack.dgbtrf(self.ab, kl, ku,
                                            overwrite_ab=int(overwrite))
            self.consumed = bool(overwrite)
            if info < 0:
                raise SingularBandError(f"dgbtrf: illegal argument {-info}")
            if info > 0:
                pivots = lub[kl + ku]
                pivots[pivots == 0.0] = 1e-13 * scale
            self.lu = lub, ipiv
        return self.lu

    def _entries(self):
        if self.consumed:
            raise ValueError("the band was factorized in place; it holds LU data")
        return self.ab

    def _diagonals(self):
        """Yield ``(row, lo, hi, d)``: diagonal ``i - j = d`` holds
        ``row[lo:hi]`` in columns ``lo .. hi - 1``."""
        n, ab = self.size, self._entries()
        for d in range(max(-self.ku, 1 - n), min(self.kl, n - 1) + 1):
            yield ab[self.kl + self.ku + d], max(0, -d), n - max(0, d), d

    def matvec(self, x):
        """Dense-equivalent product (exact; O(band * n))."""
        out = np.zeros(self.size)
        for row, lo, hi, d in self._diagonals():
            out[lo + d : hi + d] += row[lo:hi] * x[lo:hi]
        return out

    def rmatvec(self, x):
        """Product with the transpose (exact; O(band * n))."""
        out = np.zeros(self.size)
        for row, lo, hi, d in self._diagonals():
            out[lo:hi] += row[lo:hi] * x[lo + d : hi + d]
        return out


def assemble_jacobian_band(problem, params, u, layout):
    """Band of ``v -> v_t - (sigma+1)(A v + h_u(lam, u) v)`` in the layout.

    ``u`` is the base trajectory (use the zero trajectory to get the
    linearisation at the origin).  The result is the exact Jacobian of the
    discrete ``residual_g`` at ``u``.

    The ``h_u`` couplings are the entries `problem.stencil_couplings` reads
    with constant-in-time unit combs: the response samples of entry (state
    row, state column) are the time samples of the coefficient tying them,
    and its ``R x R`` block sits at block offset ``first_slot(row) -
    first_slot(col)``.  ``kl`` and ``ku`` are the largest ``i - j`` and
    ``j - i`` over the time-derivative pair (+-1), the mode-diagonal
    offsets of ``A`` and each block offset plus or minus ``R - 1`` (the
    reach of a block that fills its corners, as at a base with content in
    every mode).  The blocks of one offset are made once, a bounded chunk
    at a time, and written one block column at a time, each a single
    vectorised addition to contiguous runs of the band's storage.
    """
    lam, sigma = params
    factor = -(sigma + 1.0)
    n_t, nx, r = layout.n_t, layout.nx, layout.r_per_field
    if u.n_t != n_t or u.nx != nx:
        raise ValueError("trajectory does not match the layout")

    # Linear operator A: mode-diagonal, entry A[c, c'] couples the same
    # mode part of components c and c'.
    acoo = problem.A.tocoo()
    acoo.sum_duplicates()
    acoo.eliminate_zeros()
    a_first = layout.first_slot(acoo.col)
    a_offsets = layout.first_slot(acoo.row) - a_first
    if np.any(np.abs(acoo.row % nx - acoo.col % nx) > max(1, problem.h_stencil)):
        raise ValueError(
            "spatial stencil of A exceeds the bandwidth implied by h_stencil"
        )

    u_samples = u.sample_values()
    rows, cols, samples = stencil_couplings(
        problem, lambda comb: problem.apply_h_u(
            lam, u_samples, np.broadcast_to(comb, (u.n_samples, 2 * nx))))
    first = layout.first_slot(cols)
    offsets = layout.first_slot(rows) - first
    # Entry (rr, cc) of a block lies at offset + rr - cc, |rr - cc| < r.
    spans = np.concatenate([[-1, 1] if layout.waves else [0], a_offsets,
                            offsets - (r - 1), offsets + (r - 1)])
    kl, ku = int(spans.max()), -int(spans.min())

    band = BandedMatrix(layout.size, kl, ku)
    ab, diag = band.ab, kl + ku
    columns = ab.T  # [matrix column, band row], C-contiguous
    if layout.waves:
        # Per component, d/dt (x + iy) e^{int} = (-n y + i n x) e^{int}.
        m, modes = layout.mean_slots, np.array(layout.waves, dtype=float)
        by_field = columns.reshape(2 * nx, r, -1)
        by_field[:, m::2, diag + 1] = modes  # row Im_n, col Re_n
        by_field[:, m + 1::2, diag - 1] = -modes  # row Re_n, col Im_n
    a_cols = a_first[:, None] + np.arange(r)
    ab[diag + a_offsets[:, None], a_cols] += (factor * acoo.data)[:, None]
    # Entry (rr, cc) of the block at column ``first`` and offset ``offset``
    # sits in band row diag + offset + rr - cc of column first + cc, so
    # block column cc is one contiguous run of r rows.  Band entries are
    # never -0.0, so adding the zero entries changes no bits.
    step = max(1, _CHUNK_BYTES // (8 * r * r))  # blocks per chunk
    for offset in np.unique(offsets):
        group = np.flatnonzero(offsets == offset)
        for start in range(0, group.size, step):
            part = group[start : start + step]
            blocks = coupling_blocks(samples[:, part], n_t, layout.modes)
            blocks *= factor
            for cc in range(r):
                run = slice(diag + offset - cc, diag + offset - cc + r)
                columns[first[part] + cc, run] += blocks[:, :, cc]
    return band


class BorderedSystem:
    """A banded core with two extra columns and two extra rows.

        [ J    C ] [ y ]   [ r_core   ]
        [ B^T  0 ] [ p ] = [ r_border ]

    ``J`` is the banded core, ``C`` the (size, 2) parameter columns,
    ``B`` the two functional rows.  Solved by LU of the band plus the 2x2
    Schur complement ``-B^T J^-1 C``.  The LU is the band's own
    (`BandedMatrix.factorize`): a band factored already, in place or not,
    is solved through its factor, otherwise the first solve factors a
    copy.  The core may be numerically singular (time-translation symmetry
    at a converged branch point); the bordered system is still regular,
    and `solve` repairs the lost accuracy with matrix-free refinement when
    an exact ``matvec`` of the full system is supplied.  Refinement against
    the band's own `apply` needs the band, so it works only when the band
    was not factored in place.

    `solve` and `solve_transpose` share one band factorization and one
    routine: the transposed system is bordered the same way with the roles
    swapped (``B`` as columns, ``C`` as rows), and ``dgbtrs`` solves with
    ``J^T`` through its ``trans`` flag.  The border solves and the Schur
    complement are cached per orientation.

    With ``rotation = (layout, psi)`` the core is ``S J S^-1`` for ``S =
    layout.rotate(., psi)``: new borders on a band factored once serve
    every time translate of its base trajectory, and only the Schur
    complement of the borders is computed.  ``S`` is orthogonal, so the
    transpose solves ``S J^-T S^-1`` the same way.  The band product is not
    rotated: `solve` on a rotated system needs an exact ``matvec``.
    """

    def __init__(self, band, columns, rows, rotation=None):
        self.band = band
        self.columns = np.asarray(columns, dtype=float)
        if self.columns.shape != (band.size, 2):
            raise ValueError("expected two border columns of core size")
        if rotation is not None and rotation[0].size != band.size:
            raise ValueError("layout does not match the band")
        self.rows = rows  # pair of (indices, values)
        self._rotation = rotation
        self._schur = {}  # transpose -> (border solves, Schur complement)

    # -- low-level pieces ---------------------------------------------------

    def _core_solve(self, b, transpose):
        """``J^-1 b`` (``J^-T b``) for one vector or a ``(size, k)`` stack,
        conjugated by the rotation of a rotated system."""
        if self._rotation is not None:
            layout, psi = self._rotation
            b = layout.rotate(b, -psi)
        lub, ipiv = self.band.factorize()
        x, info = lapack.dgbtrs(
            lub, self.band.kl, self.band.ku, b, ipiv, trans=1 if transpose else 0
        )
        if info != 0:
            raise SingularBandError(f"dgbtrs failed with info={info}")
        if self._rotation is not None:
            x = layout.rotate(x, psi)
        return x

    def _row_dot(self, y):
        (i1, v1), (i2, v2) = self.rows
        return np.array([v1 @ y[i1], v2 @ y[i2]])

    def _rows_dense(self):
        dense = np.zeros((self.band.size, 2))
        for k, (idx, vals) in enumerate(self.rows):
            np.add.at(dense[:, k], idx, vals)
        return dense

    def apply(self, y, p):
        """Exact product of the bordered matrix built from the band."""
        core = self.band.matvec(y) + self.columns @ p
        return core, self._row_dot(y)

    def apply_transpose(self, y, p):
        """Exact product of the transposed bordered matrix."""
        core = self.band.rmatvec(y) + self._rows_dense() @ p
        return core, self.columns.T @ y

    # -- solves ---------------------------------------------------------------

    def _solve(self, rhs_core, rhs_border, matvec, refine, transpose):
        """Solve the bordered system, or its transpose (see the class)."""
        # Not cached: a bound method stored on self would make a reference
        # cycle, keeping the band and its factor alive until a cyclic GC.
        rows = (lambda y: self.columns.T @ y) if transpose else self._row_dot
        if transpose not in self._schur:
            cols = self._rows_dense() if transpose else self.columns
            # One dgbtrs call for both columns; C order, as the column
            # stack it replaces, keeps the rounding of ``xb @ p``.
            xb = np.ascontiguousarray(self._core_solve(cols, transpose))
            schur = -np.column_stack([rows(x) for x in xb.T])
            if not np.all(np.isfinite(schur)):
                raise SingularBandError(
                    "bordered reduction produced a non-finite Schur complement"
                )
            self._schur[transpose] = (xb, schur)
        xb, schur = self._schur[transpose]

        def direct(rc, rb):
            ycore = self._core_solve(rc, transpose)
            p = np.linalg.solve(schur, rb - rows(ycore))
            return ycore - xb @ p, p

        y, p = direct(rhs_core, rhs_border)
        for _ in range(refine):
            ac, ab_ = matvec(y, p)
            dy, dp = direct(rhs_core - ac, rhs_border - ab_)
            y = y + dy
            p = p + dp
        return y, p

    def solve(self, rhs_core, rhs_border, matvec=None, refine=2):
        """Solve the bordered system.

        Parameters
        ----------
        rhs_core, rhs_border : arrays
            Right-hand side, core part and 2-vector.
        matvec : callable ``(y, p) -> (core, border)``, optional
            Exact application of the full system used for iterative
            refinement; defaults to the band-based `apply` (use the
            pseudo-spectral operator for the Newton systems -- the band is
            its exact matrix, but refinement through the singular core
            needs the cleanest residuals available).
        refine : int
            Refinement rounds.

        Returns
        -------
        (y, p) : solution core part and 2-vector.
        """
        return self._solve(rhs_core, rhs_border, self._matvec(matvec, False),
                           refine, False)

    def solve_transpose(self, rhs_core, rhs_border, matvec=None, refine=2):
        """Solve the transposed system; ``matvec`` defaults to
        `apply_transpose`, otherwise as `solve`."""
        return self._solve(rhs_core, rhs_border, self._matvec(matvec, True),
                           refine, True)

    def _matvec(self, matvec, transpose):
        if matvec is not None:
            return matvec
        if self._rotation is not None:
            raise ValueError("a rotated system refines against an exact matvec")
        return self.apply_transpose if transpose else self.apply
