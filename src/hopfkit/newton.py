"""Banded linear algebra for space-time Newton systems.

The unknown of the periodic problems is a trajectory: per spatial point,
two fields, each with ``R = 2*n_t + 1`` real Fourier unknowns
(``a_0, Re a_1, Im a_1, ..., Re a_nt, Im a_nt``).  `TrajectoryLayout`
flattens trajectories point-major -- all unknowns of one grid point stay
contiguous -- so every operator with finite spatial stencil becomes a
*banded* real matrix: time differentiation and multiplication by a
time-periodic coefficient act within a point's block, the spatial operator
couples neighbouring blocks.

`assemble_jacobian_band` builds the band for ``v -> v_t - (sigma+1)(A v +
h_u(lam, u) v)`` exactly (including the collocation aliasing of the
pseudo-spectral product, so Newton gets the true derivative of the
discrete residual), probing the nonlinearity with one constant-in-time
unit comb per field and stencil colour.  Its ``kl``/``ku`` are the reach
of the couplings actually present, not the stencil's worst case.
`BandedMatrix` keeps LAPACK band storage C-ordered, one contiguous row per
diagonal; `dgbtrf` copies it once into its Fortran-ordered factor, so a
factorized band holds two band-sized arrays.

`BorderedSystem` solves the band plus two extra columns (parameter
derivatives) and two extra rows (the phase functionals) by a Schur
complement on the 2x2 corner, with optional matrix-free iterative
refinement -- needed because the core band is *exactly singular* at a
solved branch point (time translation) while the bordered system is not.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg.lapack as lapack

from .problem import stencil_probes
from .trajectory import PeriodicTrajectory

__all__ = [
    "TrajectoryLayout",
    "coupling_blocks",
    "assemble_jacobian_band",
    "BandedMatrix",
    "BorderedSystem",
    "SingularBandError",
]


class SingularBandError(RuntimeError):
    """The banded factorization failed even after diagonal jitter."""


class TrajectoryLayout:
    """Index map between trajectory coefficients and a flat real vector.

    Flat index of (grid point ``j``, field ``f``, real part ``r``) is
    ``j * block + f * R + r`` with ``R = 2*n_t + 1`` and
    ``block = 2 * R``.
    """

    def __init__(self, n_t, nx, dx):
        self.n_t = int(n_t)
        self.nx = int(nx)
        self.dx = float(dx)
        self.r_per_field = 2 * self.n_t + 1
        self.block = 2 * self.r_per_field
        self.size = self.nx * self.block

    def flatten(self, coeffs):
        """Coefficients ``(n_t+1, 2*nx)`` (complex) to the flat real vector."""
        coeffs = np.asarray(coeffs)
        n_t, nx, r = self.n_t, self.nx, self.r_per_field
        out = np.empty((nx, 2, r))
        # per field f: columns of coeffs are [f*nx : (f+1)*nx]
        for f in range(2):
            cols = coeffs[:, f * nx : (f + 1) * nx]
            out[:, f, 0] = cols[0].real
            if n_t >= 1:
                out[:, f, 1::2] = cols[1:].real.T
                out[:, f, 2::2] = cols[1:].imag.T
        return out.reshape(self.size)

    def unflatten(self, y):
        """Inverse of `flatten`."""
        n_t, nx, r = self.n_t, self.nx, self.r_per_field
        arr = np.asarray(y).reshape(nx, 2, r)
        coeffs = np.zeros((n_t + 1, 2 * nx), dtype=complex)
        for f in range(2):
            coeffs[0, f * nx : (f + 1) * nx] = arr[:, f, 0]
            if n_t >= 1:
                coeffs[1:, f * nx : (f + 1) * nx] = (
                    arr[:, f, 1::2] + 1j * arr[:, f, 2::2]
                ).T
        return coeffs

    def flatten_trajectory(self, traj):
        return self.flatten(traj.coeffs)

    def to_trajectory(self, y):
        return PeriodicTrajectory(self.unflatten(y), self.dx)

    def functional_rows(self, weight):
        """The two phase-functional rows as (indices, values) pairs.

        ``l1 u = 2 * sum_c w_c * Re u_hat(1)_c * dx`` and
        ``l2 u = -2 * sum_c w_c * Im u_hat(1)_c * dx``; both touch only the
        first-harmonic slots.
        """
        if self.n_t < 1:
            raise ValueError("layout has no first harmonic")
        nx, r, block = self.nx, self.r_per_field, self.block
        w = np.asarray(weight, dtype=float)
        if w.size != 2 * nx:
            raise ValueError("weight length does not match the grid")
        points = np.arange(nx)
        idx_re = np.concatenate([points * block + f * r + 1 for f in range(2)])
        idx_im = idx_re + 1
        vals = np.concatenate([w[f * nx : (f + 1) * nx] for f in range(2)])
        vals = 2.0 * vals * self.dx
        return (idx_re, vals), (idx_im, -vals)


def coupling_blocks(samples, n_t):
    """Mode-coupling blocks of multiplication by sampled functions.

    Parameters
    ----------
    samples : array, shape (M, batch)
        Collocation samples (``M = 2*n_t + 2``) of one real coefficient
        function per batch column.
    n_t : int
        Temporal truncation.

    Returns
    -------
    array, shape (batch, R, R)
        Real matrices acting on the per-component mode-part vector; exact
        for the pseudo-spectral (sampled) product including its aliasing.
    """
    samples = np.asarray(samples, dtype=float)
    m_samp = samples.shape[0]
    if m_samp != 2 * n_t + 2:
        raise ValueError("expected 2*n_t + 2 collocation samples")
    spec = (np.fft.fft(samples, axis=0) / m_samp).T  # (batch, M)
    # Output mode n takes spec[n-m] c_m + spec[n+m] conj(c_m) from mode m.
    # Both index patterns are strided views: Toeplitz through a wrapped
    # copy of the spectrum, Hankel directly (n + m < M never wraps).
    window = np.lib.stride_tricks.sliding_window_view
    wrapped = np.concatenate([spec[:, m_samp - n_t:], spec[:, : n_t + 1]], axis=1)
    toe = window(wrapped, n_t + 1, axis=1)[:, :, ::-1]  # spec[n - m]
    hank = window(spec, n_t + 1, axis=1)[:, : n_t + 1]  # spec[n + m]
    p_t, q_t, p_h, q_h = toe.real, toe.imag, hank.real, hank.imag
    # Slot 0 is Re c_0; slots 2n-1 and 2n are Re c_n and Im c_n.
    r = 2 * n_t + 1
    out = np.empty((spec.shape[0], r, r))
    out[:, 0, 0] = spec[:, 0].real
    out[:, 1::2, 0] = spec[:, 1 : n_t + 1].real
    out[:, 2::2, 0] = spec[:, 1 : n_t + 1].imag
    np.add(p_t[:, 0, 1:], p_h[:, 0, 1:], out=out[:, 0, 1::2])
    np.subtract(q_h[:, 0, 1:], q_t[:, 0, 1:], out=out[:, 0, 2::2])
    np.add(p_t[:, 1:, 1:], p_h[:, 1:, 1:], out=out[:, 1::2, 1::2])
    np.add(q_t[:, 1:, 1:], q_h[:, 1:, 1:], out=out[:, 2::2, 1::2])
    np.subtract(q_h[:, 1:, 1:], q_t[:, 1:, 1:], out=out[:, 1::2, 2::2])
    np.subtract(p_t[:, 1:, 1:], p_h[:, 1:, 1:], out=out[:, 2::2, 2::2])
    return out


class BandedMatrix:
    """A real banded matrix in LAPACK general-band storage.

    ``ab[kl + ku + i - j, j]`` holds entry ``(i, j)`` for ``-ku <= i - j <=
    kl``; rows ``0 .. kl - 1`` of ``ab`` are fill-in workspace for
    `dgbtrf`.  ``ab`` is C-ordered, so every diagonal is one contiguous
    row: the products walk diagonals with slices, and the workspace rows
    stay untouched zero pages.  Factorizing copies ``ab`` once, into
    LAPACK's Fortran-ordered factor, so a factorized band holds two
    band-sized arrays.
    """

    def __init__(self, size, kl, ku):
        self.size = size
        self.kl = kl
        self.ku = ku
        self.ab = np.zeros((2 * kl + ku + 1, size))

    def add_at(self, row_offset, cols, values):
        """Add ``values`` at entries ``(cols + row_offset, cols)``."""
        self.ab[self.kl + self.ku + row_offset, cols] += values

    def _diagonals(self):
        """Yield ``(row, lo, hi, d)``: diagonal ``i - j = d`` holds
        ``row[lo:hi]`` in columns ``lo .. hi - 1``."""
        n = self.size
        for d in range(max(-self.ku, 1 - n), min(self.kl, n - 1) + 1):
            yield self.ab[self.kl + self.ku + d], max(0, -d), n - max(0, d), d

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

    The band is only as wide as the couplings it holds: ``kl`` and ``ku``
    are the largest ``i - j`` and ``j - i`` over the time-derivative pair
    (+-1), the mode-diagonal offsets of ``A`` and the nonzero entries of
    the probed ``h_u`` coupling blocks.  The coupling blocks are computed
    before the band is allocated.  A coupling family (stencil offset, row
    field and column field of one probe) is then written one block
    diagonal at a time, each a single vectorised assignment into one band
    row.
    """
    lam, sigma = params
    factor = -(sigma + 1.0)
    n_t, nx, r, block = layout.n_t, layout.nx, layout.r_per_field, layout.block
    if u.n_t != n_t or u.nx != nx:
        raise ValueError("trajectory does not match the layout")
    extremes = [-1, 1] if n_t else []  # reach i - j of every coupling kind

    # Linear operator A: mode-diagonal, entry A[c, c'] couples the same
    # mode part of components c and c'.
    acoo = problem.A.tocoo()
    acoo.sum_duplicates()
    acoo.eliminate_zeros()
    fr, jr = np.divmod(acoo.row, nx)
    fc, jc = np.divmod(acoo.col, nx)
    if acoo.nnz:
        if np.abs(jr - jc).max() > max(1, problem.h_stencil):
            raise ValueError(
                "spatial stencil of A exceeds the bandwidth implied by h_stencil"
            )
        a_offsets = (jr - jc) * block + (fr - fc) * r
        extremes += [a_offsets.min(), a_offsets.max()]

    # Nonlinear coupling: probe h_u with constant-in-time unit combs; the
    # response samples at each output component are the time-samples of
    # the coefficient function tying it to the probed column.
    u_samples = u.sample_values()
    positions = np.arange(nx)
    in_block = np.subtract.outer(np.arange(r), np.arange(r))  # rr - cc
    families = []  # (block-pair offset, first column, owners, blocks, diagonals)
    probes = stencil_probes(problem, lambda comb: problem.apply_h_u(
        lam, u_samples, np.broadcast_to(comb, (u.n_samples, 2 * nx))))
    for f_col, owner, valid, resp in probes:
        for o in range(-problem.h_stencil, problem.h_stencil + 1):
            pts = positions[valid & (positions - owner == o)]
            for f_row in range(2):
                samples = resp[:, f_row * nx + pts]
                live = np.any(samples, axis=0)  # points h_u couples at all
                blocks = coupling_blocks(samples[:, live], n_t) * factor
                nonzero = in_block[np.any(blocks, axis=0)]
                if nonzero.size:
                    base = o * block + (f_row - f_col) * r
                    extremes += [base + nonzero.min(), base + nonzero.max()]
                    diagonals = range(nonzero.min(), nonzero.max() + 1)
                    families.append(
                        (base, f_col * r, pts[live] - o, blocks, diagonals))

    kl = int(max([0, *extremes]))
    ku = -int(min([0, *extremes]))
    band = BandedMatrix(layout.size, kl, ku)
    ab, diag = band.ab, kl + ku
    if n_t:
        # Per component, d/dt (x + iy) e^{int} = (-n y + i n x) e^{int}.
        modes = np.arange(1.0, n_t + 1)
        ab[diag + 1].reshape(2 * nx, r)[:, 1::2] = modes  # row Im_n, col Re_n
        ab[diag - 1].reshape(2 * nx, r)[:, 2::2] = -modes  # row Re_n, col Im_n
    if acoo.nnz:
        a_cols = (jc * block + fc * r)[:, None] + np.arange(r)
        ab[diag + a_offsets[:, None], a_cols] += (factor * acoo.data)[:, None]
    # Block diagonal d = rr - cc of every owner lies in one band row, at
    # columns owner * block + first + cc.
    by_point = ab.reshape(-1, nx, block)
    for base, first, owners, blocks, diagonals in families:
        for d in diagonals:
            lo, hi = first + max(0, -d), first + r - max(0, d)
            by_point[diag + base + d, owners, lo:hi] += np.diagonal(blocks, -d, 1, 2)
    return band


class BorderedSystem:
    """A banded core with two extra columns, rows, and a 2x2 corner.

        [ J    C ] [ y ]   [ r_core   ]
        [ B^T  D ] [ p ] = [ r_border ]

    ``J`` is the banded core, ``C`` the (size, 2) parameter columns,
    ``B`` the two functional rows, ``D`` the 2x2 corner.  Solved by LU of
    the band plus a Schur complement on the corner.  The core may be
    numerically singular (time-translation symmetry at a converged branch
    point); the bordered system is still regular, and `solve` repairs the
    lost accuracy with matrix-free refinement when an exact ``matvec`` of
    the full system is supplied.

    `solve` and `solve_transpose` share one band factorization and one
    routine: the transposed system is bordered the same way with the roles
    swapped (``B`` as columns, ``C`` as rows, ``D^T`` as corner), and
    ``dgbtrs`` solves with ``J^T`` through its ``trans`` flag.  The border
    solves and the Schur complement are cached per orientation.
    """

    def __init__(self, band, columns, rows, corner=None):
        self.band = band
        self.columns = np.asarray(columns, dtype=float)
        if self.columns.shape != (band.size, 2):
            raise ValueError("expected two border columns of core size")
        self.rows = rows  # pair of (indices, values)
        self.corner = np.zeros((2, 2)) if corner is None else np.asarray(corner)
        self._factor = None
        self._schur = {}  # transpose -> (border solves, Schur complement)

    # -- low-level pieces ---------------------------------------------------

    def _factorize(self):
        band = self.band
        kl, ku = band.kl, band.ku
        # dgbtrf copies the C-ordered band into its Fortran-ordered factor;
        # band.ab itself stays intact for products and refinement.
        lub, ipiv, info = lapack.dgbtrf(band.ab, kl, ku)
        if info < 0:
            raise SingularBandError(f"dgbtrf: illegal argument {-info}")
        if info > 0:
            # Exactly singular pivot: retry with a tiny diagonal jitter, in
            # the failed factor's storage; refinement against the exact
            # operator absorbs the perturbation.
            scale = np.abs(band.ab[kl + ku]).max() or 1.0
            lub[...] = band.ab
            lub[kl + ku] += 1e-13 * scale
            lub, ipiv, info = lapack.dgbtrf(lub, kl, ku, overwrite_ab=1)
            if info != 0:
                raise SingularBandError(
                    f"banded core is singular even with jitter (info={info})"
                )
        self._factor = (lub, ipiv)

    def _core_solve(self, b, transpose):
        lub, ipiv = self._factor
        x, info = lapack.dgbtrs(
            lub, self.band.kl, self.band.ku, b, ipiv, trans=1 if transpose else 0
        )
        if info != 0:
            raise SingularBandError(f"dgbtrs failed with info={info}")
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
        border = self._row_dot(y) + self.corner @ p
        return core, border

    def apply_transpose(self, y, p):
        """Exact product of the transposed bordered matrix."""
        core = self.band.rmatvec(y) + self._rows_dense() @ p
        border = self.columns.T @ y + self.corner.T @ p
        return core, border

    # -- solves ---------------------------------------------------------------

    def _solve(self, rhs_core, rhs_border, matvec, refine, transpose):
        """Solve the bordered system, or its transpose (see the class)."""
        if self._factor is None:
            self._factorize()
        # Not cached: a bound method stored on self would make a reference
        # cycle, keeping the band and its factor alive until a cyclic GC.
        rows = (lambda y: self.columns.T @ y) if transpose else self._row_dot
        if transpose not in self._schur:
            cols = self._rows_dense() if transpose else self.columns
            corner = self.corner.T if transpose else self.corner
            xb = np.column_stack([self._core_solve(c, transpose) for c in cols.T])
            schur = corner - np.column_stack([rows(x) for x in xb.T])
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
        matvec = matvec or self.apply
        return self._solve(rhs_core, rhs_border, matvec, refine, False)

    def solve_transpose(self, rhs_core, rhs_border, matvec=None, refine=2):
        """Solve the transposed system; ``matvec`` defaults to
        `apply_transpose`, otherwise as `solve`."""
        matvec = matvec or self.apply_transpose
        return self._solve(rhs_core, rhs_border, matvec, refine, True)
