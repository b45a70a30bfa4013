"""Sparse block-structured density matrix for a register of ququarts.

Loss states are populated only by loss channels (never coherently), so per
site only six entries of the 4x4 single-site block structure can be nonzero:
the full 2x2 computational coherence block plus the two loss-state diagonal
entries.  As rho is hermitian, six real coordinates per site hold them, the
four populations first, in site-basis order:

    0: rho_00  1: rho_11  2: rho_l0l0  3: rho_l1l1  4: Re rho_01  5: Im rho_10

An n-site state stores 6^n float64 numbers instead of 16^n complex ones, as
a (6,)*n tensor, and so cannot hold a non-hermitian rho.  A channel acts as
its op, a read-only float64 matrix on these coordinates (6x6 on a site,
36x36 on a pair).  ``kraus_matrix`` converts a Kraus channel into its op
and checks that it keeps the block pattern and keeps rho hermitian;
``gatemodel`` converts each noise channel only at a few fixed rates and
builds every op from those checked constants, and ``fuse`` multiplies ops.
Each application is one pass over the state and ends with one trace check.
An op may be a product of several gates' ops: the runner folds each site's
1-site ops into the pair ops on that site, so one checked pass can carry
many gates, and starts a site that has no pair op, a 1-site state, in the
product of its ops applied to |0> (``set_site``).
A state owns two buffers of this shape: every pass writes the spare one and
the two swap, and between passes the spare is the check's scratch, so no
pass allocates anything state-sized.

The buffer keeps its own site order, ``axes`` (buffer axis p holds site
axes[p]).  A pair op on neighbouring axes multiplies them where they are;
otherwise one copy into the spare first moves one of the two axes next to
the other, and the new order is kept, never moved back.  Only the kernel
sees this order: ``blocks`` and ``diagonal()`` are in natural site order,
and the readout maps bit positions through ``axes``.  The diagonal of rho is
the first four symbols of every axis under any order, so the trace check and
the readout read it as one slice of the buffer.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .channels import KrausSet, SITE_DIM
from .errors import CapacityError, PatternLeakError, ValidationError

N_SYMBOLS = 6
# (row, col) of each stored symbol in the 4x4 single-site block.
# The diagonal comes first, in site-basis order |0>,|1>,|l0>,|l1>.
SYMBOL_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 0))
_ROWS = np.array([p[0] for p in SYMBOL_PAIRS])
_COLS = np.array([p[1] for p in SYMBOL_PAIRS])
# The symbols of the qubit (row, col) pairs 00, 01, 10, 11.
QUBIT_SYMBOLS = (0, 4, 5, 1)
# One site's coordinates from its symbols (x = BASIS @ s) and back, both
# written out: a first np.linalg.inv call adds about 0.9 MB of resident code.
BASIS = np.eye(N_SYMBOLS, dtype=complex)
BASIS[4:, 4:] = [[0.5, 0.5], [0.5j, -0.5j]]
BASIS_INV = np.eye(N_SYMBOLS, dtype=complex)
BASIS_INV[4:, 4:] = [[1.0, -1j], [1.0, 1j]]
# Readout reduction of one site's symbols onto its qubit (row, col) pairs
# 00, 01, 10, 11: loss populations fold onto the diagonal (l0 -> 0, l1 -> 1).
QUBIT_FOLD = np.zeros((4, N_SYMBOLS))
QUBIT_FOLD[(0, 3, 0, 3, 1, 2), range(N_SYMBOLS)] = 1.0


def _pattern(k: int) -> tuple:
    """The pattern of the 4^k x 4^k matrix of k sites: the stored symbols'
    rows and columns in symbol-tensor order, and the mask of the (row, col)
    entries outside the pattern."""
    rows, cols = _ROWS, _COLS
    for _ in range(k - 1):
        rows = (SITE_DIM * rows[:, None] + _ROWS[None, :]).ravel()
        cols = (SITE_DIM * cols[:, None] + _COLS[None, :]).ravel()
    outside = np.ones((SITE_DIM**k,) * 2, dtype=bool)
    outside[rows, cols] = False
    return rows, cols, outside


_PATTERN = {k: _pattern(k) for k in (1, 2)}


def pair_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 6x6 site matrices, a on the pair's first site: the
    same products, without np.kron's per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        N_SYMBOLS**2, N_SYMBOLS**2)


# (basis, inverse) of a site or a pair, by matrix size, built once
_BASES = {N_SYMBOLS: (BASIS, BASIS_INV), N_SYMBOLS**2: (
    pair_kron(BASIS, BASIS), pair_kron(BASIS_INV, BASIS_INV))}

TRACE_ATOL = 1e-10
HERM_ATOL = 1e-12
LEAK_ATOL = 1e-12

DEFAULT_MEMORY_CAP = 8 << 30  # bytes; 8 GiB admits up to 11 sites

def footprint(n_sites: int) -> int:
    """Bytes a state of n sites holds: two 6^n float64 buffers."""
    return 2 * 8 * N_SYMBOLS**n_sites


def kraus_matrix(channel: KrausSet) -> np.ndarray:
    """The op of a Kraus channel: 6x6 on one site, or 36x36 on a site pair,
    whose pair coordinate is 6*x_a + x_b.

    p[r, c, y] = sum_A A[r, R_y] conj(A[c, C_y]) is where the channel sends
    symbol y = (R_y, C_y), one broadcast product per operator.  Its entries
    at the stored symbols form the matrix; any entry outside the pattern is
    leakage, rejected here, and ``symbol_matrix`` rejects a map that does
    not keep rho hermitian.  Products of such maps keep both, so applying
    an op needs neither check.
    """
    rows, cols, outside = _PATTERN[channel.n_sites]
    p = 0
    for a in channel.operators:
        p = p + a[:, None, rows] * a[None, :, cols].conj()
    leak = float(np.max(np.abs(p[outside])))
    if leak > LEAK_ATOL:
        raise PatternLeakError(f"{channel.label}: pattern leakage {leak}")
    return symbol_matrix(p[rows, cols], channel.label)


def symbol_matrix(m: np.ndarray, label: str) -> np.ndarray:
    """The read-only op of the map whose matrix on the complex symbols is
    m: T m T^-1, T the Kronecker power of BASIS, which is real iff the map
    keeps rho hermitian.  An imaginary part above HERM_ATOL is rejected."""
    t, t_inv = _BASES[m.shape[0]]
    m = t @ m @ t_inv
    imag = float(np.max(np.abs(m.imag)))
    if imag > HERM_ATOL:
        raise PatternLeakError(
            f"{label}: imaginary part {imag} on the real coordinates; "
            f"the map does not keep rho hermitian")
    m = m.real.copy()
    m.flags.writeable = False
    return m


def fuse(ops) -> np.ndarray:
    """The read-only op of ops applied in the order given.

    The op is as wide as the widest: in a pair op, a one-site op acts on
    both sites, so a run of one-site ops is multiplied at 6x6 and lifted
    to the pair once.  Being read-only, one op can be cached and shared.
    """
    width = max(len(op) for op in ops)
    m = None
    for narrow, run in itertools.groupby(ops, lambda op: len(op) < width):
        step = functools.reduce(lambda acc, op: op @ acc, run)
        if narrow:
            step = pair_kron(step, step)
        m = step if m is None else step @ m
    m.flags.writeable = False
    return m


def _check_shape(op: np.ndarray, n_sites: int):
    width = N_SYMBOLS**n_sites
    if op.shape != (width, width) or op.dtype != np.float64:
        raise ValidationError(f"a {op.shape} {op.dtype} op on {n_sites} "
                              f"site(s), want ({width}, {width}) float64")


class QuquartState:
    """Mutable n-ququart density matrix in the 6^n sparse block form."""

    def __init__(self, n_sites: int, memory_cap: int = DEFAULT_MEMORY_CAP):
        if n_sites < 1:
            raise CapacityError(f"need at least one site, got {n_sites}")
        nbytes = footprint(n_sites)
        if nbytes > memory_cap:
            raise CapacityError(
                f"{n_sites} sites need {nbytes} bytes (two buffers of 6^n "
                f"float64 coordinates), cap is {memory_cap}"
            )
        self.n_sites = n_sites
        self._buf = np.zeros((N_SYMBOLS,) * n_sites)
        self._buf[(0,) * n_sites] = 1.0  # |0...0><0...0|
        self._spare = np.empty_like(self._buf)
        self._axes = list(range(n_sites))

    # -- views in natural site order -----------------------------------------

    @property
    def axes(self) -> tuple:
        """The site held by each axis of the buffer, in buffer order."""
        return tuple(self._axes)

    def _positions(self) -> list:
        """The buffer axis of each site, site 0 first."""
        return [self._axes.index(s) for s in range(self.n_sites)]

    @property
    def blocks(self) -> np.ndarray:
        """The (6,)*n coordinates in natural site order: a view of the
        buffer, axis s holding site s."""
        return self._buf.transpose(self._positions())

    @blocks.setter
    def blocks(self, value: np.ndarray):
        if np.shape(value) != self._buf.shape:
            raise ValidationError(f"coordinates of shape {np.shape(value)} "
                                  f"for {self.n_sites} sites")
        self._axes = list(range(self.n_sites))
        np.copyto(self._buf, value)

    # -- bookkeeping -------------------------------------------------------

    def trace(self) -> float:
        # the populations, a strided view; summing it would allocate a
        # buffer that grows with n, a copy into the spare allocates nothing
        pops = self._buf[(slice(SITE_DIM),) * self.n_sites]
        d = self._spare.reshape(-1)[:pops.size].reshape(pops.shape)
        np.copyto(d, pops)
        return float(d.sum())

    def _check_invariants(self):
        tr = self.trace()
        if not abs(tr - 1.0) <= TRACE_ATOL:  # also rejects NaN
            raise PatternLeakError(f"trace drifted to {tr}")

    def _check_sites(self, sites):
        if len(set(sites)) != len(sites):
            raise ValidationError(f"site collision: {sites}")
        for s in sites:
            if not 0 <= s < self.n_sites:
                raise ValidationError(f"site {s} out of range for {self.n_sites} sites")

    # -- evolution ---------------------------------------------------------

    def _apply(self, matrix: np.ndarray, sites: tuple):
        """One pass over the state: blocks <- matrix acting on `sites`.

        The matrix multiplies its axes where they are, writing the spare
        buffer, and the buffers swap.  A pair on axes that are not
        neighbours first moves the later axis to just behind the earlier one
        by one copy into the spare, and keeps that order: of the four ways
        to move one axis, this was the fastest on the benchmark's circuits
        (BENCH_pair_axes.json), and the pair lands off the last two axes,
        where matmul is slowest.
        """
        b, out, axes = self._buf, self._spare, self._axes
        p = axes.index(sites[0])
        width = N_SYMBOLS
        if len(sites) == 2:
            q = axes.index(sites[1])
            if abs(p - q) > 1:
                perm = list(range(self.n_sites))
                perm.insert(min(p, q) + 1, perm.pop(max(p, q)))
                np.copyto(out, b.transpose(perm))
                self._axes = axes = [axes[k] for k in perm]
                b, out = out, b
                p, q = axes.index(sites[0]), axes.index(sites[1])
            if p > q:
                # the pair's coordinate is 6*x_first + x_second
                matrix = matrix.reshape((N_SYMBOLS,) * 4).transpose(
                    1, 0, 3, 2).reshape(N_SYMBOLS**2, N_SYMBOLS**2)
                p = q
            width *= N_SYMBOLS
        lead = N_SYMBOLS**p
        trail = b.size // (lead * width)
        if trail == 1:
            np.matmul(b.reshape(lead, width), matrix.T,
                      out=out.reshape(lead, width))
        else:
            np.matmul(matrix, b.reshape(lead, width, trail),
                      out=out.reshape(lead, width, trail))
        self._buf, self._spare = out, b

    def apply_channel(self, sites, op: np.ndarray):
        """In-place rho -> op(rho) on one or two sites, then one check."""
        sites = tuple(sites)
        self._check_sites(sites)
        _check_shape(op, len(sites))
        self._apply(op, sites)
        self._check_invariants()
        return self

    def apply_global_unitary(self, op: np.ndarray):
        """In-place application of one 1-site op on every site, then one check.

        Runs each global pulse (its unitary and, fused with it, its noise),
        register-wide decoherence and preparation.
        """
        _check_shape(op, 1)
        for s in range(self.n_sites):
            self._apply(op, (s,))
        self._check_invariants()
        return self

    def set_site(self, vector):
        """rho <- a 1-site state's 6-vector of coordinates, then one check."""
        if self.n_sites != 1:
            raise ValidationError(f"one site vector for {self.n_sites} sites")
        np.copyto(self._buf, vector)
        self._check_invariants()
        return self

    # -- readout -----------------------------------------------------------

    def diagonal(self) -> np.ndarray:
        """Diagonal of rho as a (4,)*n real tensor in site-basis order: a
        copy of the populations (after the next pass this buffer is the
        spare), whose ``.transpose(axes)`` gives buffer order back."""
        return self._buf[(slice(SITE_DIM),) * self.n_sites].copy().transpose(
            self._positions())
