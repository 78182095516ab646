"""Hot-loop kernels for the selective state-space scan (numpy).

Shapes (C-contiguous float32 or float64):
    u, delta : [B, L, E]      inputs and per-step timescales
    a        : [E, N]         diagonal state matrix (negative entries)
    bm, cm   : [B, L, N]      input-dependent state-in / state-out maps
    y        : [B, L, E]      scan output
    states   : [B, K, N, E]   checkpoints for backward, K = ceil(L / C)
                              with C = _CHUNK_STEPS:
                              states[:, k] is the state entering steps
                              k*C .. k*C + C - 1, zero for k = 0 (state
                              index before channel: the per-step
                              broadcasts then run along the contiguous E)

The recurrence per (b, e, n), with the zero-order-hold coefficient
c = expm1(delta * a) / a (limit delta as a -> 0) and abar = 1 + a * c,
which is exp(delta * a):
    h_t = abar * h_{t-1} + c * bm * u
    y_t = sum_n cm * h_t

The backward needs only h_t and c.  Substituting abar * h_{t-1} =
h_t - c*bm*u into the derivatives of the step gives
    dh_t/ddelta = a * h_t + bm * u
    dh_t/da     = delta * h_t + bm * u * (delta - c) / a
with (delta - c) / a -> -delta**2 / 2 as a -> 0.  The 1/a of the second
identity is applied once per call, to the sum over steps.

Keeping every h_t would cost [B, L, N, E], N times the input.  So the
forward keeps one state per chunk of C steps, and the backward walks the
chunks last to first, rebuilding each chunk's h_t and c from its
checkpoint with the forward's own operations in the forward's order: the
rebuilt states are bitwise the ones the forward produced (the recompute
of Gu & Dao's hardware-aware scan, arXiv:2312.00752).

Rows are independent, so the batch is cut into blocks of rows (see
_row_blocks) and the blocks run on a pool of _WORKERS threads, one per
CPU this process may use; numpy releases the GIL inside each ufunc.  The
unit of work is a whole row block, never fewer rows or a share of the
channels: at score-long's shape (B 4, L 2048, one block), splitting the
channels over 2 threads took 473 ms against 206 ms inline.  Each block
writes its own rows of every output; the one sum across rows, da, is
formed per block and the blocks' parts are added in block order, so the
results do not depend on the worker count or on scheduling.

The pool runs two kinds of work through map_rows: the scan's row blocks,
and the row groups of model.MlsaModel.score, each a whole no-grad
forward.  A map with one item, or one worker, runs inline, and so does a
map called from a pool thread: a score group's own scan runs its blocks
on the thread that runs the group, so no pool thread ever waits on the
pool.  The pool's threads start at the first map that uses them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_SMALL_A = 1e-8
_BLOCK_BYTES = 1 << 18
# Steps per saved state.  Saved states shrink as 1/C while the backward's
# two [C, rows, N, E] recompute buffers grow as C.  On a train-desk step
# (B 128, L 17, N 32, E 128), C = 8 peaked 11 MB below C = 4 at the same
# scan time; C = 16 saved 2 MB more but ran the scan about 3 % slower.
_CHUNK_STEPS = 8
# Threads that run row blocks and score groups: the CPUs this process may
# run on.
_WORKERS = len(os.sched_getaffinity(0))
# Starts no thread until its first map; map_rows knows its threads by name.
_POOL_NAME = "mlsa4rec-pool"
_pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix=_POOL_NAME)


def get_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"


class _Poles:
    """a transposed to [N, E], with the |a| < _SMALL_A entries found once."""

    def __init__(self, a):
        self.at = np.ascontiguousarray(a.T)
        self.small = np.abs(self.at) < _SMALL_A
        self.any_small = bool(self.small.any())
        self.safe = np.where(self.small, 1, self.at)

    def coef(self, dt, out):
        """out = expm1(dt * a) / a, or dt where |a| is small; dt is [B,1,E]."""
        np.multiply(dt, self.at, out=out)
        np.expm1(out, out=out)
        out /= self.safe
        if self.any_small:
            np.copyto(out, dt, where=self.small)
        return out


def _row_blocks(B, N, E, dtype):
    """Slices of the batch axis that the scan runs as separate blocks.

    Rows are independent, so the scan runs block by block with [rows,N,E]
    buffers of about 256 KiB: the four or five a step touches then stay
    in a core's L2 cache instead of streaming from memory at every step.
    """
    rows = max(1, _BLOCK_BYTES // (N * E * np.dtype(dtype).itemsize))
    return [slice(b, b + rows) for b in range(0, B, rows)]


def map_rows(fn, groups):
    """[fn(g) for g in groups], run on the pool when there are several
    groups, more than one worker and the caller is not a pool thread;
    results come back in group order."""
    if (len(groups) == 1 or _WORKERS == 1
            or threading.current_thread().name.startswith(_POOL_NAME)):
        return [fn(g) for g in groups]
    return list(_pool.map(fn, groups))


def scan_forward(u, delta, a, bm, cm, save_states: bool):
    """Run the scan; returns (y, states), states None unless save_states,
    else the [B, ceil(L/C), N, E] checkpoints that scan_backward reads."""
    B, L, E = u.shape
    N = a.shape[1]
    poles = _Poles(a)
    y = np.empty((B, L, E), dtype=u.dtype)
    states = (np.empty((B, -(-L // _CHUNK_STEPS), N, E), dtype=u.dtype)
              if save_states else None)
    map_rows(lambda r: _forward_rows(
        poles, u[r], delta[r], bm[r], cm[r], y[r],
        None if states is None else states[r]),
        _row_blocks(B, N, E, u.dtype))
    return y, states


def _step(poles, dt, bt, ut, h, h_next, c, abar, inp):
    """One step, h_next = abar * h + c * bm * u.  c keeps the coefficient
    unless inp is c; h_next may be h.  dt and ut are [B,1,E], bt [B,N,1].
    The forward and the backward's recompute both run this, so their
    states agree bitwise."""
    poles.coef(dt, c)
    np.multiply(poles.at, c, out=abar)
    abar += 1.0
    np.multiply(c, bt, out=inp)
    inp *= ut
    np.multiply(h, abar, out=h_next)
    h_next += inp


def _forward_rows(poles, u, delta, bm, cm, y, states):
    # Per-step work runs in place on buffers allocated once: fresh
    # temporaries cost more than the arithmetic itself.  A checkpoint is
    # copied out as each chunk begins.
    B, L = u.shape[:2]
    h = np.zeros((B,) + poles.at.shape, dtype=u.dtype)
    c, abar = np.empty_like(h), np.empty_like(h)
    for t in range(L):
        if states is not None and t % _CHUNK_STEPS == 0:
            states[:, t // _CHUNK_STEPS] = h
        _step(poles, delta[:, t, None, :], bm[:, t, :, None],
              u[:, t, None, :], h, h, c, abar, c)
        np.matmul(cm[:, t, None, :], h, out=y[:, t, None, :])


def scan_backward(u, delta, a, bm, cm, states, gy):
    """Gradients (du, ddelta, da, dbm, dcm) of sum(y * gy) from the
    checkpoints of scan_forward; each chunk's states are rebuilt here."""
    B, L, E = u.shape
    N = a.shape[1]
    poles = _Poles(a)
    du = np.empty_like(u)
    ddelta = np.empty_like(delta)
    dbm = np.empty_like(bm)
    dcm = np.empty_like(cm)
    parts = map_rows(lambda r: _backward_rows(
        poles, u[r], delta[r], bm[r], cm[r], states[r], gy[r],
        du[r], ddelta[r], dbm[r], dcm[r]),
        _row_blocks(B, N, E, u.dtype))
    da_h, da_q = parts[0]
    for h, q in parts[1:]:
        da_h += h
        da_q += q
    da = da_h + da_q[:, 0] / poles.safe
    return du, ddelta, np.ascontiguousarray(da.T), dbm, dcm


def _backward_rows(poles, u, delta, bm, cm, states, gy,
                   du, ddelta, dbm, dcm):
    """Fill these rows' du, ddelta, dbm and dcm; return their (da_h, da_q)."""
    B, L, E = u.shape
    at = poles.at
    da_h = np.zeros(at.shape, dtype=u.dtype)      # sum of g * delta * h_t
    da_q = np.zeros((len(at), 1, E), dtype=u.dtype)  # sum of g*bm*u*(delta-c)
    bm_t = np.ascontiguousarray(bm.transpose(1, 2, 0))[:, :, None, :]  # [L,N,1,B]
    q_t = np.empty_like(da_q)
    sgb = np.empty((B, 1, E), dtype=u.dtype)      # sum_n bm * g
    g = np.zeros((B,) + at.shape, dtype=u.dtype)  # dL/dh_t
    gc, tmp = np.empty_like(g), np.empty_like(g)
    hs = np.empty((_CHUNK_STEPS,) + g.shape, dtype=u.dtype)  # one chunk's h_t
    cs = np.empty_like(hs)                                   # and its c
    for k in range(states.shape[1] - 1, -1, -1):
        steps = range(k * _CHUNK_STEPS, min((k + 1) * _CHUNK_STEPS, L))
        h = states[:, k]
        for j, t in enumerate(steps):             # gc, tmp as scratch
            _step(poles, delta[:, t, None, :], bm[:, t, :, None],
                  u[:, t, None, :], h, hs[j], cs[j], gc, tmp)
            h = hs[j]
        for j in range(len(steps) - 1, -1, -1):
            t = steps[j]
            h_t, c = hs[j], cs[j]
            dt = delta[:, t, None, :]             # [B,1,E]
            ut = u[:, t, None, :]
            np.matmul(h_t, gy[:, t, :, None], out=dcm[:, t, :, None])
            g += np.multiply(cm[:, t, :, None], gy[:, t, None, :], out=tmp)
            np.multiply(g, c, out=gc)
            np.matmul(bm[:, t, None, :], gc, out=du[:, t, None, :])
            np.matmul(gc, u[:, t, :, None], out=dbm[:, t, :, None])
            np.matmul(bm[:, t, None, :], g, out=sgb)
            np.multiply(g, h_t, out=tmp)
            np.einsum("bne,ne->be", tmp, at, out=ddelta[:, t])
            ddelta[:, t] += sgb[:, 0] * u[:, t]
            da_h += np.einsum("be,bne->ne", delta[:, t], tmp)
            np.subtract(dt, c, out=tmp)
            if poles.any_small:
                np.copyto(tmp, -0.5 * dt * dt, where=poles.small)
            tmp *= g
            tmp *= ut
            da_q += np.matmul(bm_t[t], tmp.transpose(1, 0, 2), out=q_t)
            g += np.multiply(gc, at, out=tmp)     # g * abar = g + a * g * c
    return da_h, da_q
