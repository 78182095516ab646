"""Hot-loop kernels for the selective state-space scan (numpy).

Shapes (C-contiguous float32 or float64):
    u, delta : [B, L, E]      inputs and per-step timescales
    a        : [E, N]         diagonal state matrix (negative entries)
    bm, cm   : [B, L, N]      input-dependent state-in / state-out maps
    y        : [B, L, E]      scan output
    states   : [K, N, B, E]   checkpoints for backward, K = ceil(L / C),
                              C = _CHUNK_STEPS: states[k] is the [N, B, E]
                              state entering steps k*C .. k*C + C - 1, 0 at k = 0

The recurrence per (b, n, e) holds the input over each step (zero-order
hold).  With e = expm1(delta * a), abar = exp(delta * a) = 1 + e and
c = e / a:
    h_t = abar * h_{t-1} + c * bm * u = h_{t-1} + e * (h_{t-1} + bm * u / a)
    y_t = sum_n cm * h_t
so a step is seven passes: delta*a, expm1, u/a, *bm, +h, *e and h +=.
The backward needs only h_t and e: one product g*e, g = dL/dh_t, gives
g * c = (g * e) / a and g * abar = g + g * e, and substituting
abar * h_{t-1} = h_t - c*bm*u into the derivatives of the step gives
    dh_t/ddelta = a * h_t + bm * u
    dh_t/da     = delta * h_t + bm * u * (delta - c) / a
whose 1/a is applied once per call, to the sum over steps.  Every pole
must be negative, as mamba._scan_op forms them: a = -exp(a_log).  Each
chunk of the reverse walk first zeroes g below _FLUSH, so that g, which
only decays where the loss reads the last steps alone, never runs through
slow subnormal floats; gradient entries that small depend on the chunk length.

A row block's state is [N, rows, E]: a is tiled once per call to
[N, rows, E] and each step's delta and u are contiguous [rows, E], so
delta*a, u/a, (g*e)/a and g*delta each run one inner loop of rows*E.
As [rows, N, E], those broadcasts ran rows*N loops of E = 128, and
delta*a cost about 3 times a same-shape product.  Only the outer
products with bm and cm keep E-long loops; the y matmul and the per-step
reductions read the [rows, N, E] transposed view.

Keeping every h_t would cost [B, L, N, E], N times the input.  So the
forward keeps one state per chunk of C steps, and the backward walks the
chunks last to first, rebuilding each chunk's h_t and e from its
checkpoint with the forward's own step: the rebuilt states are bitwise
the ones the forward produced (the recompute of Gu & Dao's
hardware-aware scan, arXiv:2312.00752).

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
pool.  The pool is built at the first map that needs it.  Its threads are
daemon threads, so exit never waits on them, even on a blocked pool.
"""

from __future__ import annotations

import os
import threading
from multiprocessing.pool import ThreadPool

import numpy as np

_BLOCK_BYTES = 1 << 18
# Steps per saved state.  Saved states shrink as 1/C while the backward's
# recompute buffers hs and es, [C, N, rows, E], grow as C.  On a train-desk
# step (B 128, L 17, N 32, E 128), C = 8 peaked 11 MB below C = 4 at the
# same scan time; C = 16 saved 2 MB more but ran the scan about 3 % slower.
_CHUNK_STEPS = 8
# Adam steps by m / (sqrt(v) + 1e-8): a gradient near 1e-30 moves no parameter.
_FLUSH = 1e-30
# Threads for row blocks and score groups: one per CPU this process may use.
_WORKERS = len(os.sched_getaffinity(0))
# A ThreadPool of daemon threads, built at the first map that needs it; its
# threads set _in_pool.flag as they start, so maps they call run inline.
_pool = None
_pool_lock = threading.Lock()
_in_pool = threading.local()


def get_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"


def _tile(a, B):
    """The call's row blocks, and a [E, N] tiled to [N, rows, E] for them."""
    at = a.T
    blocks = _row_blocks(B, *at.shape, a.dtype)
    return blocks, np.repeat(at[:, None], min(B, blocks[0].stop), axis=1)


def _row_blocks(B, N, E, dtype):
    """Slices of the batch axis that the scan runs as separate blocks.

    Rows are independent, so the scan runs block by block with [N,rows,E]
    buffers of about 256 KiB: the four or five a step touches then stay
    in a core's L2 cache instead of streaming from memory at every step.
    """
    rows = max(1, _BLOCK_BYTES // (N * E * np.dtype(dtype).itemsize))
    return [slice(b, b + rows) for b in range(0, B, rows)]


def map_rows(fn, groups):
    """[fn(g) for g in groups], run on the pool when there are several
    groups, more than one worker and the caller is not a pool thread;
    results come back in group order."""
    global _pool
    if len(groups) == 1 or _WORKERS == 1 or getattr(_in_pool, "flag", False):
        return [fn(g) for g in groups]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPool(_WORKERS, initializer=setattr,
                               initargs=(_in_pool, "flag", True))
    return list(_pool.map(fn, groups))


def scan_forward(u, delta, a, bm, cm, save_states: bool):
    """Run the scan; returns (y, states), states None unless save_states,
    else the [ceil(L/C), N, B, E] checkpoints that scan_backward reads."""
    B, L, E = u.shape
    blocks, tile = _tile(a, B)
    y = np.empty((B, L, E), dtype=u.dtype)
    states = (np.empty((-(-L // _CHUNK_STEPS), a.shape[1], B, E),
                       dtype=u.dtype) if save_states else None)
    map_rows(lambda r: _forward_rows(
        tile, u[r], delta[r], bm[r], cm[r], y[r],
        None if states is None else states[:, :, r]), blocks)
    return y, states


def _chunk(k, delta, u):
    """Steps of chunk k, with their delta and u as contiguous [steps, B, E],
    so that a step's [B, E] runs as one loop."""
    s = slice(k * _CHUNK_STEPS, (k + 1) * _CHUNK_STEPS)
    return (range(u.shape[1])[s],
            np.ascontiguousarray(delta[:, s].transpose(1, 0, 2)),
            np.ascontiguousarray(u[:, s].transpose(1, 0, 2)))


def _step(tile, dt, ut, bt, h, h_next, e, w):
    """One step, h_next = h + e * (h + bm * u / a) with e = expm1(dt * a)
    kept in e; w is scratch and h_next may be h.  h is [N,B,E], dt and ut
    [B,E] and bt [N,B,1].  The forward and the backward's recompute both
    run this, so their states agree bitwise."""
    np.multiply(dt, tile, out=e)
    np.expm1(e, out=e)
    np.divide(ut, tile, out=w)
    w *= bt
    w += h
    w *= e
    np.add(h, w, out=h_next)


def _forward_rows(tile, u, delta, bm, cm, y, states):
    # Per-step work runs in place on buffers allocated once: fresh
    # temporaries cost more than the arithmetic itself.  A checkpoint is
    # copied out, and the chunk's delta and u in, as each chunk begins.
    B, L, E = u.shape
    tile = tile[:, :B]
    h = np.zeros(tile.shape, dtype=u.dtype)
    e, w = np.empty_like(h), np.empty_like(h)
    for k in range(-(-L // _CHUNK_STEPS)):
        if states is not None:
            states[k] = h
        steps, dts, uts = _chunk(k, delta, u)
        for j, t in enumerate(steps):
            _step(tile, dts[j], uts[j], bm[:, t].T[:, :, None], h, h, e, w)
            np.matmul(cm[:, t, None, :], h.transpose(1, 0, 2),
                      out=y[:, t, None, :])


def scan_backward(u, delta, a, bm, cm, states, gy):
    """Gradients (du, ddelta, da, dbm, dcm) of sum(y * gy) from the
    checkpoints of scan_forward; each chunk's states are rebuilt here."""
    blocks, tile = _tile(a, len(u))
    du, ddelta, dbm, dcm = map(np.empty_like, (u, delta, bm, cm))
    parts = map_rows(lambda r: _backward_rows(
        tile, u[r], delta[r], bm[r], cm[r], states[:, :, r], gy[r],
        du[r], ddelta[r], dbm[r], dcm[r]), blocks)
    da_h, da_q = (sum(part) for part in zip(*parts))   # in block order
    da = da_h + da_q[:, 0] / tile[:, 0]
    return du, ddelta, np.ascontiguousarray(da.T), dbm, dcm


def _backward_rows(tile, u, delta, bm, cm, states, gy, du, ddelta, dbm, dcm):
    """Fill these rows' du, ddelta, dbm and dcm; return their (da_h, da_q)."""
    B, L, E = u.shape
    tile = tile[:, :B]
    da_h = np.zeros((len(tile), E), dtype=u.dtype)     # sum of g*delta*h_t
    da_q = np.zeros((len(tile), 1, E), dtype=u.dtype)  # of g*bm*u*(delta-c)
    bm_t = np.ascontiguousarray(bm.transpose(1, 2, 0))[:, :, None, :]  # [L,N,1,B]
    q_t = np.empty_like(da_q)
    sgb = np.empty((B, 1, E), dtype=u.dtype)      # sum_n bm * g
    g = np.zeros(tile.shape, dtype=u.dtype)       # dL/dh_t
    ge, gc, tmp = np.empty_like(g), np.empty_like(g), np.empty_like(g)
    g_rows, gc_rows = g.transpose(1, 0, 2), gc.transpose(1, 0, 2)  # [B,N,E]
    hs = np.empty((_CHUNK_STEPS,) + g.shape, dtype=u.dtype)  # one chunk's h_t
    es = np.empty_like(hs)                                   # and its e
    for k in range(len(states) - 1, -1, -1):
        np.copyto(g, 0, where=np.abs(g, out=tmp) < _FLUSH)
        steps, dts, uts = _chunk(k, delta, u)
        h = states[k]
        for j, t in enumerate(steps):             # tmp as scratch
            _step(tile, dts[j], uts[j], bm[:, t].T[:, :, None],
                  h, hs[j], es[j], tmp)
            h = hs[j]
        for t, h_t, e_t, dt, ut in [*zip(steps, hs, es, dts, uts)][::-1]:
            np.matmul(h_t.transpose(1, 0, 2), gy[:, t, :, None],
                      out=dcm[:, t, :, None])
            g += np.multiply(cm[:, t].T[:, :, None], gy[:, t], out=tmp)
            np.multiply(g, e_t, out=ge)
            np.divide(ge, tile, out=gc)           # g * c
            np.matmul(bm[:, t, None, :], gc_rows, out=du[:, t, None, :])
            np.matmul(gc_rows, u[:, t, :, None], out=dbm[:, t, :, None])
            np.matmul(bm[:, t, None, :], g_rows, out=sgb)
            np.multiply(g, h_t, out=tmp)
            np.einsum("nbe,nbe->be", tmp, tile, out=ddelta[:, t])
            ddelta[:, t] += sgb[:, 0] * ut
            da_h += np.einsum("be,nbe->ne", dt, tmp)
            np.multiply(g, dt, out=tmp)
            tmp -= gc                             # g * (delta - c)
            tmp *= ut
            da_q += np.matmul(bm_t[t], tmp, out=q_t)
            g += ge                               # g * abar = g + g * e
    return da_h, da_q
