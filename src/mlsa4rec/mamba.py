"""Selective state-space (Mamba) block.

The block projects each position into an expanded channel space, mixes
a short causal context with a depthwise convolution, then runs a
diagonal linear state recurrence whose input/output maps and timescale
are themselves functions of the input.  A silu gate and an output
projection close the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from . import tensor as T
from .tensor import ParameterStore, Tensor

DELTA_INIT_RANGE = (0.001, 0.1)


@dataclass
class SsmParams:
    """State-recurrence parameters; a_log parameterizes A = -exp(a_log)."""
    a_log: Tensor            # [E_inner, N]
    proj_b: Tensor           # [E_inner, N]
    proj_c: Tensor           # [E_inner, N]
    proj_delta_w: Tensor     # [E_inner, E_inner]
    proj_delta_b: Tensor     # [E_inner]
    skip_d: Tensor           # [E_inner]


@dataclass
class MambaParams:
    in_proj: Tensor          # [D, 2*E_inner]
    conv_w: Tensor           # [E_inner, K]
    conv_b: Tensor           # [E_inner]
    ssm: SsmParams
    out_proj: Tensor         # [E_inner, D]
    e_inner: int


def init_ssm(store: ParameterStore, prefix: str, e_inner: int,
             d_state: int) -> SsmParams:
    a_log = store.add(f"{prefix}.a_log",
                      np.tile(np.log(np.arange(1, d_state + 1)), (e_inner, 1)))
    proj_b = store.uniform(f"{prefix}.proj_B.w", (e_inner, d_state), e_inner)
    proj_c = store.uniform(f"{prefix}.proj_C.w", (e_inner, d_state), e_inner)
    proj_delta_w = store.uniform(f"{prefix}.proj_delta.w", (e_inner, e_inner), e_inner)
    # bias puts the initial timescale log-uniformly inside DELTA_INIT_RANGE
    lo, hi = np.log(DELTA_INIT_RANGE[0]), np.log(DELTA_INIT_RANGE[1])
    dt0 = np.exp(store.rng.uniform(lo, hi, size=e_inner))
    proj_delta_b = store.add(f"{prefix}.proj_delta.b", np.log(np.expm1(dt0)))
    skip_d = store.add(f"{prefix}.skip_d", np.ones(e_inner))
    return SsmParams(a_log, proj_b, proj_c, proj_delta_w, proj_delta_b, skip_d)


def init_mamba(store: ParameterStore, prefix: str, d_model: int, d_state: int,
               d_conv: int, expand: int) -> MambaParams:
    e_inner = expand * d_model
    in_proj = store.uniform(f"{prefix}.in_proj.w", (d_model, 2 * e_inner), d_model)
    conv_w = store.uniform(f"{prefix}.conv.w", (e_inner, d_conv), d_conv)
    conv_b = store.zeros(f"{prefix}.conv.b", (e_inner,))
    ssm = init_ssm(store, f"{prefix}.ssm", e_inner, d_state)
    out_proj = store.uniform(f"{prefix}.out_proj.w", (e_inner, d_model), e_inner)
    return MambaParams(in_proj, conv_w, conv_b, ssm, out_proj, e_inner)


def discretize_zoh(a, b, delta):
    """Map continuous diagonal dynamics (a, b) and step delta to discrete
    (a_bar, b_bar): a_bar = exp(delta*a), b_bar = ((exp(delta*a)-1)/a)*b,
    with the limit b_bar = delta*b as a -> 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    a_bar = np.exp(delta * a)
    small = np.abs(a) < 1e-8
    b_bar = np.where(small, delta * b, (a_bar - 1.0) / np.where(small, 1.0, a) * b)
    if a_bar.ndim == 0:
        return float(a_bar), float(b_bar)
    return a_bar, b_bar


def _scan_op(u: Tensor, delta: Tensor, a: Tensor, bm: Tensor, cm: Tensor) -> Tensor:
    """Autodiff wrapper around the scan kernels."""
    ud = np.ascontiguousarray(u.data)
    dd = np.ascontiguousarray(delta.data)
    ad = np.ascontiguousarray(a.data)
    bd = np.ascontiguousarray(bm.data)
    cd = np.ascontiguousarray(cm.data)
    squeeze = ud.ndim == 2
    if squeeze:
        ud, dd, bd, cd = ud[None], dd[None], bd[None], cd[None]
    need_grad = T.grad_enabled() and any(
        t.requires_grad for t in (u, delta, a, bm, cm))
    y, checkpoints = kernels.scan_forward(ud, dd, ad, bd, cd, need_grad)
    out = y[0] if squeeze else y

    def bwd(g):
        gy = np.ascontiguousarray(g[None] if squeeze else g)
        du, ddt, da, dbm, dcm = kernels.scan_backward(
            ud, dd, ad, bd, cd, checkpoints, gy)
        if squeeze:
            du, ddt, dbm, dcm = du[0], ddt[0], dbm[0], dcm[0]
        return du, ddt, da, dbm, dcm

    return T.make_op(out, (u, delta, a, bm, cm), bwd, "selective_scan")


def selective_scan(x: Tensor, ssm: SsmParams, keep: np.ndarray | None = None
                   ) -> Tensor:
    """Content-dependent state recurrence over the time axis.

    Per position: state maps come from linear projections of x, the
    timescale from a softplus-rectified projection; dynamics are
    discretized by zero-order hold and the state advanced causally.
    Where keep ([.., L, 1], boolean) is false the timescale is zero, so
    the step leaves the state exactly as it was (a_bar = 1, no input).
    """
    bm = T.matmul(x, ssm.proj_b)
    cm = T.matmul(x, ssm.proj_c)
    delta = T.softplus(T.add(T.matmul(x, ssm.proj_delta_w), ssm.proj_delta_b))
    if keep is not None:
        delta = T.masked_fill(delta, keep)
    a = T.neg(T.exp(ssm.a_log))
    y = _scan_op(x, delta, a, bm, cm)
    return T.add(y, T.mul(x, ssm.skip_d))


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Depthwise convolution over time with left zero-padding, so position
    t depends only on positions <= t."""
    xd = x.data
    kd, bd = kernel.data, bias.data
    e, k = kd.shape
    if xd.shape[-1] != e:
        raise T.ShapeError(f"causal_conv1d: {xd.shape[-1]} channels vs kernel {e}")
    squeeze = xd.ndim == 2
    x3 = xd[None] if squeeze else xd
    L = x3.shape[1]
    pad = np.zeros((x3.shape[0], k - 1, e), dtype=x3.dtype)
    xp = np.concatenate([pad, x3], axis=1)
    out = np.zeros_like(x3)
    for j in range(k):
        out += kd[:, j] * xp[:, j:j + L, :]
    out += bd

    def bwd(g):
        g3 = g[None] if squeeze else g
        dk = np.empty_like(kd)
        for j in range(k):
            dk[:, j] = np.einsum("ble,ble->e", xp[:, j:j + L, :], g3)
        db = g3.sum(axis=(0, 1))
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[:, j:j + L, :] += kd[:, j] * g3
        dx = dxp[:, k - 1:, :]
        return (dx[0] if squeeze else dx), dk, db

    return T.make_op(out[0] if squeeze else out, (x, kernel, bias), bwd, "causal_conv")


def mamba_block(x: Tensor, p: MambaParams, keep: np.ndarray | None = None
                ) -> Tensor:
    """Project in, mix causally, scan, gate, project out.  [.., L, D] -> same.

    keep ([.., L, 1], boolean) marks real positions.  Masked positions
    enter the convolution as zeros, like its own left padding, and leave
    the scan state untouched, so the outputs at real positions are those
    of the real positions alone.
    """
    xz = T.matmul(x, p.in_proj)
    u = T.slice_last(xz, 0, p.e_inner)
    z = T.slice_last(xz, p.e_inner, 2 * p.e_inner)
    if keep is not None:
        u = T.masked_fill(u, keep)
    u = T.silu(causal_conv1d(u, p.conv_w, p.conv_b))
    y = selective_scan(u, p.ssm, keep)
    gated = T.mul(y, T.silu(z))
    return T.matmul(gated, p.out_proj)
