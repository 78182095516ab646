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
    return SsmParams(
        a_log=store.add(f"{prefix}.a_log",
                        np.tile(np.log(np.arange(1, d_state + 1)), (e_inner, 1))),
        proj_b=store.uniform(f"{prefix}.proj_B.w", (e_inner, d_state), e_inner),
        proj_c=store.uniform(f"{prefix}.proj_C.w", (e_inner, d_state), e_inner),
        proj_delta_w=store.uniform(f"{prefix}.proj_delta.w", (e_inner, e_inner),
                                   e_inner),
        # the initial timescale softplus(bias) is log-uniform in DELTA_INIT_RANGE
        proj_delta_b=store.add(f"{prefix}.proj_delta.b", np.log(np.expm1(np.exp(
            store.rng.uniform(*np.log(DELTA_INIT_RANGE), size=e_inner))))),
        skip_d=store.add(f"{prefix}.skip_d", np.ones(e_inner)))


def init_mamba(store: ParameterStore, prefix: str, d_model: int, d_state: int,
               d_conv: int, expand: int) -> MambaParams:
    e_inner = expand * d_model
    return MambaParams(
        in_proj=store.uniform(f"{prefix}.in_proj.w", (d_model, 2 * e_inner), d_model),
        conv_w=store.uniform(f"{prefix}.conv.w", (e_inner, d_conv), d_conv),
        conv_b=store.zeros(f"{prefix}.conv.b", (e_inner,)),
        ssm=init_ssm(store, f"{prefix}.ssm", e_inner, d_state),
        out_proj=store.uniform(f"{prefix}.out_proj.w", (e_inner, d_model), e_inner),
        e_inner=e_inner)


def _scan_op(u: Tensor, pre: Tensor, bias: Tensor, a_log: Tensor, bm: Tensor,
             cm: Tensor, skip_d: Tensor, keep: np.ndarray | None = None
             ) -> Tensor:
    """y = scan(u, delta, a, bm, cm) + u * skip_d as one autodiff op, with
    delta = softplus(pre + bias), zeroed where keep is false (the mask is
    applied after the softplus), and a = -exp(a_log), so every pole is
    negative as the kernels require; d a_log = da * a.

    The closure keeps delta and the scan checkpoints beside the arrays of
    u, bm and cm, and only the shapes of the tensors; no backward reads
    pre + bias.  The backward reads softplus'(x) = sigmoid(x)
    = 1 - exp(-delta) off delta, which is zero at the masked steps, as
    their gradient must be.
    """
    delta = T.softplus_(pre.data + bias.data)
    if keep is not None:
        np.multiply(delta, keep, out=delta)
    ud, dd, bd, cd = (np.ascontiguousarray(v.reshape(-1, *v.shape[-2:]))
                      for v in (u.data, delta, bm.data, cm.data))
    ad = -np.exp(a_log.data)
    dsk = skip_d.data
    ushape, sshape = u.shape, bm.shape
    parents = (u, pre, bias, a_log, bm, cm, skip_d)
    y, checkpoints = kernels.scan_forward(ud, dd, ad, bd, cd, T.recording(parents))
    y += ud * dsk

    def bwd(g):
        gy = np.ascontiguousarray(g.reshape(ud.shape))
        du, ddelta, da, dbm, dcm = kernels.scan_backward(
            ud, dd, ad, bd, cd, checkpoints, gy)
        du += gy * dsk
        dskip = (gy * ud).sum(axis=(0, 1))
        ddelta *= -np.expm1(-dd)
        dbias = ddelta.sum(axis=(0, 1))
        return (du.reshape(ushape), ddelta.reshape(ushape), dbias,
                da * ad, dbm.reshape(sshape), dcm.reshape(sshape), dskip)

    return T.make_op(y.reshape(ushape), parents, bwd, "selective_scan")


def selective_scan(x: Tensor, ssm: SsmParams, keep: np.ndarray | None = None
                   ) -> Tensor:
    """Content-dependent state recurrence over the time axis.

    Per position: state maps come from linear projections of x, the
    timescale from a softplus-rectified projection; dynamics are
    discretized by zero-order hold and the state advanced causally, and
    the skip term x * D is added to the output.  The projections are tape
    ops; poles, bias, softplus, mask, scan and skip run in one op, _scan_op.
    Where keep ([.., L, 1], boolean) is false the timescale is zeroed
    after the softplus, so the step leaves the state exactly as it was
    (a_bar = 1, no input).
    """
    return _scan_op(x, T.matmul(x, ssm.proj_delta_w), ssm.proj_delta_b,
                    ssm.a_log, T.matmul(x, ssm.proj_b),
                    T.matmul(x, ssm.proj_c), ssm.skip_d, keep)


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Depthwise convolution over time with left zero-padding, so position
    t depends only on positions <= t.  Tap j reads lag k - 1 - j; the
    padding is never built, each lag is a shifted slice of x."""
    xd = x.data
    kd, bd = kernel.data, bias.data
    e, k = kd.shape
    if xd.shape[-1] != e:
        raise T.ShapeError(f"causal_conv1d: {xd.shape[-1]} channels vs kernel {e}")
    x3 = xd.reshape(-1, *xd.shape[-2:])
    L = x3.shape[1]
    lags = [(j, k - 1 - j) for j in range(k) if k - 1 - j < L]
    out = np.zeros_like(x3)
    for j, lag in lags:
        out[:, lag:] += kd[:, j] * x3[:, :L - lag]
    out += bd

    def bwd(g):
        g3 = g.reshape(x3.shape)
        dk = np.zeros_like(kd)
        dx = np.zeros_like(x3)
        for j, lag in lags:
            dk[:, j] = np.einsum("ble,ble->e", x3[:, :L - lag], g3[:, lag:])
            dx[:, :L - lag] += kd[:, j] * g3[:, lag:]
        db = g3.sum(axis=(0, 1))
        return dx.reshape(xd.shape), dk, db

    return T.make_op(out.reshape(xd.shape), (x, kernel, bias), bwd, "causal_conv")


def mamba_block(x: Tensor, p: MambaParams, keep: np.ndarray | None = None
                ) -> Tensor:
    """Project in, mix causally, scan, gate, project out.  [.., L, D] -> same.

    keep ([.., L, 1], boolean) marks real positions.  Masked positions
    enter the convolution as zeros, like its own left padding, and leave
    the scan state untouched, so the outputs at real positions are those
    of the real positions alone.  u and z come from two matmuls against
    the column halves of in_proj, so that no view of a [.., L, 2E]
    product keeps z's half alive along with u.
    """
    e = p.e_inner
    u = T.matmul(x, T.slice_last(p.in_proj, 0, e))
    z = T.matmul(x, T.slice_last(p.in_proj, e, 2 * e))
    if keep is not None:
        u = T.masked_fill(u, keep)
    u = T.silu(causal_conv1d(u, p.conv_w, p.conv_b))
    y = selective_scan(u, p.ssm, keep)
    gated = T.mul(y, T.silu(z))
    return T.matmul(gated, p.out_proj)
