"""Empirical complexity harness.

Times component forward passes, and whole training steps, across
sequence lengths and fits a log-log slope: linear-time components
should stay near 1, quadratic attention near 2.  Each point also records
the tracemalloc peak of one call.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .attention import init_lsa, lsa_attention, vanilla_attention
from .mamba import init_mamba, mamba_block
from .model import MlsaModel, ModelConfig
from .tensor import ParameterStore, Tensor
from .train_eval import Adam, train_step

COMPONENTS = ("mamba_block", "lsa", "vanilla_attention", "full_model",
              "train_step")

# every point times a call over this many sequences of one length
BATCH_SIZE = 2
# full_model scores this many items (id 0 is padding)
VOCAB_SIZE = 1000


@dataclass
class BenchResult:
    rows: list[dict]          # component, L, mean_ms, std_ms, reps, peak_bytes
    slopes: dict[str, float]  # component -> fitted log-log slope


def fit_slope(lengths, means) -> float:
    """Least-squares slope of log(mean) vs log(L)."""
    return float(np.polyfit(np.log(np.asarray(lengths, dtype=np.float64)),
                            np.log(np.asarray(means, dtype=np.float64)), 1)[0])


def _median_of_means(samples: list[float]) -> float:
    """Median of the means of 5 consecutive groups of samples."""
    arr = np.asarray(samples, dtype=np.float64)
    chunks = np.array_split(arr, min(5, len(arr)))
    return float(np.median([c.mean() for c in chunks]))


def _peak_bytes(fn) -> int:
    """tracemalloc's allocation peak over one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _component_fn(component: str, cfg: ModelConfig, seed: int):
    """One call of the component built from cfg, over BATCH_SIZE sequences
    of length cfg.max_len: a forward pass without the tape, or for
    train_step one Adam step (forward, cross-entropy, backward)."""
    rng = np.random.default_rng(seed)
    batch = (BATCH_SIZE, cfg.max_len)
    if component == "full_model":
        model = MlsaModel(cfg, seed=seed)
        ids = rng.integers(1, cfg.vocab_size, size=batch)
        return lambda: model.score(ids)
    if component == "train_step":
        model = MlsaModel(cfg, seed=seed)
        opt = Adam(model.params)
        ids = rng.integers(1, cfg.vocab_size, size=batch)
        targets = rng.integers(1, cfg.vocab_size, size=BATCH_SIZE)
        return lambda: train_step(model, opt, ids, targets)
    store = ParameterStore(seed)
    x = Tensor((rng.standard_normal((*batch, cfg.d_model)) * 0.1)
               .astype(np.float32))
    if component == "mamba_block":
        params = init_mamba(store, "m", cfg.d_model, cfg.d_state, cfg.d_conv,
                            cfg.expand)
        return T.no_grad()(lambda: mamba_block(x, params))
    if component == "lsa":
        params = init_lsa(store, "a", cfg.d_model, cfg.n_interests, cfg.n_heads)
        return T.no_grad()(lambda: lsa_attention(x, params))
    if component == "vanilla_attention":
        params = init_lsa(store, "a", cfg.d_model, None, cfg.n_heads)
        return T.no_grad()(lambda: vanilla_attention(x, params))
    raise ValueError(f"unknown component {component!r}; choose from {COMPONENTS}")


def bench_scaling(components, lengths, reps: int = 5, seed: int = 0, log=None,
                  **shape) -> BenchResult:
    """Wall-clock and peak bytes per component per sequence length.

    Every component is built from one ModelConfig: shape takes any of its
    fields, max_len is set to each length in turn and vocab_size is
    VOCAB_SIZE.  Each point is called three times first, the third time
    under tracemalloc for its peak (train_step's Adam moments exist by
    then).  Repetitions are interleaved across all (component, length)
    points so transient machine-load bursts spread evenly instead of
    biasing one point; each point reports a median-of-means over its
    samples.
    """
    lengths = list(lengths)
    if len(lengths) < 4 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("need >= 4 strictly increasing sequence lengths")
    if reps < 5:
        raise ValueError("reps must be >= 5")
    if not components:
        raise ValueError(f"no components to benchmark; choose from {COMPONENTS}")
    repeated = [c for i, c in enumerate(components) if c in components[:i]]
    if repeated:
        raise ValueError(f"component {repeated[0]!r} is listed more than once; "
                         f"choose each of {COMPONENTS} at most once")
    cfg = ModelConfig(vocab_size=VOCAB_SIZE, **shape)
    cfg.validate()
    points, peaks = [], {}
    for component in components:
        for seq_len in lengths:
            fn = _component_fn(component, replace(cfg, max_len=seq_len), seed)
            fn()
            fn()
            peaks[(component, seq_len)] = _peak_bytes(fn)
            points.append((component, seq_len, fn))
    samples: dict[tuple[str, int], list[float]] = \
        {(c, sl): [] for c, sl, _ in points}
    for _ in range(reps):
        for component, seq_len, fn in points:
            t0 = time.perf_counter()
            fn()
            samples[(component, seq_len)].append(
                (time.perf_counter() - t0) * 1e3)
    rows = []
    slopes = {}
    for component in components:
        means = []
        for seq_len in lengths:
            s = samples[(component, seq_len)]
            mean_ms = _median_of_means(s)
            peak = peaks[(component, seq_len)]
            rows.append({"component": component, "L": seq_len,
                         "mean_ms": mean_ms, "std_ms": float(np.std(s)),
                         "reps": reps, "peak_bytes": peak})
            means.append(mean_ms)
            if log:
                log(f"{component} L={seq_len}: {mean_ms:.3f} ms, "
                    f"peak {peak / 1e6:.1f} MB")
        slopes[component] = fit_slope(lengths, means)
        if log:
            log(f"{component} slope: {slopes[component]:.3f}")
    return BenchResult(rows, slopes)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_scaling_svg(path: str, rows: list[dict]) -> None:
    """Log-log line chart of mean_ms vs L, one polyline per component, on a
    640 x 480 canvas."""
    width, height = 640, 480
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(r["component"], []).append((r["L"], r["mean_ms"]))
    xs = [np.log(x) for pts in series.values() for x, _ in pts]
    ys = [np.log(y) for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 50

    def px(v):
        return pad + (np.log(v) - x0) / max(x1 - x0, 1e-9) * (width - 2 * pad)

    def py(v):
        return height - pad - (np.log(v) - y0) / max(y1 - y0, 1e-9) \
            * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
             f'y2="{height - pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
             f'stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
             f'text-anchor="middle">sequence length (log)</text>',
             f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 14 {height // 2})">mean ms (log)</text>']
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad - 150}" y="{pad + 16 * i + 12}" '
                     f'font-size="12" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
