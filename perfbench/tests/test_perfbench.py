"""Tests of the benchmark's own pieces: self-time arithmetic, the float64
references on hand-checked cases, the tie bracket, and the promise that an
untraced run leaves the program as it found it.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import reference as ref
import tracing
from workloads import Sizes, _ScoreRecorder, desk_split

from mlsa4rec import train_eval
from mlsa4rec.model import MlsaModel, ModelConfig
from mlsa4rec.tensor import Tensor

ROOT = Path(__file__).resolve().parents[2]

TINY = Sizes(n_items=30, n_users=40, seq_len=10, max_len=8, batch=8,
             eval_batch=16, long_len=16, long_batch=2, long_items=30,
             d_model=8, d_state=4, n_layers=1)


# -- self time ----------------------------------------------------------------

def test_self_time_is_span_minus_direct_children():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("b", 5.0, 9.0, 0),
             ("b.inner", 6.0, 7.0, 2)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([("x", 2.0, 2.5, -1)]) == [0.5]


def test_tracer_spans_nest_and_sum():
    t = tracing.Tracer()
    inner = t.span("inner", lambda: None)
    outer = t.span("outer", lambda: (inner(), inner()))
    outer()
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    own = tracing.self_times(t.spans)
    total = t.spans[0][2] - t.spans[0][1]
    assert own[0] + own[1] + own[2] == pytest.approx(total)


# -- float64 references against hand-checked cases ------------------------------

def test_cross_entropy_hand_case():
    logits = np.array([[0.0, math.log(3.0)], [0.0, 0.0]])
    # softmax rows (1/4, 3/4) and (1/2, 1/2)
    expect = (-math.log(0.75) - math.log(0.5)) / 2
    assert ref.cross_entropy(logits, [1, 0]) == pytest.approx(expect, rel=1e-15)


def test_scan_hand_case():
    # a = -1 and delta = ln 2 give exp(delta a) = 1/2 and (1/2 - 1) / -1 = 1/2
    # h1 = 1/2 * bm * u = 1/2 * 1 * 2 = 1, y1 = 3 * 1
    # h2 = 1/2 * 1 + 1/2 * 1 * 4 = 2.5, y2 = 1 * 2.5
    u = np.array([[[2.0], [4.0]]])
    delta = np.full((1, 2, 1), math.log(2.0))
    a = np.array([[-1.0]])
    bm = np.ones((1, 2, 1))
    cm = np.array([[[3.0], [1.0]]])
    assert ref.scan(u, delta, a, bm, cm)[0, :, 0] == pytest.approx([3.0, 2.5])


def test_rank_bracket_hand_case():
    scores = np.array([9.0, 1.0, 2.0, 2.0, 3.0])    # slot 0 is padding
    # target 2 (score 2): item 4 is above it, item 3 ties with it
    assert ref.rank_bracket(scores, 2) == (2, 3)
    assert ref.metrics_at(2, 10) == pytest.approx((1.0, 1 / math.log2(3), 0.5))
    assert ref.metrics_at(11, 10) == (0.0, 0.0, 0.0)


def test_forward_pieces_hand_cases():
    x = np.array([[1.0, 3.0]])
    assert ref.layernorm(x, np.ones(2), np.zeros(2))[0] == pytest.approx([-1.0, 1.0])
    # kernel column K-1 weighs the current step, column K-2 the step before
    conv = ref.causal_conv(np.array([[1.0], [2.0], [3.0]]), np.array([[10.0, 1.0]]),
                           np.array([0.5]))
    assert conv[:, 0] == pytest.approx([1.5, 12.5, 23.5])
    assert ref.silu(np.array([0.0]))[0] == 0.0
    assert ref.gelu(np.array([0.0, 10.0])) == pytest.approx([0.0, 10.0])
    # one interest pools every row; attention over one pool returns it
    p = {"a.w_q": np.eye(2), "a.w_k": np.eye(2), "a.w_v": np.eye(2),
         "a.theta": np.zeros((1, 2))}
    out = ref.lsa(np.eye(2), p, "a", n_heads=1)
    assert out == pytest.approx(np.ones((2, 2)))


def test_forward_transcription_matches_the_model():
    model = MlsaModel(ModelConfig(vocab_size=31, max_len=12, d_model=8, d_state=4,
                                  n_layers=2), seed=5)
    ids = np.arange(3, 15)
    params = {name: t.data for name, t in model.params.entries.items()}
    expect = ref.default_scores(params, ids, n_layers=2, n_heads=2)
    assert model.score(ids) == pytest.approx(expect, abs=1e-5)


# -- tie bracket ----------------------------------------------------------------

class _Constant:
    """A model whose every score is the same."""

    def __init__(self, vocab_size: int, max_len: int):
        self.config = ModelConfig(vocab_size=vocab_size, max_len=max_len)
        self.vocab_size = vocab_size

    def score(self, ids):
        return np.zeros((len(ids), self.vocab_size), dtype=np.float32)


def test_tie_bracket_of_a_constant_score_model():
    split = desk_split(np.random.default_rng(0), TINY)
    model = _Constant(TINY.n_items + 1, TINY.max_len)
    recorder = _ScoreRecorder(model)
    report = train_eval.evaluate(recorder, split, "valid", k=10, batch_size=16)
    lower, upper = ref.metric_bracket(np.concatenate(recorder.rows), split.valid, 10)
    # every one of 29 other items ties with the target
    assert lower == pytest.approx([0.0, 0.0, 0.0])
    assert upper == pytest.approx([1.0, 1.0, 1.0])
    got = [report.hr_at_k, report.ndcg_at_k, report.mrr_at_k]
    assert all(lo <= g <= hi for lo, g, hi in zip(lower, got, upper))


# -- the untraced run leaves the program alone ------------------------------------

def _program_attributes() -> dict:
    snap = {}
    for name, mod in sys.modules.items():
        if name == "mlsa4rec" or name.startswith("mlsa4rec."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    for cls in (MlsaModel, train_eval.Adam, Tensor):
        for attr, value in vars(cls).items():
            snap[(cls.__name__, attr)] = value
    return snap


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.mark.parametrize("workload", ["train-desk", "rank-desk", "score-long"])
def test_untraced_run_leaves_every_attribute(workload):
    before = _program_attributes()
    r, metrics = harness.run(workload, 3, 0.01, trace=False, sizes=TINY)
    assert _same(before, _program_attributes())
    assert r.failed == 0
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


def test_tracer_wraps_and_restores():
    from mlsa4rec import mamba, model, tensor
    before = _program_attributes()
    t = tracing.Tracer()
    t.install()
    try:
        assert model.mamba_block is mamba.mamba_block
        assert model.mamba_block is not before[("mlsa4rec.mamba", "mamba_block")]
        assert tensor.make_op is not before[("mlsa4rec.tensor", "make_op")]
        assert vars(Tensor)["backward"] is not before[("Tensor", "backward")]
    finally:
        t.remove()
    assert _same(before, _program_attributes())


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["train-desk", "rank-desk", "score-long"])
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    before = _program_attributes()
    r, metrics = harness.run(workload, 4, 0.01, trace=True, sizes=TINY,
                             spans_dir=tmp_path)
    assert _same(before, _program_attributes())
    assert r.failed == 0
    assert set(metrics) == {m["name"] for m in _benchmark()["per_layer"]}
    backward_calls = metrics["kernels.scan_backward.calls"][0]
    states = metrics["kernels.scan_states_bytes"][0]
    if workload == "train-desk":
        assert backward_calls == 2 and states > 0        # il.mamba + 1 stack layer
        assert not [p for p in r.problems if "traced step rows" in p]
    else:
        assert backward_calls == 0 and states == 0
    spans = json.loads((tmp_path / f"spans-{workload}-seed4.json").read_text())
    assert spans["spans"] and spans["fields"] == ["name", "start_s", "end_s", "parent"]
