"""Tensor core: op semantics against independent oracles, autodiff
against finite differences, serialization round-trips."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsa4rec import tensor as T
from mlsa4rec.tensor import (NumericsError, ParameterStore, ShapeError,
                             Tensor, grad_check)


def tensor64(arr, requires_grad=True):
    t = Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)
    if requires_grad:
        t.grad = np.zeros_like(t.data)
    return t


def numeric_grad(f, x, eps=1e-6):
    """Central differences on a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_unary(op, x, seed=0, **kwargs):
    """Compare analytic input gradient of sum(op(x)) to finite differences."""
    rng = np.random.default_rng(seed)
    xt = tensor64(x)
    out = op(xt, **kwargs)
    w = rng.standard_normal(out.shape)  # random linear functional
    T.tsum(T.mul(out, Tensor(w))).backward()

    def f():
        with T.no_grad():
            return float((op(xt, **kwargs).data * w).sum())

    fd = numeric_grad(f, xt.data)
    np.testing.assert_allclose(xt.grad, fd, rtol=1e-5, atol=1e-7)


class TestMatmul:
    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        expect = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    expect[i, j] += a[i, k] * b[k, j]
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, expect, rtol=1e-6)

    def test_batched_matches_per_batch(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        got = T.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            np.testing.assert_allclose(got[i], a[i] @ b[i], rtol=1e-6)

    def test_batched_shared_right(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, rtol=1e-6)

    def test_rejects_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_rejects_2d_left_3d_right(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3, 5))))

    def test_grad_all_cases(self):
        rng = np.random.default_rng(3)
        for sa, sb in (((3, 4), (4, 2)), ((2, 3, 4), (4, 2)),
                       ((2, 3, 4), (2, 4, 2))):
            a = tensor64(rng.standard_normal(sa))
            b = tensor64(rng.standard_normal(sb))
            T.tsum(T.matmul(a, b)).backward()

            def f(a=a, b=b):
                with T.no_grad():
                    return float(T.matmul(a, b).data.sum())

            np.testing.assert_allclose(a.grad, numeric_grad(f, a.data),
                                       rtol=1e-5, atol=1e-8)
            np.testing.assert_allclose(b.grad, numeric_grad(f, b.data),
                                       rtol=1e-5, atol=1e-8)


class TestElementwise:
    def test_add_bias_broadcast(self):
        x = Tensor(np.ones((2, 3, 4)))
        b = Tensor(np.arange(4.0))
        out = T.add(x, b)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(1.0 + np.arange(4.0), (2, 3, 4)))

    def test_mul_rejects_a_vector(self):
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_masked_fill_broadcast_and_grad(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4))
        keep = np.array([[True, False, True], [False, True, True]])[:, :, None]
        out = T.masked_fill(tensor64(x), keep, -5.0)
        np.testing.assert_array_equal(out.data, np.where(keep, x, -5.0))
        check_unary(T.masked_fill, x, keep=keep)
        xt = tensor64(x)
        T.tsum(T.masked_fill(xt, keep)).backward()
        np.testing.assert_array_equal(xt.grad, np.broadcast_to(keep, x.shape))

    def test_shared_gradient_buffer_not_corrupted(self):
        # add() hands the same upstream array to both parents; ensure
        # accumulation elsewhere cannot alias-corrupt either branch
        x = tensor64(np.ones(3))
        y = T.add(x, x)       # dy/dx contributions arrive twice
        z = T.add(y, x)       # and once more via a second path
        T.tsum(z).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 3.0))

    def test_unary_grads(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        for op in (T.silu, T.gelu, T.sigmoid, T.softplus, T.exp):
            check_unary(op, x * 0.7)

    def test_sigmoid_keeps_dtype_and_saturates_cleanly(self):
        # float data keeps its precision; anything else becomes float32
        assert Tensor(np.arange(3)).dtype == np.float32
        assert Tensor([True, False]).dtype == np.float32
        x = np.array([0.0, 20.0, -20.0, 100.0, -100.0])
        expect = 1.0 / (1.0 + np.exp(-x))
        for dtype in (np.float32, np.float64):
            for op, scale in ((T.sigmoid, 1.0), (T.silu, x)):
                got = op(Tensor(x.astype(dtype))).data
                assert got.dtype == dtype
                assert not np.isnan(got).any()
                np.testing.assert_allclose(got, expect * scale,
                                           rtol=np.finfo(dtype).eps * 4,
                                           atol=np.finfo(dtype).tiny,
                                           err_msg=f"{op.__name__}")

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = T.softmax(Tensor(rng.standard_normal((5, 7)))).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_softmax_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6))
        naive = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        got = T.softmax(Tensor(x)).data
        np.testing.assert_allclose(got, naive, rtol=1e-6)

    def test_softmax_grad(self):
        rng = np.random.default_rng(8)
        check_unary(lambda t: T.softmax(t),
                    rng.standard_normal((3, 5)))

    def test_softmax_stable_at_large_logits(self):
        out = T.softmax(Tensor(np.array([[1000.0, 1000.0, 0.0]]))).data
        np.testing.assert_allclose(out[0, :2], 0.5, atol=1e-6)

    def test_gelu_exact_form(self):
        from scipy.special import erf
        x = np.linspace(-3, 3, 13)
        expect = x * 0.5 * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(T.gelu(Tensor(x)).data, expect, rtol=1e-6)
        # float32 in, float32 out and back, to the same tolerance
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
        expect_grad = 0.5 * (1 + erf(x / np.sqrt(2))) + x * pdf
        out = T.gelu(Tensor(x.astype(np.float32), requires_grad=True))
        (grad,) = out._backward(np.ones_like(out.data))
        assert out.data.dtype == np.float32 and grad.dtype == np.float32
        np.testing.assert_allclose(out.data, expect, rtol=1e-6)
        np.testing.assert_allclose(grad, expect_grad, rtol=1e-6)


class TestLayernorm:
    def test_standardizes_rows(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 8)) * 3 + 2
        d = x.shape[-1]
        out = T.layernorm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_grad(self):
        rng = np.random.default_rng(10)
        x = tensor64(rng.standard_normal((3, 6)))
        g = tensor64(rng.standard_normal(6))
        b = tensor64(rng.standard_normal(6))
        w = rng.standard_normal((3, 6))
        T.tsum(T.mul(T.layernorm(x, g, b), Tensor(w))).backward()

        def f():
            with T.no_grad():
                return float((T.layernorm(x, g, b).data * w).sum())

        for t in (x, g, b):
            np.testing.assert_allclose(t.grad, numeric_grad(f, t.data),
                                       rtol=1e-4, atol=1e-7)


class TestEmbeddingAndStructure:
    def test_embedding_lookup_and_grad(self):
        table = tensor64(np.arange(12.0).reshape(4, 3))
        ids = np.array([[1, 1, 3], [0, 2, 2]])
        out = T.embedding(table, ids)
        np.testing.assert_allclose(out.data[0, 0], table.data[1])
        T.tsum(out).backward()
        # row 1 hit twice, row 2 twice, rows 0 and 3 once
        np.testing.assert_allclose(table.grad[:, 0], [1, 2, 2, 1])

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding(Tensor(np.ones((4, 3))), np.array([4]))

    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6))
        t = Tensor(x)
        back = T.concat_last([T.slice_last(t, 0, 2), T.slice_last(t, 2, 6)])
        np.testing.assert_array_equal(back.data, x)

    def test_slice_is_a_view_with_the_same_gradient(self):
        rng = np.random.default_rng(13)
        t = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        part = T.slice_last(t, 1, 4)
        assert np.shares_memory(part.data, t.data)
        g = rng.standard_normal((2, 3, 3))
        expect = np.zeros((2, 3, 6))
        expect[..., 1:4] = g
        T.tsum(T.mul(part, Tensor(g))).backward()
        np.testing.assert_array_equal(t.grad, expect)

    def test_take_row(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(T.take_row(Tensor(x), 2).data, x[:, 2, :])

    def test_transpose_grad(self):
        rng = np.random.default_rng(12)
        check_unary(T.transpose_last, rng.standard_normal((2, 3, 4)))

    def test_rank_cap(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1)))

    def test_op_result_obeys_the_rank_cap(self):
        x = tensor64(np.zeros((1, 1, 1)))
        with pytest.raises(ShapeError, match="rank 4 exceeds"):
            T.make_op(x.data[None], (x,), lambda g: (g[0],), "unsqueeze")

    @pytest.mark.parametrize("call, message", [
        (lambda: T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))),
         "add: incompatible shapes"),
        (lambda: T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))),
         "rank >= 2"),
        (lambda: T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5)))),
         "batch dims disagree"),
        (lambda: T.transpose_last(Tensor(np.ones(3))), "rank >= 2"),
        (lambda: T.take_row(Tensor(np.ones(3)), 0), "rank >= 2"),
        (lambda: T.layernorm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)),
                             Tensor(np.zeros(4))), "gain/bias"),
        (lambda: T.cross_entropy(Tensor(np.zeros((2, 5))), [1, 2, 3]),
         "one target per logit row"),
    ], ids=["add", "matmul_rank", "matmul_batch", "transpose_last", "take_row",
            "layernorm_gain", "cross_entropy_targets"])
    def test_shape_guards(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()


DAG_WIDTH = 4


@st.composite
def dag_recipes(draw):
    """A seed, 2-4 leaves, then 1-10 ops that each read any earlier node, so
    some nodes feed ops made much later, as forward's residual adds do.  A
    mul's second operand is a leaf, so the loss stays a polynomial of degree
    11 at most, with positive terms in leaves drawn from [1, 2]: central
    differences resolve its gradient well inside grad_check's 1e-6."""
    n_leaves = draw(st.integers(2, 4))
    ops = []
    for n in range(n_leaves, n_leaves + draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("add", "mul", "scale", "splice")))
        ops.append((kind, draw(st.integers(0, n - 1)),
                    draw(st.integers(0, (n_leaves if kind == "mul" else n) - 1)),
                    draw(st.integers(1, DAG_WIDTH - 1))))
    return draw(st.integers(0, 2**16)), n_leaves, ops


def build_dag(store, ops, made):
    """The recipe's graph over the store's leaves, summed over the nodes
    that no op reads; every op node it makes is appended to made."""
    nodes, read = list(store.entries.values()), set()
    for kind, a, b, k in ops:
        x, y = nodes[a], nodes[b]
        read.update((a,) if kind == "scale" else (a, b))
        if kind == "add":
            out = T.add(x, y)
        elif kind == "mul":
            out = T.mul(x, y)
        elif kind == "scale":
            out = T.scale(x, 0.5 * k)
        else:   # x's first k columns next to y's others
            parts = [T.slice_last(x, 0, k), T.slice_last(y, k, DAG_WIDTH)]
            made.extend(parts)
            out = T.concat_last(parts)
        made.append(out)
        nodes.append(out)
    sinks = [t for i, t in enumerate(nodes) if i not in read]
    total = sinks[-1]
    for t in sinks[-2::-1]:
        total = T.add(total, t)
        made.append(total)
    made.append(T.tsum(total))
    return made[-1]


def logged(closure, key, ran):
    """closure, appending key to ran each time it runs."""
    def run(g):
        ran.append(key)
        return closure(g)
    return run


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = tensor64(np.ones(3))
        with pytest.raises(ShapeError):
            T.mul(x, x).backward()

    def test_no_grad_blocks_taping(self):
        x = tensor64(np.ones(3))
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._node is None

    def test_diamond_graph_accumulates(self):
        x = tensor64(np.array([2.0]))
        y = T.mul(x, x)                 # x^2
        z = T.tsum(T.add(y, y))         # 2 x^2; dz/dx = 4x = 8
        z.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    @given(dag_recipes())
    @settings(max_examples=60, deadline=None)
    def test_tape_runs_consumers_first_on_random_dags(self, recipe):
        seed, n_leaves, ops = recipe
        store = ParameterStore(seed, dtype=np.float64)
        for i in range(n_leaves):
            store.add(f"leaf{i}", store.rng.uniform(1, 2, (2, DAG_WIDTH)))
        made, ran = [], []
        loss = build_dag(store, ops, made)
        # made holds every op result, so its nodes' ids stay unique
        consumers = {id(t._node): [] for t in made}
        for t in made:
            for p in t._node.parents:
                if id(p) in consumers:
                    consumers[id(p)].append(id(t._node))
            t._backward = logged(t._backward, id(t._node), ran)
        loss.backward()
        assert sorted(ran) == sorted(consumers)     # each closure ran once
        when = {key: step for step, key in enumerate(ran)}
        for key, users in consumers.items():
            assert all(when[c] < when[key] for c in users)
        assert grad_check(lambda s: build_dag(s, ops, []), store) < 1e-6

    def test_backward_frees_the_tape(self):
        x = tensor64([[1.0, 2.0], [3.0, -1.0]])
        w = tensor64([[0.5, -2.0], [1.5, 4.0]])
        v = tensor64([[2.0], [-3.0]])

        def build():
            prod = T.mul(x, w)      # its array held only by matmul's closure
            return (T.tsum(T.matmul(prod, v)), weakref.ref(prod),
                    weakref.ref(prod.data), weakref.ref(prod._node))

        loss, prod, data, node = build()
        assert prod() is None       # the tape holds no tensor
        assert data() is not None and node() is not None
        loss.backward()
        assert data() is None and node() is None
        # loss = sum_ij x_ij * w_ij * v_j
        np.testing.assert_array_equal(x.grad, [[1.0, 6.0], [3.0, -12.0]])
        np.testing.assert_array_equal(w.grad, [[2.0, -6.0], [6.0, 3.0]])
        np.testing.assert_array_equal(v.grad, [[5.0], [-8.0]])

    def test_second_backward_raises(self):
        x = tensor64([2.0])
        z = T.tsum(T.mul(x, x))
        z.backward()
        with pytest.raises(RuntimeError, match="graph that was already freed"):
            z.backward()
        np.testing.assert_array_equal(x.grad, [4.0])  # the first pass only

    def test_nan_raises_numerics_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            T.exp(Tensor(np.array([1e30], dtype=np.float64)))

    def test_dropout_modes(self):
        rng = np.random.default_rng(13)
        x = Tensor(np.ones((100,)))
        assert T.dropout(x, 0.5, rng, training=False) is x
        out = T.dropout(x, 0.5, rng, training=True).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling
        assert 20 < (out == 0).sum() < 80

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_matches_a_float_mask(self, dtype):
        # the boolean mask and one scale give bitwise the outputs and
        # gradients of multiplying by a float mask keep / (1 - p) drawn
        # from the same float64 stream
        x = Tensor(np.random.default_rng(3).standard_normal((4, 6, 5))
                   .astype(dtype), requires_grad=True)
        g = np.random.default_rng(4).standard_normal(x.shape).astype(dtype)
        p = 0.3
        out = T.dropout(x, p, np.random.default_rng(5), training=True)
        T.tsum(T.mul(out, Tensor(g))).backward()
        mask = (np.random.default_rng(5).random(x.shape) >= p
                ).astype(dtype) / (1.0 - p)
        assert out.dtype == dtype and x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data, x.data * mask)
        np.testing.assert_array_equal(x.grad, g * mask)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_softmax_distribution_property(self, vals):
        out = T.softmax(Tensor(np.array([vals]))).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-5


class TestCrossEntropy:
    def test_uniform_logits_closed_form(self):
        loss = T.cross_entropy(Tensor(np.zeros(100)), 7)
        np.testing.assert_allclose(loss.data, np.log(100), rtol=1e-6)

    def test_saturated_target(self):
        logits = np.zeros(50)
        logits[3] = 1000.0
        assert float(T.cross_entropy(Tensor(logits), 3).data) < 1e-6

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal(30)
        naive = -np.log(np.exp(logits)[11] / np.exp(logits).sum())
        got = float(T.cross_entropy(Tensor(logits.astype(np.float64)), 11).data)
        np.testing.assert_allclose(got, naive, rtol=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            logits = Tensor(rng.standard_normal((3, 9)))
            assert float(T.cross_entropy(logits, [1, 2, 3]).data) >= 0.0

    def test_rejects_padding_target(self):
        with pytest.raises(ValueError):
            T.cross_entropy(Tensor(np.zeros(5)), 0)

    def test_grad(self):
        rng = np.random.default_rng(16)
        x = tensor64(rng.standard_normal((2, 7)))
        T.cross_entropy(x, [3, 1]).backward()

        def f():
            with T.no_grad():
                return float(T.cross_entropy(x, [3, 1]).data)

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.data),
                                   rtol=1e-5, atol=1e-9)


class TestParameterStore:
    def test_rejects_duplicates(self):
        store = ParameterStore(0)
        store.zeros("a", (2,))
        with pytest.raises(ValueError):
            store.zeros("a", (2,))

    def test_uniform_init_bounds(self):
        store = ParameterStore(0)
        t = store.uniform("w", (50, 50), fan_in=25)
        assert np.all(np.abs(t.data) <= 0.2)

    def test_zero_grads_and_counts(self):
        store = ParameterStore(0)
        store.zeros("a", (2, 3))
        store.zeros("b", (4,))
        store["a"].grad += 1.0
        store.zero_grads()
        assert store["a"].grad.sum() == 0.0

    def test_snapshot_load_roundtrip(self):
        store = ParameterStore(1)
        store.uniform("w", (3, 3), 3)
        snap = store.snapshot()
        store["w"].data += 5.0
        store.load_values(snap)
        np.testing.assert_array_equal(store["w"].data, snap["w"])

    def test_load_rejects_unknown_and_mismatch(self):
        store = ParameterStore(0)
        store.zeros("w", (2,))
        with pytest.raises(KeyError, match="nope"):
            store.load_values({"w": np.zeros(2), "nope": np.zeros(2)})
        with pytest.raises(ShapeError):
            store.load_values({"w": np.zeros(3)})

    def test_load_rejects_missing_names(self):
        store = ParameterStore(0)
        store.zeros("w", (2,))
        store.zeros("v", (3,))
        store.zeros("u", (1,))
        with pytest.raises(KeyError, match="v, u"):
            store.load_values({"w": np.ones(2)})
        np.testing.assert_array_equal(store["w"].data, 0.0)

    @pytest.mark.parametrize("bad", [{"b": np.ones(4)}, {"nope": np.ones(1)}])
    def test_failed_load_writes_nothing(self, bad):
        # the good entry comes first, so a load that writes as it checks
        # would overwrite it before reaching the bad one
        store = ParameterStore(2)
        store.uniform("a", (2,), 2)
        store.uniform("b", (3,), 3)
        before = store.snapshot()
        values = {"a": np.ones(2), "b": np.ones(3), **bad}
        with pytest.raises((KeyError, ShapeError)):
            store.load_values(values)
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].data, arr)

    def test_cast_float64_casts_in_place(self):
        from mlsa4rec.model import MlsaModel, ModelConfig
        model = MlsaModel(ModelConfig(vocab_size=12, max_len=4, d_model=8,
                                      d_state=2, n_interests=2, n_layers=1),
                          seed=0)
        before = model.params.snapshot()
        model.cast_float64()
        assert model.params.dtype == np.float64
        for name, t in model.params.entries.items():
            assert t.data.dtype == np.float64 and t.grad.dtype == np.float64
            np.testing.assert_array_equal(t.data, before[name])
        assert model.embedding is model.params["embedding.M"]
        assert model.stack[0].mamba.ssm.a_log is \
            model.params["stack.0.mamba.ssm.a_log"]


class TestGradCheckHarness:
    def test_passes_on_correct_graph(self):
        store = ParameterStore(0, dtype=np.float64)
        store.uniform("w", (4, 4), 4)
        store.uniform("b", (4,), 4)
        x = np.random.default_rng(17).standard_normal((2, 4))

        def f(s):
            return T.tsum(T.silu(T.add(T.matmul(Tensor(x), s["w"]), s["b"])))

        assert grad_check(f, store, n_samples=20) < 1e-6

    def test_requires_float64(self):
        store = ParameterStore(0)
        store.zeros("w", (2,))
        with pytest.raises(ValueError):
            grad_check(lambda s: T.tsum(s["w"]), store)

    def test_flags_wrong_gradient(self):
        store = ParameterStore(0, dtype=np.float64)
        w = store.uniform("w", (3,), 3)

        def wrong(g):
            return (0.5 * g,)  # deliberately wrong backward

        def f(s):
            return T.make_op(np.asarray(s["w"].data.sum()), (s["w"],),
                             wrong, "bad_sum")

        assert grad_check(f, store, n_samples=3) > 0.3
