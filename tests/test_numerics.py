"""Tensor ops, differentiation, optimizer, and RNG stream contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clclsa import numerics as nm


def finite_difference(build_loss, params, h=1e-5):
    """Central-difference gradients of a scalar-producing closure.

    `build_loss` must be a pure function of the parameter values.
    """
    out = {}
    for name, t in params.items():
        fd = np.zeros_like(t.data)
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = build_loss().item()
            t.data[idx] = orig - h
            fm = build_loss().item()
            t.data[idx] = orig
            fd[idx] = (fp - fm) / (2.0 * h)
            it.iternext()
        out[name] = fd
    return out


def max_rel_error(analytic, fd, floor=1e-4):
    worst = 0.0
    for name in analytic:
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(fd[name])), floor)
        worst = max(worst, float((np.abs(analytic[name] - fd[name]) / denom).max()))
    return worst


class TestAffine:
    def test_identity_input(self):
        x = nm.constant(np.eye(2))
        w = nm.constant([[2.0, 0.0], [0.0, 3.0]])
        b = nm.constant([[0.0, 0.0]])
        np.testing.assert_array_equal(nm.affine(x, w, b).data, [[2.0, 0.0], [0.0, 3.0]])

    def test_forced_arithmetic(self):
        out = nm.affine(nm.constant([[1.0, 1.0]]), nm.constant([[1.0], [1.0]]),
                        nm.constant([[-2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
        expected = np.zeros((3, 2))
        for n in range(3):
            for j in range(2):
                acc = b[0, j]
                for k in range(4):
                    acc += x[n, k] * w[k, j]
                expected[n, j] = acc
        np.testing.assert_allclose(nm.affine(x, w, b).data, expected, atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(nm.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            nm.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((1, 2)))


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert nm.sigmoid(nm.constant(0.0)).item() == 0.5

    def test_sigmoid_saturation(self):
        assert abs(nm.sigmoid(nm.constant(50.0)).item() - 1.0) < 1e-12

    def test_sigmoid_complement(self):
        x = np.linspace(-30, 30, 101).reshape(1, -1)
        total = nm.sigmoid(nm.constant(x)).data + nm.sigmoid(nm.constant(-x)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_sigmoid_bits_match_masked_formula(self):
        """The np.where form computes, bit for bit, the two masked passes it replaced."""
        x = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                       800.0, -800.0, 1.5, -1.5, 36.7, -36.7, 1e-300, -1e-300]])
        payload = np.array([0x7FF8_0000_0000_0BAD, 0xFFF0_0000_0000_0001], dtype=np.uint64)
        x = np.concatenate([x, payload.view(np.float64).reshape(1, -1)], axis=1)
        expected = np.empty_like(x)
        pos = x >= 0
        with np.errstate(all="ignore"):
            expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            expected[~pos] = ex / (1.0 + ex)
            got = nm.sigmoid(nm.constant(x)).data
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_relu_definition(self):
        np.testing.assert_array_equal(nm.relu(nm.constant([[-1.0, 0.0, 2.0]])).data,
                                      [[0.0, 0.0, 2.0]])

    def test_relu_all_negative_and_all_positive(self):
        np.testing.assert_array_equal(nm.relu(nm.constant([[-3.0, -0.5]])).data, [[0.0, 0.0]])
        x = np.array([[0.5, 3.0]])
        np.testing.assert_array_equal(nm.relu(nm.constant(x)).data, x)


class TestSoftmaxRows:
    def test_equal_values_give_uniform(self):
        out = nm.softmax_rows(nm.constant([[3.0, 3.0, 3.0, 3.0]])).data
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_forced_by_definition(self):
        out = nm.softmax_rows(nm.constant([[0.0, np.log(3.0)]])).data
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        a = nm.softmax_rows(nm.constant(x)).data
        b = nm.softmax_rows(nm.constant(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=30, size=(20, 7))
        out = nm.softmax_rows(nm.constant(x)).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0).all()


class TestDropout:
    def test_eval_is_identity(self):
        x = nm.constant(np.arange(6.0).reshape(2, 3))
        out = nm.dropout(x, 0.5, "eval", nm.RngStream(0, "d"))
        assert out is x

    def test_p_zero_is_identity(self):
        x = nm.constant(np.ones((2, 2)))
        assert nm.dropout(x, 0.0, "train", nm.RngStream(0, "d")) is x

    def test_invalid_probability(self):
        with pytest.raises(nm.ProbabilityError):
            nm.dropout(nm.constant(np.ones((1, 1))), 1.0, "train", nm.RngStream(0, "d"))

    def test_monte_carlo_expectation(self):
        rng = nm.RngStream(7, "dropout-mc")
        x = nm.constant(np.ones((100, 1000)))
        out = nm.dropout(x, 0.5, "train", rng)
        assert 0.98 <= out.data.mean() <= 1.02


class TestBatchNorm:
    def test_train_normalizes_columns(self):
        rng = np.random.default_rng(3)
        x = nm.constant(rng.normal(loc=5.0, scale=6.0, size=(64, 5)))
        st = nm.BatchNormState(5)
        out = nm.batch_norm(x, nm.constant(np.ones((1, 5))), nm.constant(np.zeros((1, 5))),
                            st, "train").data
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_constant_column_goes_to_zero(self):
        x = np.random.default_rng(4).normal(size=(16, 3))
        x[:, 1] = 7.0
        st = nm.BatchNormState(3)
        out = nm.batch_norm(nm.constant(x), nm.constant(np.ones((1, 3))),
                            nm.constant(np.zeros((1, 3))), st, "train").data
        np.testing.assert_array_equal(out[:, 1], 0.0)

    def test_eval_converges_to_train_after_many_identical_batches(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=2.0, scale=1.5, size=(32, 4))
        gamma = nm.constant(rng.normal(size=(1, 4)))
        beta = nm.constant(rng.normal(size=(1, 4)))
        st = nm.BatchNormState(4)
        for _ in range(200):
            train_out = nm.batch_norm(nm.constant(x), gamma, beta, st, "train").data
        eval_out = nm.batch_norm(nm.constant(x), gamma, beta, st, "eval").data
        assert np.abs(eval_out - train_out).max() < 1e-3

    def test_small_batch_rejected_in_train_mode(self):
        st = nm.BatchNormState(2)
        with pytest.raises(nm.BatchSizeError):
            nm.batch_norm(nm.constant(np.ones((1, 2))), nm.constant(np.ones((1, 2))),
                          nm.constant(np.zeros((1, 2))), st, "train")


class TestBackward:
    def test_linear_case_matches_hand_derivation(self):
        x = nm.constant([[1.0, 2.0], [3.0, 4.0]])
        w = nm.parameter(np.ones((2, 2)), "w")
        loss = nm.sum_all(nm.affine(x, w, nm.constant(np.zeros((1, 2)))))
        grads = nm.gradients(loss, {"w": w})
        # d(sum xW)/dW = column sums of x replicated per output column
        np.testing.assert_allclose(grads["w"], [[4.0, 4.0], [6.0, 6.0]], atol=1e-12)

    def test_unreached_parameter_gets_zero_gradient(self):
        used = nm.parameter(np.ones((1, 2)), "used")
        unused = nm.parameter(np.ones((3, 3)), "unused")
        loss = nm.sum_all(nm.mul(used, used))
        grads = nm.gradients(loss, {"used": used, "unused": unused})
        np.testing.assert_array_equal(grads["unused"], np.zeros((3, 3)))
        np.testing.assert_allclose(grads["used"], 2 * np.ones((1, 2)))

    def test_non_scalar_loss_rejected(self):
        w = nm.parameter(np.ones((2, 2)), "w")
        with pytest.raises(nm.GraphError):
            nm.backward(nm.mul(w, w))

    def test_shared_subgraph_accumulates(self):
        x = nm.parameter([[2.0]], "x")
        y = nm.mul(x, x)
        loss = nm.sum_all(nm.add(y, y))
        grads = nm.gradients(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], [[8.0]])


class TestComputeOnlyWhatIsConsumed:
    CONSTANT_OPERAND = {
        "affine_x": lambda c, w: nm.affine(c, w, nm.constant(np.zeros((1, 3)))),
        "affine_w": lambda c, w: nm.affine(w, c, nm.constant(np.zeros((1, 3)))),
        "mul_a": lambda c, w: nm.mul(c, w),
        "mul_b": lambda c, w: nm.mul(w, c),
        "sub_a": lambda c, w: nm.sub(c, w),
        "sub_b": lambda c, w: nm.sub(w, c),
    }

    @pytest.mark.parametrize("case", sorted(CONSTANT_OPERAND))
    def test_constant_operand_partial_is_not_computed(self, accumulated, case):
        rng = np.random.default_rng(15)
        c = nm.constant(rng.normal(size=(3, 3)), "c")
        w = nm.parameter(rng.normal(size=(3, 3)), "w")
        grads = nm.gradients(nm.sum_all(self.CONSTANT_OPERAND[case](c, w)), {"w": w})
        assert any(t is w for t in accumulated)
        assert all(t.requires_grad for t in accumulated), "a partial was computed for a constant"
        assert np.abs(grads["w"]).sum() > 0

    def test_first_negative_zero_contribution_is_stored_as_positive_zero(self):
        x = nm.parameter([[1.0, 2.0]], "x")
        loss = nm.sum_all(nm.mul(x, nm.constant([[-0.0, 3.0]])))
        grads = nm.gradients(loss, {"x": x})
        assert grads["x"][0, 0] == 0.0 and not np.signbit(grads["x"][0, 0])
        assert grads["x"][0, 1] == 3.0

    def test_first_contribution_is_copied_and_later_ones_add(self):
        t = nm.parameter(np.zeros((1, 2)), "t")
        g = np.array([[-0.0, 1.5]])
        nm.accumulate_grad(t, g)
        assert t.grad is not g
        g[0, 1] = 99.0
        nm.accumulate_grad(t, np.array([[2.0, 0.25]]))
        assert t.grad.tolist() == [[2.0, 1.75]]

    def test_gradients_hands_over_the_grad_arrays(self):
        w = nm.parameter(np.ones((2, 2)), "w")
        unused = nm.parameter(np.ones((1, 2)), "unused")
        grads = nm.gradients(nm.sum_all(nm.mul(w, w)), {"w": w, "unused": unused})
        assert grads["w"] is w.grad
        np.testing.assert_array_equal(grads["unused"], np.zeros((1, 2)))

    def test_gradients_fill_one_zeroed_buffer(self):
        w = nm.parameter(np.ones((2, 3)), "w")
        unused = nm.parameter(np.ones((1, 2)), "unused")
        b = nm.parameter(np.ones((1, 3)), "b")
        grads = nm.gradients(nm.sum_all(nm.mul(nm.add(w, b), w)),
                             {"w": w, "unused": unused, "b": b})
        flat = nm.flat_view(list(grads.values()))
        assert flat.shape == (11,)
        np.testing.assert_array_equal(flat, np.concatenate([g.ravel() for g in grads.values()]))
        flat[:] = 7.0  # views, not copies
        assert (grads["b"] == 7.0).all()


class TestGatherRows:
    def test_duplicate_indices_rejected(self):
        a = nm.parameter(np.ones((4, 2)), "a")
        with pytest.raises(nm.ShapeError, match="distinct"):
            nm.gather_rows(a, [0, 2, 0])

    def test_backward_is_bitwise_add_at_reference(self):
        rng = np.random.default_rng(14)
        idx = np.array([5, 0, 3, 6])
        upstream = rng.normal(size=(4, 3))
        for prior in (None, rng.normal(size=(7, 3))):
            a = nm.parameter(rng.normal(size=(7, 3)), "a")
            a.grad = None if prior is None else prior.copy()
            out = nm.gather_rows(a, idx)
            np.testing.assert_array_equal(out.data, a.data[idx])
            out.grad = upstream
            out._backward(out)
            scattered = np.zeros((7, 3))
            np.add.at(scattered, idx, upstream)
            expected = scattered if prior is None else prior + scattered
            np.testing.assert_array_equal(a.grad, expected)


@st.composite
def row_selections(draw):
    """(rows, columns, distinct row indices in any order, data seed)."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    idx = np.array(order[:draw(st.integers(0, n))], dtype=np.intp)
    return n, draw(st.integers(1, 4)), idx, draw(st.integers(0, 2 ** 16))


class TestGatherScatterAdjoint:
    @given(row_selections())
    def test_gather_and_scatter_are_adjoint(self, case):
        """<gather(A), B> = <A, scatter(B)>, and each op's backward is the other op."""
        n, cols, idx, seed = case
        rng = np.random.default_rng(seed)
        a = nm.parameter(rng.normal(size=(n, cols)), "a")
        b = nm.parameter(rng.normal(size=(idx.size, cols)), "b")
        gathered, scattered = nm.gather_rows(a, idx), nm.scatter_rows(b, idx, n)
        lhs = (gathered.data * b.data).sum()
        rhs = (a.data * scattered.data).sum()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        grad_a = nm.gradients(nm.sum_all(nm.mul(gathered, nm.constant(b.data))), {"a": a})
        np.testing.assert_array_equal(grad_a["a"], scattered.data)
        grad_b = nm.gradients(nm.sum_all(nm.mul(scattered, nm.constant(a.data))), {"b": b})
        np.testing.assert_array_equal(grad_b["b"], gathered.data)


class TestGradientsAgainstFiniteDifferences:
    """Composite graphs from the primitive set vs central differences."""

    def test_randomized_composites(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n, a, b = rng.integers(2, 6), rng.integers(2, 5), rng.integers(2, 5)
            params = {
                "w1": nm.parameter(rng.normal(size=(a, b)) * 0.7, "w1"),
                "b1": nm.parameter(rng.normal(size=(1, b)) * 0.3, "b1"),
                "w2": nm.parameter(rng.normal(size=(b, 3)) * 0.7, "w2"),
                "g": nm.parameter(rng.normal(size=(1, b)) + 1.5, "g"),
                "be": nm.parameter(rng.normal(size=(1, b)) * 0.2, "be"),
            }
            x = rng.normal(size=(max(n, 2), a))
            mix = rng.normal(size=(max(n, 2), 3))

            def build():
                h = nm.affine(nm.constant(x), params["w1"], params["b1"])
                h = nm.batch_norm(h, params["g"], params["be"], nm.BatchNormState(int(h.cols)), "train")
                h = nm.relu(h)
                h = nm.sigmoid(nm.affine(h, params["w2"], nm.constant(np.zeros((1, 3)))))
                p = nm.softmax_rows(nm.mul(h, nm.constant(mix)))
                picked = nm.clamp_min(nm.pick_per_row(p, np.zeros(p.rows, dtype=int)), 1e-12)
                return nm.mean_all(nm.log(picked))

            analytic = nm.gradients(build(), params)
            fd = finite_difference(build, params)
            assert max_rel_error(analytic, fd) < 1e-4, f"trial {trial}"

    def test_structural_ops(self):
        rng = np.random.default_rng(12)
        z = nm.parameter(rng.normal(size=(6, 3)), "z")
        idx = np.array([0, 2, 4])

        def build():
            picked = nm.gather_rows(z, idx)
            spread = nm.scatter_rows(picked, idx, 6)
            both = nm.concat_cols([spread, nm.mul(z, z)])
            return nm.sum_all(nm.mul(both, both))

        analytic = nm.gradients(build(), {"z": z})
        fd = finite_difference(build, {"z": z})
        assert max_rel_error(analytic, fd) < 1e-4

    def test_distribution_ops(self):
        rng = np.random.default_rng(13)
        a = nm.parameter(rng.normal(size=(5, 4)), "a")
        b = nm.parameter(rng.normal(size=(5, 4)), "b")

        def build():
            p = nm.unit_sum(nm.mean_outer(nm.softmax_rows(a), nm.softmax_rows(b)))
            return nm.sum_all(nm.mul(nm.log(nm.clamp_min(p, 1e-12)), p))

        analytic = nm.gradients(build(), {"a": a, "b": b})
        fd = finite_difference(build, {"a": a, "b": b})
        assert max_rel_error(analytic, fd) < 1e-4


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = nm.parameter(np.array([[1.0, -2.0, 3.0]]), "p")
        g = np.array([[0.5, -1.5, 2.0]])
        st = nm.AdamState()
        before = p.data.copy()
        nm.adam_step({"p": p}, {"p": g}, st, lr=0.01)
        move = p.data - before
        np.testing.assert_allclose(move, -0.01 * np.sign(g), rtol=1e-7)

    def test_zero_gradient_is_identity(self):
        p = nm.parameter(np.ones((2, 2)), "p")
        before = p.data.copy()
        nm.adam_step({"p": p}, {"p": np.zeros((2, 2))}, nm.AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_quadratic_descends(self):
        # f(theta) = theta^2 from theta=1 at lr=0.1: strictly decreasing steps
        p = nm.parameter([[1.0]], "p")
        st = nm.AdamState()
        values = [p.data[0, 0]]
        for _ in range(2):
            nm.adam_step({"p": p}, {"p": 2.0 * p.data}, st, lr=0.1)
            values.append(p.data[0, 0])
        assert values[0] > values[1] > values[2]

    def test_in_place_update_is_bitwise_the_formula(self):
        rng = np.random.default_rng(16)
        p = nm.parameter(rng.normal(size=(3, 4)), "p")
        st = nm.AdamState()
        ref_p, ref_m, ref_v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 6):
            g = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-8, 3)
            nm.adam_step({"p": p}, {"p": g}, st, lr=0.01)
            ref_m = st.beta1 * ref_m + (1.0 - st.beta1) * g
            ref_v = st.beta2 * ref_v + (1.0 - st.beta2) * (g * g)
            c1, c2 = 1.0 - st.beta1 ** t, 1.0 - st.beta2 ** t
            ref_p -= 0.01 * (ref_m / c1) / (np.sqrt(ref_v / c2) + st.eps)
            for got, want in ((p.data, ref_p), (st.m["p"], ref_m), (st.v["p"], ref_v)):
                assert got.tobytes() == want.tobytes()

    def test_chunked_flat_update_matches_per_tensor_reference(self):
        """Three chunks, the last one partial: the same bits as updating each
        tensor on its own with whole-tensor temporaries."""
        rng = np.random.default_rng(17)
        shapes = [(300, 200), (1, 200), (17, 13), (1, 1), (64, 129)]
        assert 2 * nm.ADAM_CHUNK < sum(r * c for r, c in shapes) < 3 * nm.ADAM_CHUNK
        _, views = nm.pack([rng.normal(size=s) for s in shapes])
        params = {f"p{i}": nm.parameter(v, f"p{i}") for i, v in enumerate(views)}
        ref_p = {name: t.data.copy() for name, t in params.items()}
        ref_m = {name: np.zeros(t.data.shape) for name, t in params.items()}
        ref_v = {name: np.zeros(t.data.shape) for name, t in params.items()}
        st = nm.AdamState()
        for t in range(1, 5):
            _, grad_views = nm.pack([rng.normal(size=s) * 10.0 ** rng.integers(-8, 3)
                                     for s in shapes])
            grads = dict(zip(params, grad_views))
            nm.adam_step(params, grads, st, lr=0.01)
            c1, c2 = 1.0 - st.beta1 ** t, 1.0 - st.beta2 ** t
            for name, g in grads.items():
                m, v = ref_m[name], ref_v[name]
                m *= st.beta1
                m += (1.0 - st.beta1) * g
                v *= st.beta2
                v += (1.0 - st.beta2) * (g * g)
                ref_p[name] -= 0.01 * (m / c1) / (np.sqrt(v / c2) + st.eps)
            for name, p in params.items():
                assert p.data.tobytes() == ref_p[name].tobytes(), name
                assert st.m[name].tobytes() == ref_m[name].tobytes(), name
                assert st.v[name].tobytes() == ref_v[name].tobytes(), name

    def test_parameters_outside_one_buffer_rejected(self):
        params = {"a": nm.parameter(np.ones((2, 2)), "a"), "b": nm.parameter(np.ones((1, 2)), "b")}
        grads = nm.gradients(nm.add(nm.sum_all(params["a"]), nm.sum_all(params["b"])), params)
        with pytest.raises(nm.ShapeError, match="one buffer"):
            nm.adam_step(params, grads, nm.AdamState(), lr=0.01)

    def test_invalid_lr(self):
        with pytest.raises(nm.HyperparameterError):
            nm.adam_step({}, {}, nm.AdamState(), lr=0.0)

    def test_step_counter_and_shape_check(self):
        p = nm.parameter(np.ones((2, 2)), "p")
        st = nm.AdamState()
        nm.adam_step({"p": p}, {"p": np.ones((2, 2))}, st, lr=0.01)
        assert st.t == 1
        with pytest.raises(nm.ShapeError):
            nm.adam_step({"p": p}, {"p": np.ones((1, 2))}, st, lr=0.01)


class TestInitParams:
    def test_bias_is_zero(self):
        out = nm.init_params((1, 7), nm.RngStream(0, "b"), kind="bias")
        np.testing.assert_array_equal(out, np.zeros((1, 7)))

    def test_bounds_and_mean(self):
        out = nm.init_params((100, 100), nm.RngStream(1, "w"))
        s = np.sqrt(6.0 / 200.0)
        assert out.min() >= -s and out.max() <= s
        assert abs(out.mean()) < 0.01

    def test_deterministic_per_seed_label(self):
        a = nm.init_params((20, 30), nm.RngStream(9, "layer1"))
        b = nm.init_params((20, 30), nm.RngStream(9, "layer1"))
        np.testing.assert_array_equal(a, b)


class TestRngStream:
    def test_same_seed_label_same_sequence(self):
        a = nm.RngStream(123, "x/y")
        b = nm.RngStream(123, "x/y")
        np.testing.assert_array_equal(a.uniform(4, 4), b.uniform(4, 4))
        np.testing.assert_array_equal(a.permutation(17), b.permutation(17))

    def test_different_labels_differ(self):
        a = nm.RngStream(123, "x").uniform(4, 4)
        b = nm.RngStream(123, "y").uniform(4, 4)
        assert not np.array_equal(a, b)

    def test_child_stream_independent_of_parent_draws(self):
        parent1 = nm.RngStream(5, "root")
        parent2 = nm.RngStream(5, "root")
        parent1.uniform(10, 10)
        np.testing.assert_array_equal(parent1.child("c").uniform(3, 3),
                                      parent2.child("c").uniform(3, 3))

    def test_counter_tracks_draws(self):
        s = nm.RngStream(0, "c")
        s.uniform(1, 1)
        s.normal(1, 1)
        assert s.counter == 2
