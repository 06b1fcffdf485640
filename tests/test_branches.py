"""A training step's branches on a thread pool: the same bits as the serial step.

`train.train` runs a step's independent branches on threads only when its
arrays are wide (`numerics.BRANCH_MIN_ELEMENTS`); these tests set the bound
to 0 so desk-size models take that path, and compare it with the serial one.
"""

import itertools
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from clclsa import model as md
from clclsa import numerics as nm
from clclsa import train as tr
from tests.test_numerics import finite_difference, max_rel_error
from tests.test_train import TINY_MODEL, quick_config, tiny_dataset


def threaded(monkeypatch):
    """Let every fit take the pool, with two threads besides the caller's,
    and count the backward passes that ran on it."""
    monkeypatch.setattr(nm, "BRANCH_MIN_ELEMENTS", 0)
    monkeypatch.setattr(nm, "_usable_cpus", lambda: 3)
    passes = []
    on_pool = nm._backward_branches

    def counted(rev):
        passes.append(len(rev))
        on_pool(rev)

    monkeypatch.setattr(nm, "_backward_branches", counted)
    return passes


def fit_bytes(ds, cfg, tmp_path, tag):
    """The trained tensors, batch-norm statistics, logs and checkpoint file of a fit."""
    params, logs = tr.train(ds, TINY_MODEL, cfg)
    path = tmp_path / f"{tag}.ckpt"
    md.save_checkpoint(path, params)
    return ([t.data.tobytes() for t in params.tensors().values()],
            [(s.running_mean.tobytes(), s.running_var.tobytes())
             for s in params.bn_states.values()],
            logs, path.read_bytes())


WEIGHT_SWITCHES = list(itertools.product((0.0, 0.1), (0.0, 0.1), (0.0, 0.01)))


class TestSameBitsAsSerial:
    @pytest.mark.parametrize("al, co, cl", WEIGHT_SWITCHES)
    def test_every_term_combination(self, al, co, cl, monkeypatch, tmp_path):
        # small Adam chunks, so the update is split across the threads too
        monkeypatch.setattr(nm, "ADAM_CHUNK", 64)
        ds = tiny_dataset(n=30, eta=0.3)
        cfg = quick_config(epochs=6, weights=md.LossWeights(al, co, cl, 9.0))
        serial = fit_bytes(ds, cfg, tmp_path, "serial")
        passes = threaded(monkeypatch)
        assert fit_bytes(ds, cfg, tmp_path, "threads") == serial
        assert len(passes) == 6

    def test_mini_batches_with_dropout(self, monkeypatch, tmp_path):
        assert TINY_MODEL.dropout_p > 0
        ds = tiny_dataset(n=25, eta=0.4)
        cfg = quick_config(epochs=3, batch_size=8, reduction="sum")
        serial = fit_bytes(ds, cfg, tmp_path, "serial")
        passes = threaded(monkeypatch)
        assert fit_bytes(ds, cfg, tmp_path, "threads") == serial
        assert len(passes) == 9  # batches of 8, 8 and 9 rows in each of 3 epochs

    def test_gradients_match_finite_differences(self, monkeypatch):
        cfg = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        weights = md.LossWeights(lambda_al=0.1, lambda_co=1.0, lambda_cl=0.01, alpha=9.0)
        rng = np.random.default_rng(7)
        views = [rng.normal(size=(5, 6)) for _ in range(3)]
        mask = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1]], dtype=bool)
        labels = np.array([0, 1, 0, 1, 1])
        params = md.CLCLSAParams.init_random(cfg, seed=3)
        tensors = params.tensors()
        for name, t in tensors.items():  # off the ReLU kinks of zero biases
            t.data = t.data + rng.uniform(-0.1, 0.1, size=t.data.shape)
        conf = [y.data.max(axis=1, keepdims=True) for y in md.build_objective(
            views, mask, labels, params, weights, mode="train")[2].yhat_view]

        def build():  # train mode, so each build stages fresh statistics
            return md.build_objective(views, mask, labels, params, weights, mode="train",
                                      conf_targets=conf)[0]

        serial = {name: g.copy() for name, g in nm.gradients(build(), tensors).items()}
        passes = threaded(monkeypatch)
        with nm._branch_pool(0):
            analytic = nm.gradients(build(), tensors)
        assert passes
        for name, g in analytic.items():
            assert g.tobytes() == serial[name].tobytes(), name
        assert max_rel_error(analytic, finite_difference(build, tensors)) < 1e-4


class TestStress:
    def test_more_threads_than_cores_at_a_short_switch_interval(self, monkeypatch, tmp_path):
        """A lost or reordered addition would change the bits; the fit runs on a
        thread of its own, which gets its own pool, and must end in time."""
        ds = tiny_dataset(n=30, eta=0.3)
        cfg = quick_config(epochs=4, weights=md.LossWeights(0.1, 0.1, 0.01, 9.0))
        serial = fit_bytes(ds, cfg, tmp_path, "serial")
        passes = threaded(monkeypatch)
        monkeypatch.setattr(nm, "_usable_cpus", lambda: 8)
        done = []
        fit = threading.Thread(target=lambda: done.append(fit_bytes(ds, cfg, tmp_path, "t")))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fit.start()
            fit.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not fit.is_alive()
        assert done == [serial] and len(passes) == 4


def failing_node(parent, message):
    """A node over `parent` whose backward hook raises RuntimeError(message)."""
    def backward_fn(out):
        raise RuntimeError(message)
    return nm.custom_op(np.ones((1, 1)), (parent,), backward_fn)


class TestFailures:
    def test_a_failing_backward_hook_raises_as_the_serial_loop_does(self, monkeypatch):
        x = nm.parameter(np.ones((1, 1)), "x")
        # the serial loop reaches the right-hand branch first
        loss = nm.add(nm.scale(failing_node(x, "left"), 2.0),
                      nm.scale(nm.scale(failing_node(x, "right"), 3.0), 4.0))
        with pytest.raises(RuntimeError, match="right"):
            nm.backward(loss)
        threaded(monkeypatch)
        for _ in range(5):
            with nm._branch_pool(0), pytest.raises(RuntimeError, match="right"):
                nm.backward(loss)

    def test_a_failing_forward_branch_raises_as_the_serial_step_does(self, monkeypatch):
        ds = tiny_dataset(n=30, eta=0.3)
        real = md._complete_view

        def failing(full, target, *args):
            if target > 0:
                raise RuntimeError(f"completion of view {target}")
            return real(full, target, *args)

        monkeypatch.setattr(md, "_complete_view", failing)
        with pytest.raises(RuntimeError) as serial:
            tr.train(ds, TINY_MODEL, quick_config(epochs=1))
        threaded(monkeypatch)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            tr.train(ds, TINY_MODEL, quick_config(epochs=1))
        assert str(info.value) == str(serial.value) == "completion of view 1"
        assert threading.active_count() == before

    def test_an_aborted_fit_carries_the_state_before_its_step(self, monkeypatch):
        passes = threaded(monkeypatch)
        ds = tiny_dataset(eta=0.3)
        cfg = quick_config(epochs=3)
        calls = []
        real = tr.gradients

        def poisoned_second_step(total, tensors):
            grads = real(total, tensors)
            calls.append(None)
            if len(calls) == 2:
                next(iter(grads.values()))[0, 0] = np.nan
            return grads

        monkeypatch.setattr(tr, "gradients", poisoned_second_step)
        before = threading.active_count()
        with pytest.raises(tr.TrainingAborted) as info:
            tr.train(ds, TINY_MODEL, cfg)
        assert threading.active_count() == before
        assert len(passes) == 2
        monkeypatch.setattr(tr, "gradients", real)
        exc = info.value
        assert (exc.term, exc.epoch, len(exc.logs)) == ("gradient", 1, 1)
        monkeypatch.setattr(nm, "BRANCH_MIN_ELEMENTS", 1 << 62)  # serial
        step_one, logs = tr.train(ds, TINY_MODEL, replace(cfg, epochs=1))
        assert exc.logs == logs
        for name, t in step_one.tensors().items():
            assert exc.params[name].data.tobytes() == t.data.tobytes(), name
        for name, st in step_one.bn_states.items():
            got = exc.params.bn_states[name]
            assert got.running_mean.tobytes() == st.running_mean.tobytes(), name
            assert got.running_var.tobytes() == st.running_var.tobytes(), name


class TestPoolScope:
    def test_no_thread_outlives_a_fit(self, monkeypatch):
        passes = threaded(monkeypatch)
        before = threading.active_count()
        tr.train(tiny_dataset(eta=0.3), TINY_MODEL, quick_config(epochs=2))
        assert passes and threading.active_count() == before

    def test_narrow_fits_and_single_cpus_stay_serial(self, monkeypatch):
        passes = threaded(monkeypatch)
        monkeypatch.setattr(nm, "BRANCH_MIN_ELEMENTS", 24 * 6 + 1)  # one more than N x width
        tr.train(tiny_dataset(eta=0.3), TINY_MODEL, quick_config(epochs=2))
        monkeypatch.setattr(nm, "BRANCH_MIN_ELEMENTS", 0)
        monkeypatch.setattr(nm, "_usable_cpus", lambda: 1)
        tr.train(tiny_dataset(eta=0.3), TINY_MODEL, quick_config(epochs=2))
        assert passes == []

    def test_pool_threads_fan_out_no_further(self, monkeypatch):
        threaded(monkeypatch)
        caller = threading.current_thread()
        with nm._branch_pool(0):
            outer = nm._branch.pool
            seen = nm._fan_out(lambda _: (threading.current_thread() is caller,
                                          nm._branch.pool is not None), range(8))
            with nm._branch_pool(0):  # an inner block keeps the outer pool
                assert nm._branch.pool is outer
        assert seen[0] == (True, True)  # the caller runs the first item
        assert all(here == has_pool for here, has_pool in seen)
        assert nm._branch.pool is None
