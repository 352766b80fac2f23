import numpy as np
import pytest

from conftest import surrogate_cost
from modet.groups import build_grid_groups
from modet.io import SynthSpec, synth_sequence
from modet.model import Frame, HyperParams, default_hyperparams, init_subspace
from modet.pipeline import SurrogateTracker, process_frame, run_sequence
from modet.subspace import load_checkpoint, save_checkpoint


def make_setup(p=16, H=4, W=4, rank=2, seed=0):
    params = HyperParams(lambda1=1.0 / np.sqrt(p), lambda2=10.0 / np.sqrt(p),
                         rank=rank)
    g = build_grid_groups(H, W)
    model = init_subspace(p, params, seed)
    return model, g, params


def frame_stream(pixel_rows, H, W):
    for i, pix in enumerate(pixel_rows):
        yield Frame(np.asarray(pix, dtype=float), H, W, index=i)


def test_zero_first_frame_contracts_basis():
    model, g, params = make_setup()
    before = np.linalg.norm(model.basis)
    model, out = process_frame(model, Frame(np.zeros(16), 4, 4), g, params)
    assert not out.separation.coeffs.any()
    assert not out.separation.foreground.any()
    assert np.linalg.norm(model.basis) < before


def test_separation_uses_pre_update_basis():
    model, g, params = make_setup(seed=3)
    probe = model.basis.copy()
    rng = np.random.default_rng(4)
    d = Frame(rng.uniform(0, 1, 16), 4, 4)
    model, out = process_frame(model, d, g, params)
    # the background must be a combination of the basis as it was before
    assert np.array_equal(out.separation.background, probe @ out.separation.coeffs)
    assert not np.array_equal(model.basis, probe)


def test_stationary_scene_foreground_fades():
    rng = np.random.default_rng(5)
    H = W = 8
    p = H * W
    base = 0.5 + 0.2 * np.outer(np.cos(np.linspace(0, 3, H)),
                                np.sin(np.linspace(0, 2, W))).ravel()
    model, g, params = make_setup(p=p, H=H, W=W, rank=2, seed=1)
    out = None
    for i in range(50):
        model, out = process_frame(model, Frame(base.copy(), H, W, index=i), g, params)
    ratio = np.linalg.norm(out.separation.foreground) / np.linalg.norm(base)
    assert ratio <= 0.05


def test_two_runs_identical_given_seed():
    def one_run():
        rng = np.random.default_rng(9)
        model, g, params = make_setup(seed=11)
        tracker = SurrogateTracker()
        outs = []
        for i in range(8):
            d = Frame(rng.uniform(0, 1, 16), 4, 4, index=i)
            model, out = process_frame(model, d, g, params, tracker)
            outs.append(out)
        return model, outs

    m1, o1 = one_run()
    m2, o2 = one_run()
    assert np.array_equal(m1.basis, m2.basis)
    assert np.array_equal(m1.accA, m2.accA)
    for a, b in zip(o1, o2):
        assert np.array_equal(a.separation.foreground, b.separation.foreground)
        assert (a.basis_delta, a.g_cost) == (b.basis_delta, b.g_cost)
        assert a.g_cost is not None


def test_tracker_matches_history_surrogate():
    rng = np.random.default_rng(6)
    model, g, params = make_setup(seed=2)
    tracker = SurrogateTracker()
    history = []
    for i in range(6):
        d = Frame(rng.uniform(0, 1, 16), 4, 4, index=i)
        model, out = process_frame(model, d, g, params, tracker=tracker)
        history.append((d, out.separation))
        slow = surrogate_cost(model, history, g, params)
        assert out.g_cost == pytest.approx(slow, rel=1e-10, abs=1e-12)
        assert out.basis_delta is not None and out.basis_delta >= 0.0


def test_run_sequence_processes_every_frame_by_default():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0, 1, size=(10, 16))
    records = []
    summary = run_sequence(
        frame_stream(rows, 4, 4),
        params=HyperParams(lambda1=0.25, lambda2=2.5, rank=2),
        sinks=(records.append,),
        seed=0,
    )
    assert summary.frames_processed == 10
    assert [r["frame_index"] for r in records] == list(range(10))


def test_run_sequence_downsampling_counts():
    rng = np.random.default_rng(8)
    rows = rng.uniform(0, 1, size=(10, 16))
    records = []
    summary = run_sequence(
        frame_stream(rows, 4, 4),
        params=HyperParams(lambda1=0.25, lambda2=2.5, rank=2),
        downsample=3,
        sinks=(records.append,),
        seed=0,
    )
    assert summary.frames_processed == 4
    assert [r["frame_index"] for r in records] == [0, 3, 6, 9]


def test_run_sequence_checkpoint_and_evaluator(tmp_path):
    rng = np.random.default_rng(10)
    rows = rng.uniform(0, 1, size=(5, 16))
    ckpt = tmp_path / "m.ckpt"
    seen = []

    def ev(frame, sep):
        seen.append(frame.index)
        return {"recall_acc": 1.0}

    records = []
    summary = run_sequence(
        frame_stream(rows, 4, 4),
        params=HyperParams(lambda1=0.25, lambda2=2.5, rank=2),
        sinks=(records.append,),
        evaluator=ev,
        checkpoint_path=ckpt,
        seed=0,
    )
    assert seen == list(range(5))
    assert all(r["recall_acc"] == 1.0 for r in records)
    assert summary.checkpoint_path == str(ckpt)
    assert ckpt.stat().st_size > 0
    from modet.subspace import load_checkpoint

    m, H, W, lam1, lam2 = load_checkpoint(ckpt)
    assert (H, W) == (4, 4)
    assert m.frames_seen == 5
    assert np.array_equal(m.basis, summary.model.basis)


def test_run_sequence_empty_source_raises():
    with pytest.raises(ValueError):
        run_sequence(iter(()), params=HyperParams(lambda1=0.1, lambda2=1.0, rank=2))


def test_run_sequence_rejects_bad_downsample():
    with pytest.raises(ValueError):
        run_sequence(iter(()), downsample=0)


class TestCarriedGram:
    """The Gram matrix the basis sweep carries changes no bit of a run."""

    # 40x40: the basis pass runs over two blocks of rows
    H = W = 40

    def frames(self):
        spec = SynthSpec(height=self.H, width=self.W, n_frames=8)
        return list(synth_sequence(spec, 4)[0])

    def run(self, frames, model=None, reset=False):
        params = default_hyperparams(self.H * self.W)
        g = build_grid_groups(self.H, self.W)
        if model is None:
            model = init_subspace(self.H * self.W, params, 0)
        seps = []
        for frame in frames:
            if reset:
                model.gram = None
            model, out = process_frame(model, frame, g, params)
            seps.append(out.separation.foreground.tobytes()
                        + out.separation.coeffs.tobytes())
        return model, seps

    def checkpoint(self, path, model):
        params = default_hyperparams(self.H * self.W)
        save_checkpoint(path, model, self.H, self.W, params.lambda1,
                        params.lambda2)
        return path.read_bytes()

    def test_recomputed_gram_gives_the_carried_bits(self, tmp_path):
        frames = self.frames()
        carried, seps = self.run(frames)
        fresh, fresh_seps = self.run(frames, reset=True)
        assert fresh_seps == seps
        assert (self.checkpoint(tmp_path / "a", fresh)
                == self.checkpoint(tmp_path / "b", carried))

    def test_resume_from_a_checkpoint_gives_the_uninterrupted_bytes(
            self, tmp_path):
        frames = self.frames()
        whole, seps = self.run(frames)
        head, head_seps = self.run(frames[:3])
        self.checkpoint(tmp_path / "k.ckpt", head)
        loaded = load_checkpoint(tmp_path / "k.ckpt")[0]
        assert loaded.gram is None
        tail, tail_seps = self.run(frames[3:], model=loaded)
        assert head_seps + tail_seps == seps
        assert (self.checkpoint(tmp_path / "resumed", tail)
                == self.checkpoint(tmp_path / "whole", whole))


@pytest.mark.usefixtures("numpy_backend")
class TestCarriedGramNumpy(TestCarriedGram):
    """The same cases on the numpy fallback of the prox sweeps."""
