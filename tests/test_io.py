import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modet.io import (
    MetricsSink,
    SynthSpec,
    iter_sequence,
    read_frame_pgm,
    synth_sequence,
    write_frame_pgm,
    write_sequence_dir,
)
from modet.model import Frame


class TestPgmRead:
    def test_p5_basic(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        f = read_frame_pgm(data)
        assert (f.height, f.width) == (2, 2)
        assert np.allclose(f.pixels, [0.0, 1.0, 128 / 255, 64 / 255])

    def test_p2_matches_p5(self):
        p5 = read_frame_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        p2 = read_frame_pgm(b"P2\n2 2\n255\n0 255\n128 64\n")
        assert np.array_equal(p5.pixels, p2.pixels)

    def test_sixteen_bit_big_endian(self):
        payload = (32768).to_bytes(2, "big") * 4
        f = read_frame_pgm(b"P5\n2 2\n65535\n" + payload)
        assert np.allclose(f.pixels, 32768 / 65535)

    def test_comments_in_header(self):
        data = b"P5\n# a comment\n2 1 # inline\n255\n" + bytes([10, 20])
        f = read_frame_pgm(data)
        assert (f.height, f.width) == (1, 2)

    def test_errors_carry_byte_offsets(self):
        with pytest.raises(ValueError, match="byte 0"):
            read_frame_pgm(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="byte"):
            read_frame_pgm(b"P5\n2 x\n255\n" + bytes(4))
        with pytest.raises(ValueError, match="truncated"):
            read_frame_pgm(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(ValueError, match="maxval"):
            read_frame_pgm(b"P5\n2 2\n70000\n" + bytes(8))
        with pytest.raises(ValueError, match="end of"):
            read_frame_pgm(b"P2\n2 2\n255\n1 2 3")

    def test_p2_signed_samples_rejected(self):
        with pytest.raises(ValueError, match=r"byte 11: invalid sample b'-5'"):
            read_frame_pgm(b"P2\n2 1\n255\n-5 7\n")
        with pytest.raises(ValueError, match=r"byte 13: invalid sample b'\+7'"):
            read_frame_pgm(b"P2\n2 1\n255\n5 +7\n")

    def test_p2_sample_above_maxval(self):
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_frame_pgm(b"P2\n2 1\n100\n50 120\n")


class TestPgmWrite:
    def test_zero_vector(self):
        out = write_frame_pgm(np.zeros(4), 2, 2)
        assert out == b"P5\n2 2\n255\n" + bytes(4)

    def test_round_half_up(self):
        out = write_frame_pgm(np.array([0.5]), 1, 1)
        assert out[-1] == 128

    def test_clamping(self):
        out = write_frame_pgm(np.array([-0.3, 1.7]), 1, 2)
        assert list(out[-2:]) == [0, 255]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_write_read_write_idempotent(self, H, W, data):
        v = data.draw(arrays(np.float64, H * W,
                             elements=st.floats(-0.5, 1.5)))
        first = write_frame_pgm(v, H, W)
        decoded = read_frame_pgm(first)
        assert (decoded.height, decoded.width) == (H, W)
        second = write_frame_pgm(decoded.pixels, H, W)
        assert first == second


class TestSequenceDir:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        spec = SynthSpec(height=8, width=8, n_frames=4, rank=1, n_blobs=1,
                         blob_min=2, blob_max=3)
        frames, _ = synth_sequence(spec, seed=3)
        n = write_sequence_dir(tmp_path / "seq", frames)
        assert n == 4
        back = list(iter_sequence(tmp_path / "seq"))
        assert [f.index for f in back] == [0, 1, 2, 3]
        assert all(f.height == 8 and f.width == 8 for f in back)

    def test_manifest_file_entry_point(self, tmp_path):
        spec = SynthSpec(height=8, width=8, n_frames=3, rank=1, n_blobs=0)
        frames, _ = synth_sequence(spec, seed=3)
        write_sequence_dir(tmp_path / "seq", frames)
        back = list(iter_sequence(tmp_path / "seq" / "manifest.txt"))
        assert len(back) == 3

    def test_directory_reads_its_manifest_order(self, tmp_path):
        frames = [Frame(np.full(4, v), 2, 2) for v in (0.0, 0.5, 1.0)]
        write_sequence_dir(tmp_path, frames)
        names = sorted(f.name for f in tmp_path.glob("*.pgm"))
        (tmp_path / "manifest.txt").write_text("\n".join(names[::-1]) + "\n")
        back = [f.pixels[0] for f in iter_sequence(tmp_path)]
        assert back == [1.0, 128 / 255, 0.0]
        (tmp_path / "manifest.txt").unlink()
        back = [f.pixels[0] for f in iter_sequence(tmp_path)]
        assert back == [0.0, 128 / 255, 1.0]
        (tmp_path / "manifest.txt").write_text("\n")
        with pytest.raises(ValueError, match="empty sequence"):
            list(iter_sequence(tmp_path))

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_sequence(tmp_path / "nope"))


class TestSynthSequence:
    def test_background_is_exactly_low_rank(self):
        spec = SynthSpec(height=16, width=16, n_frames=40, rank=3, n_blobs=0,
                         noise_sigma=0.0)
        frames, gt = synth_sequence(spec, seed=5)
        stack = np.stack([f.pixels for f in frames], axis=1)
        sv = np.linalg.svd(stack, compute_uv=False)
        assert sv[3] <= 1e-10
        assert sv[2] > 1e-10  # genuinely rank 3, not less
        assert all(len(v) == 0 for v in gt.values())

    def test_frames_stay_in_unit_range(self):
        spec = SynthSpec(height=12, width=12, n_frames=20, rank=2, n_blobs=2,
                         blob_min=3, blob_max=4, noise_sigma=0.05)
        frames, _ = synth_sequence(spec, seed=6)
        for f in frames:
            assert f.pixels.min() >= 0.0 and f.pixels.max() <= 1.0

    def test_static_blob_constant_box(self):
        spec = SynthSpec(height=10, width=10, n_frames=5, rank=1, n_blobs=1,
                         blob_min=3, blob_max=3, speed_min=0.0, speed_max=0.0,
                         noise_sigma=0.0)
        _, gt = synth_sequence(spec, seed=7)
        boxes = [gt[i] for i in range(5)]
        assert all(b == boxes[0] for b in boxes)
        assert len(boxes[0]) == 1

    def test_groundtruth_matches_blob_raster(self):
        spec = SynthSpec(height=12, width=12, n_frames=30, rank=1, n_blobs=1,
                         blob_min=4, blob_max=4, speed_min=1.5, speed_max=2.0,
                         noise_sigma=0.0)
        frames, gt = synth_sequence(spec, seed=8)
        for f in frames:
            img = f.pixels.reshape(12, 12)
            blob_mask = (img > 0.9) | (img < 0.1)
            boxed = np.zeros((12, 12), dtype=bool)
            for b in gt[f.index]:
                assert b.x + b.w <= 12 and b.y + b.h <= 12
                boxed[b.y : b.y + b.h, b.x : b.x + b.w] = True
            # every blob pixel lies inside one of its boxes
            assert not (blob_mask & ~boxed).any()
            # and the boxes are exactly covered by blob values
            assert (img[boxed] > 0.9).all() or (img[boxed] < 0.1).all()
            assert boxed.sum() == 16

    def test_default_benchmark_blob_fraction(self):
        spec = SynthSpec()
        # analytic bound: worst case all blobs at max size
        assert spec.n_blobs * spec.blob_max**2 <= 0.05 * spec.height * spec.width

    def test_determinism_by_seed(self):
        spec = SynthSpec(height=8, width=8, n_frames=6, rank=2, n_blobs=2,
                         blob_min=2, blob_max=3)
        f1, g1 = synth_sequence(spec, seed=9)
        f2, g2 = synth_sequence(spec, seed=9)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.pixels, b.pixels)
        assert g1 == g2

    def test_oversized_blob_rejected(self):
        spec = SynthSpec(height=6, width=6, blob_min=7, blob_max=9)
        with pytest.raises(ValueError):
            synth_sequence(spec, seed=0)


class TestMetricsSink:
    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        with MetricsSink(path):
            pass
        lines = path.read_text().splitlines()
        assert lines == [
            "frame_index,iters,final_delta,fg_energy,basis_delta,g_cost,"
            "recall5,precision5,f1_5,recall_acc,precision_acc,f1_acc,"
            "prox_sweeps,prox_capped,wall_ms"
        ]

    def test_rows_and_missing_fields(self, tmp_path):
        path = tmp_path / "m.csv"
        with MetricsSink(path, comments=["seed=1"]) as sink:
            for i in range(4):
                sink({"frame_index": i, "iters": 3, "final_delta": 0.5,
                      "fg_energy": 1.25, "wall_ms": 2.0})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert len(lines) == 6  # comment + header + 4 rows
        row = lines[2].split(",")
        assert row[0] == "0" and row[1] == "3"
        assert row[4] == ""  # basis_delta absent
        assert row[5] == ""  # detection fields absent

    def test_deterministic_apart_from_wall_ms(self, tmp_path):
        def emit(path):
            with MetricsSink(path) as sink:
                for i in range(3):
                    sink({"frame_index": i, "iters": 2, "final_delta": 1e-6,
                          "fg_energy": 0.5, "wall_ms": np.random.rand()})

        emit(tmp_path / "a.csv")
        emit(tmp_path / "b.csv")
        strip = lambda p: [
            ",".join(ln.split(",")[:-1]) for ln in p.read_text().splitlines()
        ]
        assert strip(tmp_path / "a.csv") == strip(tmp_path / "b.csv")
