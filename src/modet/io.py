"""Frame ingestion (PGM), sequence manifests, synthetic data, metrics CSV."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detection import Box
from .model import Frame

_WS = b" \t\r\n\x0b\x0c"


def _next_token(data: bytes, pos: int):
    """Skip whitespace/comments, return (token, end_position)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WS:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            break
    if pos >= n:
        raise ValueError(f"byte {pos}: unexpected end of data in PGM header")
    start = pos
    while pos < n and data[pos] not in _WS and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str):
    """Parse the next token as a plain decimal number; no sign, no "_"."""
    tok, end = _next_token(data, pos)
    if not tok.isdigit():
        raise ValueError(f"byte {end - len(tok)}: invalid {what} {tok!r} in PGM")
    return int(tok), end


def read_frame_pgm(data: bytes, index: int = 0) -> Frame:
    """Decode a binary (P5) or ASCII (P2) PGM into a [0, 1] frame.

    16-bit payloads are big-endian per the format; intensities are divided
    by maxval. Malformed input raises with the offending byte offset.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"byte 0: not a PGM file (magic {magic!r})")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ValueError(f"byte {pos}: nonpositive PGM dimensions")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"byte {pos}: maxval {maxval} outside [1, 65535]")
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise ValueError(f"byte {pos}: expected whitespace before P5 raster")
        pos += 1
        itemsize = 1 if maxval < 256 else 2
        need = count * itemsize
        if len(data) - pos < need:
            raise ValueError(
                f"byte {len(data)}: truncated P5 payload "
                f"({len(data) - pos} of {need} bytes)"
            )
        dt = np.uint8 if itemsize == 1 else np.dtype(">u2")
        raw = np.frombuffer(data, dtype=dt, count=count, offset=pos)
        samples = raw.astype(np.float64)
    else:
        samples = np.empty(count)
        for i in range(count):
            val, pos = _header_int(data, pos, "sample")
            samples[i] = val
    if samples.max(initial=0.0) > maxval:
        raise ValueError(f"byte {pos}: sample value exceeds maxval {maxval}")
    return Frame(pixels=samples / maxval, height=height, width=width, index=index)


def write_frame_pgm(v: np.ndarray, H: int, W: int) -> bytes:
    """Encode a real vector as an 8-bit binary PGM.

    Values are clamped to [0, 1] and quantized round-half-up to 0..255;
    decode/encode round trips are byte-identical after the first pass.
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != H * W:
        raise ValueError(f"vector length {v.size} != {H}x{W}")
    q = np.floor(255.0 * np.clip(v, 0.0, 1.0) + 0.5).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (W, H) + q.tobytes()


def write_sequence_dir(path, frames) -> int:
    """Write frames as zero-padded PGMs plus a manifest; returns the count."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names = []
    for i, frame in enumerate(frames):
        name = f"frame_{i:06d}.pgm"
        (path / name).write_bytes(
            write_frame_pgm(frame.pixels, frame.height, frame.width)
        )
        names.append(name)
    (path / "manifest.txt").write_text("".join(n + "\n" for n in names),
                                       encoding="ascii")
    return len(names)


def iter_sequence(path):
    """Yield frames from a sequence directory or a manifest file.

    A directory is read through its manifest.txt when present, otherwise by
    sorted *.pgm glob; a manifest file lists one relative filename per line.
    Frame indices are positions in the listing.
    """
    path = Path(path)
    if (path / "manifest.txt").is_file():
        path = path / "manifest.txt"
    if path.is_dir():
        base = path
        names = sorted(f.name for f in path.glob("*.pgm"))
    elif path.is_file():
        base = path.parent
        names = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                 if ln.strip()]
    else:
        raise FileNotFoundError(f"no sequence at {path}")
    if not names:
        raise ValueError(f"{path}: empty sequence")
    for i, name in enumerate(names):
        yield read_frame_pgm((base / name).read_bytes(), index=i)


@dataclass
class SynthSpec:
    """Parameters of the synthetic low-rank background + moving-blob data."""

    height: int = 64
    width: int = 64
    n_frames: int = 500
    rank: int = 2
    n_blobs: int = 3
    blob_min: int = 5
    blob_max: int = 8
    speed_min: float = 1.0
    speed_max: float = 2.0
    noise_sigma: float = 0.01


def _runs(values: np.ndarray):
    """Split a modular index sequence into contiguous ascending runs."""
    breaks = np.flatnonzero(np.diff(values) != 1)
    return np.split(values, breaks + 1)


def synth_sequence(spec: SynthSpec, seed: int):
    """Deterministic synthetic sequence; returns (frame generator, gt boxes).

    The background is an exact rank-``spec.rank`` mixture: one flat map with
    a coefficient around one half plus smooth separable cosine maps with
    small slowly oscillating coefficients, keeping intensities inside
    [0.25, 0.75]. Rectangular blobs of strongly contrasting intensity
    (alternating near-white / near-black) move on straight lines with
    wraparound; a blob crossing an edge is annotated as one groundtruth box
    per contiguous piece. Gaussian noise is added last, then values are
    clipped to [0, 1].
    """
    H, W, n = spec.height, spec.width, spec.n_frames
    if H < 1 or W < 1 or n < 1 or spec.rank < 1:
        raise ValueError("height, width, n_frames and rank must be positive")
    if spec.n_blobs < 0:
        raise ValueError("n_blobs must be nonnegative")
    if spec.n_blobs > 0 and not 1 <= spec.blob_min <= spec.blob_max:
        raise ValueError("blob size range is invalid")
    if spec.n_blobs > 0 and spec.blob_max > min(H, W):
        raise ValueError(f"blob size {spec.blob_max} exceeds frame extent")
    if not 0 <= spec.speed_min <= spec.speed_max:
        raise ValueError("speed range is invalid")
    if spec.noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")

    rng = np.random.default_rng(seed)
    k = spec.rank

    ys = (np.arange(H) + 0.5) / H
    xs = (np.arange(W) + 0.5) / W
    maps = [np.ones((H, W))]
    for _ in range(k - 1):
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        py, px = rng.uniform(0.0, 2.0 * math.pi, size=2)
        m = np.outer(np.cos(2.0 * math.pi * fy * ys + py),
                     np.cos(2.0 * math.pi * fx * xs + px))
        maps.append(m / np.abs(m).max())
    maps = np.stack(maps)

    t = np.arange(n)
    coeffs = np.empty((k, n))
    per0 = rng.uniform(80.0, 200.0)
    coeffs[0] = 0.5 + 0.05 * np.cos(2.0 * math.pi * t / per0
                                    + rng.uniform(0.0, 2.0 * math.pi))
    amp = 0.2 / (k - 1) if k > 1 else 0.0
    for j in range(1, k):
        per = rng.uniform(80.0, 200.0)
        coeffs[j] = amp * np.cos(2.0 * math.pi * t / per
                                 + rng.uniform(0.0, 2.0 * math.pi))

    blobs = []
    for b in range(spec.n_blobs):
        bh = int(rng.integers(spec.blob_min, spec.blob_max + 1))
        bw = int(rng.integers(spec.blob_min, spec.blob_max + 1))
        y0 = rng.uniform(0.0, H)
        x0 = rng.uniform(0.0, W)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(spec.speed_min, spec.speed_max)
        vy, vx = speed * math.sin(angle), speed * math.cos(angle)
        value = 0.98 if b % 2 == 0 else 0.02
        blobs.append((bh, bw, y0, x0, vy, vx, value))

    def blob_geometry(ti: int):
        per_blob = []
        for bh, bw, y0, x0, vy, vx, value in blobs:
            ry = int(math.floor(y0 + vy * ti)) % H
            rx = int(math.floor(x0 + vx * ti)) % W
            rows = (ry + np.arange(bh)) % H
            cols = (rx + np.arange(bw)) % W
            per_blob.append((rows, cols, value))
        return per_blob

    gt: dict[int, list[Box]] = {}
    for ti in range(n):
        frame_boxes = []
        for rows, cols, _ in blob_geometry(ti):
            for rr in _runs(rows):
                for cr in _runs(cols):
                    frame_boxes.append(
                        Box(x=int(cr[0]), y=int(rr[0]), w=len(cr), h=len(rr))
                    )
        gt[ti] = frame_boxes

    def gen():
        for ti in range(n):
            img = np.tensordot(coeffs[:, ti], maps, axes=(0, 0))
            for rows, cols, value in blob_geometry(ti):
                img[np.ix_(rows, cols)] = value
            if spec.noise_sigma > 0:
                img = img + rng.normal(0.0, spec.noise_sigma, size=img.shape)
            np.clip(img, 0.0, 1.0, out=img)
            yield Frame(pixels=img.ravel(), height=H, width=W, index=ti)

    return gen(), gt


METRICS_COLUMNS = (
    "frame_index", "iters", "final_delta", "fg_energy", "basis_delta",
    "g_cost", "recall5", "precision5", "f1_5", "recall_acc", "precision_acc",
    "f1_acc", "prox_sweeps", "prox_capped", "wall_ms",
)


class MetricsSink:
    """Streams per-frame record dicts to a CSV file.

    Optional comment lines (prefixed '# ') go above the fixed header; fields
    missing from a record are written empty. Callable so it can be passed
    directly as a pipeline sink.
    """

    def __init__(self, path, comments=()):
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        for line in comments:
            self._fh.write(f"# {line}\n")
        self._fh.write(",".join(METRICS_COLUMNS) + "\n")

    @staticmethod
    def _fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    def write(self, record: dict) -> None:
        row = ",".join(self._fmt(record.get(col)) for col in METRICS_COLUMNS)
        self._fh.write(row + "\n")

    __call__ = write

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
