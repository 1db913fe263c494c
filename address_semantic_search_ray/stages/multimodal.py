"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Two tiers of decode, honestly separated:
- COMPRESSED formats (JPEG/PNG/MP3/H264) need external codecs this
  container lacks — that path stays stubbed behind an import-try
  (deterministic fake metadata otherwise).
- UNCOMPRESSED formats decode for REAL with zero external deps: PCM WAV
  through the stdlib ``wave`` RIFF reader (``WavDecode``) and netpbm P6
  PPM through a header parse + raw pixel buffer (``PpmDecode``) — genuine
  byte-level media parsing, so the decode plumbing (binary Arrow column in,
  small batches, metadata-only out) is exercised end-to-end against an
  exact SQL oracle.

Every decode stage holds only constants, so the queries map an instance
of it as a task-pool UDF.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def attach_payload_batch(batch: pa.Table) -> pa.Table:
    """documents -> (doc_id, payload:binary) — deterministic fake 'image' bytes."""
    texts = batch.column("text").to_pylist()
    payloads = [t.encode("utf-8") for t in texts]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "payload": pa.array(payloads, pa.binary()),
    })


def attach_wav_payload_batch(batch: pa.Table) -> pa.Table:
    """documents -> (doc_id, payload:binary) where payload is a REAL PCM
    WAV file (RIFF container, 16-bit mono, 8 kHz) written with the stdlib
    ``wave`` codec; samples are a deterministic function of doc_id so an
    exact SQL oracle can recompute the decoded stats."""
    import io
    import wave

    ids = batch.column("doc_id").to_pylist()
    payloads = []
    for doc_id in ids:
        n = 64 + int(doc_id) % 129
        i = np.arange(n, dtype=np.int64)
        samples = ((int(doc_id) * 31 + i * 17) % 65536 - 32768).astype("<i2")
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(samples.tobytes())
        payloads.append(buf.getvalue())
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "payload": pa.array(payloads, pa.binary())})


class WavDecode:
    """REAL audio decode: parse the RIFF/WAV container with the stdlib
    ``wave`` reader, recover the PCM samples, emit exact integer stats
    (sum of |sample| stays in int64 — no float drift vs the oracle)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import io
        import wave

        ids = batch.column("doc_id").to_pylist()
        n_out, rate_out, sum_out = [], [], []
        for p in batch.column("payload").to_pylist():
            with wave.open(io.BytesIO(p), "rb") as w:
                rate = w.getframerate()
                n = w.getnframes()
                raw = w.readframes(n)
            samples = np.frombuffer(raw, dtype="<i2").astype(np.int64)
            n_out.append(n)
            rate_out.append(rate)
            sum_out.append(int(np.abs(samples).sum()))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_samples": pa.array(n_out, pa.int64()),
                         "sample_rate": pa.array(rate_out, pa.int64()),
                         "sum_abs": pa.array(sum_out, pa.int64())})


def attach_ppm_payload_batch(batch: pa.Table) -> pa.Table:
    """documents -> (doc_id, payload:binary) where payload is a REAL netpbm
    P6 (binary PPM) image; dimensions and pixels are deterministic in
    doc_id so the SQL oracle recomputes the decoded channel sums."""
    ids = batch.column("doc_id").to_pylist()
    payloads = []
    for doc_id in ids:
        w = 8 + int(doc_id) % 9
        h = 8 + (int(doc_id) * 7) % 13
        j = np.arange(w * h * 3, dtype=np.int64)
        pix = ((int(doc_id) * 7 + j * 13) % 256).astype(np.uint8)
        payloads.append(b"P6\n%d %d\n255\n" % (w, h) + pix.tobytes())
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "payload": pa.array(payloads, pa.binary())})


class PpmDecode:
    """REAL image decode for the uncompressed netpbm P6 format: parse the
    ASCII header (magic, dims, maxval), view the raw RGB buffer, emit
    exact per-channel integer sums."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        w_out, h_out, r_out, g_out, b_out = [], [], [], [], []
        for p in batch.column("payload").to_pylist():
            # header: "P6\n<w> <h>\n<maxval>\n" then w*h*3 raw bytes
            head, _, rest = p.partition(b"\n")
            assert head == b"P6", "not a P6 PPM"
            dims, _, rest = rest.partition(b"\n")
            _maxval, _, raw = rest.partition(b"\n")
            w, h = (int(x) for x in dims.split())
            pix = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3) \
                .reshape(h, w, 3).astype(np.int64)
            w_out.append(w)
            h_out.append(h)
            r_out.append(int(pix[:, :, 0].sum()))
            g_out.append(int(pix[:, :, 1].sum()))
            b_out.append(int(pix[:, :, 2].sum()))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "width": pa.array(w_out, pa.int64()),
                         "height": pa.array(h_out, pa.int64()),
                         "sum_r": pa.array(r_out, pa.int64()),
                         "sum_g": pa.array(g_out, pa.int64()),
                         "sum_b": pa.array(b_out, pa.int64())})


class PpmResize:
    """REAL nearest-neighbor image RESIZE over the P6 decode path: parse
    the header, view the raw RGB buffer, gather the (out_h, out_w) NN
    sample grid (src index = (i * dim) // out — pure integer math end to
    end), and emit exact per-channel sums of the RESIZED pixels so the
    SQL oracle can recompute every sampled value."""

    def __init__(self, out_w: int = 4, out_h: int = 4):
        self.out_w, self.out_h = out_w, out_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        w_out, h_out, r_out, g_out, b_out = [], [], [], [], []
        for p in batch.column("payload").to_pylist():
            head, _, rest = p.partition(b"\n")
            assert head == b"P6", "not a P6 PPM"
            dims, _, rest = rest.partition(b"\n")
            _maxval, _, raw = rest.partition(b"\n")
            w, h = (int(x) for x in dims.split())
            pix = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3) \
                .reshape(h, w, 3).astype(np.int64)
            sy = (np.arange(self.out_h, dtype=np.int64) * h) // self.out_h
            sx = (np.arange(self.out_w, dtype=np.int64) * w) // self.out_w
            small = pix[sy][:, sx]  # (out_h, out_w, 3) NN gather
            w_out.append(w)
            h_out.append(h)
            r_out.append(int(small[:, :, 0].sum()))
            g_out.append(int(small[:, :, 1].sum()))
            b_out.append(int(small[:, :, 2].sum()))
        n = len(ids)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "width": pa.array(w_out, pa.int64()),
                         "height": pa.array(h_out, pa.int64()),
                         "out_w": pa.array([self.out_w] * n, pa.int64()),
                         "out_h": pa.array([self.out_h] * n, pa.int64()),
                         "rsum_r": pa.array(r_out, pa.int64()),
                         "rsum_g": pa.array(g_out, pa.int64()),
                         "rsum_b": pa.array(b_out, pa.int64())})


class ImageDecodeStub:
    """Image decode stage. ``__init__`` probes for a codec once, where the
    instance is built; without codecs we emit deterministic fake metadata
    derived from the payload bytes (SQL-checkable)."""

    def __init__(self):
        try:  # pragma: no cover - codec not present in this container
            import PIL.Image  # noqa: F401

            self._pil = True
        except ImportError:
            self._pil = False

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        n_bytes, widths, heights = [], [], []
        for p in payloads:
            nb = len(p)
            n_bytes.append(nb)
            if self._pil:
                # real path would be: PIL.Image.open(io.BytesIO(p)).size
                raise NotImplementedError("real image decode not wired in this container")
            widths.append(64 + nb % 577)
            heights.append(64 + (nb * 31) % 419)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "width": pa.array(widths, pa.int64()),
            "height": pa.array(heights, pa.int64()),
        })


class AudioFrameSampleStub:
    """Frame-sampling plumbing for audio/video payloads: fixed-stride byte
    windows as 'frames' (real decoder would yield PCM frames)."""

    def __init__(self, frame_bytes: int = 64, stride: int = 128):
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, offs = [], [], []
        for doc_id, p in zip(batch.column("doc_id").to_pylist(),
                             batch.column("payload").to_pylist()):
            for off in range(0, max(len(p) - self.frame_bytes, 0) + 1, self.stride):
                ids.append(doc_id)
                offs.append(off)
                frames.append(p[off:off + self.frame_bytes])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "frame_off": pa.array(offs, pa.int64()),
            "frame": pa.array(frames, pa.binary()),
        })
