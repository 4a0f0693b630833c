"""Multimodal (image) stages: decode / feature-extract / augment / verify.

The payload table carries encoded images as an opaque `binary` column
with typed metadata (w, h, fmt) — per BASELINE.json input_hint. Each
stage is an actor-pool `map_batches` callable: codec setup happens
once per actor in __init__, per-batch work decodes with the in-repo
codecs (real PNG; the "jpeg" path uses the clearly-marked
deterministic fake codec — see `oluray.functions.imagecodec`).

Batches stay small (binary payloads are wide rows); keep these stages
in `batch_format="pyarrow"` so bytes move zero-copy from the object
store. Design contract for 100 TB: image bytes are NEVER shuffled —
joins run on (image_id, footprint) projections and bytes are
re-joined only at the tile-write (SURVEY.md §7.3 hard part (c)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from oluray.functions import imagecodec
from oluray.functions.imagecodec import phash64


class DecodeStats:
    """Decode each image; emit per-image pixel stats + recomputed
    phash. Validates the per-row invariant path (PSNR/caption)."""

    def __init__(self):
        self.decode = imagecodec.decode  # codec table resolved once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        means = np.empty(len(blobs))
        phashes = np.empty(len(blobs), dtype=np.int64)
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            px = self.decode(b, f)
            means[i] = px.astype(np.float64).mean()
            phashes[i] = phash64(px)
        out = batch.drop_columns(["bytes"])
        out = out.append_column("mean_px", pa.array(np.round(means, 4)))
        return out.append_column("phash_decoded", pa.array(phashes))


class VerifyPsnr:
    """Per-row invariant check (north rule): decode both sides,
    PSNR >= threshold for lossy formats, exact for lossless; caption
    equality is a plain column compare upstream."""

    def __init__(self, threshold_db: float = 40.0):
        self.threshold_db = threshold_db

    def __call__(self, batch: pa.Table) -> pa.Table:
        a = batch["bytes"].to_pylist()
        b = batch["bytes_ref"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ok = []
        psnr = []
        for x, y, f in zip(a, b, fmts):
            pa_img = imagecodec.decode(x, f)
            pb_img = imagecodec.decode(y, f)
            p = imagecodec.psnr_db(pa_img, pb_img)
            psnr.append(p if np.isfinite(p) else 99.0)
            if f == "png":
                # lossless: EXACT equality only — a high-PSNR fallback
                # would wave through a subtly corrupted lossless image
                # (r2 review)
                ok.append(bool(np.array_equal(pa_img, pb_img)))
            else:
                ok.append(bool(p >= self.threshold_db))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "psnr_db": pa.array(psnr),
                "pixels_ok": pa.array(ok, pa.bool_()),
            }
        )


class Augment:
    """Training-data image augmentation: a deterministic per-image op
    chain (horizontal/vertical flip, k*90-degree rotation, center
    crop) over REAL decoded pixels, re-encoded as PNG. Ops are
    numpy view/gather operations — no interpolation, so a flip of a
    flip is bit-identical to the original (tested), and the chain is
    reproducible from the op list alone (no RNG state).

    `ops`: sequence of ("hflip"|"vflip"|("rot90", k)|("crop", frac)).
    """

    def __init__(self, ops=("hflip",)):
        parsed = []
        for op in ops:
            if op == "hflip" or op == "vflip":
                parsed.append((op, None))
            elif isinstance(op, tuple) and op[0] == "rot90":
                parsed.append(("rot90", int(op[1]) % 4))
            elif isinstance(op, tuple) and op[0] == "crop":
                f = float(op[1])
                if not 0.0 < f <= 1.0:
                    raise ValueError(f"crop fraction must be in (0, 1], got {f}")
                parsed.append(("crop", f))
            else:
                raise ValueError(f"unknown augment op {op!r}")
        self.ops = parsed

    def _apply(self, px: np.ndarray) -> np.ndarray:
        for name, arg in self.ops:
            if name == "hflip":
                px = px[:, ::-1]
            elif name == "vflip":
                px = px[::-1]
            elif name == "rot90":
                px = np.rot90(px, arg)
            else:  # center crop
                h, w, _ = px.shape
                ch = max(1, int(round(h * arg)))
                cw = max(1, int(round(w * arg)))
                y0 = (h - ch) // 2
                x0 = (w - cw) // 2
                px = px[y0 : y0 + ch, x0 : x0 + cw]
        return np.ascontiguousarray(px)

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out_blobs, ws, hs = [], [], []
        for b, f in zip(blobs, fmts):
            px = self._apply(imagecodec.decode(b, f))
            out_blobs.append(imagecodec.encode_png(px))
            hs.append(px.shape[0])
            ws.append(px.shape[1])
        return pa.table(
            {
                "image_id": batch["image_id"],
                "bytes": pa.array(out_blobs, pa.binary()),
                "w": pa.array(np.asarray(ws, np.int32)),
                "h": pa.array(np.asarray(hs, np.int32)),
                "fmt": pa.array(["png"] * len(out_blobs), pa.string()),
            }
        )


class QualityStats:
    """Per-image quality signals over REAL decoded pixels: sharpness
    (variance of the 4-neighbour Laplacian of the luma plane — the
    classic blur detector), brightness (luma mean) and contrast (luma
    std). Per-row decode is inherent to variable-length blobs (same
    note as `DecodeStats`); every metric inside a row is one
    vectorized numpy pass. Rounded to 4 dp for stable hashing."""

    def __init__(self):
        self.decode = imagecodec.decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        n = len(blobs)
        sharp = np.empty(n)
        bright = np.empty(n)
        contrast = np.empty(n)
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            px = self.decode(b, f).astype(np.float64)
            luma = px.mean(axis=2) if px.ndim == 3 else px
            lap = (4.0 * luma[1:-1, 1:-1] - luma[:-2, 1:-1]
                   - luma[2:, 1:-1] - luma[1:-1, :-2] - luma[1:-1, 2:])
            sharp[i] = lap.var() if lap.size else 0.0
            bright[i] = luma.mean()
            contrast[i] = luma.std()
        out = batch.drop_columns(["bytes"])
        out = out.append_column("sharpness", pa.array(np.round(sharp, 4)))
        out = out.append_column("brightness", pa.array(np.round(bright, 4)))
        return out.append_column("contrast", pa.array(np.round(contrast, 4)))


class PatchExtract:
    """ViT-style patchification: decode each image, crop to the
    largest P-multiple grid (top-left anchored, the standard
    drop-remainder behavior), and emit ONE ROW PER PATCH with grid
    coordinates, the raw P*P*3 patch bytes, and per-patch mean/std.

    Scale shape: images stay inside the actor (bytes in, patch rows
    out — the output is re-blocked by Ray, never driver-collected);
    per-image stats are one vectorized reshape-reduce, not a Python
    loop over patches. Per-row decode is inherent to variable-length
    blobs (same note as `DecodeStats`). A 100 TB corpus fans out to
    ~(HW/P^2)x more rows but each is a fixed small payload — exactly
    the layout a training dataloader shards."""

    def __init__(self, patch: int = 8, with_bytes: bool = True):
        if patch <= 0:
            raise ValueError("patch must be positive")
        self.p = patch
        self.with_bytes = with_bytes
        self.decode = imagecodec.decode  # codec table resolved once per actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        p = self.p
        ids_out: list[str] = []
        pys: list[np.ndarray] = []
        pxs: list[np.ndarray] = []
        means: list[np.ndarray] = []
        stds: list[np.ndarray] = []
        blobs_out: list[bytes] = []
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        for iid, b, f in zip(ids, blobs, fmts):
            px = self.decode(b, f)
            h, w = px.shape[0], px.shape[1]
            gy, gx = h // p, w // p
            if gy == 0 or gx == 0:
                continue  # smaller than one patch: contributes nothing
            core = px[: gy * p, : gx * p]
            # (gy, p, gx, p, 3) -> patch-major (gy, gx, p, p, 3)
            grid = core.reshape(gy, p, gx, p, 3).transpose(0, 2, 1, 3, 4)
            flat = grid.reshape(gy * gx, -1).astype(np.float64)
            means.append(flat.mean(axis=1))
            stds.append(flat.std(axis=1))
            yy, xx = np.divmod(np.arange(gy * gx), gx)
            pys.append(yy)
            pxs.append(xx)
            ids_out.extend([iid] * (gy * gx))
            if self.with_bytes:
                raw = np.ascontiguousarray(grid.reshape(gy * gx, -1))
                blobs_out.extend(raw.tobytes()[i * p * p * 3:(i + 1) * p * p * 3]
                                 for i in range(gy * gx))
        if not ids_out:
            cols = {
                "image_id": pa.array([], pa.string()),
                "py": pa.array([], pa.int32()),
                "px": pa.array([], pa.int32()),
                "p_mean": pa.array([], pa.float64()),
                "p_std": pa.array([], pa.float64()),
            }
            if self.with_bytes:
                cols["patch"] = pa.array([], pa.binary())
            return pa.table(cols)
        cols = {
            "image_id": pa.array(ids_out, pa.string()),
            "py": pa.array(np.concatenate(pys).astype(np.int32)),
            "px": pa.array(np.concatenate(pxs).astype(np.int32)),
            "p_mean": pa.array(np.round(np.concatenate(means), 4)),
            "p_std": pa.array(np.round(np.concatenate(stds), 4)),
        }
        if self.with_bytes:
            cols["patch"] = pa.array(blobs_out, pa.binary())
        return pa.table(cols)


class ChannelMoments:
    """Corpus normalization constants (the ImageNet mean/std recipe):
    per-CHANNEL pixel count, sum and sum-of-squares over every
    decoded pixel, as EXACT int64 partials (uint8 pixels make both
    moments integers — the distributed sum is associative with zero
    float drift; overflow bound: sumsq grows 255² per pixel, safe to
    ~1.4e14 pixels per partial). Each block collapses to ONE 3-row
    moment table before any exchange; the per-channel grand total is
    aggregate-sized. Mean/std are derived by the caller from (n, s1,
    s2). Bytes never leave the stage."""

    def __init__(self):
        self.decode = imagecodec.decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        s1 = np.zeros(3, dtype=np.int64)
        s2 = np.zeros(3, dtype=np.int64)
        n = np.zeros(3, dtype=np.int64)
        for b, f in zip(batch["bytes"].to_pylist(),
                        batch["fmt"].to_pylist()):
            px = self.decode(b, f).astype(np.int64)
            s1 += px.sum(axis=(0, 1))
            s2 += (px * px).sum(axis=(0, 1))
            n += px.shape[0] * px.shape[1]
        return pa.table({
            "channel": pa.array(np.arange(3, dtype=np.int64)),
            "n_pix": pa.array(n),
            "s1": pa.array(s1),
            "s2": pa.array(s2),
        })


class MosaicThumbs:
    """Decode + downscale to a raw t x t x 3 thumbnail — the
    pre-shuffle half of tile mosaicking. Emitting the RAW thumbnail
    (t*t*3 bytes, 768 B at t=16) instead of the original blob is the
    scale contract: the per-cell compose shuffle moves thumbnails,
    never source bytes (a 12 MP jpeg stays where it was read)."""

    def __init__(self, t: int = 16):
        self.t = t

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.t
        thumbs = []
        for b, f in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            px = imagecodec.decode(b, f)
            h, w, _ = px.shape
            ys = (np.arange(t) * h) // t
            xs = (np.arange(t) * w) // t
            thumbs.append(px[ys][:, xs].tobytes())
        out = batch.drop_columns(["bytes", "fmt"])
        return out.append_column("thumb_raw", pa.array(thumbs, pa.binary()))


def compose_mosaics(df, t: int = 16, k: int = 16):
    """Per-cell mosaic composition (the partitioned_map stage): up to
    `k` thumbnails per cell — lowest image_id first, overflow dropped
    deterministically — tiled row-major into a ceil(sqrt(n))-wide
    grid, zero-padded. Returns one row per cell: grid PNG bytes plus
    a crc32 of the raw pixel array (the cheap equality handle for
    goldens and resume checks)."""
    import math
    import zlib

    import pandas as pd

    cols = ["cell", "n_images", "n_used", "grid", "mosaic_w", "mosaic_h",
            "crc", "mosaic_png"]
    if len(df) == 0:
        return pd.DataFrame(
            {"cell": pd.Series([], dtype="int64"),
             "n_images": pd.Series([], dtype="int64"),
             "n_used": pd.Series([], dtype="int64"),
             "grid": pd.Series([], dtype="int64"),
             "mosaic_w": pd.Series([], dtype="int64"),
             "mosaic_h": pd.Series([], dtype="int64"),
             "crc": pd.Series([], dtype="int64"),
             "mosaic_png": pd.Series([], dtype="object")})
    rows = []
    for cell, g in df.groupby("cell", sort=False):
        g = g.sort_values("image_id", kind="mergesort")
        n_images = len(g)
        use = g.iloc[:k]
        n = len(use)
        side = int(math.ceil(math.sqrt(n)))
        canvas = np.zeros((side * t, side * t, 3), dtype=np.uint8)
        for i, raw in enumerate(use["thumb_raw"]):
            px = np.frombuffer(raw, dtype=np.uint8).reshape(t, t, 3)
            r, c = divmod(i, side)
            canvas[r * t:(r + 1) * t, c * t:(c + 1) * t] = px
        rows.append((int(cell), n_images, n, side, side * t, side * t,
                     np.int64(zlib.crc32(canvas.tobytes())),
                     imagecodec.encode_png(canvas)))
    return pd.DataFrame(rows, columns=cols)


class HistEqualize:
    """Per-image histogram equalization of the luma-free per-channel
    pixel distribution — the classic contrast-normalization transform
    a vision-training pipeline applies before augmentation. EXACT
    integer arithmetic: per channel, LUT[v] = round_half_up(
    (cdf(v) - cdf_min) * 255 / (n_px - cdf_min)) over the uint8
    histogram (the OpenCV/textbook formulation), so the output is
    bit-reproducible across engines and block orders. Per-row decode
    is inherent to variable-length blobs; the histogram, CDF and LUT
    gather inside a row are single vectorized numpy passes. Emits the
    equalized image re-encoded as PNG plus before/after contrast."""

    def __init__(self):
        self.decode = imagecodec.decode

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out, c0, c1 = [], [], []
        for b, f in zip(blobs, fmts):
            px = self.decode(b, f)
            eq = np.empty_like(px)
            for ch in range(px.shape[2]):
                v = px[..., ch]
                hist = np.bincount(v.ravel(), minlength=256)
                cdf = np.cumsum(hist)
                nz = np.flatnonzero(hist)
                cdf_min = int(cdf[nz[0]]) if len(nz) else 0
                denom = max(int(cdf[-1]) - cdf_min, 1)
                # exact integer round-half-up: (2*num + den) // (2*den)
                num = (cdf - cdf_min) * 255
                lut = ((2 * num + denom) // (2 * denom)).astype(np.uint8)
                eq[..., ch] = lut[v]
            out.append(imagecodec.encode_png(eq))
            c0.append(float(px.std()))
            c1.append(float(eq.std()))
        return pa.table(
            {"image_id": batch["image_id"],
             "png": pa.array(out, pa.binary()),
             "contrast_before": pa.array(np.round(np.array(c0), 4)),
             "contrast_after": pa.array(np.round(np.array(c1), 4))}
        )
