"""Binary netpbm image I/O: P5 (grayscale) and P6 (RGB), 8-bit.

Float images in [0, 1] are quantized as round(255 * value). Grayscale images
are [H, W] arrays; color images are channel-first [3, H, W]. The writer emits
a canonical header so write -> read -> write round-trips byte-exactly.
"""

from __future__ import annotations

import numpy as np


class NetpbmError(ValueError):
    """Malformed or unsupported netpbm file."""


def quantize(image: np.ndarray) -> np.ndarray:
    """Map floats in [0, 1] to uint8 via round(255 * value), clipped to 0-255.

    The arithmetic runs in place in one float64 copy of ``image``.
    """
    arr = np.multiply(image, 255.0, dtype=np.float64)
    np.rint(arr, out=arr)
    np.clip(arr, 0, 255, out=arr)
    return arr.astype(np.uint8)


def _check_finite(arr: np.ndarray, writer: str) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        raise NetpbmError(f"{writer}: image holds {arr.size - np.count_nonzero(finite)} "
                          f"non-finite values (NaN or inf); nothing written")


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [H, W] float image in [0, 1] as a binary P5 file; NaN or inf raises."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise NetpbmError(f"write_pgm expects a [H, W] image, got shape {arr.shape}")
    _check_finite(arr, "write_pgm")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantize(arr).tobytes())


def write_ppm(path, image: np.ndarray) -> None:
    """Write a [3, H, W] float image in [0, 1] as a binary P6 file; NaN or inf raises."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise NetpbmError(f"write_ppm expects a [3, H, W] image, got shape {arr.shape}")
    _check_finite(arr, "write_ppm")
    h, w = arr.shape[1], arr.shape[2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantize(arr).transpose(1, 2, 0).tobytes())


def _next_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise NetpbmError(f"{path}: truncated header at byte {pos}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def read_image(path) -> np.ndarray:
    """Read a binary P5 or P6 file into floats in [0, 1].

    Returns [H, W] for P5 and [3, H, W] for P6; a sample above maxval raises.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0, path)
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"{path}: unsupported magic {magic!r} (expected P5 or P6)")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos, path)
        try:
            value = int(token)
        except ValueError:
            raise NetpbmError(f"{path}: non-numeric {name} field {token!r}") from None
        if value <= 0:
            raise NetpbmError(f"{path}: {name} must be positive, got {value}")
        fields.append(value)
    width, height, maxval = fields
    if maxval > 255:
        raise NetpbmError(f"{path}: only 8-bit files supported, maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raw = data[pos:pos + expected]
    if len(raw) != expected:
        raise NetpbmError(
            f"{path}: expected {expected} pixel bytes, found {len(raw)} "
            f"(file truncated at byte {pos + len(raw)})"
        )
    if len(data) > pos + expected:
        raise NetpbmError(f"{path}: {len(data) - pos - expected} trailing bytes after pixel data")
    samples = np.frombuffer(raw, dtype=np.uint8)
    if samples.max() > maxval:
        raise NetpbmError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    pixels = samples.astype(np.float64) / maxval
    if channels == 1:
        return pixels.reshape(height, width)
    return pixels.reshape(height, width, 3).transpose(2, 0, 1)
