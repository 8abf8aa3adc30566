"""RAW container I/O, CFA packing, and 8-bit PPM image output.

Containers (this module's RRAW and the model's CKPT) share one framing,
little endian throughout:

    bytes 0..3   magic ("RRAW" or "CKPT")
    bytes 4..7   u32 header length
    header       UTF-8 JSON object
    payload      the rest of the file

An RRAW header is {width, height, cfa: "RGGB"|"XTRANS", black_level,
white_level, exposure_ratio}, the fields of ``RawImage`` but its plane; its
payload is height*width u16 values, row major.

Every JSON record the package reads (RRAW headers, dataset indexes, config
sections and checkpoint config echoes) is read by ``dataclass_from_dict``
into its dataclass.  A value must have its field's JSON type: an int field
takes a JSON integer, a float field an integer or a number, a str field a
string and a bool field true or false, and a bool is never a number.  A
wrong type, an unknown key or a missing field without a default is an
error (FormatError for files), never coerced.

Packing turns the single-plane mosaic into one channel per CFA site at
reduced resolution: 2x2 blocks -> 4 channels for Bayer RGGB, 3x3 blocks ->
9 channels for X-Trans (channel c of a bxb block is site (c // b, c % b)).
Values are normalized by black/white level, scaled by the exposure ratio,
then clipped to [0, 1]; ``to_counts`` turns unit values back into counts.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import struct
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError
from .tensor import _l_chunks

logger = logging.getLogger(__name__)

RAW_MAGIC = b"RRAW"
CFA_BLOCK = {"RGGB": 2, "XTRANS": 3}


@dataclass
class RawImage:
    width: int
    height: int
    cfa: str
    black_level: int
    white_level: int
    exposure_ratio: float
    plane: np.ndarray  # u16, (height, width)

    def __post_init__(self):
        # Python numbers, whatever the caller passed, so a header holds each field's JSON type
        self.width, self.height, self.black_level, self.white_level = map(
            operator.index, (self.width, self.height, self.black_level, self.white_level))
        self.exposure_ratio = float(self.exposure_ratio)
        if not isinstance(self.cfa, str) or self.cfa not in CFA_BLOCK:
            raise ConfigError(f"unknown CFA {self.cfa!r}; expected RGGB or XTRANS")
        if not 0 <= self.black_level < self.white_level <= 0xFFFF:
            raise ConfigError(f"need 0 <= black_level {self.black_level} < white_level {self.white_level} <= 65535")
        if not (math.isfinite(self.exposure_ratio) and self.exposure_ratio > 0):
            raise ConfigError(f"exposure_ratio must be positive and finite, got {self.exposure_ratio}")
        self.plane = np.asarray(self.plane, dtype=np.uint16)
        if self.plane.shape != (self.height, self.width):
            raise ConfigError(f"plane shape {self.plane.shape} != ({self.height}, {self.width})")


# what a JSON value may be for each field annotation
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _fits(annotation, value):
    kind = annotation.removesuffix(" | None")
    if value is None:
        return kind != annotation
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, _JSON_TYPES[kind])


def dataclass_from_dict(cls, data, label: str, error=ConfigError, **given):
    """Build dataclass ``cls`` from the parsed JSON object ``data``; ``given``
    supplies the fields that are not JSON.

    Raises ``error`` for a non-object, an unknown key, a missing field that
    has no default, a value whose JSON type does not fit its field, and for
    what ``cls`` rejects or cannot hold.
    """
    if not isinstance(data, dict):
        raise error(f"{label} must be a JSON object, got {type(data).__name__}")
    own = [f for f in fields(cls) if f.name not in given]
    types = {f.name: f.type for f in own}
    unknown = set(data) - set(types)
    if unknown:
        raise error(f"unknown {label} keys: {sorted(unknown)}")
    missing = [f.name for f in own if f.name not in data and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{label} is missing {missing}")
    for key, value in data.items():
        if not _fits(types[key], value):
            raise error(f"{label} key {key!r} must be {types[key]}, got {value!r}")
    try:
        return cls(**data, **given)
    except (ConfigError, OverflowError) as exc:
        raise error(f"invalid {label}: {exc}") from exc


def packed_channels(cfa: str) -> int:
    b = CFA_BLOCK[cfa]
    return b * b


def pack_mosaic(mosaic: np.ndarray, cfa: str) -> np.ndarray:
    """Spatial rearrangement only: (H, W) -> (b*b, H/b, W/b)."""
    b = CFA_BLOCK[cfa]
    h, w = mosaic.shape
    if h % b or w % b:
        raise ConfigError(f"{cfa} needs dimensions divisible by {b}, got {h}x{w}")
    blocks = mosaic.reshape(h // b, b, w // b, b)
    return np.ascontiguousarray(blocks.transpose(1, 3, 0, 2).reshape(b * b, h // b, w // b))


def unpack_mosaic(packed: np.ndarray, cfa: str) -> np.ndarray:
    """Exact inverse of pack_mosaic (no renormalization)."""
    b = CFA_BLOCK[cfa]
    if packed.shape[0] != b * b:
        raise ConfigError(f"{cfa} packing has {b * b} channels, got {packed.shape[0]}")
    _, hb, wb = packed.shape
    blocks = packed.reshape(b, b, hb, wb).transpose(2, 0, 3, 1)
    return np.ascontiguousarray(blocks.reshape(hb * b, wb * b))


def pack(raw: RawImage) -> np.ndarray:
    """Normalize, exposure-scale, clip to [0, 1], and pack per CFA site."""
    span = float(raw.white_level - raw.black_level)
    norm = (raw.plane.astype(np.float64) - raw.black_level) / span
    scaled = np.clip(norm * raw.exposure_ratio, 0.0, 1.0)
    return pack_mosaic(scaled, raw.cfa)


def to_counts(values, black_level, white_level) -> np.ndarray:
    """Unit values to u16 counts, the inverse of ``pack``'s normalization at
    exposure 1: round ``black + v * span``, then clip to [0, white_level].

    The levels enter as Python ints, so a float32 ``values`` stays float32
    (NEP 50).  Values below 0 give counts below the black level."""
    black, white = int(black_level), int(white_level)
    counts = np.multiply(values, white - black)
    np.add(counts, black, out=counts)
    np.round(counts, out=counts)
    np.clip(counts, 0, white, out=counts)
    return counts.astype(np.uint16)


def _write_container(path, magic, header: dict, payload):
    """Write ``magic``, the u32 length of ``header`` as JSON, the header and
    each bytes-like chunk of ``payload``."""
    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for chunk in payload:
            fh.write(chunk)


def _read_container(path, magic) -> tuple[dict, bytes]:
    """Split a container into (header object, payload bytes).

    Every framing fault raises FormatError: wrong magic, no length prefix, a
    header running past the end of the file, non-UTF-8 or non-JSON header
    bytes, and JSON that is not an object.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    kind = magic.decode()
    if blob[:4] != magic:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {magic!r}")
    if len(blob) < 8:
        raise FormatError(f"truncated {kind} container: missing header length")
    end = 8 + struct.unpack("<I", blob[4:8])[0]
    if len(blob) < end:
        raise FormatError(f"truncated {kind} container: header shorter than declared")
    try:
        header = json.loads(blob[8:end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{kind} header is not a JSON object")
    return header, blob[end:]


def write_raw_container(raw: RawImage, path):
    header = {f.name: getattr(raw, f.name) for f in fields(RawImage) if f.name != "plane"}
    _write_container(path, RAW_MAGIC, header, [raw.plane.astype("<u2").tobytes()])


def read_raw_container(path) -> RawImage:
    header, plane_bytes = _read_container(path, RAW_MAGIC)
    width, height = header.get("width"), header.get("height")
    if not all(_fits("int", v) and v > 0 for v in (width, height)):
        raise FormatError(f"RRAW header width and height must be positive integers, got {width!r}x{height!r}")
    if len(plane_bytes) != 2 * width * height:
        raise FormatError(
            f"plane size {len(plane_bytes)} bytes disagrees with header {width}x{height} (u16)"
        )
    plane = np.frombuffer(plane_bytes, dtype="<u2").reshape(height, width)
    return dataclass_from_dict(RawImage, header, "RRAW header", FormatError, plane=plane.copy())


def _ppm_bytes(rgb):
    """Interleaved 8-bit samples of a (3, h, w) band: floor(255 * clip(v) + 0.5),
    formed in one float64 copy of the band, freed on return."""
    band = rgb.astype(np.float64)
    np.clip(band, 0.0, 1.0, out=band)
    np.multiply(band, 255.0, out=band)
    np.add(band, 0.5, out=band)
    np.floor(band, out=band)
    return band.astype(np.uint8).transpose(1, 2, 0).tobytes()


def write_ppm(rgb: np.ndarray, path) -> int:
    """Write a (3, H, W) image in [0, 1] as binary 8-bit PPM (P6).

    Out-of-range values are clipped, counted, and reported with a warning;
    they are not an error.  Quantization is round-half-up of 255*v, in
    float64.  The image is quantized and written one ``_l_chunks`` band of
    rows at a time, so the float64 copy is one band, never the image; the
    argument is not written to.  Returns the number of clipped samples.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise ConfigError(f"write_ppm expects (3, H, W), got {rgb.shape}")
    _, h, w = rgb.shape
    clipped = 0
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        for s in _l_chunks((h, 3 * w)):
            clipped += int(np.count_nonzero(rgb[:, s] < 0.0) + np.count_nonzero(rgb[:, s] > 1.0))
            fh.write(_ppm_bytes(rgb[:, s]))
    if clipped:
        logger.warning("write_ppm: clipped %d out-of-range samples for %s", clipped, path)
    return clipped


def read_ppm(path) -> np.ndarray:
    """Read a binary 8-bit PPM back to a (3, H, W) float array in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P6":
        raise FormatError(f"not a binary PPM: magic {fields[0]!r}")
    if not all(f.isdigit() and len(f) < 10 for f in fields[1:]):
        raise FormatError(f"PPM width, height and maxval must be decimal numbers, got {fields[1:]!r}")
    w, h, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise FormatError(f"only 8-bit PPM supported, maxval={maxval}")
    if w == 0 or h == 0:
        raise FormatError(f"PPM dimensions must be positive, got {w}x{h}")
    pos += 1  # single whitespace after maxval
    data = blob[pos:pos + 3 * w * h]
    if len(data) != 3 * w * h:
        raise FormatError("truncated PPM pixel data")
    img = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return img.transpose(2, 0, 1).astype(np.float64) / 255.0
