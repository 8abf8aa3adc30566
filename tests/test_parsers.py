"""Every parser either parses its input or raises FormatError.

Property tests feed arbitrary bytes, framed bytes with arbitrary headers and
JSON headers with arbitrary field values to ``read_raw_container``,
``load_checkpoint`` and ``read_ppm``; the regression tests pin the inputs
that used to escape as TypeError, ValueError, ConfigError or silent success.
"""

import json
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nightscan.data import SyntheticDataset, gen_synthetic, load_dataset, write_dataset
from nightscan.errors import FormatError
from nightscan.model import NetworkConfig, load_checkpoint
from nightscan.rawio import _JSON_TYPES, RawImage, read_ppm, read_raw_container
from nightscan.train import LossConfig, TrainConfig

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)

RAW_KEYS = ("width", "height", "cfa", "black_level", "white_level", "exposure_ratio")

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["RGGB", "XTRANS", "", "3", "nan", "1e400"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _frame(magic, header_bytes, payload=b"", declared=None):
    n = len(header_bytes) if declared is None else declared
    return magic + struct.pack("<I", n) + header_bytes + payload


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.bin"


def _parses_or_format_error(parse, path, blob):
    path.write_bytes(blob)
    try:
        parse(path)
    except FormatError:
        pass


PARSERS = {"rraw": read_raw_container, "ckpt": load_checkpoint, "ppm": read_ppm}
MAGIC = {"rraw": b"RRAW", "ckpt": b"CKPT", "ppm": b"P6\n"}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(blob=st.binary(max_size=96))
def test_any_bytes_parse_or_raise_format_error(scratch, kind, blob):
    _parses_or_format_error(PARSERS[kind], scratch, blob)


@pytest.mark.parametrize("kind", sorted(PARSERS))
@FUZZ
@given(body=st.binary(max_size=96))
def test_any_bytes_after_magic_parse_or_raise_format_error(scratch, kind, body):
    _parses_or_format_error(PARSERS[kind], scratch, MAGIC[kind] + body)


@pytest.mark.parametrize("magic", [b"RRAW", b"CKPT"])
@FUZZ
@given(header=json_values, payload=st.binary(max_size=32), extra=st.integers(-4, 4))
def test_framed_json_of_any_shape_parses_or_raises_format_error(scratch, magic, header, payload, extra):
    raw = json.dumps(header).encode("utf-8")
    declared = max(0, len(raw) + extra)
    parse = read_raw_container if magic == b"RRAW" else load_checkpoint
    _parses_or_format_error(parse, scratch, _frame(magic, raw, payload, declared))


# the JSON type each RRAW header field must have (a bool is never a number)
RAW_KINDS = {"width": int, "height": int, "cfa": str, "black_level": int, "white_level": int,
             "exposure_ratio": (int, float)}


@FUZZ
@given(fields=st.dictionaries(st.sampled_from(RAW_KEYS), json_values), fill=st.booleans())
def test_rraw_header_fields_of_any_type_parse_or_raise_format_error(scratch, fields, fill):
    base = {"width": 2, "height": 2, "cfa": "RGGB", "black_level": 0, "white_level": 10, "exposure_ratio": 1.0}
    header = {**base, **fields} if fill else fields
    w, h = header.get("width"), header.get("height")
    sized = all(isinstance(v, int) and not isinstance(v, bool) and 0 < v < 64 for v in (w, h))
    plane = b"\x01\x00" * (w * h) if sized else b"\x00" * 8
    scratch.write_bytes(_frame(b"RRAW", json.dumps(header).encode(), plane))
    try:
        raw = read_raw_container(scratch)
    except FormatError:
        return
    assert set(header) == set(RAW_KINDS)
    for key, kind in RAW_KINDS.items():
        assert isinstance(header[key], kind) and not isinstance(header[key], bool), key
        assert getattr(raw, key) == header[key]


@FUZZ
@given(
    entries=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "name": json_values | st.text(max_size=3),
                "shape": json_values | st.lists(st.integers(-1, 4) | st.just(2**70), max_size=70),
                "offset": json_values,
                "length": json_values,
            },
        ),
        max_size=3,
    ),
    seed=json_values,
    payload=st.binary(max_size=40),
)
def test_checkpoint_manifest_of_any_shape_parses_or_raises_format_error(scratch, entries, seed, payload):
    header = json.dumps({"tensors": entries, "config": {}, "seed": seed}).encode()
    _parses_or_format_error(load_checkpoint, scratch, _frame(b"CKPT", header, payload))


@FUZZ
@given(fields=st.lists(st.binary(min_size=1, max_size=12).filter(lambda b: not b.isspace()), max_size=4),
       pixels=st.binary(max_size=48))
def test_ppm_header_fields_parse_or_raise_format_error(scratch, fields, pixels):
    _parses_or_format_error(read_ppm, scratch, b"P6\n" + b" ".join(fields) + b"\n" + pixels)


# --- regressions: inputs that escaped as other exception types ------------


def _rraw_header(**over):
    header = {"width": 2, "height": 2, "cfa": "RGGB", "black_level": 0, "white_level": 10, "exposure_ratio": 1.0}
    header.update(over)
    return json.dumps(header).encode()


@pytest.mark.parametrize(
    "header",
    [
        b"[]",
        b"3",
        _rraw_header(width=None),
        _rraw_header(cfa="BGGR"),
        _rraw_header(cfa=["RGGB"]),
        _rraw_header(black_level=10),
        _rraw_header(exposure_ratio=1e400),
        _rraw_header(exposure_ratio="nan"),
        _rraw_header().replace(b'"exposure_ratio": 1.0', b'"exposure_ratio": NaN'),
        _rraw_header(width=2.9),
        _rraw_header(width="2"),
        _rraw_header(width=True, height=4),
        _rraw_header(black_level="0"),
        _rraw_header(white_level=10.7),
        _rraw_header(exposure_ratio="1.5"),
        _rraw_header(exposure_ratio=10**400),
        _rraw_header(black_level=10**400, white_level=10**401),
        _rraw_header(black_level=-1),
        _rraw_header(white_level=65536),
        _rraw_header(gain=2),
        _rraw_header(plane=[0, 0, 0, 0]),
        json.dumps({"width": 2, "height": 2, "cfa": "RGGB", "black_level": 0, "exposure_ratio": 1.0}).encode(),
    ],
    ids=["list", "number", "null-width", "unknown-cfa", "list-cfa", "black-equals-white",
         "infinite-ratio", "string-nan-ratio", "nan-ratio", "float-width", "string-width", "bool-width",
         "string-black", "float-white", "string-ratio", "huge-int-ratio", "huge-levels", "negative-black",
         "white-past-u16", "unknown-key", "plane-key", "missing-white"],
)
def test_malformed_rraw_header_is_format_error(tmp_path, header):
    path = tmp_path / "bad.rraw"
    path.write_bytes(_frame(b"RRAW", header, b"\x00" * 8))
    with pytest.raises(FormatError):
        read_raw_container(path)


EMPTY_MANIFEST = json.dumps({"tensors": [], "config": {}, "seed": 0}).encode()


def _two_floats(second_name, second_offset):
    """A checkpoint of two one-float tensors, "w" at offset 0 and a second one."""
    entries = [{"name": "w", "shape": [1], "offset": 0, "length": 1},
               {"name": second_name, "shape": [1], "offset": second_offset, "length": 1}]
    return _frame(b"CKPT", json.dumps({"tensors": entries, "config": {}, "seed": 0}).encode(), b"\x00" * 8)


@pytest.mark.parametrize(
    "blob",
    [
        _frame(b"CKPT", EMPTY_MANIFEST, declared=len(EMPTY_MANIFEST) + 10),
        _frame(b"CKPT", EMPTY_MANIFEST, b"\x00" * 3),
        _frame(b"CKPT", json.dumps(
            {"tensors": [{"name": "w", "shape": [0, 2**70], "offset": 0, "length": 0}], "config": {}, "seed": 0}
        ).encode()),
        _two_floats("w", 1),
        _two_floats("v", 0),
    ],
    ids=["header-length-past-end", "partial-float", "shape-too-big", "name-twice", "offset-rereads-floats"],
)
def test_malformed_checkpoint_is_format_error(tmp_path, blob):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [b"P6\nabc 2 255\n", b"P6", b"P6\n-2 -2 255\n" + b"\x00" * 12, b"P6\n0 4 255\n"],
                         ids=["letters", "no-fields", "negative", "zero-width"])
def test_malformed_ppm_header_is_format_error(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_ppm(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda index: {},
        lambda index: [],
        lambda index: {**index, "samples": 3},
        lambda index: {**index, "samples": [{"raw": 1, "gt": 2}]},
        lambda index: {**index, "cfa": "BGGR"},
        lambda index: {**index, "size": None},
        lambda index: {**index, "count": 2},
        lambda index: {**index, "size": 12.7},
        lambda index: {**index, "size": "12"},
        lambda index: {**index, "count": "1"},
        lambda index: {**index, "count": 1.5},
        lambda index: {**index, "count": True},
        lambda index: {**index, "seed": True},
        lambda index: {**index, "ratio": "100"},
        lambda index: {**index, "baseline_psnr": "3"},
        lambda index: {**index, "gain": 2},
        lambda index: {key: value for key, value in index.items() if key != "seed"},
    ],
    ids=["empty-object", "list", "samples-number", "entry-paths-numbers", "unknown-cfa", "null-size", "count-disagrees",
         "float-size", "string-size", "string-count", "float-count", "bool-count", "bool-seed", "string-ratio",
         "string-baseline", "unknown-key", "missing-seed"],
)
def test_malformed_dataset_index_is_format_error(tmp_path, edit):
    write_dataset(gen_synthetic(count=1, size=12, seed=0), tmp_path)
    index_path = tmp_path / "index.json"
    index_path.write_text(json.dumps(edit(json.loads(index_path.read_text()))))
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


# --- the one JSON record reader -------------------------------------------

# every dataclass read from JSON, with the fields its reader passes as ``given``
JSON_RECORDS = {RawImage: {"plane"}, SyntheticDataset: {"samples"}, NetworkConfig: set(), TrainConfig: set(),
                LossConfig: set()}


@pytest.mark.parametrize("cls", list(JSON_RECORDS), ids=lambda cls: cls.__name__)
def test_every_json_record_field_has_a_json_type(cls):
    names = {f.name for f in fields(cls)}
    assert JSON_RECORDS[cls] <= names
    for f in fields(cls):
        assert f.name in JSON_RECORDS[cls] or f.type.removesuffix(" | None") in _JSON_TYPES, f.name
