"""Property tests: arbitrary bytes or JSON values fed to the external-input
readers (checkpoints, netpbm images, model configs) raise only
IncepFormerError or OSError subclasses, never a raw Python exception."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incepformer.checkpoint import MAGIC, load_checkpoint
from incepformer.config import _MODEL_FIELDS, _STAGE_FIELDS, from_dict, micro, to_dict
from incepformer.errors import IncepFormerError
from incepformer.netpbm import read_image

# Bounded so the three tests together add a few seconds to the suite.
EXAMPLES = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def read_or_typed_error(reader, path, payload: bytes):
    path.write_bytes(payload)
    try:
        reader(str(path))
    except (IncepFormerError, OSError):
        pass


@st.composite
def checkpoint_files(draw):
    """Arbitrary bytes, or an IPTCKPT1 skeleton with arbitrary fields, cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    parts = [MAGIC, struct.pack("<I", draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.binary(max_size=4))
        rank = draw(st.one_of(st.integers(0, 4), st.integers(0, 255)))
        dims = [draw(st.integers(0, 3)) for _ in range(rank)]
        parts += [struct.pack("<H", len(name)), name,
                  struct.pack(f"<B{rank}I", rank, *dims), draw(st.binary(max_size=48))]
    parts.append(draw(st.binary(max_size=8)))
    raw = b"".join(parts)
    return raw[: draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


@EXAMPLES
@given(checkpoint_files())
def test_load_checkpoint_raises_only_typed_errors(workdir, payload):
    read_or_typed_error(load_checkpoint, workdir / "x.ckpt", payload)


@st.composite
def netpbm_files(draw):
    """Arbitrary bytes, or a netpbm header with small (possibly negative)
    dims, maybe one garbage field, and a payload of about the declared size."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6", b"P4"]))
    w, h = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    fields = [b"%d" % w, b"%d" % h, b"255"]
    if draw(st.booleans()):
        fields[draw(st.integers(0, 2))] = draw(st.binary(min_size=1, max_size=3))
    size = abs(w * h) * (3 if magic == b"P6" else 1)
    payload = draw(st.one_of(st.just(bytes(size)), st.binary(max_size=size + 2)))
    return b"%s\n%s %s\n%s\n%s" % (magic, *fields, payload)


@EXAMPLES
@given(netpbm_files())
def test_read_image_raises_only_typed_errors(workdir, payload):
    read_or_typed_error(read_image, workdir / "x.pgm", payload)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
            | st.sampled_from([float("inf"), float("nan"), 10**400]))
_JSON = st.one_of(_SCALARS, st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_MODEL_FIELDS + _STAGE_FIELDS + ("bogus", None)), _JSON)
def test_from_dict_raises_only_typed_errors(field, value):
    # One field of a valid document (a model field, a stage field, or the
    # whole document when field is None) replaced by an arbitrary JSON value.
    doc = to_dict(micro())
    if field is None:
        doc = value
    elif field in _STAGE_FIELDS:
        doc["stages"][1][field] = value
    else:
        doc[field] = value
    try:
        from_dict(doc)
    except IncepFormerError:
        pass
