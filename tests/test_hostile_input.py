"""Property tests: arbitrary bytes or JSON values fed to the external-input
readers (checkpoints, netpbm images, model configs) raise only
IncepFormerError or OSError subclasses, never a raw Python exception, and a
rejected checkpoint restore leaves the model as it was."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incepformer.checkpoint import MAGIC, _scan, restore_checkpoint
from incepformer.config import _MODEL_FIELDS, _STAGE_FIELDS, from_dict, micro, to_dict
from incepformer.errors import IncepFormerError
from incepformer.model import build_model
from incepformer.netpbm import read_image
from incepformer.train import (init_optim_state, load_training_checkpoint, save_training_checkpoint,
                               training_state_tensors)

# Bounded so the six tests together add a few seconds to the suite.
EXAMPLES = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


# A fresh file per example: rewriting one file that holds data forces a
# flush on filesystems that guard truncate-and-rewrite (ext4's
# auto_da_alloc), which costs far more than the read under test.
_NAMES = itertools.count()


def read_or_typed_error(reader, workdir, suffix: str, payload: bytes):
    path = workdir / f"{next(_NAMES)}{suffix}"
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


def read_checkpoint(path: str):
    """Scan `path`, then restore none of its tensors: every payload is read and checked."""
    with open(path, "rb") as fh:
        records = _scan(fh)[0]
    restore_checkpoint(path, {}, {name: dims for name, (dims, _) in records.items()})


@EXAMPLES
@given(checkpoint_files())
def test_restore_checkpoint_raises_only_typed_errors(workdir, payload):
    read_or_typed_error(read_checkpoint, workdir, ".ckpt", payload)


@pytest.fixture(scope="module")
def micro_model():
    """A micro model and zero optimizer state, with a copy of every array."""
    model = build_model(micro(), seed=0)
    state = init_optim_state(model.parameter_store())
    return model, state, {name: arr.copy() for name, arr in training_state_tensors(model, state).items()}


def restore_or_typed_error(path, micro_model, with_state: bool):
    """Restore `path` into the micro model (with its optimizer state or
    without).  A rejection must leave every array and the step counter as
    they were; a restore that succeeds is undone for the next example."""
    model, state, before = micro_model
    live = training_state_tensors(model, state)
    try:
        load_training_checkpoint(str(path), model, state if with_state else None)
    except (IncepFormerError, OSError):
        for name, arr in live.items():
            assert np.array_equal(arr, before[name]), name
        assert state.step == 0
    else:
        for name, arr in live.items():
            arr[...] = before[name]
        state.step = 0


@EXAMPLES
@given(checkpoint_files(), st.booleans())
def test_restore_raises_only_typed_errors_and_copies_nothing(workdir, micro_model, payload, with_state):
    path = workdir / f"{next(_NAMES)}.ckpt"
    path.write_bytes(payload)
    restore_or_typed_error(path, micro_model, with_state)


@pytest.fixture(scope="module")
def micro_checkpoint(workdir):
    """The bytes of a micro training checkpoint in which every parameter,
    buffer and moment differs from `micro_model`'s, and the (offset, size)
    of each payload in it."""
    model = build_model(micro(), seed=1)
    state = init_optim_state(model.parameter_store())
    rng = np.random.default_rng(0)
    for name, arr in training_state_tensors(model, state).items():
        if "/m" in name or name in dict(model.named_buffers()):
            arr[...] = rng.random(arr.shape)
    path = workdir / "micro.ckpt"
    save_training_checkpoint(str(path), model, state, 7)
    with open(path, "rb") as fh:
        records, _ = _scan(fh)
    return path.read_bytes(), [(offset, 4 * math.prod(dims)) for dims, offset in records.values()]


# Edits of a real checkpoint: cut it, xor one byte, append bytes, or write a
# non-finite float32 over one value of one payload (tensor and value taken
# modulo the counts).  Positions are taken modulo the file's length.
_EDITS = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 1 << 17)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 17), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("nonfinite"), st.integers(0, 1 << 10), st.integers(0, 1 << 12),
              st.sampled_from([np.nan, np.inf, -np.inf])),
)


def apply_edits(raw: bytes, spans, edits) -> bytes:
    data = bytearray(raw)
    for kind, *args in edits:
        if kind == "cut":
            del data[args[0] % (len(data) + 1):]
        elif kind == "flip" and data:
            data[args[0] % len(data)] ^= args[1]
        elif kind == "append":
            data += args[0]
        elif kind == "nonfinite":
            offset, size = spans[args[0] % len(spans)]
            at = offset + 4 * (args[1] % (size // 4))
            data[at:at + 4] = np.array(args[2], dtype="<f4").tobytes()
    return bytes(data)


@EXAMPLES
@given(st.lists(_EDITS, min_size=1, max_size=3), st.booleans())
def test_restore_of_edited_checkpoint_raises_only_typed_errors_and_copies_nothing(
        workdir, micro_model, micro_checkpoint, edits, with_state):
    # Unlike checkpoint_files(), these files mostly pass the scan and the
    # name and shape checks, so the payload reads and their rejections run.
    raw, spans = micro_checkpoint
    path = workdir / f"{next(_NAMES)}.ckpt"
    path.write_bytes(apply_edits(raw, spans, edits))
    restore_or_typed_error(path, micro_model, with_state)


@st.composite
def netpbm_files(draw):
    """Arbitrary bytes, or a netpbm header with small (possibly negative)
    dims or 32, which passes the input-size rule, maybe one garbage field,
    and a payload of about the declared size."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6", b"P4"]))
    side = st.integers(-2, 4) | st.just(32)
    w, h = draw(side), draw(side)
    fields = [b"%d" % w, b"%d" % h, b"255"]
    if draw(st.booleans()):
        fields[draw(st.integers(0, 2))] = draw(st.binary(min_size=1, max_size=3))
    size = abs(w * h) * (3 if magic == b"P6" else 1)
    payload = draw(st.one_of(st.just(bytes(size)), st.binary(max_size=size + 2)))
    return b"%s\n%s %s\n%s\n%s" % (magic, *fields, payload)


@EXAMPLES
@given(netpbm_files())
def test_read_image_raises_only_typed_errors(workdir, payload):
    read_or_typed_error(read_image, workdir, ".pgm", payload)


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
