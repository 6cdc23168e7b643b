"""Value semantics of ropelab's immutable types: equality, hashing, repr, copying, pickling."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from ropelab import (
    BoundaryGap,
    BoundaryScore,
    DecayCurve,
    FrequencySchedule,
    LayoutToken,
    SchemeConfig,
    ScoreGrid,
    TextSegment,
    TokenCoordinate,
    TokenLayout,
    TrialConfig,
    VideoGrid,
    VideoSegment,
    build_frequency_schedule,
    build_layout,
    decay_curve,
    heatmap,
)


def _layout(frames: int = 2) -> TokenLayout:
    return build_layout([TextSegment(2), VideoSegment(VideoGrid(2, 2, frames))], SchemeConfig("vrope", d=8))


def _schedule(base: float = 10000.0) -> FrequencySchedule:
    return build_frequency_schedule(base, 8)


def _grid(frame: int = 0) -> ScoreGrid:
    return heatmap(SchemeConfig("rope3d", d=8), VideoGrid(2, 2, 2), frame, (3, 3, 3))


# type, fields in order, (a make and a different value), the fields equality and
# hashing compare (None: unhashable, with its own __eq__), and __init__'s
# parameters as (name, default)
_EMPTY = inspect.Parameter.empty
CASES = {
    "FrequencySchedule": (
        FrequencySchedule, ("base", "d", "theta"),
        _schedule, lambda: _schedule(500.0),
        ("base", "d"), (("base", _EMPTY), ("d", _EMPTY), ("theta", _EMPTY)),
    ),
    "VideoGrid": (
        VideoGrid, ("width", "height", "frames"),
        lambda: VideoGrid(2, 3, 4), lambda: VideoGrid(2, 3, 5),
        ("width", "height", "frames"), (("width", _EMPTY), ("height", _EMPTY), ("frames", _EMPTY)),
    ),
    "TokenCoordinate": (
        TokenCoordinate, ("w", "h", "t"),
        lambda: TokenCoordinate(1, 0, 2), lambda: TokenCoordinate(0, 1, 2),
        ("w", "h", "t"), (("w", _EMPTY), ("h", _EMPTY), ("t", _EMPTY)),
    ),
    "SchemeConfig": (
        SchemeConfig, ("scheme", "d", "base", "partition"),
        lambda: SchemeConfig("rope3d", d=8, partition=(2, 1, 1)), lambda: SchemeConfig("rope3d", d=8),
        ("scheme", "d", "base", "partition"),
        (("scheme", _EMPTY), ("d", 64), ("base", 10000.0), ("partition", None)),
    ),
    "TextSegment": (
        TextSegment, ("count",), lambda: TextSegment(3), lambda: TextSegment(4),
        ("count",), (("count", _EMPTY),),
    ),
    "VideoSegment": (
        VideoSegment, ("grid",),
        lambda: VideoSegment(VideoGrid(2, 2, 1)), lambda: VideoSegment(VideoGrid(2, 2, 2)),
        ("grid",), (("grid", _EMPTY),),
    ),
    "LayoutToken": (
        LayoutToken, ("modality", "segment_index", "coord", "ordinal", "position"),
        lambda: LayoutToken("video", 1, TokenCoordinate(1, 0, 0), None, (3, 4, 5, 6)),
        lambda: LayoutToken("text", 0, None, 1, (1, 1, 1, 1)),
        ("modality", "segment_index", "coord", "ordinal", "position"),
        tuple((name, _EMPTY) for name in ("modality", "segment_index", "coord", "ordinal", "position")),
    ),
    "TokenLayout": (
        TokenLayout, ("scheme", "segments", "firsts", "steps", "counts"),
        _layout, lambda: _layout(3),
        None, tuple((name, _EMPTY) for name in ("scheme", "segments", "firsts", "steps", "counts")),
    ),
    "BoundaryGap": (
        BoundaryGap, ("video_segment", "text_segment", "per_dim"),
        lambda: BoundaryGap(1, 2, (1, 9, 9)), lambda: BoundaryGap(1, 2, (1, 1, 1, 1)),
        ("video_segment", "text_segment", "per_dim"),
        (("video_segment", _EMPTY), ("text_segment", _EMPTY), ("per_dim", _EMPTY)),
    ),
    "ScoreGrid": (
        ScoreGrid, ("values", "scheme", "query", "frame"),
        _grid, lambda: _grid(1),
        None, (("values", _EMPTY), ("scheme", _EMPTY), ("query", _EMPTY), ("frame", _EMPTY)),
    ),
    "DecayCurve": (
        DecayCurve, ("values",),
        lambda: decay_curve(_schedule(), 3), lambda: decay_curve(_schedule(), 4),
        None, (("values", _EMPTY),),
    ),
    "TrialConfig": (
        TrialConfig, ("seed", "trials"), lambda: TrialConfig(7, 100), lambda: TrialConfig(7, 101),
        ("seed", "trials"), (("seed", _EMPTY), ("trials", _EMPTY)),
    ),
    "BoundaryScore": (
        BoundaryScore, ("scheme_id", "target", "mean_score"),
        lambda: BoundaryScore("vrope", "video", 0.25), lambda: BoundaryScore("vrope", "text", 0.25),
        ("scheme_id", "target", "mean_score"),
        (("scheme_id", _EMPTY), ("target", _EMPTY), ("mean_score", _EMPTY)),
    ),
}

TYPES = pytest.mark.parametrize("name", sorted(CASES))


def _same(a, b) -> bool:
    """Field by field equality, arrays by value."""
    fields = CASES[type(a).__name__][1]
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f), getattr(b, f)) for f in fields)
    )


@TYPES
def test_equality_compares_the_fields_of_one_class(name):
    cls, fields, make, other, compared, _ = CASES[name]
    a, b, c = make(), make(), other()
    assert type(a) is cls
    assert a == b and not a != b
    assert a != c and not a == c
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in fields)


@TYPES
def test_hash_is_the_compared_fields_or_unhashable(name):
    _, _, make, other, compared, _ = CASES[name]
    a = make()
    if compared is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(make()) == hash(tuple(getattr(a, f) for f in compared))
        assert {a, make(), other()} == {a, other()}


@TYPES
def test_repr_lists_every_field_by_name(name):
    cls, fields, make, _, _, _ = CASES[name]
    a = make()
    listed = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{cls.__qualname__}({listed})"


def test_repr_literal():
    assert repr(VideoGrid(2, 3, 4)) == "VideoGrid(width=2, height=3, frames=4)"
    assert repr(SchemeConfig("vrope")) == "SchemeConfig(scheme='vrope', d=64, base=10000.0, partition=None)"
    assert repr(TextSegment(1)) == "TextSegment(count=1)"


@TYPES
def test_fields_cannot_be_assigned_or_deleted(name):
    _, fields, make, _, _, _ = CASES[name]
    a = make()
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(a, field, 1)
    for field in fields:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(a, field)
    assert _same(a, make())


@TYPES
def test_copy_deepcopy_and_pickle_round_trip(name):
    _, fields, make, _, _, _ = CASES[name]
    a = make()
    shallow = copy.copy(a)
    assert _same(shallow, a) and shallow == a
    assert all(getattr(shallow, f) is getattr(a, f) for f in fields)
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _same(twin, a) and twin == a


@TYPES
def test_match_args_and_init_parameters_follow_the_fields(name):
    cls, fields, make, _, _, parameters = CASES[name]
    assert cls.__match_args__ == fields
    signature = inspect.signature(cls)
    assert tuple((p.name, p.default) for p in signature.parameters.values()) == parameters
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())
    assert _same(cls(*(getattr(make(), f) for f in fields)), make())
    assert _same(cls(**{f: getattr(make(), f) for f in fields}), make())


def test_match_statement_binds_fields_by_position():
    match VideoSegment(VideoGrid(2, 3, 4)):
        case VideoSegment(VideoGrid(w, h, t)):
            assert (w, h, t) == (2, 3, 4)
        case _:
            pytest.fail("no match")


def test_cached_properties_survive_copy_and_pickle():
    layout = _layout()
    positions = layout.positions
    for twin in (copy.copy(layout), copy.deepcopy(layout), pickle.loads(pickle.dumps(layout))):
        assert np.array_equal(twin.positions, positions)
        assert twin.tokens == layout.tokens
    curve = decay_curve(_schedule(), 3)
    assert pickle.loads(pickle.dumps(curve)).points == curve.points
