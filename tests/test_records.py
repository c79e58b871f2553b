"""`dxrank.record` against the standard library's data classes: one class
body under either decorator must construct, compare, hash, print, freeze,
inherit and convert alike."""
from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

import dxrank


def declare(api, dataclass) -> SimpleNamespace:
    """The same classes under the decorator `dataclass` and `api.field`."""
    field = api.field

    @dataclass(frozen=True)
    class Point:
        x: int
        y: int = 0
        tags: tuple[str, ...] = field(default_factory=tuple)
        norm: int = field(init=False)

        def __post_init__(self):
            if self.x < 0:
                raise ValueError(f"negative x {self.x}")
            object.__setattr__(self, "norm", abs(self.x) + abs(self.y))

    @dataclass(frozen=True)
    class Point3(Point):
        y: int = 5  # redeclared: keeps its place among the fields
        z: int = 1

    @dataclass(frozen=True)
    class Point4(Point3):
        z: int = 2  # the nearest base's defaults win: y stays 5
        w: int = 0

    @dataclass
    class Bag:
        items: list = field(default_factory=list)
        count: int = 0
        label: str = field(default="bag", init=False)

    @dataclass(frozen=True)
    class Nested:
        point: Point
        points: tuple[Point, ...]
        table: dict[str, tuple[int, ...]]
        bag: Bag = field(default_factory=Bag)
        note: str = "n"

    return SimpleNamespace(api=api, dataclass=dataclass, Point=Point, Point3=Point3,
                           Point4=Point4, Bag=Bag, Nested=Nested)


STD = declare(dataclasses, dataclasses.dataclass)
REC = declare(dxrank, dxrank.record)
FAMILIES = (STD, REC)


def outcome(fn):
    """What `fn()` returns, or the type and text of what it raises."""
    try:
        return "ok", fn()
    except Exception as exc:  # compared, never swallowed: both sides must agree
        return type(exc).__name__, str(exc)


def state(obj) -> list:
    """The attributes an instance holds, in the order `__init__` set them."""
    return list(vars(obj).items())


def same(make):
    """`make(family)` gives the same outcome under both decorators."""
    std, rec = (outcome(lambda fam=fam: make(fam)) for fam in FAMILIES)
    assert std == rec
    return rec


class TestConstruction:
    @pytest.mark.parametrize("make", [
        lambda f: state(f.Point(1)),
        lambda f: state(f.Point(1, 2, ("a",))),
        lambda f: state(f.Point(x=3, tags=("b", "c"), y=-4)),
        lambda f: state(f.Point3(1)),
        lambda f: state(f.Point3(1, 2, (), 7)),
        lambda f: state(f.Point4(1)),
        lambda f: state(f.Point4(1, w=3)),
        lambda f: state(f.Bag()),
        lambda f: state(f.Bag([1], 2)),
        lambda f: (f.Bag().label, f.Bag.label, f.Point.y),
        lambda f: hasattr(f.Point, "tags") or hasattr(f.Point, "norm"),
    ])
    def test_values_defaults_and_derived_fields(self, make):
        assert same(make)[0] == "ok"

    @pytest.mark.parametrize("make", [
        lambda f: f.Point(-1),
        lambda f: f.Point(),
        lambda f: f.Point(1, norm=2),
        lambda f: f.Point(1, 2, (), 3),
        lambda f: f.Bag(label="x"),
    ])
    def test_errors(self, make):
        assert same(make)[0] != "ok"

    def test_each_default_factory_call_is_fresh(self):
        assert REC.Bag().items is not REC.Bag().items
        assert REC.Nested(REC.Point(1), (), {}).bag == REC.Bag()

    def test_non_default_after_default_is_rejected(self):
        def make(fam):
            class Bad:
                __annotations__ = {"a": "int", "b": "int"}
                a = 0

            fam.dataclass(Bad)

        assert same(make)[0] == "TypeError"


class TestComparison:
    VALUES = [
        lambda f: f.Point(1),
        lambda f: f.Point(1, 0, ()),
        lambda f: f.Point(1, 2),
        lambda f: f.Point(1, 0, ("a",)),
        lambda f: f.Point3(1, 0),
        lambda f: f.Bag([1]),
        lambda f: f.Bag([1], 0),
        lambda f: (1, 0, (), 1),
    ]

    @pytest.mark.parametrize("i", range(len(VALUES)))
    @pytest.mark.parametrize("j", range(len(VALUES)))
    def test_eq_and_ne(self, i, j):
        same(lambda f: (self.VALUES[i](f) == self.VALUES[j](f),
                        self.VALUES[i](f) != self.VALUES[j](f)))

    def test_twins_of_different_classes_differ(self):
        assert STD.Point(1) != REC.Point(1) and not REC.Point(1) == STD.Point(1)
        assert REC.Point(1) != REC.Point3(1, 0)

    def test_hash(self):
        assert hash(REC.Point(1, 2, ("a",))) == hash(STD.Point(1, 2, ("a",)))
        assert hash(REC.Point3(1)) == hash(STD.Point3(1))
        assert len({REC.Point(1), REC.Point(1, 0, ())}) == 1
        assert REC.Bag.__hash__ is None and STD.Bag.__hash__ is None
        same(lambda f: hash(f.Bag()))

    @pytest.mark.parametrize("make", [
        lambda f: f.Point(1, 2, ("a",)),
        lambda f: f.Point3(4),
        lambda f: f.Bag(["x"], 3),
        lambda f: f.Nested(f.Point(1), (f.Point(2),), {"k": (1, 2)}),
    ])
    def test_repr(self, make):
        assert same(lambda f: repr(make(f)))[1].startswith("declare.<locals>.")


class TestFrozen:
    @pytest.mark.parametrize("make", [
        lambda f: setattr(f.Point(1), "x", 2),
        lambda f: setattr(f.Point(1), "unknown", 2),
        lambda f: delattr(f.Point(1), "y"),
        lambda f: delattr(f.Point3(1), "z"),
    ])
    def test_assignment_and_deletion_raise(self, make):
        kind, _ = same(make)
        assert kind == "FrozenInstanceError"

    def test_frozen_error_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            REC.Point(1).x = 2

    def test_unfrozen_record_assigns(self):
        same(lambda f: (lambda b: (setattr(b, "count", 5), state(b)))(f.Bag()))

    def test_plain_subclass_may_add_attributes(self):
        def make(fam):
            sub = type("Sub", (fam.Point,), {})(1)
            sub.extra = 3
            return outcome(lambda: setattr(sub, "x", 0))[0], sub.extra

        same(make)


class TestHelpers:
    @staticmethod
    def describe(fam, cls) -> list:
        missing = fam.api.MISSING
        return [(f.name, f.type, None if f.default is missing else f.default,
                 None if f.default_factory is missing else f.default_factory, f.init)
                for f in fam.api.fields(cls)]

    @pytest.mark.parametrize("name", ["Point", "Point3", "Point4", "Bag", "Nested"])
    def test_fields(self, name):
        std, rec = (self.describe(fam, getattr(fam, name)) for fam in FAMILIES)
        std = [(n, t, d, getattr(df, "__name__", df), i) for n, t, d, df, i in std]
        rec = [(n, t, d, getattr(df, "__name__", df), i) for n, t, d, df, i in rec]
        assert std == rec
        assert [f.name for f in dxrank.fields(REC.Point3(1))] == ["x", "y", "tags", "norm", "z"]

    def test_fields_of_a_non_record_raise(self):
        with pytest.raises(TypeError):
            dxrank.fields(object())
        assert not dxrank.is_record(STD.Point) and dxrank.is_record(REC.Point(1))

    def test_asdict_recurses_and_copies(self):
        def make(fam):
            n = fam.Nested(fam.Point(1, 2, ("a",)), (fam.Point(3), fam.Point3(4)),
                           {"k": (1, 2), "l": ()}, fam.Bag([fam.Point(5)], 1))
            doc = fam.api.asdict(n)
            return doc, doc["bag"]["items"] is n.bag.items, type(doc["points"])

        doc, shared, kind = same(make)[1]
        assert not shared and kind is tuple
        assert doc["points"][1] == {"x": 4, "y": 5, "tags": (), "norm": 9, "z": 1}

    def test_asdict_of_a_class_raises(self):
        with pytest.raises(TypeError, match="called on record instances"):
            dxrank.asdict(REC.Point)

    @pytest.mark.parametrize("change", [
        {}, {"note": "m"}, {"table": {"z": (9,)}}, {"points": ()},
    ])
    def test_replace(self, change):
        def make(fam):
            n = fam.Nested(fam.Point(1), (fam.Point(2),), {"k": (1,)})
            new = fam.api.replace(n, **change)
            return repr(new), new.bag is n.bag

        same(make)

    @pytest.mark.parametrize("change", [{"x": -1}, {"norm": 3}, {"y": 4}, {"w": 1}])
    def test_replace_derived_and_invalid(self, change):
        same(lambda f: state(f.api.replace(f.Point(1, 2), **change)))
