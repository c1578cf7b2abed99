from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from sftgeom.builtins import builtin
from sftgeom.errors import (
    InadmissibleBoundaryWord,
    MalformedInstance,
    NotPrimitive,
    TooShallow,
)
from sftgeom.sft import (
    SIDES,
    BoundaryData,
    BoundaryInstance,
    CocycleGapOrbit,
    CylinderCylinderInstance,
    CylinderGapInstance,
    GapLayout,
    MatchingInstance,
    PeriodicOrbit,
    Seg,
    Word,
    build_sft,
    cyl,
    deep_extend,
    deep_window_of,
    enumerate_cylinders,
    gap,
    json_int,
    mother,
    periodic_orbits,
    system_from_json,
    system_to_json,
)

from test_window_table import _draw_gapped_system

FULL2 = [[1, 1], [1, 1]]
GOLDEN = [[1, 1], [1, 0]]


def test_primitivity_exponents():
    assert build_sft(2, FULL2).primitivity_exponent == 1
    assert build_sft(2, GOLDEN).primitivity_exponent == 2
    assert build_sft(1, [[1]]).primitivity_exponent == 1


def test_non_primitive_rejected():
    with pytest.raises(NotPrimitive):
        build_sft(2, [[1, 0], [0, 1]])
    with pytest.raises(NotPrimitive):
        build_sft(2, [[0, 1], [1, 0]])
    with pytest.raises(NotPrimitive):
        build_sft(1, [[0]])


def test_matrix_validation():
    with pytest.raises(ValueError):
        build_sft(2, [[1, 1]])
    with pytest.raises(ValueError):
        build_sft(2, [[1, 2], [1, 1]])


@pytest.mark.parametrize("entry", [0.5, 0.999, 1.5, -1, float("nan"), "1"])
def test_matrix_entries_other_than_zero_or_one_are_refused(entry):
    # 0.5 once truncated to 0 while the primitivity test read it as true
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        build_sft(2, [[1, entry], [1, 1]])


def test_successors_predecessors():
    sys = build_sft(2, GOLDEN)
    assert sys.successors(0) == (0, 1)
    assert sys.successors(1) == (0,)
    assert sys.predecessors(0) == (0, 1)
    assert sys.predecessors(1) == (0,)


def test_enumerate_full_shift():
    sys = build_sft(2, FULL2)
    words = enumerate_cylinders(sys, 3, "u")
    assert len(words) == 8
    assert [w.symbols for w in words[:3]] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    assert words == sorted(words)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 3), (3, 5), (4, 8), (5, 13)])
def test_enumerate_golden_counts(n, count):
    sys = build_sft(2, GOLDEN)
    assert len(enumerate_cylinders(sys, n, "s")) == count


def test_word_admissibility():
    sys = build_sft(2, GOLDEN)
    sys.word((0, 1, 0), "u")
    with pytest.raises(ValueError):
        sys.word((1, 1), "u")
    with pytest.raises(ValueError):
        sys.word((0, 2), "s")


def test_pivot_and_deep_end():
    u = Word((0, 1, 1), "u")
    s = Word((0, 1, 1), "s")
    assert u.pivot == 0 and u.deep_symbol == 1
    assert s.pivot == 1 and s.deep_symbol == 0
    assert deep_extend(u.symbols, 0, "u") == (0, 1, 1, 0)
    assert deep_extend(s.symbols, 1, "s") == (1, 0, 1, 1)
    assert deep_window_of(u.symbols, 2, "u") == (1, 1)
    assert deep_window_of(s.symbols, 2, "s") == (0, 1)


def test_mother_drops_deep_end():
    assert mother(Word((0, 1, 1), "u")).symbols == (0, 1)
    assert mother(Word((1, 1, 0), "s"), 2).symbols == (0,)
    w = Word((0, 1, 0, 0), "u")
    assert mother(w, 0) == w
    assert mother(mother(w)) == mother(w, 2)
    with pytest.raises(TooShallow):
        mother(Word((0,), "u"))
    with pytest.raises(TooShallow):
        mother(Word((0, 1), "s"), 2)


def test_periodic_orbits_full_shift():
    sys = build_sft(2, FULL2)
    orbits = periodic_orbits(sys, 2)
    assert orbits == [
        PeriodicOrbit((0,), 1),
        PeriodicOrbit((1,), 1),
        PeriodicOrbit((0, 1), 2),
    ]
    assert periodic_orbits(sys, 0) == []


def test_periodic_orbits_golden():
    sys = build_sft(2, GOLDEN)
    orbits = periodic_orbits(sys, 3)
    assert [o.representative for o in orbits] == [(0,), (0, 1), (0, 0, 1)]


def _orbit_count_identity(sys, p):
    orbits = periodic_orbits(sys, p)
    total = sum(o.period for o in orbits if p % o.period == 0)
    assert total == sys.trace_power(p)


@pytest.mark.parametrize("matrix", [FULL2, GOLDEN, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_orbit_counts_match_traces(matrix, p):
    _orbit_count_identity(build_sft(len(matrix), matrix), p)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 1), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_orbit_counts_random_matrices(matrix):
    try:
        sys = build_sft(len(matrix), matrix)
    except NotPrimitive:
        assume(False)
    for p in (1, 2, 3, 4):
        _orbit_count_identity(sys, p)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_orbit_counts_on_generated_gapped_systems(data):
    sys, _ = _draw_gapped_system(data.draw, lambda key: data.draw(st.booleans()))
    for p in (1, 2, 3, 4, 5, 6):
        _orbit_count_identity(sys, p)


def test_trace_power_is_exact_past_int64():
    full5 = build_sft(5, [[1] * 5] * 5)
    assert full5.trace_power(28) == 5**28
    assert full5.trace_power(0) == 5


MIDDLE_THIRD_U = GapLayout(
    "u",
    {
        None: (("cyl", 0), ("gap",), ("cyl", 1)),
        0: (("cyl", 0), ("gap",), ("cyl", 1)),
        1: (("cyl", 0), ("gap",), ("cyl", 1)),
    },
)


def test_layout_children_and_gaps():
    sys = build_sft(2, FULL2, layouts={"u": MIDDLE_THIRD_U})
    lay = sys.layout("u")
    assert lay.ordered_children((0,)) == [
        Seg("cyl", (0, 0)),
        Seg("gap", (0,), 0),
        Seg("cyl", (0, 1)),
    ]
    assert lay.gap_count((0,)) == 1
    assert lay.has_gaps


def test_layout_s_side_prepends():
    lay = GapLayout(
        "s",
        {
            None: (("cyl", 0), ("cyl", 1)),
            0: (("cyl", 0), ("cyl", 1)),
            1: (("cyl", 0), ("cyl", 1)),
        },
    )
    sys = build_sft(2, FULL2, layouts={"s": lay})
    assert [s.word for s in sys.layout("s").ordered_children((1,))] == [(0, 1), (1, 1)]
    assert not sys.layout("s").has_gaps


def test_layout_validation_rejects_bad_tables():
    missing_key = GapLayout("u", {None: (("cyl", 0), ("cyl", 1))})
    with pytest.raises(ValueError):
        build_sft(2, FULL2, layouts={"u": missing_key})
    gap_at_edge = GapLayout(
        "u",
        {
            None: (("gap",), ("cyl", 0), ("cyl", 1)),
            0: (("cyl", 0), ("cyl", 1)),
            1: (("cyl", 0), ("cyl", 1)),
        },
    )
    with pytest.raises(ValueError):
        build_sft(2, FULL2, layouts={"u": gap_at_edge})
    wrong_symbols = GapLayout(
        "u",
        {
            None: (("cyl", 0), ("cyl", 1)),
            0: (("cyl", 0), ("cyl", 1)),
            1: (("cyl", 0), ("cyl", 1)),
        },
    )
    with pytest.raises(ValueError):
        build_sft(2, GOLDEN, layouts={"u": wrong_symbols})


def test_layout_under_the_wrong_side_key_rejected():
    s_layout = GapLayout("s", dict(MIDDLE_THIRD_U.entries))
    with pytest.raises(ValueError, match="key 'u'"):
        build_sft(2, FULL2, layouts={"u": s_layout})
    obj = json.loads(system_to_json(build_sft(2, FULL2, layouts={"s": s_layout})))
    obj["layouts"]["u"] = obj["layouts"].pop("s")
    with pytest.raises(ValueError, match="key 'u'"):
        system_from_json(json.dumps(obj))


def test_boundary_validation():
    bad_word = BoundaryData(
        matching_instances=(
            MatchingInstance(
                "m1", "u", cyl((1, 1)), cyl((0,)), (cyl((0,)), cyl((1,))), 1
            ),
        )
    )
    with pytest.raises(InadmissibleBoundaryWord):
        build_sft(2, GOLDEN, boundary=bad_word)
    bad_split = BoundaryData(
        matching_instances=(
            MatchingInstance(
                "m1", "u", cyl((0,)), cyl((1,)), (cyl((0,)), cyl((1,))), 2
            ),
        )
    )
    with pytest.raises(MalformedInstance):
        build_sft(2, FULL2, boundary=bad_split)


def test_seg_helpers():
    assert cyl([0, 1]) == Seg("cyl", (0, 1))
    assert gap([0], 1) == Seg("gap", (0,), 1)
    assert gap([0]).ordinal == 0
    assert gap([0]).is_gap and not cyl([0]).is_gap


def test_json_round_trip(tmp_path):
    boundary = BoundaryData(
        matching_instances=(
            MatchingInstance(
                "m1", "u", cyl((0,)), cyl((1,)), (cyl((0, 0)), gap((0,), 0)), 1
            ),
        )
    )
    sys = build_sft(2, FULL2, boundary=boundary, layouts={"u": MIDDLE_THIRD_U})
    text = system_to_json(sys)
    again = system_from_json(text)
    assert again == sys
    assert system_to_json(again) == text

    path = tmp_path / "system.json"
    path.write_text(text, encoding="utf-8")
    loaded = system_from_json(path.read_text(encoding="utf-8"))
    copy = tmp_path / "copy.json"
    copy.write_text(system_to_json(loaded), encoding="utf-8")
    assert copy.read_text(encoding="utf-8") == text


# SHA-256 of system_to_json(builtin(name).sys); golden-anosov and
# da-attractor-toy together carry all five boundary record kinds.
BUILTIN_SYSTEM_SHA256 = {
    "horseshoe": "27e02f039bfcab162515553a0c7c368b077893e1ca22c208d67ebe54b7fe7adf",
    "golden-anosov": "d5ab74d566fd177dbeb5d1bc9ef9c36980b80d787142545a6f31ac9cc9fd464f",
    "cantor-third": "27e02f039bfcab162515553a0c7c368b077893e1ca22c208d67ebe54b7fe7adf",
    "da-attractor-toy": "48a3ca90cfb1809c9c7ae31aa7dd2022332dd7d01c8de8f3ce334166ddb27675",
}
BOUNDARY_SECTIONS = {"matching", "boundary", "cylindergap", "cylindercylinder", "cocyclegap"}


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEM_SHA256))
def test_builtin_system_files_are_pinned(name):
    text = system_to_json(builtin(name).sys)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SYSTEM_SHA256[name]


def test_pinned_builtins_carry_every_record_kind():
    carried = {
        section
        for name in ("golden-anosov", "da-attractor-toy")
        for section, records in json.loads(system_to_json(builtin(name).sys))["boundary"].items()
        if records
    }
    assert carried == BOUNDARY_SECTIONS


# Primitive matrices whose admissible words the records below are drawn over.
RECORD_MATRICES = (FULL2, GOLDEN, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])


@st.composite
def boundary_systems(draw):
    """A system with one or two records of every boundary kind, all of them
    over admissible words and within the instance rules of build_sft."""
    matrix = draw(st.sampled_from(RECORD_MATRICES))
    k = len(matrix)

    def word(min_size=1):
        out: list[int] = []
        for _ in range(draw(st.integers(min_size, 4))):
            nxt = [b for b in range(k) if not out or matrix[out[-1]][b]]
            out.append(draw(st.sampled_from(nxt)))
        return tuple(out)

    def seg(kind=None):
        if (kind or draw(st.sampled_from(("cyl", "gap")))) == "cyl":
            return cyl(word())
        return gap(word(0), draw(st.integers(0, 3)))

    def segs(n_min, last=None):
        body = [seg() for _ in range(draw(st.integers(n_min, 4)))]
        return tuple(body[:-1] + [seg(last)]) if last else tuple(body)

    def head():
        return draw(st.text(max_size=6)), draw(st.sampled_from(SIDES))

    def records(make):
        return tuple(make() for _ in range(draw(st.integers(1, 2))))

    def matching():
        left, right, chain = seg(), seg(), segs(2)
        return MatchingInstance(*head(), left, right, chain, draw(st.integers(1, len(chain) - 1)))

    def cylinder_cylinder():
        xi, c1, c2, eta = word(), word(), word(), word()
        ds = tuple(word() for _ in range(draw(st.integers(2, 4))))
        return CylinderCylinderInstance(*head(), xi, c1, c2, eta, ds, draw(st.integers(2, len(ds))))

    data = BoundaryData(
        matching_instances=records(matching),
        boundary_instances=records(lambda: BoundaryInstance(*head(), seg(), segs(1), segs(1))),
        cylindergap_instances=records(
            lambda: CylinderGapInstance(*head(), seg("cyl"), seg("gap"), segs(2, "gap"))
        ),
        cylindercylinder_instances=records(cylinder_cylinder),
        cocyclegap_orbits=records(
            lambda: CocycleGapOrbit(
                *head(), word(), draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            )
        ),
    )
    return build_sft(k, matrix, boundary=data)


def _words_by_hand(data: BoundaryData) -> list:
    out = []
    for m in data.matching_instances:
        out += [m.left.word, m.right.word, *(s.word for s in m.chain)]
    for b in data.boundary_instances:
        out += [b.base.word, *(s.word for s in b.dec_a), *(s.word for s in b.dec_b)]
    for c in data.cylindergap_instances:
        out += [c.pair_cyl.word, c.pair_gap.word, *(s.word for s in c.segments)]
    for c in data.cylindercylinder_instances:
        out += [c.xi, c.c1, c.c2, c.eta, *c.ds]
    for o in data.cocyclegap_orbits:
        out.append(o.orbit)
    return out


@settings(max_examples=40, deadline=None)
@given(boundary_systems())
def test_every_boundary_record_kind_round_trips(sys):
    text = system_to_json(sys)
    assert set(json.loads(text)["boundary"]) == BOUNDARY_SECTIONS
    again = system_from_json(text)
    assert again == sys
    assert system_to_json(again) == text
    assert list(sys.boundary_data.all_words()) == _words_by_hand(sys.boundary_data)


@pytest.mark.parametrize("bad", [2.0, 2.5, "2", True, None, [2]])
def test_json_int_accepts_only_json_integers(bad):
    assert json_int(3) == 3 and json_int(-1) == -1
    with pytest.raises(ValueError):
        json_int(bad)
