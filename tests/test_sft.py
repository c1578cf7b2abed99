from __future__ import annotations

import json

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from sftgeom.errors import (
    InadmissibleBoundaryWord,
    MalformedInstance,
    NotPrimitive,
    TooShallow,
)
from sftgeom.sft import (
    BoundaryData,
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
    mother,
    periodic_orbits,
    system_from_json,
    system_to_json,
)

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


def test_orbit_rotations():
    assert PeriodicOrbit((0, 1), 2).rotations() == [(0, 1), (1, 0)]


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
    assert lay.cylinder_children((0,)) == [(0, 0), (0, 1)]
    assert lay.gap_count((0,)) == 1
    assert lay.has_gaps
    assert not sys.delta_is_one("u")


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
    assert sys.layout("s").cylinder_children((1,)) == [(0, 1), (1, 1)]
    assert sys.delta_is_one("s")


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
    path.write_text(text)
    from sftgeom.sft import load_system, save_system

    loaded = load_system(str(path))
    save_system(loaded, str(tmp_path / "copy.json"))
    assert (tmp_path / "copy.json").read_text() == text
