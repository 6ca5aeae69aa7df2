"""Dominance relation, Pareto filtering and archive semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SequentialArchive
from paretoscan.core import (
    DimensionMismatchError,
    Dominance,
    EmptyInputError,
    ParetoArchive,
    TrajectoryPoint,
    as_objectives,
    as_weights,
    build_archive,
    dominates,
    pareto_filter,
)


# ---------------------------------------------------------------------------
# vector validation
# ---------------------------------------------------------------------------


def test_as_objectives_copies_and_converts():
    raw = [1, 2, 3]
    out = as_objectives(raw)
    assert out.dtype == np.float64
    out[0] = 99.0
    assert raw[0] == 1


def test_as_objectives_rejects_bad_input():
    with pytest.raises(EmptyInputError):
        as_objectives([])
    with pytest.raises(ValueError):
        as_objectives([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_objectives([1.0, -0.1])
    with pytest.raises(ValueError):
        as_objectives([1.0, np.nan])
    with pytest.raises(ValueError):
        as_objectives([np.inf])


def test_as_weights_requires_strict_positivity():
    with pytest.raises(ValueError):
        as_weights([0.5, 0.0])
    with pytest.raises(ValueError):
        as_weights([0.5, -0.5])
    with pytest.raises(EmptyInputError):
        as_weights([])


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_dominates_tri_state():
    assert dominates([1.0, 2.0], [1.0, 3.0]) is Dominance.STRICT
    assert dominates([1.0, 2.0], [1.0, 2.0]) is Dominance.WEAK
    assert dominates([1.0, 3.0], [2.0, 2.0]) is Dominance.INCOMPARABLE
    assert dominates([2.0, 2.0], [1.0, 1.0]) is Dominance.INCOMPARABLE


def test_dominates_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        dominates([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# pareto_filter
# ---------------------------------------------------------------------------


def test_pareto_filter_known_case():
    points = [
        [1.0, 5.0],  # kept
        [2.0, 4.0],  # kept
        [3.0, 3.0],  # kept
        [2.0, 6.0],  # dominated by (1, 5)
        [4.0, 4.0],  # dominated by (2, 4)
        [1.0, 5.0],  # duplicate of a kept point: kept
    ]
    assert pareto_filter(points) == [0, 1, 2, 5]


def test_pareto_filter_single_point_and_empty():
    assert pareto_filter([[0.3, 0.7]]) == [0]
    with pytest.raises(EmptyInputError):
        pareto_filter([])


def test_pareto_filter_mixed_lengths():
    with pytest.raises(DimensionMismatchError):
        pareto_filter([[1.0, 2.0], [1.0, 2.0, 3.0]])


def _naive_filter(vecs):
    kept = []
    for i, v in enumerate(vecs):
        dominated = any(
            np.all(w <= v) and np.any(w < v) for j, w in enumerate(vecs) if j != i
        )
        if not dominated:
            kept.append(i)
    return kept


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.lists(st.integers(0, 5).map(lambda k: k / 2.0), min_size=2, max_size=3),
        min_size=1,
        max_size=12,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_pareto_filter_matches_naive_oracle(rows):
    vecs = [np.array(r) for r in rows]
    assert pareto_filter(vecs) == _naive_filter(vecs)


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------


def _point(candidate_id, objectives, weights=None, oracle_calls=0):
    """A trajectory point as a run records it; the weights default to all ones."""
    objectives = np.asarray(objectives, dtype=np.float64)
    weights = np.ones(objectives.size) if weights is None else np.asarray(weights, float)
    return TrajectoryPoint(0, candidate_id, objectives, 0.0, 0.0, oracle_calls, weights)


def test_archive_build_validates_the_points():
    good = _point("ok", [0.5, 0.5])
    for objectives in ([-1.0, 0.0], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError):
            build_archive([[good], [_point("a", objectives)]])
    for weights in ([0.0, 1.0], [-0.5, 1.0], [np.inf, 1.0]):
        with pytest.raises(ValueError):
            build_archive([[good, _point("a", [1.0, 0.0], weights)]])
    with pytest.raises(ValueError):
        build_archive([[_point("a", [[0.5, 0.5]], [[1.0, 1.0]])]])
    with pytest.raises(EmptyInputError):
        build_archive([[_point("a", [])]])
    assert len(build_archive([])) == 0
    assert len(build_archive([[], []])) == 0


def test_archive_insert_evict_reject():
    # the one-insert-at-a-time reference the one-pass build must equal
    points = [
        _point("a", [3.0, 3.0]),
        _point("b", [2.0, 4.0]),
        _point("c", [4.0, 4.0]),  # dominated
        _point("d", [3.0, 3.0]),  # duplicate
        _point("e", [2.0, 2.0]),  # evicts both
    ]
    reference = SequentialArchive()
    assert [reference.insert(p) for p in points[:4]] == [True, True, False, False]
    assert [e.candidate_id for e in reference.entries] == ["a", "b"]
    assert reference.insert(points[4])
    assert [e.candidate_id for e in reference.entries] == ["e"]
    assert ParetoArchive().m is None
    archive = build_archive([points[:2], points[2:]])
    assert [e.candidate_id for e in archive] == ["e"]
    assert archive.m == 2
    assert [e.candidate_id for e in build_archive([points[:4]])] == ["a", "b"]


def test_archive_keeps_earliest_duplicate():
    first = _point("first", [1.0, 1.0], oracle_calls=2)
    second = _point("second", [1.0, 1.0], oracle_calls=9)
    for groups in ([[first, second]], [[first], [second]], [[], [first], [], [second]]):
        archive = build_archive(groups)
        assert len(archive) == 1
        assert archive.entries[0] is first  # the point itself, not a copy


def test_archive_dimension_mismatch():
    a, b = _point("a", [1.0, 2.0]), _point("b", [1.0, 2.0, 3.0])
    for groups in ([[a], [b]], [[a, b]]):
        with pytest.raises(DimensionMismatchError):
            build_archive(groups)


def test_archive_rejects_weights_of_another_length():
    # to_csv would write this row with one column more than its header
    with pytest.raises(DimensionMismatchError):
        build_archive([[_point("x", [0.5, 0.5], [0.5, 0.5, 0.5], oracle_calls=1)]])
    with pytest.raises(DimensionMismatchError):
        build_archive([[_point("y", [0.5, 0.5])], [_point("x", [0.5, 0.5], [0.5])]])


def test_archive_empty_accessors_raise():
    for archive in (ParetoArchive(), build_archive([[]])):
        with pytest.raises(EmptyInputError):
            archive.objectives_array()
        with pytest.raises(EmptyInputError):
            archive.to_csv()


def _reference_front(points):
    """Ids of the offered points that no offered point strictly dominates,
    keeping only the first copy of each duplicate, in the order offered."""
    kept = []
    for i, p in enumerate(points):
        if any(np.all(q <= p) and np.any(q < p) for q in points):
            continue
        if any(np.array_equal(q, p) for q in points[:i]):
            continue
        kept.append(str(i))
    return kept


@settings(deadline=None, max_examples=150)
@given(
    st.integers(2, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 4), min_size=m, max_size=m), min_size=1, max_size=20
        )
    ),
)
def test_archive_invariants(rows):
    points = [np.array(r) / 2.0 for r in rows]
    archive = build_archive([[_point(str(i), vec) for i, vec in enumerate(points)]])
    assert [e.candidate_id for e in archive] == _reference_front(points)
    # entries are mutually incomparable
    for i, e in enumerate(archive.entries):
        for f in archive.entries[i + 1 :]:
            assert dominates(e.objectives, f.objectives) is Dominance.INCOMPARABLE
    # every point ever offered is weakly dominated by some survivor
    for vec in points:
        assert any(
            dominates(e.objectives, vec) is not Dominance.INCOMPARABLE
            for e in archive.entries
        )


@settings(deadline=None, max_examples=300)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=6
            ),
            st.lists(st.lists(st.integers(0, 5), max_size=12), min_size=1, max_size=5),
        )
    ),
)
def test_archive_build_equals_sequential_inserts(case):
    # each "ray" draws its rows from a small pool of quantised vectors, so
    # ties and exact duplicates within a ray and across rays are common
    pool, rays = case
    groups = [
        [_point(f"{k}:{t}", np.array(pool[i % len(pool)]) / 2.0) for t, i in enumerate(ray)]
        for k, ray in enumerate(rays)
    ]
    reference = SequentialArchive()
    for group in groups:
        for p in group:
            reference.insert(p)
    archive = build_archive(iter(groups))
    assert len(archive) == len(reference.entries)
    assert all(a is b for a, b in zip(archive, reference.entries))
    offered = [p for group in groups for p in group]
    assert all(any(e is p for p in offered) for e in archive)


def test_archive_csv_round_trip():
    archive = build_archive(
        [
            [_point("x:1,2", [0.123456789012345, 0.5], [0.6, 0.8], 14)],
            [_point("x:3,4", [0.5, 0.1], [0.8, 0.6], 20)],
        ]
    )
    text = archive.to_csv()
    assert text.endswith("\n")
    assert text.splitlines() == [
        "candidate_id,l_1,l_2,lambda_1,lambda_2,oracle_calls",
        '"x:1,2",0.123456789012345,0.5,0.6,0.8,14',
        '"x:3,4",0.5,0.1,0.8,0.6,20',
    ]
