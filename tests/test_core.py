"""Dominance relation, Pareto filtering and archive semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretoscan.core import (
    DimensionMismatchError,
    Dominance,
    EmptyInputError,
    ParetoArchive,
    TrajectoryPoint,
    as_objectives,
    as_weights,
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


def test_archive_insert_validates_the_point():
    archive = ParetoArchive()
    for objectives in ([-1.0, 0.0], [np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError):
            archive.insert(_point("a", objectives))
    for weights in ([0.0, 1.0], [-0.5, 1.0]):
        with pytest.raises(ValueError):
            archive.insert(_point("a", [1.0, 0.0], weights))
    assert len(archive) == 0


def test_archive_insert_evict_reject():
    archive = ParetoArchive()
    assert archive.m is None
    assert archive.insert(_point("a", [3.0, 3.0]))
    assert archive.insert(_point("b", [2.0, 4.0]))
    assert not archive.insert(_point("c", [4.0, 4.0]))  # dominated
    assert not archive.insert(_point("d", [3.0, 3.0]))  # duplicate
    assert len(archive) == 2
    assert archive.insert(_point("e", [2.0, 2.0]))  # evicts both
    assert [e.candidate_id for e in archive] == ["e"]
    assert archive.m == 2


def test_archive_keeps_earliest_duplicate():
    archive = ParetoArchive()
    first = _point("first", [1.0, 1.0], oracle_calls=2)
    archive.insert(first)
    archive.insert(_point("second", [1.0, 1.0], oracle_calls=9))
    assert len(archive) == 1
    assert archive.entries[0] is first  # the point itself, not a copy


def test_archive_dimension_mismatch():
    archive = ParetoArchive()
    archive.insert(_point("a", [1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        archive.insert(_point("b", [1.0, 2.0, 3.0]))


def test_archive_rejects_weights_of_another_length():
    # to_csv would write this row with one column more than its header
    archive = ParetoArchive()
    with pytest.raises(DimensionMismatchError):
        archive.insert(_point("x", [0.5, 0.5], [0.5, 0.5, 0.5], oracle_calls=1))
    assert len(archive) == 0


def test_archive_empty_accessors_raise():
    archive = ParetoArchive()
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
    archive = ParetoArchive()
    for i, vec in enumerate(points):
        archive.insert(_point(str(i), vec))
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


def test_archive_csv_round_trip():
    archive = ParetoArchive()
    archive.insert(_point("x:1,2", [0.123456789012345, 0.5], [0.6, 0.8], 14))
    archive.insert(_point("x:3,4", [0.5, 0.1], [0.8, 0.6], 20))
    text = archive.to_csv()
    assert text.endswith("\n")
    assert text.splitlines() == [
        "candidate_id,l_1,l_2,lambda_1,lambda_2,oracle_calls",
        '"x:1,2",0.123456789012345,0.5,0.6,0.8,14',
        '"x:3,4",0.5,0.1,0.8,0.6,20',
    ]
