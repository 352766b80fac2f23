import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modet.groups import GroupStructure, build_grid_groups, omega_norm


def naive_omega(s, groups, weights):
    total = 0.0
    for g, w in zip(groups, weights):
        best = 0.0
        for i in g:
            best = max(best, abs(s[i]))
        total += w * best
    return total


def test_grid_4x4_window3():
    g = build_grid_groups(4, 4, k=3)
    assert g.n_groups == 4
    assert g.index_matrix.shape == (4, 9)
    origins = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for grp, (r, c) in zip(g.index_matrix, origins):
        expect = sorted((r + i) * 4 + (c + j) for i in range(3) for j in range(3))
        assert grp.tolist() == expect


def test_grid_3x3_single_window():
    g = build_grid_groups(3, 3, k=3)
    assert g.n_groups == 1
    assert g.index_matrix.tolist() == [list(range(9))]


def test_grid_5x4_count_and_coverage():
    g = build_grid_groups(5, 4, k=3)
    assert g.n_groups == 6
    # brute-force coverage check
    hit = set()
    for grp in g.index_matrix:
        hit.update(grp.tolist())
    assert hit == set(range(20))


def test_grid_window_too_large():
    with pytest.raises(ValueError):
        build_grid_groups(4, 2, k=3)


def test_group_structure_validation():
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], []], [1.0, 1.0], 4)  # empty group
    with pytest.raises(ValueError):
        GroupStructure([[0, 4]], [1.0], 4)  # out of range
    with pytest.raises(ValueError):
        GroupStructure([[1, 0, 2, 3]], [1.0], 4)  # not increasing
    with pytest.raises(ValueError):
        GroupStructure([[0, 1]], [1.0], 4)  # pixel 2, 3 uncovered
    with pytest.raises(ValueError):
        GroupStructure([[0, 1, 2, 3]], [0.0], 4)  # nonpositive weight


def test_omega_zero_vector():
    g = build_grid_groups(4, 4)
    assert omega_norm(np.zeros(16), g) == 0.0


def test_omega_single_group_is_linf():
    g = GroupStructure([list(range(9))], [1.0], 9)
    s = np.array([0.1, -0.7, 0.2, 0.0, 0.3, -0.2, 0.1, 0.0, 0.5])
    assert omega_norm(s, g) == pytest.approx(0.7, abs=0)


def test_omega_matches_naive_double_loop():
    rng = np.random.default_rng(3)
    g = build_grid_groups(4, 4, k=3)
    for _ in range(25):
        s = rng.uniform(-2, 2, 16)
        assert omega_norm(s, g) == pytest.approx(
            naive_omega(s, g.index_matrix, g.weights), rel=1e-13
        )


def test_omega_norm_properties():
    rng = np.random.default_rng(11)
    g = build_grid_groups(5, 5, k=3)
    for _ in range(20):
        s1 = rng.uniform(-1, 1, 25)
        s2 = rng.uniform(-1, 1, 25)
        alpha = rng.uniform(-3, 3)
        # absolute homogeneity
        assert omega_norm(alpha * s1, g) == pytest.approx(
            abs(alpha) * omega_norm(s1, g), rel=1e-12, abs=1e-14
        )
        # triangle inequality
        assert omega_norm(s1 + s2, g) <= omega_norm(s1, g) + omega_norm(s2, g) + 1e-12
        # dominates the largest weighted group max (full coverage positivity)
        per_group = max(
            w * np.abs(s1[grp]).max()
            for grp, w in zip(g.index_matrix, g.weights)
        )
        assert omega_norm(s1, g) >= per_group - 1e-15
    assert omega_norm(rng.uniform(0.5, 1.0, 25), g) > 0


def test_omega_length_mismatch():
    g = build_grid_groups(4, 4)
    with pytest.raises(ValueError):
        omega_norm(np.zeros(15), g)


def test_color_classes_are_disjoint_partitions():
    g = build_grid_groups(9, 7, k=3)
    seen = np.concatenate(g.colors)
    assert sorted(seen.tolist()) == list(range(g.n_groups))
    for cls in g.colors:
        used = np.zeros(g.p, dtype=bool)
        for gi in cls:
            grp = g.index_matrix[gi]
            assert not used[grp].any()
            used[grp] = True


@pytest.mark.parametrize("H,W,k", [(3, 3, 3), (4, 4, 3), (5, 4, 3), (3, 11, 3),
                                   (9, 7, 3), (10, 4, 2), (12, 13, 4),
                                   (64, 64, 3)])
def test_grid_coloring_equals_greedy(H, W, k):
    g = build_grid_groups(H, W, k=k)
    greedy = GroupStructure(g.index_matrix, g.weights, g.p)
    assert len(g.colors) == len(greedy.colors)
    for a, b in zip(g.colors, greedy.colors):
        assert np.array_equal(a, b)
    assert np.array_equal(g.order, np.concatenate(g.colors))


def test_given_coloring_must_be_proper():
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], [1, 2]], [1.0, 1.0], 3, color_of=[5, 5])
    g = GroupStructure([[0, 1], [1, 2], [2, 3]], [1.0] * 3, 4,
                       color_of=[7, 2, 7])
    assert [c.tolist() for c in g.colors] == [[1], [0, 2]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.sets(st.integers(0, p - 1), min_size=1),
                         min_size=1, max_size=8))))
def test_list_and_padded_array_store_the_same_layout(case):
    p, groups = case
    uncovered = set(range(p)).difference(*groups)
    if uncovered:
        groups.append(uncovered)
    rows = [sorted(grp) for grp in groups]
    width = max(map(len, rows))
    padded = np.array([row + [p] * (width - len(row)) for row in rows])
    a = GroupStructure(rows, np.ones(len(rows)), p)
    b = GroupStructure(padded, np.ones(len(rows)), p)
    assert np.array_equal(a.index_matrix, padded)
    assert np.array_equal(b.index_matrix, padded)
    assert np.array_equal(a.order, b.order)
    assert len(a.colors) == len(b.colors)
    assert all(np.array_equal(x, y) for x, y in zip(a.colors, b.colors))


def test_listed_index_p_is_not_padding():
    with pytest.raises(ValueError, match="outside"):
        GroupStructure([[0, 1, 2]], [1.0], 2)
    with pytest.raises(ValueError, match="increasing"):
        GroupStructure(np.array([[0, 2], [2, 1]]), [1.0, 1.0], 2)
