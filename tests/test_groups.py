import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import add_covering_windows
from modet.groups import WINDOW, GroupStructure, build_grid_groups, omega_norm


def naive_omega(s, groups):
    total = 0.0
    for g in groups:
        best = 0.0
        for i in g:
            best = max(best, abs(s[i]))
        total += best
    return total


def test_grid_4x4_window3():
    g = build_grid_groups(4, 4)
    assert g.n_groups == 4
    assert g.index_matrix.shape == (4, 9)
    origins = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for grp, (r, c) in zip(g.index_matrix, origins):
        expect = sorted((r + i) * 4 + (c + j) for i in range(3) for j in range(3))
        assert grp.tolist() == expect


def test_grid_3x3_single_window():
    g = build_grid_groups(3, 3)
    assert g.n_groups == 1
    assert g.index_matrix.tolist() == [list(range(9))]


def test_grid_5x4_count_and_coverage():
    g = build_grid_groups(5, 4)
    assert g.n_groups == 6
    # brute-force coverage check
    hit = set()
    for grp in g.index_matrix:
        hit.update(grp.tolist())
    assert hit == set(range(20))


def test_grid_window_too_large():
    for H, W in ((4, 2), (2, 4), (0, 5)):
        with pytest.raises(ValueError, match="smaller than the 3x3 window"):
            build_grid_groups(H, W)


def test_group_structure_validation():
    with pytest.raises(ValueError):
        GroupStructure([[], []], 4)  # empty groups
    with pytest.raises(ValueError):
        GroupStructure([[0, 4]], 4)  # out of range
    with pytest.raises(ValueError):
        GroupStructure([[1, 0, 2, 3]], 4)  # not increasing
    with pytest.raises(ValueError):
        GroupStructure([[0, 1]], 4)  # pixel 2, 3 uncovered


def test_omega_zero_vector():
    g = build_grid_groups(4, 4)
    assert omega_norm(np.zeros(16), g) == 0.0


def test_omega_single_group_is_linf():
    g = GroupStructure([list(range(9))], 9)
    s = np.array([0.1, -0.7, 0.2, 0.0, 0.3, -0.2, 0.1, 0.0, 0.5])
    assert omega_norm(s, g) == pytest.approx(0.7, abs=0)


def test_omega_matches_naive_double_loop():
    rng = np.random.default_rng(3)
    g = build_grid_groups(4, 4)
    for _ in range(25):
        s = rng.uniform(-2, 2, 16)
        assert omega_norm(s, g) == pytest.approx(
            naive_omega(s, g.index_matrix), rel=1e-13
        )


def test_omega_norm_properties():
    rng = np.random.default_rng(11)
    g = build_grid_groups(5, 5)
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
        # dominates the largest group max (full coverage positivity)
        per_group = max(np.abs(s1[grp]).max() for grp in g.index_matrix)
        assert omega_norm(s1, g) >= per_group - 1e-15
    assert omega_norm(rng.uniform(0.5, 1.0, 25), g) > 0


def test_omega_length_mismatch():
    g = build_grid_groups(4, 4)
    with pytest.raises(ValueError):
        omega_norm(np.zeros(15), g)


def test_color_classes_are_disjoint_partitions():
    g = build_grid_groups(9, 7)
    seen = np.concatenate(g.colors)
    assert sorted(seen.tolist()) == list(range(g.n_groups))
    for cls in g.colors:
        used = np.zeros(g.p, dtype=bool)
        for gi in cls:
            grp = g.index_matrix[gi]
            assert not used[grp].any()
            used[grp] = True


GRID_SHAPES = [(3, 3), (4, 4), (5, 4), (3, 11), (9, 7), (64, 64)]


# the ids name the frame and the window side
@pytest.mark.parametrize("H,W", GRID_SHAPES,
                         ids=[f"{H}-{W}-{WINDOW}" for H, W in GRID_SHAPES])
def test_grid_coloring_equals_greedy(H, W):
    g = build_grid_groups(H, W)
    greedy = GroupStructure(g.index_matrix, g.p)
    assert len(g.colors) == len(greedy.colors)
    for a, b in zip(g.colors, greedy.colors):
        assert np.array_equal(a, b)
    assert np.array_equal(g.order, np.concatenate(g.colors))


def test_given_coloring_must_be_proper():
    with pytest.raises(ValueError):
        GroupStructure([[0, 1], [1, 2]], 3, color_of=[5, 5])
    g = GroupStructure([[0, 1], [1, 2], [2, 3]], 4, color_of=[7, 2, 7])
    assert [c.tolist() for c in g.colors] == [[1], [0, 2]]


def test_groups_of_unequal_size_are_rejected():
    for groups in ([[0, 1], [2]], [[0, 1, 2], [1, 2]], [0, 1, 2]):
        with pytest.raises(ValueError, match="same size"):
            GroupStructure(groups, 3)


# (p, k, perms): the first k entries of each permutation of range(p) make a
# group, before add_covering_windows covers the rest
covering_cases = st.integers(1, 12).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, p), st.lists(st.permutations(range(p)),
                                            min_size=1, max_size=8)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(covering_cases)
def test_list_and_array_store_the_same_layout(case):
    p, k, perms = case
    rows = add_covering_windows([sorted(perm[:k]) for perm in perms], p, k)
    a = GroupStructure(rows, p)
    b = GroupStructure(np.array(rows), p)
    assert np.array_equal(a.index_matrix, rows)
    assert np.array_equal(b.index_matrix, rows)
    assert np.array_equal(a.order, b.order)
    assert len(a.colors) == len(b.colors)
    assert all(np.array_equal(x, y) for x, y in zip(a.colors, b.colors))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(covering_cases, st.data())
def test_omega_equals_the_full_gather_bit_for_bit(case, data):
    p, k, perms = case
    rows = add_covering_windows([sorted(perm[:k]) for perm in perms], p, k)
    g = GroupStructure(rows, p)
    s = data.draw(arrays(np.float64, p, elements=st.floats(-1e6, 1e6)))
    gathered = float(np.abs(s)[g.index_matrix].max(axis=1).sum())
    assert omega_norm(s, g).hex() == gathered.hex()


def test_pixel_groups_lists_each_pixels_groups():
    rng = np.random.default_rng(3)
    rows = add_covering_windows(
        [sorted(rng.choice(30, 4, replace=False).tolist()) for _ in range(12)],
        30, 4)
    for g in (build_grid_groups(5, 7), GroupStructure(rows, 30)):
        ptr, grp = g.pixel_groups()
        assert ptr.dtype == np.int64 and grp.dtype == np.int32
        assert ptr.shape == (g.p + 1,) and grp.shape == (g.index_matrix.size,)
        for i in range(g.p):
            brute = [j for j, row in enumerate(g.index_matrix.tolist())
                     if i in row]
            assert grp[ptr[i]:ptr[i + 1]].tolist() == brute
        # cached and read-only: a kernel may keep reading it
        assert g.pixel_groups()[1] is grp
        assert not ptr.flags.writeable and not grp.flags.writeable


def test_building_a_structure_does_not_build_its_pixel_index():
    # the index is built at the first prox call, outside the set-up time
    assert build_grid_groups(16, 16)._pixel_groups is None
    g = GroupStructure([[0, 1], [1, 2]], 3)
    assert g._pixel_groups is None
