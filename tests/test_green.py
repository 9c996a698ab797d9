"""Green's relations against hand-computed and independently counted oracles.

The t2 partitions below were derived by hand from the frozen Cayley table
(right ideals row by row, left ideals column by column).  The t3 oracle is
the classical count of self-maps of a 3-point set by image size: 3 with
image size 1, 18 with image size 2, 6 with image size 3.  D-classes of a
full transformation monoid are exactly the image-size classes.
"""

import itertools

from semnorms import builtin_semigroup, green_structure

T2_R = ({0, 3}, {1, 2})
T2_L = ({0}, {1, 2}, {3})
T2_H = ({0}, {1, 2}, {3})
T2_D = ({0, 3}, {1, 2})

SUITE = ("z2", "c4", "s3", "t2", "t3", "leftzero3", "null4")


def image_size_classes(n):
    """Partition of the lexicographically ordered self-maps of n points
    by image size, computed from scratch."""
    maps = sorted(itertools.product(range(n), repeat=n))
    classes = {}
    for index, f in enumerate(maps):
        classes.setdefault(len(set(f)), []).append(index)
    return {size: frozenset(members) for size, members in classes.items()}


def test_t2_all_four_partitions():
    g = green_structure(builtin_semigroup("t2"))
    assert g.r_classes == tuple(frozenset(c) for c in T2_R)
    assert g.l_classes == tuple(frozenset(c) for c in T2_L)
    assert g.h_classes == tuple(frozenset(c) for c in T2_H)
    assert g.d_classes == tuple(frozenset(c) for c in T2_D)


def test_t2_d_classes_match_image_size_oracle():
    oracle = image_size_classes(2)
    computed = set(green_structure(builtin_semigroup("t2")).d_classes)
    assert computed == set(oracle.values())
    assert sorted(len(c) for c in computed) == [2, 2]


def test_t3_d_classes_match_image_size_oracle():
    oracle = image_size_classes(3)
    computed = set(green_structure(builtin_semigroup("t3")).d_classes)
    assert computed == set(oracle.values())
    assert sorted(len(c) for c in computed) == [3, 6, 18]


def test_groups_have_one_class_of_everything():
    for name in ("z2", "c4", "s3"):
        s = builtin_semigroup(name)
        g = green_structure(s)
        everything = (frozenset(s.elements()),)
        assert g.r_classes == everything
        assert g.l_classes == everything
        assert g.d_classes == everything
        assert g.h_classes == everything


def test_left_zero_semigroup():
    # a*b = a: right ideals are singletons, left ideals are everything.
    g = green_structure(builtin_semigroup("leftzero3"))
    assert g.r_classes == ({0}, {1}, {2})
    assert g.l_classes == ({0, 1, 2},)
    assert g.h_classes == ({0}, {1}, {2})
    assert g.d_classes == ({0, 1, 2},)


def test_null_semigroup_degenerates_to_singletons():
    g = green_structure(builtin_semigroup("null4"))
    singletons = ({0}, {1}, {2}, {3})
    assert g.r_classes == singletons
    assert g.l_classes == singletons
    assert g.h_classes == singletons
    assert g.d_classes == singletons


def test_every_partition_is_an_equivalence():
    for name in SUITE:
        s = builtin_semigroup(name)
        g = green_structure(s)
        for classes in (g.r_classes, g.l_classes, g.d_classes, g.h_classes):
            seen = sorted(a for part in classes for a in part)
            assert seen == list(s.elements())  # disjoint cover, nothing repeated


def test_h_refines_r_and_l_and_d_coarsens_both():
    for name in SUITE:
        g = green_structure(builtin_semigroup(name))
        for h in g.h_classes:
            assert any(h <= r for r in g.r_classes)
            assert any(h <= l for l in g.l_classes)
        for r in g.r_classes:
            assert any(r <= d for d in g.d_classes)
        for l in g.l_classes:
            assert any(l <= d for d in g.d_classes)


def test_classes_ordered_by_minimum():
    for name in SUITE:
        g = green_structure(builtin_semigroup(name))
        for classes in (g.r_classes, g.l_classes, g.d_classes, g.h_classes):
            minima = [min(part) for part in classes]
            assert minima == sorted(minima)


def test_structure_is_cached_per_semigroup():
    a = green_structure(builtin_semigroup("t2"))
    b = green_structure(builtin_semigroup("t2"))
    assert a is b
