"""Braid words, representation validity, and commuting subgroups."""

import random

import pytest

import braidbreak as bb
from braidbreak.braid import default_split, representation

from helpers import field, rep


# -- words -------------------------------------------------------------------

def test_word_free_reduction():
    w = bb.BraidWord(4, (1, -1, 2, 3, -3, -2, 1)).free_reduce()
    assert w.letters == (1,)
    assert bb.BraidWord(4, ()).free_reduce().letters == ()


def test_word_text_roundtrip():
    w = bb.BraidWord.from_text(4, "2 -3 2")
    assert w.letters == (2, -3, 2)
    assert w.to_text() == "2 -3 2"


def test_word_letter_range_checked():
    with pytest.raises(ValueError):
        bb.BraidWord(4, (4,))
    with pytest.raises(ValueError):
        bb.BraidWord(4, (0,))


def test_sample_word_contracts():
    rng = random.Random(1)
    assert bb.sample_word(rng, 5, [1, 2], 0, 0).letters == ()
    w = bb.sample_word(rng, 5, [3], 5, 15)
    assert all(abs(a) == 3 for a in w.letters)
    w1 = bb.sample_word(random.Random(42), 6, range(1, 6), 5, 15)
    w2 = bb.sample_word(random.Random(42), 6, range(1, 6), 5, 15)
    assert w1 == w2


def test_sample_word_requires_indices():
    with pytest.raises(ValueError):
        bb.sample_word(random.Random(0), 5, [], 1, 2)


# -- representations ---------------------------------------------------------

def test_lk_dimension_formula():
    assert rep("lk", 4).dim == 6
    assert rep("lk", 6).dim == 15
    f = field()
    big = bb.lk_representation(f, 12, 987654321, 123456789)
    assert big.dim == 66


def test_burau_dimension():
    for n in (3, 4, 6):
        f = field()
        assert bb.burau_representation(f, n, 5).dim == n


def test_lk_braid_relations_explicit():
    r = rep("lk", 5)
    img = [r.gen_images[i][0] for i in range(4)]
    for i in range(3):
        assert img[i] @ img[i + 1] @ img[i] == img[i + 1] @ img[i] @ img[i + 1]
    assert img[0] @ img[2] == img[2] @ img[0]
    assert img[0] @ img[3] == img[3] @ img[0]
    assert img[1] @ img[3] == img[3] @ img[1]


def test_burau_relations_and_t1_degeneration():
    f = field()
    r = bb.burau_representation(f, 3, 1)
    swap12 = bb.SquareMatrix(f, f.asarray([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    swap23 = bb.SquareMatrix(f, f.asarray([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert r.gen_images[0][0] == swap12
    assert r.gen_images[1][0] == swap23
    r4 = rep("burau", 4)
    a, b, c = (r4.gen_images[i][0] for i in range(3))
    assert a @ c == c @ a  # disjoint blocks
    assert a @ b @ a == b @ a @ b


def test_rep_parameter_preconditions():
    f = field()
    with pytest.raises(ValueError):
        bb.lk_representation(f, 4, 1, 5)  # q = 1 degenerates
    with pytest.raises(ValueError):
        bb.lk_representation(f, 4, 0, 5)
    with pytest.raises(ValueError):
        bb.lk_representation(f, 4, 7, 0)
    with pytest.raises(ValueError):
        bb.burau_representation(f, 4, 0)
    with pytest.raises(ValueError):
        bb.lk_representation(f, 2, 3, 5)


@pytest.mark.parametrize("kind", ["LK", "Burau", "foo", ""])
def test_representation_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"rep_kind must be one of .*, got {kind!r}"):
        representation(field(), kind, 5, 3, 7)


def test_perturbed_generator_rejected():
    # corrupting an image without fixing its inverse trips the inverse gate
    r = rep("lk", 4)
    f = r.field
    images = list(r.gen_images)
    bad = images[1][0].a.copy()
    bad[2, 3] = (int(bad[2, 3]) + 1) % f.p
    images[1] = (bb.SquareMatrix(f, bad), images[1][1])
    with pytest.raises(bb.RelationValidationError):
        bb.Representation(f, 4, images, r.params)
    # corrupting an image and its inverse consistently trips the relation gate
    images2 = list(r.gen_images)
    bad2 = images2[1][0].a.copy()
    bad2[2, 3] = (int(bad2[2, 3]) + 1) % f.p
    bad_mat = bb.SquareMatrix(f, bad2)
    images2[1] = (bad_mat, bad_mat.inverse())
    with pytest.raises(bb.RelationValidationError, match="relation|commutation"):
        bb.Representation(f, 4, images2, r.params)


def test_wrong_stored_inverse_rejected():
    r = rep("burau", 4)
    f = r.field
    images = list(r.gen_images)
    images[0] = (images[0][0], images[0][0])  # inverse slot holds the image
    with pytest.raises(bb.RelationValidationError):
        bb.Representation(f, 4, images, r.params)


def test_gen_image_count_checked():
    r = rep("burau", 4)
    with pytest.raises(ValueError):
        bb.Representation(r.field, 4, list(r.gen_images)[:2], r.params)


# -- evaluation --------------------------------------------------------------

def test_evaluate_empty_word_is_identity():
    r = rep("lk", 4)
    assert bb.evaluate(r, bb.BraidWord(4, ())) == bb.SquareMatrix.identity(
        r.field, r.dim
    )


def test_evaluate_word_inverse():
    r = rep("lk", 5)
    rng = random.Random(2)
    for _ in range(5):
        w = bb.sample_word(rng, 5, range(1, 5), 3, 10)
        prod = bb.evaluate(r, w) @ bb.evaluate(r, w.inverse())
        assert prod == bb.SquareMatrix.identity(r.field, r.dim)


def test_evaluate_is_homomorphism():
    r = rep("burau", 5)
    rng = random.Random(3)
    for _ in range(10):
        w1 = bb.sample_word(rng, 5, range(1, 5), 2, 8)
        w2 = bb.sample_word(rng, 5, range(1, 5), 2, 8)
        w12 = bb.BraidWord(5, w1.letters + w2.letters)
        assert bb.evaluate(r, w12) == bb.evaluate(r, w1) @ bb.evaluate(r, w2)


def test_evaluate_strand_mismatch():
    r = rep("lk", 4)
    with pytest.raises(ValueError):
        bb.evaluate(r, bb.BraidWord(5, (4,)))


# -- commuting subgroups -----------------------------------------------------

def test_split_index_arithmetic():
    pair8 = bb.commuting_subgroups(rep("lk", 8), 4)
    assert [g.index for g in pair8.a_gens] == [1, 2, 3]
    assert [g.index for g in pair8.b_gens] == [5, 6, 7]
    pair4 = bb.commuting_subgroups(rep("lk", 4), 2)
    assert [g.index for g in pair4.a_gens] == [1]
    assert [g.index for g in pair4.b_gens] == [3]


def test_default_split_balanced():
    assert default_split(4) == 2
    assert default_split(6) == 3
    assert default_split(8) == 4
    assert default_split(12) == 6


def test_cross_commutation_all_inverse_combinations():
    pair = bb.commuting_subgroups(rep("lk", 6), 3)
    checked = 0
    for ga in pair.a_gens:
        for gb in pair.b_gens:
            for ma in (ga.mat, ga.inv):
                for mb in (gb.mat, gb.inv):
                    assert ma @ mb == mb @ ma
                    checked += 1
    assert checked == 2 * 2 * 2 * 2


def test_split_range_enforced():
    r = rep("lk", 4)
    for bad in (1, 3, 0, 7):
        with pytest.raises(ValueError):
            bb.commuting_subgroups(r, bad)


# -- batched products and relation checks ------------------------------------

def _bigint_product(r: bb.Representation, word: bb.BraidWord) -> list[list[int]]:
    """Left-to-right product of the letters' images in python ints."""
    p, m = r.field.p, r.dim
    out = [[int(i == j) for j in range(m)] for i in range(m)]
    for a in word.letters:
        img = [[int(x) for x in row] for row in r.image(a).a.tolist()]
        out = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*img)] for row in out]
    return out


@pytest.mark.parametrize("p", [bb.DEFAULT_PRIME, 3037000493])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 7, 16])
def test_evaluate_tree_matches_left_to_right_product(p, length):
    f = bb.PrimeField(p)
    r = bb.lk_representation(f, 5, 3, 7)
    rng = random.Random(length)
    word = bb.BraidWord(5, tuple(rng.choice((1, -1)) * rng.randrange(1, 5) for _ in range(length)))
    assert bb.evaluate(r, word).a.tolist() == _bigint_product(r, word)


def _first_relation_failure(n, images):
    """The message of the first failing relation, checked one pair at a
    time in the order inverses, braid relations, commutations; None if all
    hold."""
    m = images[0][0].dim
    for i, (g, g_inv) in enumerate(images, start=1):
        if g.dim != m or g_inv.dim != m:
            return f"s_{i}: inconsistent dimension"
        if g @ g_inv != bb.SquareMatrix.identity(g.field, m):
            return f"s_{i}: stored inverse is wrong"
    for i in range(1, n - 1):
        a, b = images[i - 1][0], images[i][0]
        if a @ b @ a != b @ a @ b:
            return f"braid relation fails for (s_{i}, s_{i + 1})"
    for i in range(1, n):
        for j in range(i + 2, n):
            a, b = images[i - 1][0], images[j - 1][0]
            if a @ b != b @ a:
                return f"commutation fails for (s_{i}, s_{j})"
    return None


def _pair(mat: bb.SquareMatrix) -> tuple[bb.SquareMatrix, bb.SquareMatrix]:
    return mat, mat.inverse()


def _shear(f: bb.PrimeField, m: int, i: int, j: int) -> bb.SquareMatrix:
    """I + E_ij: commutes with every Burau image that fixes e_i and e_j."""
    a = f.identity_array(m)
    a[i, j] = 1
    return bb.SquareMatrix(f, a)


def _relation_cases():
    lk, bu = rep("lk", 6), rep("burau", 6)
    f = lk.field
    scale = bb.SquareMatrix(f, f.identity_array(lk.dim) * 5)
    other = rep("lk", 5)
    g = _shear(f, 6, 0, 5)  # mixes strands 1 and 6, commutes with s_4's image
    conj = g @ bu.gen_images[4][0] @ g.inverse()
    cases = {
        "inverses s_2 and s_3": (lk, {1: (lk.gen_images[1][0], lk.gen_images[1][0]),
                                      2: (lk.gen_images[2][0], lk.gen_images[2][0])}),
        "inverse s_1, dimension s_3": (lk, {0: (lk.gen_images[0][0], lk.gen_images[1][1]),
                                            2: other.gen_images[0]}),
        "dimension s_2": (lk, {1: other.gen_images[1]}),
        "dimension of the inverse of s_1": (lk, {0: (lk.gen_images[0][0], other.gen_images[0][1])}),
        "scaled s_3": (lk, {2: _pair(scale @ lk.gen_images[2][0])}),
        "s_1 and s_4 swapped": (lk, {0: lk.gen_images[3], 3: lk.gen_images[0]}),
        "s_5 conjugated": (bu, {4: _pair(conj)}),
        "honest": (bu, {}),
    }
    for name, (r, changes) in cases.items():
        images = [changes.get(k, pair) for k, pair in enumerate(r.gen_images)]
        yield pytest.param(r.field, images, id=name)


@pytest.mark.parametrize("f,images", _relation_cases())
def test_relation_checks_name_the_first_failure(f, images):
    expected = _first_relation_failure(6, images)
    if expected is None:
        bb.Representation(f, 6, images, (None, 1))
        return
    with pytest.raises(bb.RelationValidationError) as exc:
        bb.Representation(f, 6, images, (None, 1))
    assert str(exc.value) == expected


def test_relation_cases_reach_every_family():
    messages = {_first_relation_failure(6, c.values[1]) for c in _relation_cases()}
    assert {m.split()[0] if m else None for m in messages} == {
        "s_1:", "s_2:", "braid", "commutation", None}
    assert "commutation fails for (s_1, s_5)" in messages


@pytest.mark.parametrize("k,shear,inverse_only", [
    (5, (1, 6), False),  # s_6, sheared with strand 2 of A
    (5, (1, 6), True),  # only the stored inverse of s_6
    (3, (1, 4), False),  # s_4, sheared with strand 2 of A
    (1, (2, 6), True),  # only the stored inverse of s_2, sheared with strand 7 of B
])
def test_commuting_subgroups_checks_images_changed_after_construction(k, shear, inverse_only):
    # commuting_subgroups no longer re-checks the commutations: an image
    # cannot be changed in place, and a Representation holding the changed
    # image is refused when it is built, before a split can be taken
    honest = rep("burau", 7)
    r = bb.Representation(honest.field, 7, list(honest.gen_images), honest.params)
    g = _shear(r.field, 7, *shear)
    mat, inv = r.gen_images[k]
    conj, conj_inv = g @ mat @ g.inverse(), g @ inv @ g.inverse()
    changed = (mat, conj_inv) if inverse_only else (conj, conj_inv)
    with pytest.raises(TypeError):
        r.gen_images[k] = changed
    assert r.gen_images[k] == (mat, inv)
    images = list(r.gen_images)
    images[k] = changed
    expected = _first_relation_failure(7, images)
    assert expected is not None
    with pytest.raises(bb.RelationValidationError) as exc:
        bb.Representation(r.field, 7, images, r.params)
    assert str(exc.value) == expected


def test_commuting_subgroups_only_reads_the_validated_images():
    # the commutations were proved when the Representation was built, and
    # its images cannot be reassigned afterwards
    r = rep("burau", 7)
    assert type(r.gen_images) is tuple
    snap = r.field.ops.snapshot()
    pair = bb.commuting_subgroups(r, 3)
    assert r.field.ops.delta(snap) == (0, 0, 0)
    assert [(g.mat, g.inv) for g in pair.a_gens + pair.b_gens] == [
        r.gen_images[i - 1] for i in (1, 2, 4, 5, 6)]
