"""Braid words, representation validity, and commuting subgroups."""

import random

import pytest

import braidbreak as bb
from braidbreak.braid import default_split

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
    swap12 = bb.SquareMatrix.from_rows(f, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    swap23 = bb.SquareMatrix.from_rows(f, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
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
