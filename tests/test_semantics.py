import numpy as np
import pytest

from zsat import semantics
from zsat.errors import DataError


def write_vectors(tmp_path, text, name="vecs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    path = write_vectors(tmp_path, "cat 1.0 0.0\ndog 0.0 1.0\n")
    vectors = semantics.load_word_vectors(path)
    assert "cat" in vectors and "dog" in vectors
    assert all(v.shape == (2,) for v in vectors.values())
    assert np.allclose(vectors["cat"], [1.0, 0.0])


def test_load_with_count_header(tmp_path):
    path = write_vectors(tmp_path, "2 3\na 1 2 3\nb 4 5 6\n")
    vectors = semantics.load_word_vectors(path)
    assert all(v.shape == (3,) for v in vectors.values())
    assert np.allclose(vectors["b"], [4, 5, 6])


def test_dim_mismatch_names_line(tmp_path):
    path = write_vectors(tmp_path, "a 1 2\nb 1 2 3\n")
    with pytest.raises(DataError, match=r":2:"):
        semantics.load_word_vectors(path)


def test_duplicate_word_names_line(tmp_path):
    path = write_vectors(tmp_path, "a 1 2\na 3 4\n")
    with pytest.raises(DataError, match=r":2:"):
        semantics.load_word_vectors(path)


def test_unparsable_coordinate_names_line(tmp_path):
    path = write_vectors(tmp_path, "a 1 2\nb x 4\n")
    with pytest.raises(DataError, match=r":2:"):
        semantics.load_word_vectors(path)


@pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
def test_non_finite_component_names_line(tmp_path, component):
    path = write_vectors(tmp_path, f"a 1 2\nb 3 {component}\n")
    with pytest.raises(DataError, match=r":2: non-finite"):
        semantics.load_word_vectors(path)


def test_save_round_trip(tmp_path):
    words = ["alpha", "beta"]
    vecs = np.array([[1.5, -2.0], [0.25, 0.75]])
    path = tmp_path / "out.txt"
    semantics.save_word_vectors(path, words, vecs)
    vectors = semantics.load_word_vectors(path)
    for w, v in zip(words, vecs):
        assert np.allclose(vectors[w], v)


# --- label tokenization and embedding ---------------------------------------

def test_tokenize_rules():
    tokens = semantics.tokenize("Electric guitar, twelve-string (acoustic)")
    assert tokens == ["electric", "guitar", "twelve", "string", "acoustic"]


def test_embed_label_averages_tokens(tmp_path):
    path = write_vectors(tmp_path, "electric 1 0\nguitar 0 1\n")
    vectors = semantics.load_word_vectors(path)
    e = semantics.embed_label("Electric guitar", vectors)
    assert np.allclose(e, [0.5, 0.5])


def test_embed_label_skips_oov(tmp_path):
    path = write_vectors(tmp_path, "guitar 0 1\n")
    vectors = semantics.load_word_vectors(path)
    e = semantics.embed_label("zzqx guitar", vectors)
    assert np.array_equal(e, vectors["guitar"])


def test_embed_label_all_oov_raises(tmp_path):
    path = write_vectors(tmp_path, "guitar 0 1\n")
    vectors = semantics.load_word_vectors(path)
    with pytest.raises(DataError, match="no token of label 'zzqx qqzz'"):
        semantics.embed_label("zzqx qqzz", vectors)


# --- similarity ---------------------------------------------------------------

def test_cosine_basic():
    assert semantics.cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert semantics.cosine(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 1.0

