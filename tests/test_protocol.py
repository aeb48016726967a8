import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsat import dsp, protocol, semantics
from zsat.errors import ConfigError, DataError


# --- fold balancing ----------------------------------------------------------

def test_balance_folds_hand_example():
    counts = {"A": 10, "B": 8, "C": 6, "D": 4, "E": 2}
    split = protocol.balance_folds(counts, 2)
    assert split.folds == [["A", "D", "E"], ["B", "C"]]
    assert split.totals == [16, 14]


def test_balance_folds_symmetric():
    counts = {c: 5 for c in "abcdef"}
    split = protocol.balance_folds(counts, 3)
    assert all(len(f) == 2 for f in split.folds)
    assert split.totals == [10, 10, 10]


def test_balance_folds_pinned_never_assigned():
    counts = {"A": 10, "B": 8, "Speech": 99, "Music": 50}
    split = protocol.balance_folds(counts, 2, pinned=["Speech", "Music"])
    assigned = [c for f in split.folds for c in f]
    assert set(assigned) == {"A", "B"}
    assert split.pinned == ["Music", "Speech"]


def test_balance_folds_k_too_large():
    with pytest.raises(DataError, match="fold count 3 exceeds class count 2"):
        protocol.balance_folds({"A": 1, "B": 2}, 3)


@given(st.dictionaries(st.text("abcdefgh", min_size=1, max_size=4),
                       st.integers(0, 1000), min_size=2, max_size=30),
       st.integers(2, 5))
@settings(max_examples=300)
def test_balance_folds_bound_and_partition(counts, k):
    if k > len(counts):
        return
    split = protocol.balance_folds(counts, k)
    assigned = sorted(c for f in split.folds for c in f)
    assert assigned == sorted(counts)  # exact partition
    assert max(split.totals) - min(split.totals) <= max(counts.values())


# --- exclusion ----------------------------------------------------------------

def test_exclude_overlap_identity():
    remaining, removed = protocol.exclude_overlap({"a": "Cat", "b": "Dog"}, [])
    assert remaining == ["a", "b"]
    assert removed == []


def test_exclude_overlap_synonym():
    remaining, removed = protocol.exclude_overlap(
        {"a": "Cat", "b": "Dog"}, ["kitty"], synonyms={"kitty": ["a"]})
    assert remaining == ["b"]
    assert removed == [{"entry": "kitty", "class_id": "a"}]


def test_exclude_overlap_unmatched_entry_raises():
    with pytest.raises(DataError, match="zither"):
        protocol.exclude_overlap({"a": "Cat"}, ["zither"])


def test_exclude_overlap_audit_reconstructs_removal():
    classes = {"a": "Cat", "b": "Dog", "c": "Cow"}
    remaining, removed = protocol.exclude_overlap(classes, ["cat", "cow"])
    assert sorted(remaining + [r["class_id"] for r in removed]) == sorted(classes)


# --- balanced sampler ----------------------------------------------------------

def _records(spec_tags: dict):
    return [protocol.ClipRecord(clip_id=cid, path=f"{cid}.wav",
                                tags=tuple(tags), split="train")
            for cid, tags in spec_tags.items()]


def test_sampler_uniform_class_exposure():
    recs = _records({"a0": ["A"], "b0": ["B"], "b1": ["B"], "b2": ["B"]})
    sampler = protocol.balanced_sampler(recs, ["A", "B"], seed=0)
    draws = Counter(next(sampler) for _ in range(1000))
    # class A has one clip drawn on every A turn: 500 expected
    assert abs(draws["a0"] - 500) < 3 * np.sqrt(1000 * 0.5 * 0.5)


def test_sampler_excluded_clip_never_appears():
    recs = _records({"in0": ["A"], "out0": ["Z"]})
    sampler = protocol.balanced_sampler(recs, ["A"], seed=0)
    assert all(next(sampler) == "in0" for _ in range(10_000))


def test_sampler_degenerate_single_clip():
    recs = _records({"only": ["A"]})
    sampler = protocol.balanced_sampler(recs, ["A"], seed=3)
    assert [next(sampler) for _ in range(5)] == ["only"] * 5


def test_sampler_deterministic():
    recs = _records({f"c{i}": ["A" if i % 2 else "B"] for i in range(10)})
    a = protocol.balanced_sampler(recs, ["A", "B"], seed=42)
    b = protocol.balanced_sampler(recs, ["A", "B"], seed=42)
    assert [next(a) for _ in range(100)] == [next(b) for _ in range(100)]


def test_sampler_empty_class_raises():
    with pytest.raises(DataError, match="class 'B' has no clips"):
        protocol.balanced_sampler(_records({"x": ["A"]}), ["A", "B"], seed=0)


# --- manifest io ----------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    recs = _records({"a": ["X", "Y"], "b": ["Y"]})
    path = tmp_path / "m.jsonl"
    protocol.save_manifest(path, recs)
    assert protocol.load_manifest(path) == recs


def test_manifest_rejects_conflicting_duplicate_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"id": "a", "path": "1.wav", "tags": [], "split": "train"})
                    + "\n" +
                    json.dumps({"id": "a", "path": "2.wav", "tags": [], "split": "train"})
                    + "\n")
    with pytest.raises(DataError, match=r":2: clip id a reused"):
        protocol.load_manifest(path)


def test_manifest_rejects_an_unknown_split(tmp_path):
    """A misspelt split is an error naming its line, not a clip that every
    stage silently skips."""
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"id": "a", "path": "1.wav", "tags": [], "split": "test"})
                    + "\n" +
                    json.dumps({"id": "b", "path": "2.wav", "tags": [], "split": "Test"})
                    + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: split 'Test' is not one of"):
        protocol.load_manifest(path)


@pytest.mark.parametrize("field, value, message", [
    ("tags", "c01", "tags must be a list, not str 'c01'"),
    ("tags", ["c01", 1], "tags[1] must be a string, not int 1"),
    ("id", 7, "clip_id must be a string, not int 7"),
    ("split", None, "split must be a string, not NoneType None"),
])
def test_manifest_field_of_a_wrong_type_is_a_data_error(tmp_path, field, value, message):
    """A manifest field of the wrong type is an error naming its line and
    the field; tags given as one string would otherwise read as its
    characters, and the clip would carry no class."""
    good = {"id": "a", "path": "1.wav", "tags": ["c01"], "split": "train"}
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", field: value})
                    + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: bad manifest record: .*"
                       + re.escape(message)):
        protocol.load_manifest(path)


def test_load_json_checks_each_key_against_its_nested_annotation(tmp_path):
    """A key whose value does not fit its nested annotation is a data error
    naming the file and the element at fault; an absent key takes its
    default."""
    spec = {"folds": tuple[tuple[str, ...], ...], "pinned": tuple[str, ...]}
    path = tmp_path / "folds.json"
    path.write_text(json.dumps({"folds": [["c00"], [["c01"]]]}))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "
                       r"folds\[1\]\[0\] must be a string, not list \['c01'\]$"):
        protocol.load_json(path, spec, pinned=[])
    path.write_text(json.dumps({"folds": [["c00"], ["c01"]]}))
    assert protocol.load_json(path, spec, pinned=[]) == {"folds": [["c00"], ["c01"]],
                                                         "pinned": []}
    with pytest.raises(DataError, match=r"folds\.json: missing key 'pinned'$"):
        protocol.load_json(path, spec)


def test_a_container_of_the_wrong_type_is_shown_cut_short(tmp_path):
    """A JSON container of the wrong type is shown cut short, so the message
    has one length whatever the file's size: `labels` given as 12 or as 60
    [id, label] pairs."""
    path, messages = tmp_path / "classes.json", []
    for n in (12, 60):
        path.write_text(json.dumps({"labels": [[f"c{i:02d}", f"label {i}"]
                                               for i in range(n)]}))
        with pytest.raises(DataError, match=r"labels must be an object, not list "
                           r"\[\['c00', 'label 0'\], .*, \.\.\.\]$") as exc:
            protocol.load_json(path, {"labels": dict[str, str]})
        messages.append(str(exc.value))
    assert len(messages[0]) == len(messages[1])


def test_tag_counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("class_id,label,count\nA,Alpha,10\nB,Bravo,3\n")
    assert protocol.load_tag_counts(path) == {"A": ("Alpha", 10), "B": ("Bravo", 3)}


# --- synthetic corpus -------------------------------------------------------------

def test_corpus_record_counts(tiny_corpus):
    spec = tiny_corpus["spec"]
    records = tiny_corpus["records"]
    singles = [r for r in records if len(r.tags) == 1]
    mixes = [r for r in records if len(r.tags) == 2]
    assert len(singles) == spec.n_classes * spec.clips_per_class
    assert len(mixes) == spec.n_multilabel
    splits = Counter(r.split for r in records)
    assert set(splits) == {"train", "val", "test"}


def test_corpus_same_seed_byte_identical(tmp_path):
    spec = protocol.SyntheticSpec(n_classes=4, clips_per_class=4, n_multilabel=2,
                                  fmax_hz=2400.0, mel=dsp.MelConfig(n_mels=32),
                                  test_classes=(3,))
    dirs = []
    for name in ("one", "two"):
        out = tmp_path / name
        protocol.generate_synthetic_corpus(spec, out, seed=5)
        dirs.append(out)
    files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


def test_adjacent_classes_are_mutual_nearest_neighbor_vectors(tiny_corpus):
    vectors = semantics.load_word_vectors(tiny_corpus["vec_path"])
    spec = tiny_corpus["spec"]
    vecs = [vectors[spec.class_id(i)] for i in range(spec.n_classes)]
    for i in (0, 1):
        sims = [semantics.cosine(vecs[i], vecs[j])
                for j in range(spec.n_classes) if j != i]
        others = [j for j in range(spec.n_classes) if j != i]
        nearest = others[int(np.argmax(sims))]
        assert abs(nearest - i) == 1


def test_word_vector_similarity_decays_with_pitch_distance():
    spec = protocol.SyntheticSpec()
    v = [protocol.synthetic_word_vector(spec, i) for i in range(spec.n_classes)]
    sims = [semantics.cosine(v[0], v[j]) for j in range(1, spec.n_classes)]
    assert all(a > b for a, b in zip(sims, sims[1:]))


def test_overlapping_fundamentals_rejected(tmp_path):
    spec = protocol.SyntheticSpec(n_classes=40, fmin_hz=300.0, fmax_hz=400.0,
                                  mel=dsp.MelConfig(n_mels=16))
    with pytest.raises(ConfigError, match="mel bin"):
        protocol.generate_synthetic_corpus(spec, tmp_path / "x", seed=0)
