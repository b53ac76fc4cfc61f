import hashlib
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odcat.quality import EmptyTokenSetError, MinHashIndex, exact_jaccard, shingles
from odcat.quality.similarity import shingle_text, words

WORDS = [
    "rain", "snow", "wind", "sun", "city", "berlin", "hamburg", "data", "sensor",
    "daily", "monthly", "report", "traffic", "noise", "map", "level", "quality",
    "air", "water", "count",
]


def text_of(rng, n):
    return " ".join(rng.choices(WORDS, k=n))


def test_identical_texts_estimate_one():
    idx = MinHashIndex()
    tokens = shingles("hourly rainfall measurements for the city of berlin")
    idx.add("a", tokens)
    idx.add("b", set(tokens))
    assert idx.estimate("a", "b") == 1.0
    assert idx.similar("a")[0] == ("b", 1.0)


def test_disjoint_texts_not_similar():
    idx = MinHashIndex()
    idx.add("a", shingles("alpha beta gamma delta epsilon zeta eta theta"))
    idx.add("b", shingles("one two three four five six seven eight nine"))
    results = dict(idx.similar("a"))
    assert "b" not in results  # either no shared band or estimate below floor


def test_shingles_are_word_trigrams():
    assert shingles("a b c d") == {"a b c", "b c d"}
    assert shingles("only two") == set()


def test_empty_token_set_rejected():
    idx = MinHashIndex()
    with pytest.raises(EmptyTokenSetError):
        idx.add("a", set())


def test_shingle_text_prefers_und_plus_first_language():
    text = shingle_text({"und": "plain title", "de": "titel", "en": "title"}, {"en": "desc"})
    assert "plain title" in text
    assert "titel" in text  # 'de' sorts before 'en'
    assert "title" not in text.split("titel")[1]  # only the first tagged language
    assert "desc" in text


def test_signatures_deterministic_across_instances():
    tokens = shingles(text_of(random.Random(1), 30))
    sig1 = MinHashIndex().signature(tokens)
    sig2 = MinHashIndex().signature(tokens)
    assert sig1 == sig2
    packed1 = b"".join(v.to_bytes(8, "big") for v in sig1)
    packed2 = b"".join(v.to_bytes(8, "big") for v in sig2)
    assert packed1 == packed2
    assert len(sig1) == 128


def test_signature_family_is_pinned():
    # signatures are compared across runs: a change of hash family must be deliberate
    sig = MinHashIndex().signature(shingles("hourly rainfall measurements for the city of berlin"))
    digest = hashlib.sha256(struct.pack(">128Q", *sig)).hexdigest()
    assert digest == "3a2edfbfae3ac4958c00fa939618bd4d0a8e418de9210f8cfc5f6355fe56428e"


def test_signature_length_follows_k():
    idx = MinHashIndex(k=64, bands=16)
    sig = idx.signature(shingles("hourly rainfall measurements for the city of berlin"))
    assert len(sig) == 64 and all(0 <= v < 1 << 64 for v in sig)
    idx.add("a", shingles("hourly rainfall measurements for the city of berlin"))
    idx.add("b", shingles("hourly rainfall measurements for the city of berlin"))
    assert idx.similar("a") == [("b", 1.0)]


def test_words_keep_letters_of_every_script():
    assert words("Πληθυσμός Αθήνα ετήσια έκθεση 2021") == ["πληθυσμός", "αθήνα", "ετήσια", "έκθεση", "2021"]
    assert words("Bevölkerung Straße München") == ["bevölkerung", "straße", "münchen"]
    assert words("snake_case a-b") == ["snake", "case", "a", "b"]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=127)))
def test_words_of_ascii_text_are_unchanged(text):
    assert words(text) == re.findall(r"[a-z0-9]+", text.lower())


def test_greek_near_duplicates_are_similar():
    idx = MinHashIndex()
    base = "Πληθυσμός Αθήνα ετήσια έκθεση απογραφή κατοίκων ανά δήμο και περιφέρεια"
    idx.add("a", shingles(base + " 2021"))
    idx.add("b", shingles(base + " 2022"))
    idx.add("c", shingles("Κυκλοφορία οχημάτων Θεσσαλονίκη μηνιαία στοιχεία σταθμών μέτρησης"))
    assert [other for other, _ in idx.similar("a")] == ["b"]


def test_estimate_tracks_exact_jaccard_on_200_pairs():
    rng = random.Random(777)
    idx = MinHashIndex()
    within = 0
    total = 200
    for i in range(total):
        base = text_of(rng, rng.randint(12, 40))
        words = base.split()
        # mutate a copy to get varied overlap
        mutated = list(words)
        for _ in range(rng.randint(0, len(words))):
            mutated[rng.randrange(len(mutated))] = rng.choice(WORDS)
        a, b = shingles(" ".join(words)), shingles(" ".join(mutated))
        if not a or not b:
            total -= 1
            continue
        idx.add(f"a{i}", a)
        idx.add(f"b{i}", b)
        estimate = idx.estimate(f"a{i}", f"b{i}")
        if abs(estimate - exact_jaccard(a, b)) <= 0.15:
            within += 1
    assert within / total >= 0.95, f"{within}/{total} within tolerance"


def test_similar_sorted_descending_with_floor():
    idx = MinHashIndex()
    base = "air quality sensor readings for the inner city monitoring network"
    idx.add("base", shingles(base))
    idx.add("near", shingles(base + " extended"))
    idx.add("copy", shingles(base))
    results = idx.similar("base", floor=0.3)
    estimates = [est for _, est in results]
    assert estimates == sorted(estimates, reverse=True)
    assert results[0][0] == "copy"
    assert all(est >= 0.3 for est in estimates)


def test_remove_drops_candidate():
    idx = MinHashIndex()
    idx.add("a", shingles("one two three four five"))
    idx.add("b", shingles("one two three four five"))
    idx.remove("b")
    assert idx.similar("a") == []
