"""MinHash signatures with LSH banding for near-duplicate discovery.

k=128 hash minima over word 3-shingles, banded as 32 bands of 4 rows: the
band collision probability crosses 0.5 near Jaccard 0.5, which is the
intended detection threshold. The k hash functions of a shingle are the k
64-bit words of one SHAKE-128 digest of the seed and the shingle's UTF-8
bytes, so one C call computes all of them. The seed is a fixed constant, so
signatures are byte-identical across runs.
"""

from __future__ import annotations

import re
import struct
import threading
from dataclasses import dataclass
from hashlib import shake_128

# letters and digits of any script; on ASCII text this is [a-z0-9] after lower()
_WORD_RE = re.compile(r"[^\W_]+")
_SEED = 0x0DCA7


class EmptyTokenSetError(ValueError):
    """Too little text to form a single shingle; excluded from similarity."""


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


def shingles(text: str, width: int = 3) -> set[str]:
    """Word n-gram shingles of the lowercased text."""
    ws = words(text)
    return {" ".join(ws[i : i + width]) for i in range(len(ws) - width + 1)}


def shingle_text(title: dict[str, str], description: dict[str, str]) -> str:
    """Text basis for similarity: the 'und' entry plus the first language."""
    parts = []
    for lang_map in (title, description):
        if "und" in lang_map:
            parts.append(lang_map["und"])
        tagged = sorted(k for k in lang_map if k != "und")
        if tagged:
            parts.append(lang_map[tagged[0]])
    return " ".join(parts)


def exact_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class MinHashSignature:
    dataset_id: str
    values: tuple[int, ...]


class MinHashIndex:
    def __init__(self, k: int = 128, bands: int = 32, seed: int = _SEED):
        if k % bands != 0:
            raise ValueError("k must be divisible by the band count")
        self.k = k
        self.bands = bands
        self.rows = k // bands
        self._key = seed.to_bytes(8, "big")
        self._row = struct.Struct(f">{k}Q")  # one shingle's k hash values
        self._signatures: dict[str, tuple[int, ...]] = {}
        self._buckets: dict[tuple[int, tuple[int, ...]], set[str]] = {}
        self._lock = threading.RLock()

    def signature(self, tokens: set[str]) -> tuple[int, ...]:
        if not tokens:
            raise EmptyTokenSetError("cannot sign an empty token set")
        key, unpack, size = self._key, self._row.unpack, self._row.size
        rows = [unpack(shake_128(key + t.encode("utf-8")).digest(size)) for t in tokens]
        return tuple(map(min, zip(*rows)))

    def _band_keys(self, sig: tuple[int, ...]):
        for band in range(self.bands):
            yield (band, sig[band * self.rows : (band + 1) * self.rows])

    def add(self, dataset_id: str, tokens: set[str]) -> MinHashSignature:
        sig = self.signature(tokens)
        with self._lock:
            self.remove(dataset_id)
            self._signatures[dataset_id] = sig
            for key in self._band_keys(sig):
                self._buckets.setdefault(key, set()).add(dataset_id)
        return MinHashSignature(dataset_id, sig)

    def remove(self, dataset_id: str) -> None:
        with self._lock:
            sig = self._signatures.pop(dataset_id, None)
            if sig is None:
                return
            for key in self._band_keys(sig):
                bucket = self._buckets.get(key)
                if bucket is not None:
                    bucket.discard(dataset_id)
                    if not bucket:
                        del self._buckets[key]

    def estimate(self, a: str, b: str) -> float:
        sig_a, sig_b = self._signatures[a], self._signatures[b]
        return sum(x == y for x, y in zip(sig_a, sig_b)) / self.k

    def similar(self, dataset_id: str, floor: float = 0.3) -> list[tuple[str, float]]:
        """Band-sharing candidates with signature-agreement >= floor."""
        with self._lock:
            sig = self._signatures.get(dataset_id)
            if sig is None:
                return []
            candidates: set[str] = set()
            for key in self._band_keys(sig):
                candidates |= self._buckets.get(key, set())
            candidates.discard(dataset_id)
            scored = [(other, self.estimate(dataset_id, other)) for other in candidates]
        kept = [(other, est) for other, est in scored if est >= floor]
        return sorted(kept, key=lambda pair: (-pair[1], pair[0]))
