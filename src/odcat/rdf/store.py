"""In-memory quad store with named graphs and an N-Quads write-ahead log."""

from __future__ import annotations

import logging
import os
import re
import threading
from pathlib import Path
from typing import Iterable

from .ntriples import LineParser
from .terms import IRI, Quad, Term, Triple
from .turtle import ParseError

logger = logging.getLogger(__name__)

_BATCH_COUNT_RE = re.compile(r"B ([1-9][0-9]*)\Z")


def _batch_count(line: str, lineno: int) -> int:
    """The number of lines a `B <count>` header announces."""
    m = _BATCH_COUNT_RE.match(line)
    if m is None:
        raise ParseError("invalid write-ahead log batch header", lineno, 3)
    return int(m.group(1))


class QuadStore:
    """Set-semantics quad store with one index: each graph's set of triples.

    Each quad is kept once, as a plain `(s, p, o)` in its graph's set, and
    a count of all quads answers `len()`. Predicates are interned: there are
    only as many as the vocabulary has. `match` scans one graph's set, or
    every set when no graph is given; the registry's lookups are scans of
    one dataset graph.

    All mutations are serialized by one lock and, when a data directory is
    configured, appended to a write-ahead log of N-Quads lines. A mutation
    of several lines (`replace_graph`, `add_all`) is written in one write,
    behind a header line `B <count>`. `compact()` folds the log into a
    snapshot; opening a data directory replays snapshot + log in one pass
    over each. A crash can tear the log's tail: replay applies a mutation
    only when all of its lines are complete, so a final line without its
    newline, or a header followed by fewer lines than it counts, is dropped,
    counted once in `torn_wal_lines` and cut off the file, and the next
    append starts on a fresh line.
    """

    def __init__(self, data_dir: str | Path | None = None, compact_every: int = 500_000):
        self._by_graph: dict[str, set[Triple]] = {}
        self._predicates: dict[IRI, IRI] = {}
        self._count = 0
        self._lock = threading.RLock()
        self._wal = None
        self._wal_lines = 0
        self._compact_every = compact_every
        self._data_dir: Path | None = None
        self.torn_wal_lines = 0
        if data_dir is not None:
            self._data_dir = Path(data_dir)
            self._data_dir.mkdir(parents=True, exist_ok=True)
            self._replay()
            self._wal = open(self._wal_path, "a", encoding="utf-8")

    @property
    def _wal_path(self) -> Path:
        assert self._data_dir is not None
        return self._data_dir / "wal.nq"

    @property
    def _snapshot_path(self) -> Path:
        assert self._data_dir is not None
        return self._data_dir / "snapshot.nq"

    def _replay(self) -> None:
        parser = LineParser()
        if self._snapshot_path.exists():
            text = self._snapshot_path.read_bytes().decode("utf-8")
            for lineno, line in enumerate(text.split("\n"), 1):
                if line.strip():
                    self._index_add(*parser.quad(line, lineno))
        if not self._wal_path.exists():
            return
        data = self._wal_path.read_bytes()
        complete = data.rfind(b"\n") + 1
        lines = data[:complete].decode("utf-8").split("\n")
        lines.pop()  # the empty string after the final newline
        keep = complete
        for lineno, line in enumerate(lines, 1):
            op = line[:2]
            if op == "A ":
                self._index_add(*parser.quad(line, lineno, 2))
            elif op == "D ":
                self._index_remove(*parser.quad(line, lineno, 2))
            elif op == "C ":
                self._clear_graph(parser.graph_name(line, lineno, 2))
            elif op == "B ":
                if lineno + _batch_count(line, lineno) > len(lines):
                    # cut the mutation off at its header
                    keep = complete - len("\n".join(lines[lineno - 1 :]).encode("utf-8")) - 1
                    break
            elif line.strip():
                raise ParseError("unknown write-ahead log operation", lineno, 1)
        if keep < len(data):
            self.torn_wal_lines += 1
            logger.warning(
                "dropped a torn mutation at the end of %s: %r",
                self._wal_path,
                data[keep:].decode("utf-8", errors="replace"),
            )
            os.truncate(self._wal_path, keep)

    def _log(self, lines: list[str]) -> None:
        """Append one mutation's lines, behind a header if there are several."""
        if self._wal is not None and lines:
            if len(lines) > 1:
                lines.insert(0, f"B {len(lines)}")
            self._wal.write("\n".join(lines) + "\n")
            self._wal_lines += len(lines)

    def _flush(self) -> None:
        if self._wal is not None:
            self._wal.flush()
            if self._wal_lines >= self._compact_every:
                self.compact()

    # -- index maintenance ----------------------------------------------

    def _index_add(self, s: Term, p: IRI, o: Term, graph: str) -> bool:
        bucket = self._by_graph.setdefault(graph, set())
        size = len(bucket)
        bucket.add((s, self._predicates.setdefault(p, p), o))  # one hash: the size tells whether it was new
        if len(bucket) == size:
            return False
        self._count += 1
        return True

    def _index_remove(self, s: Term, p: IRI, o: Term, graph: str) -> bool:
        bucket = self._by_graph.get(graph)
        if bucket is None or (s, p, o) not in bucket:
            return False
        bucket.remove((s, p, o))
        if not bucket:
            del self._by_graph[graph]
        self._count -= 1
        return True

    def _clear_graph(self, graph: str) -> int:
        n = len(self._by_graph.pop(graph, ()))
        self._count -= n
        return n

    # -- public API ------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def add(self, graph: str, triple: Triple) -> bool:
        """Insert one quad; returns False if it was already present."""
        s, p, o = triple
        with self._lock:
            added = self._index_add(s, p, o, graph)
            if added:
                self._log([f"A {s} {p} {o} <{graph}> ."])
                self._flush()
            return added

    def add_all(self, graph: str, triples: Iterable[Triple]) -> int:
        with self._lock:
            lines = []
            for s, p, o in triples:
                if self._index_add(s, p, o, graph):
                    lines.append(f"A {s} {p} {o} <{graph}> .")
            self._log(lines)
            self._flush()
            return len(lines)

    def remove(self, graph: str, triple: Triple) -> bool:
        s, p, o = triple
        with self._lock:
            removed = self._index_remove(s, p, o, graph)
            if removed:
                self._log([f"D {s} {p} {o} <{graph}> ."])
                self._flush()
            return removed

    def delete_graph(self, graph: str) -> int:
        """Remove exactly the quads of one named graph."""
        with self._lock:
            n = self._clear_graph(graph)
            if n:
                self._log([f"C <{graph}>"])
                self._flush()
            return n

    def replace_graph(self, graph: str, triples: Iterable[Triple], also_add: Iterable[Quad] = ()) -> None:
        """Atomically swap the contents of a named graph.

        Quads in `also_add` (of any graph) are added in the same mutation, so
        a crash keeps all of it or none of it.
        """
        with self._lock:
            self._clear_graph(graph)
            lines = [f"C <{graph}>"]
            for s, p, o in triples:
                if self._index_add(s, p, o, graph):
                    lines.append(f"A {s} {p} {o} <{graph}> .")
            for s, p, o, g in also_add:
                if self._index_add(s, p, o, g):
                    lines.append(f"A {s} {p} {o} <{g}> .")
            self._log(lines)
            self._flush()

    def graph(self, graph: str) -> list[Triple]:
        with self._lock:
            return list(self._by_graph.get(graph, ()))

    def has_graph(self, graph: str) -> bool:
        with self._lock:
            return graph in self._by_graph

    def graphs(self) -> list[str]:
        with self._lock:
            return sorted(self._by_graph)

    def match(
        self,
        graph: str | None = None,
        subject: Term | None = None,
        predicate: IRI | None = None,
        obj: Term | None = None,
    ) -> list[Quad]:
        """All quads matching the given concrete positions (None = any)."""
        with self._lock:
            if graph is not None:
                buckets = [(graph, self._by_graph.get(graph, ()))]
            else:
                buckets = self._by_graph.items()
            return [
                Quad(s, p, o, g)
                for g, bucket in buckets
                for s, p, o in bucket
                if (subject is None or s == subject)
                and (predicate is None or p == predicate)
                and (obj is None or o == obj)
            ]

    def objects(self, graph: str | None, subject: Term, predicate: IRI) -> list[Term]:
        return [q.object for q in self.match(graph, subject, predicate)]

    # -- persistence ------------------------------------------------------

    def compact(self) -> None:
        """Fold the WAL into a snapshot file."""
        if self._data_dir is None:
            return
        with self._lock:
            lines = sorted(f"{s} {p} {o} <{g}> ." for g, bucket in self._by_graph.items() for s, p, o in bucket)
            tmp = self._snapshot_path.with_suffix(".tmp")
            tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
            tmp.replace(self._snapshot_path)
            if self._wal is not None:
                self._wal.close()
            self._wal = open(self._wal_path, "w", encoding="utf-8")
            self._wal_lines = 0

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self.compact()
                self._wal.close()
                self._wal = None
