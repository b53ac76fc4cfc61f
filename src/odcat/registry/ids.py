"""Unique-ID normalization for dataset and catalogue identifiers."""

from __future__ import annotations

import hashlib
import re

_NOT_SLUG = re.compile(r"[^a-z0-9]+")


class EmptyIdError(ValueError):
    """Original identifier is empty."""


def content_hash(catalogue_id: str, original_id: str) -> str:
    """Stable 8-hex-char hash of (catalogue, original id)."""
    digest = hashlib.sha256(f"{catalogue_id}\n{original_id}".encode("utf-8")).hexdigest()
    return digest[:8]


def slugify(original_id: str) -> str:
    """Lowercase, map each run of characters outside [a-z0-9] to one '-',
    strip leading and trailing '-'."""
    return _NOT_SLUG.sub("-", original_id.lower()).strip("-")


def normalize_id(
    original_id: str,
    catalogue_id: str,
    taken: dict[str, tuple[str, str]] | None = None,
) -> str:
    """Deterministic public id for a dataset.

    `taken` maps already-assigned ids to their (catalogueId, originalId); a
    slug collision with a *different* source identifier gets a stable hash
    suffix so both datasets keep distinct IRIs.
    """
    if not original_id:
        raise EmptyIdError("original identifier must be non-empty")
    slug = slugify(original_id)
    if not slug:
        slug = content_hash(catalogue_id, original_id)
    if taken is not None:
        owner = taken.get(slug)
        if owner is not None and owner != (catalogue_id, original_id):
            slug = f"{slug}-{content_hash(catalogue_id, original_id)}"
    return slug
