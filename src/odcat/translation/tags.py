"""Extended language tags marking machine-translated text.

A translated literal is tagged "{target}-t-{source}-t0-{provider}", e.g.
"en-t-de-t0-mock": English text machine-translated from German by the
provider registered as "mock".
"""

from __future__ import annotations

import re
from dataclasses import dataclass

EXTENDED_TAG_RE = re.compile(r"^[a-z]{2}-t-[a-z]{2}-t0-[a-z0-9]{1,8}$")
_ISO_639_1 = re.compile(r"^[a-z]{2}$")
_PROVIDER = re.compile(r"^[a-z0-9]{1,8}$")


@dataclass(frozen=True)
class ExtendedLangTag:
    target: str
    source: str
    provider: str

    def __post_init__(self) -> None:
        if not _ISO_639_1.match(self.target):
            raise ValueError(f"target must be an ISO 639-1 code: {self.target!r}")
        if not _ISO_639_1.match(self.source):
            raise ValueError(f"source must be an ISO 639-1 code: {self.source!r}")
        if not _PROVIDER.match(self.provider):
            raise ValueError(f"provider tag must be 1-8 lowercase alphanumerics: {self.provider!r}")

    def render(self) -> str:
        return f"{self.target}-t-{self.source}-t0-{self.provider}"


def parse_extended_tag(lang: str) -> ExtendedLangTag | None:
    if not EXTENDED_TAG_RE.match(lang):
        return None
    target, _, source, _, provider = lang.split("-")
    return ExtendedLangTag(target, source, provider)
