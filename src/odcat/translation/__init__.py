"""Machine-translation tagging for dataset literals."""

from ..enrichment import is_machine_tag
from .tags import EXTENDED_TAG_RE, ExtendedLangTag, parse_extended_tag
from .providers import DictionaryProvider, EchoProvider, ProviderError, SubmitResult
from .translator import TranslationService, build_translation_router, detect_original, translate_dataset

__all__ = [
    "ExtendedLangTag",
    "EXTENDED_TAG_RE",
    "is_machine_tag",
    "parse_extended_tag",
    "DictionaryProvider",
    "EchoProvider",
    "ProviderError",
    "SubmitResult",
    "detect_original",
    "translate_dataset",
    "TranslationService",
    "build_translation_router",
]
