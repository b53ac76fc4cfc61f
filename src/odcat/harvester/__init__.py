"""Harvesting services: importers, transformer, exporter, mock source portal."""

from .records import IdentifierList, RunEnvelope, SourceRecord, parse_envelope
from .importers import FetchError, InconsistentCountError, import_paged_json, import_rdf_dump
from .mapping import MappingError, MappingRule, MappingRuleSet, PathError, resolve_path, transform
from .exporter import RegistryClient, RegistryError, finalize_sync
from .services import make_exporter, make_importer, make_transformer
from .mock_portal import MockPortal
from .fixtures import default_mapping_rules, records_to_dump_turtle, synthetic_records

__all__ = [
    "SourceRecord",
    "IdentifierList",
    "RunEnvelope",
    "parse_envelope",
    "FetchError",
    "InconsistentCountError",
    "import_rdf_dump",
    "import_paged_json",
    "MappingRule",
    "MappingRuleSet",
    "MappingError",
    "PathError",
    "resolve_path",
    "transform",
    "RegistryClient",
    "RegistryError",
    "finalize_sync",
    "make_importer",
    "make_transformer",
    "make_exporter",
    "MockPortal",
    "synthetic_records",
    "records_to_dump_turtle",
    "default_mapping_rules",
]
