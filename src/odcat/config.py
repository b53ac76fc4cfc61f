"""Suite configuration: JSON file, environment variables, CLI overrides.

Precedence: command-line flag > environment variable > config file > default.
Environment variables: PIVEAU_CONFIG (config file path), PIVEAU_API_TOKEN,
PIVEAU_DATA_DIR.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlparse

ENV_CONFIG = "PIVEAU_CONFIG"
ENV_TOKEN = "PIVEAU_API_TOKEN"
ENV_DATA_DIR = "PIVEAU_DATA_DIR"

SERVICE_NAMES = (
    "registry",
    "search",
    "scheduler",
    "importer",
    "transformer",
    "exporter",
    "translation",
    "quality",
    "portal",
)

DEFAULT_ADDRESSES = {
    "scheduler": "127.0.0.1:8071",
    "registry": "127.0.0.1:8072",
    "search": "127.0.0.1:8073",
    "quality": "127.0.0.1:8074",
    "translation": "127.0.0.1:8075",
    "importer": "127.0.0.1:8076",
    "transformer": "127.0.0.1:8077",
    "exporter": "127.0.0.1:8078",
    "portal": "127.0.0.1:8079",
}


class BadConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@dataclass
class Config:
    base_iri: str = "http://odcat.example"
    data_dir: str = "./odcat-data"
    api_token: str = "odcat-dev-token"
    addresses: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_ADDRESSES))
    vocab_dir: str | None = None
    default_language: str = "en"
    translation_targets: list[str] = field(default_factory=list)
    provider: dict = field(default_factory=lambda: {"kind": "echo", "tag": "echo", "batchLimit": 100})
    quality_events: bool = True
    check_urls: bool = True
    url_timeout: float = 10.0
    url_concurrency: int = 16
    per_host_spacing: float = 1.0
    service_workers: int = 8
    retry_delays: tuple[float, ...] = (1.0, 2.0, 4.0)
    sync_wait_seconds: float = 120.0  # unused; the benchmark launcher still passes it to Config
    scheduler_tick: float = 0.5

    def validate(self, services: list[str] | None = None) -> None:
        services = list(services or SERVICE_NAMES)
        for name in services:
            if name not in SERVICE_NAMES:
                raise BadConfigError(f"unknown service {name!r}")
        parsed = urlparse(self.base_iri)
        if not parsed.scheme or not parsed.netloc:
            raise BadConfigError(f"baseIri must be an absolute IRI, got {self.base_iri!r}")
        seen: dict[str, str] = {}
        for name in services:
            address = self.addresses.get(name)
            if not address or ":" not in address:
                raise BadConfigError(f"addresses.{name} must be host:port, got {address!r}")
            if address in seen and not address.endswith(":0"):
                raise BadConfigError(
                    f"addresses.{name} duplicates addresses.{seen[address]} ({address})"
                )
            seen[address] = name
        try:
            Path(self.data_dir).mkdir(parents=True, exist_ok=True)
            probe = Path(self.data_dir) / ".write-probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise BadConfigError(f"dataDir {self.data_dir!r} is not writable: {exc}") from exc

    def address_of(self, name: str) -> tuple[str, int]:
        host, _, port = self.addresses[name].rpartition(":")
        return host, int(port)


_FILE_KEYS = {
    "baseIri": "base_iri",
    "dataDir": "data_dir",
    "apiToken": "api_token",
    "vocabDir": "vocab_dir",
    "defaultLanguage": "default_language",
    "translationTargets": "translation_targets",
    "provider": "provider",
    "qualityEvents": "quality_events",
    "checkUrls": "check_urls",
    "urlTimeoutSeconds": "url_timeout",
    "urlConcurrency": "url_concurrency",
    "perHostSpacingSeconds": "per_host_spacing",
    "serviceWorkers": "service_workers",
    "retryDelaySeconds": "retry_delays",
    "schedulerTickSeconds": "scheduler_tick",
}


def load_config(
    path: str | Path | None = None,
    env: dict[str, str] | None = None,
    overrides: dict | None = None,
) -> Config:
    env = dict(os.environ if env is None else env)
    overrides = dict(overrides or {})

    config = Config()
    file_path = overrides.pop("config", None) or path or env.get(ENV_CONFIG)
    if file_path:
        try:
            doc = json.loads(Path(file_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise BadConfigError(f"cannot read config file {file_path}: {exc}") from exc
        unknown = set(doc) - set(_FILE_KEYS) - {"addresses"}
        if unknown:
            raise BadConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        updates = {}
        for file_key, attr in _FILE_KEYS.items():
            if file_key in doc:
                value = doc[file_key]
                if attr == "retry_delays":
                    value = tuple(float(x) for x in value)
                updates[attr] = value
        config = replace(config, **updates)
        if "addresses" in doc:
            merged = dict(config.addresses)
            merged.update({str(k): str(v) for k, v in doc["addresses"].items()})
            config.addresses = merged

    if ENV_TOKEN in env:
        config.api_token = env[ENV_TOKEN]
    if ENV_DATA_DIR in env:
        config.data_dir = env[ENV_DATA_DIR]

    for attr in ("base_iri", "data_dir", "api_token", "vocab_dir"):
        if overrides.get(attr) is not None:
            setattr(config, attr, overrides[attr])
    if overrides.get("addresses"):
        config.addresses.update(overrides["addresses"])
    for attr in (
        "quality_events",
        "check_urls",
        "translation_targets",
        "scheduler_tick",
    ):
        if overrides.get(attr) is not None:
            setattr(config, attr, overrides[attr])
    return config
