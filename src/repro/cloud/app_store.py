"""The AnDrone app store.

Developers publish apps with both manifests; the portal reads the AnDrone
manifest to learn required devices and user arguments (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.android.manifest import AndroidManifest, AnDroneManifest, ManifestError


class UnknownAppError(KeyError):
    """Lookup of a package the store does not carry.  Subclasses
    ``KeyError`` so callers that caught the bare lookup error this used
    to surface as keep working."""

    def __init__(self, package: str):
        super().__init__(f"no app {package!r} in the store")
        self.package = package

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass
class StoreApp:
    """One published app."""

    package: str
    title: str
    description: str
    android_manifest: AndroidManifest
    androne_manifest: AnDroneManifest
    downloads: int = 0

    def required_arguments(self):
        return [a for a in self.androne_manifest.arguments if a.required]


class AppStore:
    """Registry of published AnDrone apps."""

    def __init__(self) -> None:
        self._apps: Dict[str, StoreApp] = {}

    def publish(self, title: str, description: str,
                android_manifest_xml: str, androne_manifest_xml: str) -> StoreApp:
        """Validate and publish an app; both manifests must parse and
        agree on the package name."""
        android_manifest = AndroidManifest.parse(android_manifest_xml)
        androne_manifest = AnDroneManifest.parse(androne_manifest_xml)
        if android_manifest.package != androne_manifest.package:
            raise ManifestError(
                f"manifest package mismatch: {android_manifest.package!r} vs "
                f"{androne_manifest.package!r}"
            )
        app = StoreApp(android_manifest.package, title, description,
                       android_manifest, androne_manifest)
        self._apps[app.package] = app
        return app

    def get(self, package: str) -> StoreApp:
        if package not in self._apps:
            raise UnknownAppError(package)
        return self._apps[package]

    def download(self, package: str) -> StoreApp:
        app = self.get(package)
        app.downloads += 1
        return app

    def search(self, query: str) -> List[StoreApp]:
        query = query.lower()
        return [
            app for app in self._apps.values()
            if query in app.title.lower() or query in app.description.lower()
        ]
