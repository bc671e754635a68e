"""Bundles: code + data wrapped in XML packets, HMAC-authenticated.

A bundle names a component in the code registry (or carries inline Python
source for the restricted interpreter), parameters, optional XML data, the
capabilities it needs, and a signature over the canonical XML form.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace

from repro.cingal.capabilities import validate_capabilities
from repro.xmlkit.model import XmlElement
from repro.xmlkit.writer import to_string


class BundleError(Exception):
    """Malformed, unverifiable or rejected bundle."""


@dataclass(frozen=True)
class Bundle:
    """An immutable deployable unit."""

    name: str
    component: str
    params: tuple = ()  # tuple of (key, value) string pairs
    data: XmlElement | None = None
    capabilities: frozenset = frozenset()
    signature: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise BundleError("bundle needs a name")
        if not self.component:
            raise BundleError("bundle needs a component reference")
        validate_capabilities(frozenset(self.capabilities))

    @property
    def param_dict(self) -> dict[str, str]:
        return dict(self.params)

    # -- XML form ---------------------------------------------------------
    def to_xml(self, include_signature: bool = True) -> XmlElement:
        root = XmlElement("bundle", {"name": self.name, "component": self.component})
        caps = XmlElement("capabilities")
        for cap in sorted(self.capabilities):
            caps.add_child(XmlElement("capability", {"name": cap}))
        root.add_child(caps)
        params = XmlElement("params")
        for key, value in sorted(self.params):
            params.add_child(XmlElement("param", {"name": key, "value": value}))
        root.add_child(params)
        if self.data is not None:
            data = XmlElement("data")
            data.add_child(self.data)
            root.add_child(data)
        if include_signature and self.signature:
            root.add_child(XmlElement("signature", {"value": self.signature}))
        return root

    @classmethod
    def from_xml(cls, root: XmlElement) -> "Bundle":
        if root.tag != "bundle":
            raise BundleError(f"expected <bundle>, got <{root.tag}>")
        name = root.attrs.get("name", "")
        component = root.attrs.get("component", "")
        caps_el = root.child("capabilities")
        capabilities = frozenset(
            c.attrs["name"] for c in (caps_el.children if caps_el else [])
        )
        params_el = root.child("params")
        params = tuple(
            sorted(
                (p.attrs["name"], p.attrs["value"])
                for p in (params_el.children if params_el else [])
            )
        )
        data_el = root.child("data")
        data = data_el.children[0] if data_el and data_el.children else None
        sig_el = root.child("signature")
        signature = sig_el.attrs.get("value", "") if sig_el else ""
        return cls(name, component, params, data, capabilities, signature)

    def signing_payload(self) -> bytes:
        """Canonical serialisation (signature excluded) that gets signed."""
        return to_string(self.to_xml(include_signature=False)).encode("utf-8")

    def wire_size(self) -> int:
        return len(to_string(self.to_xml())) + 64


def sign_bundle(bundle: Bundle, key: str) -> Bundle:
    """Return a copy of ``bundle`` carrying an HMAC-SHA256 signature."""
    mac = hmac.new(key.encode(), bundle.signing_payload(), hashlib.sha256)
    return replace(bundle, signature=mac.hexdigest())


def verify_bundle(bundle: Bundle, key: str) -> bool:
    """Constant-time verification of the bundle's signature."""
    if not bundle.signature:
        return False
    mac = hmac.new(key.encode(), bundle.signing_payload(), hashlib.sha256)
    return hmac.compare_digest(mac.hexdigest(), bundle.signature)


def make_bundle(
    name: str,
    component: str,
    params: dict[str, str] | None = None,
    data: XmlElement | None = None,
    capabilities: frozenset | set | None = None,
    key: str | None = None,
) -> Bundle:
    """Convenience constructor; signs when ``key`` is given."""
    bundle = Bundle(
        name=name,
        component=component,
        params=tuple(sorted((params or {}).items())),
        data=data,
        capabilities=frozenset(capabilities or ()),
    )
    return sign_bundle(bundle, key) if key is not None else bundle
