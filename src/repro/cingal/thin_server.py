"""Thin servers: verification, capabilities, object store, execution.

A thin server accepts ``Fire`` messages carrying bundles.  It verifies the
HMAC signature against its deployment key, checks the requested capability
set against its grant policy, resolves the component factory (registry name
or — if enabled — inline restricted Python source), and runs the component
inside a :class:`BundleContext` that mediates every privileged operation.
Deployed pipeline components are addressable by name for inter-node event
delivery and wiring (Figure 3).
"""

from __future__ import annotations

from typing import Any

from repro.cingal.bundle import Bundle, BundleError, verify_bundle
from repro.cingal.capabilities import (
    ALL_CAPABILITIES,
    CAP_DEPLOY,
    CAP_EMIT,
    CAP_STORE_READ,
    CAP_STORE_WRITE,
    CapabilityError,
)
from repro.cingal.object_store import ObjectStore
from repro.cingal.registry import ComponentRegistry, default_registry
from repro.events.model import Notification
from repro.net.geo import Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.pipelines.bus import EventBus
from repro.pipelines.component import PipelineComponent
from repro.pipelines.connectors import PipelineEvent, RemoteSender
from repro.simulation import Simulator
from repro.xmlkit.codec import notification_from_xml
from repro.xmlkit.parser import parse


# Wire messages live in repro.cingal.messages; re-exported here for
# convenience of server-side code.
from repro.cingal.messages import (  # noqa: E402
    ConnectAck,
    ConnectLocal,
    ConnectRemote,
    DeployAck,
    Fire,
    Undeploy,
    UndeployAck,
)


_SAFE_BUILTINS = {
    "abs": abs, "bool": bool, "dict": dict, "enumerate": enumerate,
    "float": float, "int": int, "len": len, "list": list, "max": max,
    "min": min, "range": range, "round": round, "set": set, "sorted": sorted,
    "str": str, "sum": sum, "tuple": tuple, "zip": zip,
    # class statements inside bundles need the class-building machinery
    "__build_class__": __build_class__, "__name__": "bundle",
    "isinstance": isinstance, "super": super, "Exception": Exception,
    "ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError,
}


class BundleContext:
    """The API surface a running bundle sees; every call is capability-checked."""

    def __init__(self, server: "ThinServer", bundle: Bundle):
        self.server = server
        self.sim: Simulator = server.sim
        self.bundle = bundle
        self.capabilities = frozenset(bundle.capabilities)
        self.params = bundle.param_dict
        self.data = bundle.data

    def _require(self, capability: str) -> None:
        if capability not in self.capabilities:
            raise CapabilityError(
                f"bundle {self.bundle.name!r} lacks capability {capability!r}"
            )

    # -- object store -----------------------------------------------------
    def store_put(self, name: str, data: bytes) -> None:
        self._require(CAP_STORE_WRITE)
        self.server.store.put(name, data)

    def store_get(self, name: str) -> bytes:
        self._require(CAP_STORE_READ)
        return self.server.store.get(name)

    # -- events -------------------------------------------------------------
    def emit(self, event: Notification) -> None:
        """Publish onto the server's local event bus."""
        self._require(CAP_EMIT)
        self.server.local_bus.put(event)

    # -- onward deployment ---------------------------------------------------
    def deploy(self, bundle: Bundle, target: Address) -> None:
        """Push a further bundle to another thin server (code push chains)."""
        self._require(CAP_DEPLOY)
        self.server.send(target, Fire(bundle), size_bytes=bundle.wire_size())


class ThinServer(Host):
    """A node of the deployment infrastructure (Figure 3)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        position: Position,
        deploy_key: str,
        granted: frozenset | None = None,
        registry: ComponentRegistry | None = None,
        store_quota: int = 1 << 20,
        allow_source: bool = False,
    ):
        super().__init__(sim, network, position)
        self.deploy_key = deploy_key
        self.granted = ALL_CAPABILITIES if granted is None else frozenset(granted)
        self.registry = registry or default_registry
        self.store = ObjectStore(store_quota)
        self.local_bus = EventBus(name=f"bus@{self.addr}")
        self.components: dict[str, PipelineComponent] = {}
        self.deploy_count = 0
        self.rejected_count = 0

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, bundle: Bundle) -> PipelineComponent:
        """Verify, check capabilities, instantiate, run.  Raises on refusal."""
        if not verify_bundle(bundle, self.deploy_key):
            self.rejected_count += 1
            raise BundleError(f"signature verification failed for {bundle.name!r}")
        requested = frozenset(bundle.capabilities)
        if not requested <= self.granted:
            self.rejected_count += 1
            raise CapabilityError(
                f"bundle {bundle.name!r} requests {sorted(requested - self.granted)} "
                "beyond this server's grant policy"
            )
        context = BundleContext(self, bundle)
        factory = self._resolve_factory(bundle)
        component = factory(context, bundle.param_dict)
        if not isinstance(component, PipelineComponent):
            self.rejected_count += 1
            raise BundleError(
                f"component factory for {bundle.component!r} returned "
                f"{type(component).__name__}, not a PipelineComponent"
            )
        component.name = bundle.name
        previous = self.components.get(bundle.name)
        if previous is not None:
            self._swap(previous, component)
        self.components[bundle.name] = component
        self.deploy_count += 1
        return component

    def _resolve_factory(self, bundle: Bundle):
        if bundle.component == "__source__":
            return self._compile_source(bundle)
        try:
            return self.registry.resolve(bundle.component)
        except KeyError as err:
            self.rejected_count += 1
            raise BundleError(str(err)) from err

    def _compile_source(self, bundle: Bundle):
        """Inline Python source, executed in a restricted namespace."""
        source = bundle.param_dict.get("code", "")
        if not source:
            raise BundleError(f"source bundle {bundle.name!r} carries no code")
        if not getattr(self, "allow_source", False) and not self._allow_source:
            raise BundleError("inline source bundles are disabled on this server")
        namespace: dict[str, Any] = {
            "__builtins__": dict(_SAFE_BUILTINS),
            "PipelineComponent": PipelineComponent,
            "Notification": Notification,
        }
        exec(compile(source, f"<bundle {bundle.name}>", "exec"), namespace)
        factory = namespace.get("make")
        if not callable(factory):
            raise BundleError(f"source bundle {bundle.name!r} defines no make()")
        return factory

    def _swap(self, old: PipelineComponent, new: PipelineComponent) -> None:
        """Hot-replace a component, preserving its wiring (evolution, §4.3)."""
        new.downstream = list(old.downstream)
        for component in self.components.values():
            if old in component.downstream:
                component.disconnect(old)
                component.connect(new)
        self.local_bus.unsubscribe(old)
        old.stop()

    def undeploy(self, name: str) -> bool:
        component = self.components.pop(name, None)
        if component is None:
            return False
        for other in self.components.values():
            other.disconnect(component)
        self.local_bus.unsubscribe(component)
        component.stop()
        return True

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, src: Address, payload: Any) -> None:
        if isinstance(payload, Fire):
            try:
                self.deploy(payload.bundle)
                self.send(src, DeployAck(payload.bundle.name, True))
            except (BundleError, CapabilityError, Exception) as err:
                self.send(src, DeployAck(payload.bundle.name, False, str(err)))
        elif isinstance(payload, PipelineEvent):
            component = self.components.get(payload.component)
            if component is not None:
                component.put(notification_from_xml(parse(payload.xml_text)))
        elif isinstance(payload, ConnectLocal):
            self._handle_connect_local(src, payload)
        elif isinstance(payload, ConnectRemote):
            self._handle_connect_remote(src, payload)
        elif isinstance(payload, Undeploy):
            ok = self.undeploy(payload.component_name)
            self.send(src, UndeployAck(payload.component_name, ok))
        elif isinstance(payload, (DeployAck, ConnectAck, UndeployAck)):
            pass  # acks are consumed by assembly processes via hooks
        else:
            raise TypeError(f"unknown thin-server message: {payload!r}")

    def _handle_connect_local(self, src: Address, msg: ConnectLocal) -> None:
        src_comp = self.components.get(msg.src_component)
        dst_comp = self.components.get(msg.dst_component)
        if src_comp is None or dst_comp is None:
            self.send(src, ConnectAck(False, "unknown component", msg.req_id))
            return
        src_comp.connect(dst_comp)
        self.send(src, ConnectAck(True, "", msg.req_id))

    def _handle_connect_remote(self, src: Address, msg: ConnectRemote) -> None:
        src_comp = self.components.get(msg.src_component)
        if src_comp is None:
            self.send(
                src,
                ConnectAck(False, f"unknown component {msg.src_component!r}", msg.req_id),
            )
            return
        sender = RemoteSender(self, msg.dst_addr, msg.dst_component)
        src_comp.connect(sender)
        self.send(src, ConnectAck(True, "", msg.req_id))

    # Source-bundle switch; attribute (not ctor arg) so the common path
    # stays locked down unless a test/example explicitly opts in.
    _allow_source = False

    @property
    def allow_source(self) -> bool:
        return self._allow_source

    @allow_source.setter
    def allow_source(self, value: bool) -> None:
        self._allow_source = bool(value)
