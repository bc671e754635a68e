"""Pipeline assembly: fire bundles at thin servers, then wire the edges.

This is Figure 3 as executable code: a deployment agent pushes one signed
code bundle per component to its placement target, waits for each ack, then
issues the local/remote connect commands that assemble the pipeline.
"""

from __future__ import annotations

from repro.cingal.bundle import Bundle, BundleError, make_bundle
from repro.cingal.messages import (
    ConnectAck,
    ConnectLocal,
    ConnectRemote,
    DeployAck,
    Fire,
    Undeploy,
    UndeployAck,
)
from repro.net.geo import Position
from repro.net.host import Host
from repro.net.network import Address, Network
from repro.pipelines.spec import PipelineSpec
from repro.simulation import Future, Process, Simulator, spawn


class DeploymentAgent(Host):
    """A control endpoint that fires bundles and awaits acknowledgements."""

    def __init__(self, sim: Simulator, network: Network, position: Position):
        super().__init__(sim, network, position)
        self._pending_deploys: dict[str, Future] = {}
        self._pending_undeploys: dict[str, Future] = {}
        self._pending_connects: dict[int, Future] = {}
        self._next_req = 0

    def fire(self, target: Address, bundle: Bundle) -> Future:
        """Deploy ``bundle`` at ``target``; resolves to the DeployAck."""
        future = Future()
        self._pending_deploys[bundle.name] = future
        self.send(target, Fire(bundle), size_bytes=bundle.wire_size())
        return future

    def undeploy(self, target: Address, component_name: str) -> Future:
        """Tear down a deployed component; resolves to the UndeployAck."""
        future = Future()
        self._pending_undeploys[component_name] = future
        self.send(target, Undeploy(component_name), size_bytes=128)
        return future

    def connect_local(self, target: Address, src: str, dst: str) -> Future:
        self._next_req += 1
        future = Future()
        self._pending_connects[self._next_req] = future
        self.send(target, ConnectLocal(src, dst, self._next_req))
        return future

    def connect_remote(
        self, target: Address, src: str, dst_addr: Address, dst_component: str
    ) -> Future:
        self._next_req += 1
        future = Future()
        self._pending_connects[self._next_req] = future
        self.send(target, ConnectRemote(src, dst_addr, dst_component, self._next_req))
        return future

    def handle_message(self, src: Address, payload) -> None:
        if isinstance(payload, DeployAck):
            future = self._pending_deploys.pop(payload.bundle_name, None)
            if future is not None:
                future.set_result(payload)
        elif isinstance(payload, UndeployAck):
            future = self._pending_undeploys.pop(payload.component_name, None)
            if future is not None:
                future.set_result(payload)
        elif isinstance(payload, ConnectAck):
            future = self._pending_connects.pop(payload.req_id, None)
            if future is not None:
                future.set_result(payload)


def deploy_pipeline(
    sim: Simulator,
    agent: DeploymentAgent,
    spec: PipelineSpec,
    placement: dict[str, ThinServer],
    key: str,
) -> Process:
    """Deploy ``spec`` with components placed per ``placement``.

    Returns a process future that resolves to the pipeline name once every
    bundle is deployed and every edge wired; it fails on the first refusal.
    """
    spec.validate()
    missing = {c.name for c in spec.components} - set(placement)
    if missing:
        raise ValueError(f"no placement for components: {sorted(missing)}")

    def run():
        for component in spec.components:
            bundle = make_bundle(
                name=component.name,
                component=component.component,
                params=dict(component.params),
                capabilities=component.capabilities,
                key=key,
            )
            ack = yield agent.fire(placement[component.name].addr, bundle)
            if not ack.ok:
                raise BundleError(
                    f"deployment of {component.name!r} refused: {ack.error}"
                )
        for edge in spec.edges:
            src_server = placement[edge.src]
            dst_server = placement[edge.dst]
            if src_server is dst_server:
                ack = yield agent.connect_local(src_server.addr, edge.src, edge.dst)
            else:
                ack = yield agent.connect_remote(
                    src_server.addr, edge.src, dst_server.addr, edge.dst
                )
            if not ack.ok:
                raise BundleError(
                    f"wiring {edge.src}->{edge.dst} refused: {ack.error}"
                )
        return spec.name

    return spawn(sim, run(), name=f"deploy-{spec.name}")
