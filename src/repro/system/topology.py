"""Topology builders: the Fig. 2-2 campus out of substrate parts.

"Vice is composed of a collection of semi-autonomous Clusters connected
together by a backbone LAN... Each cluster consists of a collection of
Virtue workstations and a representative of Vice called a Cluster Server."

These builders create exactly that shape: one segment per cluster, a
backbone segment, one bridge per cluster, one :class:`ViceServer` per
cluster, and the configured number of workstations per cluster whose home
(cluster) server is their own cluster's.
"""

from __future__ import annotations

from typing import List

from repro.net.topology import Network
from repro.hosts import Host
from repro.rpc.costs import RpcCosts
from repro.sim.kernel import Simulator
from repro.system.config import SystemConfig
from repro.vice.server import ViceServer
from repro.virtue.workstation import Workstation


def rpc_costs_for(config: SystemConfig) -> RpcCosts:
    """The configured RPC cost model, defaulting by implementation mode."""
    if config.rpc_costs is not None:
        return config.rpc_costs
    costs = RpcCosts.prototype() if config.mode == "prototype" else RpcCosts.revised()
    if config.replication is not None:
        # Replicated campuses exist to ride through failures: fixed-interval
        # retransmission hammers a dead or partitioned server in lockstep,
        # so give them exponential backoff with seeded jitter by default.
        costs = costs.with_(retransmit_backoff=2.0, retransmit_jitter=0.1)
    return costs

__all__ = ["build_network", "build_servers", "build_workstations", "cluster_segment", "server_name"]


def cluster_segment(index: int) -> str:
    """Canonical segment name for a cluster."""
    return f"cluster{index}"


def server_name(index: int) -> str:
    """Canonical name of a cluster's server."""
    return f"server{index}"


def workstation_name(cluster: int, index: int) -> str:
    """Canonical name of a workstation within a cluster."""
    return f"ws{cluster}-{index}"


def build_network(sim: Simulator, config: SystemConfig) -> Network:
    """Backbone plus one bridged segment per cluster."""
    network = Network(sim)
    network.add_segment("backbone", bandwidth_bps=config.backbone_bandwidth_bps)
    for cluster in range(config.clusters):
        name = cluster_segment(cluster)
        network.add_segment(name, bandwidth_bps=config.cluster_bandwidth_bps)
        network.add_bridge(f"bridge{cluster}", name, "backbone")
    return network


def build_servers(
    sim: Simulator, network: Network, config: SystemConfig, service_key: bytes
) -> List[ViceServer]:
    """One cluster server per cluster, knowing about all its peers."""
    servers: List[ViceServer] = []
    for cluster in range(config.clusters):
        host = Host(
            sim,
            network,
            server_name(cluster),
            cluster_segment(cluster),
            cpu_speed=config.server_cpu_speed,
        )
        server = ViceServer(
            host,
            mode=config.mode,
            validation_mode=config.validation,
            costs=config.vice_costs,
            rpc_costs=rpc_costs_for(config),
            encryption=config.encryption,
            service_key=service_key,
            max_server_processes=config.max_server_processes,
            functional_payload_crypto=config.functional_payload_crypto,
        )
        servers.append(server)
    names = [s.host.name for s in servers]
    for server in servers:
        server.all_servers = list(names)
    return servers


def build_workstations(
    sim: Simulator, network: Network, config: SystemConfig
) -> List[Workstation]:
    """The configured workstations, homed on their cluster's server."""
    workstations: List[Workstation] = []
    for cluster in range(config.clusters):
        for index in range(config.workstations_per_cluster):
            workstation = Workstation(
                sim,
                network,
                workstation_name(cluster, index),
                cluster_segment(cluster),
                cluster_server=server_name(cluster),
                mode=config.mode,
                validation=config.validation,
                cpu_speed=config.workstation_cpu_speed,
                cache_max_files=config.cache_max_files,
                cache_max_bytes=config.cache_max_bytes,
                venus_costs=config.venus_costs,
                rpc_costs=rpc_costs_for(config),
                encryption=config.encryption,
                functional_payload_crypto=config.functional_payload_crypto,
                write_policy=config.write_policy,
                flush_delay=config.flush_delay,
                flush_retry_limit=config.flush_retry_limit,
            )
            workstations.append(workstation)
    return workstations
