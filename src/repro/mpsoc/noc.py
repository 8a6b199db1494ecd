"""Network-on-Chip interconnect (Section 3.3).

An xpipes-class NoC: network interfaces (NIs) translate OCP bursts from
the memory-controller bridges into wormhole packets; switches with small
output buffers forward flits over 32-bit links; routing is static
shortest-path (XY on meshes), precomputed into per-switch tables the way
``XpipesCompiler`` instantiates application-specific NoCs.

Timing model (fast path): the head flit pays ``ni_latency`` for
packetization, ``hop_latency + link_latency`` per hop, and contends for
links whose occupancy is tracked with per-link busy times (a packet of F
flits holds each traversed link for F cycles — wormhole serialization).
The signal-level engine in :mod:`repro.emulation.cycle_accurate` moves
individual flits cycle by cycle instead.

:func:`generate_mesh` and :func:`generate_custom` play the role of the
XpipesCompiler topology generator.
"""

from dataclasses import dataclass

from repro.mpsoc import events as ev
from repro.mpsoc.events import CounterBlock, Observable
from repro.mpsoc.ocp import CMD_READ, CMD_WRITE, OcpRequest


@dataclass
class NocConfig:
    """Static description of one NoC instance."""

    name: str
    switches: list
    links: list  # (switch_a, switch_b) bidirectional pairs
    flit_width_bits: int = 32
    buffer_flits: int = 3
    hop_latency: int = 2
    link_latency: int = 1
    ni_latency: int = 2

    def __post_init__(self):
        if not self.switches:
            raise ValueError(f"{self.name}: NoC needs at least one switch")
        known = set(self.switches)
        if len(known) != len(self.switches):
            raise ValueError(f"{self.name}: duplicate switch names")
        for a, b in self.links:
            if a not in known or b not in known:
                raise ValueError(f"{self.name}: link ({a}, {b}) references unknown switch")
            if a == b:
                raise ValueError(f"{self.name}: self-link on {a}")
        if self.buffer_flits < 1:
            raise ValueError(f"{self.name}: buffers must hold at least one flit")

    def to_dict(self):
        return {
            "name": self.name,
            "switches": list(self.switches),
            "links": [list(link) for link in self.links],
            "flit_width_bits": self.flit_width_bits,
            "buffer_flits": self.buffer_flits,
            "hop_latency": self.hop_latency,
            "link_latency": self.link_latency,
            "ni_latency": self.ni_latency,
        }

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data["links"] = [tuple(link) for link in data.get("links", [])]
        return cls(**data)

    def graph(self):
        """Adjacency ``{switch: [neighbours]}``; switches and each
        neighbour list keep first-insertion order (duplicate links
        collapse), which fixes the routing tie-breaks."""
        adjacency = {switch: [] for switch in self.switches}
        for a, b in self.links:
            if b not in adjacency[a]:
                adjacency[a].append(b)
                adjacency[b].append(a)
        return adjacency


def _shortest_paths(adjacency, source):
    """Level-order BFS from ``source``: ``{switch: path}`` for every
    reachable switch, taking the first path found on each level (the
    tie-break of ``networkx.single_source_shortest_path``)."""
    paths = {source: [source]}
    level = [source]
    while level:
        following = []
        for node in level:
            for neighbour in adjacency[node]:
                if neighbour not in paths:
                    paths[neighbour] = paths[node] + [neighbour]
                    following.append(neighbour)
        level = following
    return paths


class Noc(Observable):
    """Fast timed-transaction NoC sharing the :class:`Bus` transfer API."""

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.name = config.name
        self.counters = CounterBlock(config.name)
        self._graph = config.graph()
        self._endpoints = {}  # endpoint name -> switch
        self._routes = {}  # (src switch, dst switch) -> [switches]
        self._link_busy = {}  # (a, b) directed -> busy-until cycle
        self.switch_flits = {s: 0 for s in config.switches}
        self.link_flits = {}
        self.per_master_wait = {}
        self.masters = []
        self._precompute_routes()

    def _precompute_routes(self):
        for src in self._graph:
            paths = _shortest_paths(self._graph, src)
            if len(paths) < len(self._graph):
                raise ValueError(f"{self.name}: topology is not connected")
            for dst, path in paths.items():
                self._routes[(src, dst)] = path

    # -- topology / attachment ---------------------------------------------
    def register_endpoint(self, name, switch):
        """Attach an NI for ``name`` (a core bridge or a memory bridge)."""
        if switch not in self.switch_flits:
            raise ValueError(f"{self.name}: unknown switch {switch!r}")
        if name in self._endpoints:
            raise ValueError(f"{self.name}: endpoint {name!r} already attached")
        self._endpoints[name] = switch
        return name

    def register_master(self, name, switch=None):
        """Bus-compatible master registration; returns the master id."""
        master_id = len(self.masters)
        self.masters.append(name)
        self.per_master_wait[master_id] = 0
        if switch is not None:
            self.register_endpoint(name, switch)
        return master_id

    def endpoint_switch(self, name):
        return self._endpoints[name]

    def switch_radix(self, switch):
        """Channels on a switch: inter-switch links + attached NIs."""
        degree = len(self._graph[switch])
        nis = sum(1 for s in self._endpoints.values() if s == switch)
        return degree + nis

    def route(self, src_endpoint, dst_endpoint):
        """Switch path between two endpoints (for tests and reports)."""
        src = self._endpoints[src_endpoint]
        dst = self._endpoints[dst_endpoint]
        return list(self._routes[(src, dst)])

    # -- fast timed transfer ---------------------------------------------------
    def _traverse(self, path, nflits, t):
        """Send one packet's flits along ``path``; returns tail arrival time.

        Wormhole: the head advances hop by hop, stalling on busy links;
        each traversed link stays occupied for ``nflits`` cycles behind
        the head (flits stream in its wake).
        """
        cfg = self.config
        head_t = t + cfg.ni_latency
        for a, b in zip(path, path[1:]):
            link = (a, b)
            free_t = self._link_busy.get(link, 0)
            head_t = max(head_t, free_t) + cfg.hop_latency + cfg.link_latency
            self._link_busy[link] = head_t + nflits - 1
            self.link_flits[link] = self.link_flits.get(link, 0) + nflits
            self.switch_flits[b] += nflits
        if path:
            self.switch_flits[path[0]] += nflits
        # Tail flit arrives nflits-1 cycles behind the head, plus the
        # depacketization latency at the destination NI.
        return head_t + nflits - 1 + cfg.ni_latency

    def transfer(self, master_id, slave, addr, is_write, nwords, t):
        """Execute one OCP burst over the NoC; returns total latency.

        ``slave`` must expose ``name``/``access_latency``/``record_access``
        and have been attached with :meth:`register_endpoint`.
        """
        if not 0 <= master_id < len(self.masters):
            raise ValueError(f"{self.name}: unknown master id {master_id}")
        master_name = self.masters[master_id]
        request = OcpRequest(
            master=master_name,
            cmd=CMD_WRITE if is_write else CMD_READ,
            addr=addr,
            burst_len=nwords,
        )
        path = self.route(master_name, slave.name)
        req_arrival = self._traverse(path, request.request_flits(), t)
        # Memory service at the destination.
        service_start = max(req_arrival, getattr(slave, "port_busy_until", 0))
        service_done = service_start + slave.access_latency(nwords)
        slave.port_busy_until = service_done
        slave.record_access(service_start, is_write, nwords)
        # Response packet back to the master.
        resp_done = self._traverse(
            list(reversed(path)), request.response_flits(), service_done
        )
        latency = resp_done - t
        total_flits = request.request_flits() + request.response_flits()
        self.counters.add(ev.NOC_PACKET, 2)
        self.counters.add(ev.NOC_FLIT, total_flits)
        self.counters.add("ocp_transactions")
        if self.has_hooks:
            self.emit(t, self.name, ev.NOC_PACKET, (master_name, slave.name, nwords))
        return latency

    # -- statistics ------------------------------------------------------------
    def stats(self):
        return {
            "packets": self.counters.get(ev.NOC_PACKET),
            "flits": self.counters.get(ev.NOC_FLIT),
            "ocp_transactions": self.counters.get("ocp_transactions"),
            "switch_flits": dict(self.switch_flits),
            "link_flits": dict(self.link_flits),
        }


def generate_mesh(name, rows, cols, **kwargs):
    """Generate a ``rows x cols`` mesh NoC (XY-minimal shortest paths)."""
    if rows < 1 or cols < 1:
        raise ValueError("mesh dimensions must be positive")
    switches = [f"sw{r}_{c}" for r in range(rows) for c in range(cols)]
    links = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append((f"sw{r}_{c}", f"sw{r}_{c + 1}"))
            if r + 1 < rows:
                links.append((f"sw{r}_{c}", f"sw{r + 1}_{c}"))
    return NocConfig(name=name, switches=switches, links=links, **kwargs)


def generate_custom(name, num_switches, extra_links=(), ring=True, **kwargs):
    """Generate an application-specific topology the XpipesCompiler way.

    ``num_switches`` switches named ``sw0..swN-1`` connected in a ring
    (or a chain when ``ring=False``) plus any ``extra_links`` given as
    ``(i, j)`` switch-index pairs.
    """
    if num_switches < 1:
        raise ValueError("need at least one switch")
    switches = [f"sw{i}" for i in range(num_switches)]
    links = []
    for i in range(num_switches - 1):
        links.append((f"sw{i}", f"sw{i + 1}"))
    if ring and num_switches > 2:
        links.append((f"sw{num_switches - 1}", "sw0"))
    for i, j in extra_links:
        links.append((f"sw{i}", f"sw{j}"))
    return NocConfig(name=name, switches=switches, links=links, **kwargs)
