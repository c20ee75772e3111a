"""Nodes: an AP or a client, binding a radio, a MAC and traffic queues.

Node ids are small integers; the topology layer assigns them.  The
association structure (which client belongs to which AP) lives here
because both the schedulers and the MACs need it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from .medium import Medium
from .radio import Radio

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mac.base import Mac


class NodeKind(enum.Enum):
    AP = "ap"
    CLIENT = "client"


@dataclass
class Node:
    """A wireless node.

    Attributes
    ----------
    node_id:
        Unique integer id, also the radio's id on the medium.
    kind:
        AP or CLIENT.
    ap_id:
        For clients, the id of the associated AP; ``None`` for APs.
    pos:
        Optional (x, y) metres, for synthetic propagation.
    """

    node_id: int
    kind: NodeKind
    ap_id: Optional[int] = None
    pos: Optional[Tuple[float, float]] = None
    radio: Optional[Radio] = None
    mac: Optional["Mac"] = None

    @property
    def is_ap(self) -> bool:
        return self.kind is NodeKind.AP

    def attach(self, medium: Medium) -> Radio:
        """Create and register this node's radio on ``medium``.

        A node may be re-attached for a fresh run: the topology object
        is a description, so each simulation gets its own radio and
        the stale MAC binding is dropped.
        """
        self.radio = Radio(self.node_id, medium)
        self.mac = None
        return self.radio

    def bind_mac(self, mac: "Mac") -> None:
        """Connect a MAC to this node's radio (radio must exist)."""
        if self.radio is None:
            raise RuntimeError(f"node {self.node_id} has no radio")
        self.mac = mac
        self.radio.mac = mac

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, {self.kind.value}, ap={self.ap_id})"


class Network:
    """The node population of one simulation run."""

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}

    def add(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        return node

    def add_ap(self, node_id: int, pos: Optional[Tuple[float, float]] = None) -> Node:
        return self.add(Node(node_id, NodeKind.AP, pos=pos))

    def add_client(self, node_id: int, ap_id: int,
                   pos: Optional[Tuple[float, float]] = None) -> Node:
        if ap_id not in self.nodes or not self.nodes[ap_id].is_ap:
            raise ValueError(f"client {node_id} references unknown AP {ap_id}")
        return self.add(Node(node_id, NodeKind.CLIENT, ap_id=ap_id, pos=pos))

    @property
    def aps(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_ap]

    @property
    def clients(self) -> List[Node]:
        return [n for n in self.nodes.values() if not n.is_ap]

    def clients_of(self, ap_id: int) -> List[Node]:
        return [n for n in self.clients if n.ap_id == ap_id]

    def ap_of(self, node_id: int) -> int:
        """The AP governing ``node_id`` (itself if it is an AP)."""
        node = self.nodes[node_id]
        return node.node_id if node.is_ap else node.ap_id  # type: ignore[return-value]

    def attach_all(self, medium: Medium) -> None:
        for node in self.nodes.values():
            node.attach(medium)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes.values())
