"""Topologies: placement, propagation, synthetic traces, conflict graphs.

Substitutes the paper's measured 40-node two-building RSS trace with a
synthetic one (:func:`two_building_trace`) and encodes the canonical
figure topologies (Fig. 1, Fig. 7, Fig. 13a/b, the USRP scenarios)
whose hearing/conflict semantics the paper specifies exactly.
"""

from .builder import (Topology, TopologyError, build_t_topology,
                      fig1_topology, fig7_topology, fig13a_topology,
                      fig13b_topology, random_t_topology, usrp_pair_topology)
from .interference_map import InterferenceMap, RssTable
from .conflict_graph import (build_conflict_graph, greedy_maximal_extension,
                             hearing_graph, is_independent_set,
                             two_hop_graph)
from .links import Link
from .measurement import (ObservationStore, beacon_rounds,
                          campaign_overhead_fraction, validate_rounds)
from .mobility import move_node
from .placement import (Building, TwoBuildingLayout, grid_placement,
                        random_placement, two_building_placement)
from .propagation import NS3_DEFAULT, LogDistanceModel, matrix_rss_fn
from .trace import (ROP_TOLERANCE_DB, SyntheticTrace, manual_trace,
                    two_building_trace)

__all__ = [
    "Building", "Link", "LogDistanceModel",
    "NS3_DEFAULT", "ObservationStore", "ROP_TOLERANCE_DB",
    "SyntheticTrace", "Topology", "TopologyError", "TwoBuildingLayout",
    "beacon_rounds", "build_conflict_graph", "build_t_topology",
    "campaign_overhead_fraction", "fig13a_topology", "fig13b_topology",
    "fig1_topology", "fig7_topology", "greedy_maximal_extension",
    "grid_placement", "hearing_graph", "InterferenceMap", "is_independent_set",
    "manual_trace", "matrix_rss_fn", "move_node",
    "random_placement", "random_t_topology", "RssTable",
    "two_building_placement",
    "two_building_trace", "two_hop_graph", "usrp_pair_topology",
    "validate_rounds",
]
