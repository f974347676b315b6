"""Matchings, deficiency bounds and charging-scheme verification for 1-planar graphs."""

from .bounds import (
    BoundCheck,
    CertReport,
    ChargeLedger,
    ChargeReport,
    DegreeClassCount,
    certify_matching_bound,
    charge_verify,
    charging_run,
    check_cw_degree_bound,
    check_degree_bound,
    check_deficiency,
    check_min_odd_component_size,
    degree_classes,
    reduce_components,
    write_ledger,
)
from .embedding import (
    Face,
    OnePlanarDrawing,
    bigons,
    check_bipartite_edge_budget,
    crossing_partition,
    crossing_weighted_degree,
    drawing_from_faces,
    faces,
    parse_drawing,
    validate,
    write_drawing,
)
from .generators import (
    FamilyInstance,
    check_instance,
    cube_block_drawing,
    family_delta3,
    family_delta4,
    family_delta4_k5,
    family_delta5,
    family_delta6,
    family_delta7,
    k6_drawing,
    mindeg7_block_drawing,
    parse_witness,
    random_oneplanar,
    stacked_quadrangulation,
    stacked_triangulation,
    write_witness,
)
from .graph import (
    Graph,
    build_graph,
    is_independent,
    min_degree,
    odd_components,
    parse_graph,
    write_graph,
)
from .matcher import (
    DeficiencyWitness,
    Matching,
    matching_upper_from_witness,
    maximum_matching,
    tutte_berge_bruteforce,
)

__version__ = "0.1.0"
