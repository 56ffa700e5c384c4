"""Separating path systems for trees and binomial random graphs.

Construct provably minimum edge-separating systems for any tree, bounded
vertex-separating systems, the log-sized systems for dense random graphs,
verify them against the ground-truth checker or the exact brute-force
oracle, and decode single network faults from path-probe outcomes.
"""

from .errors import SepPathError
from .trees import (
    Bunch,
    Edge,
    PathInTree,
    Tree,
    TreeProfile,
    canonical_form,
    dfs_leaf_order,
    edge,
    emit_dot,
    find_isomorphism,
    parse_tree,
    path_of,
    profile,
    random_tree,
    serialize_tree,
    unique_path,
)
from .verify import (
    PathSystem,
    TargetKind,
    TargetSet,
    Verdict,
    check,
    covers,
    incidence,
    kisses,
    make_system,
    parse_paths,
    separates,
    serialize_paths,
    signatures,
)
from .oracle import (
    OracleResult,
    enumerate_paths,
    enumerate_trees,
    exists_family,
    min_separating,
)
from .edge_systems import (
    abc_construction,
    bunch_construction,
    edge_formula,
    edge_system,
    edge_target_size,
    planar_construction,
)
from .vertex_systems import (
    sharp_value,
    sliding_window_cover,
    vertex_interior_system,
    vertex_lower_bound,
    vertex_system,
    vertex_upper_formula,
)
from .random_graphs import (
    ExperimentConfig,
    ExperimentStats,
    Graph,
    SetSystem,
    gen_gnp,
    isolated_count,
    random_vertex_system,
    run_experiment,
    separating_set_system,
)
from .faults import (
    Diagnosis,
    ProbeReport,
    decode,
    decoder,
    signature_table,
    simulate_probes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
