"""netforge: synthesis of optimal transportation networks on graphs.

Minimizes a convex transport energy (pumping plus metabolic cost, constrained
by vertex flow conservation) over edge conductivities, optionally rewarding
network robustness through the Fiedler number of the conductivity-weighted
Laplacian, via a projected subgradient method.  Spanning-tree constructions,
spectral bounds and two closed-form benchmark triangles serve as independent
cross-checks.
"""

from .datasets import leaf_network, seven_node_network
from .energy import (
    EnergyBreakdown,
    energy,
    energy_gradient,
    kinetic_bound_check,
)
from .errors import (
    DisconnectedGraphError,
    DisconnectedSupportError,
    DuplicateEdgeError,
    IllConditionedError,
    NetforgeError,
    NetworkValidationError,
    NonFiniteError,
    NonpositiveLengthError,
    NonSymmetricError,
    SelfLoopError,
    TooLargeError,
    TooManyTreesError,
    UnbalancedSourcesError,
)
from .graph import (
    Conductivities,
    ModelParams,
    Network,
    active_edges,
    edge_values,
    new_network,
    support_components,
)
from .io import (
    load_conductivities,
    load_graph,
    render_svg,
    save_conductivities,
    save_graph,
    save_svg,
    write_sweep_csv,
    write_trace_csv,
)
from .kirchhoff import (
    FlowSolution,
    solve_kirchhoff,
)
from .optimizer import (
    OptimConfig,
    OptimRun,
    TraceRecord,
    modified_energy,
    optimize,
    robustness_coefficient,
    subgradient_step,
    sweep_mu,
)
from .spectral import (
    SpectralResult,
    cheeger_bruteforce,
    fiedler_subgradient,
    laplacian,
    spectral_decompose,
)
from .toy_models import (
    ToyOptimum,
    toy1_network,
    toy1_optimum,
    toy2_network,
    toy2_optimum,
)
from .trees import (
    SpanningTree,
    TreeSolution,
    enumerate_spanning_trees,
    global_tree_search,
    is_loop_free,
    make_spanning_tree,
    spanning_tree_count,
    tree_local_minimizer,
)

__version__ = "0.1.0"
