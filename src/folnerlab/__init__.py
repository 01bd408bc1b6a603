"""folnerlab: growth, shells, and ergodic averages on doubling graphs and groups.

The package measures how ball volumes grow in unit-edge graphs and finitely
generated groups, estimates the constants that control that growth (doubling,
shell comparison, monotone-geodesic reach), verifies the polynomial
sphere-decay bound those constants imply, and traces the resulting Folner
and ball-averaging behavior.  Everything that can be exact is exact: volumes
are integers, ratios are fractions, and floats appear only in fits and
logarithms.
"""

from .analysis import (
    DyadicSelection,
    GrowthFit,
    RecursionAudit,
    ShellReport,
    SphereBoundReport,
    abelian_isop_check,
    delta_from_alpha,
    doubling_constant,
    dyadic_subsequence,
    growth_exponent_fit,
    lemma_recursion_audit,
    shell_alpha,
    verify_sphere_bound,
)
from .config import ExperimentConfig, load_config, validate_config
from .ergodic import GOLDEN_ANGLES, ErgodicTrace, TorusAction, ergodic_trace
from .errors import (
    BudgetExceededError,
    ConfigError,
    GraphFormatError,
    NotGeneratingError,
)
from .generators import (
    StairwayStrip,
    TreeChainSpec,
    WordBall,
    cayley_ball,
    heisenberg_graph,
    lattice_graph,
    norm_profile,
    stairway_strip,
    stretched_tree_chain,
    word_ball,
)
from .graphio import dump_graph, load_graph, parse_graph
from .groups import GroupModel, check_generates, heisenberg_model, zd_model
from .products import (
    ProductSequence,
    folner_ratios,
    product_powers,
    product_with_powers,
    shell_inclusion_check,
    varying_products,
)
from .recipes import RECIPES, recipe
from .runner import ExperimentResult, build_space, reproduce, run_experiment
from .space import (
    GeodesicChain,
    Graph,
    VolumeProfile,
    bfs_distances,
    monotone_geodesic,
    property_m_constant,
    sample_centers,
    separated_net,
    volume_profile,
)

__version__ = "0.1.0"
