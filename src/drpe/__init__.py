"""DRP-E: single-drone routing with energy replenishment at a (mobile)
station — solvers, baselines, instance generator and benchmark harness."""

from .model import (
    BaseCostModel,
    DroneTour,
    DrpeError,
    InfeasibleError,
    Instance,
    InvalidOperationError,
    Operation,
    RechargingLeg,
    SchemaError,
    SizeGuardError,
    TimeLimitError,
    TourStructureError,
    check_instance,
    operation_flight_time,
    tour_makespan,
    validate_tour,
)
from .oracle import enumerate_bs_neighbors, is_bs_neighbor, split_optimal
from .opsgraph import OperationCostTable, build_ops_graph
from .metagraph import (
    MetaPattern,
    TransitionLookup,
    count_bs_sequences,
    enumerate_valid_patterns,
    get_transition_lookup,
    solve_meta,
)
from .search import SearchConfig, rts, shifted_permutations, vlsn, vlsn_ls, vlsn_vnd
from .exact import solve_exact
from .baselines import (
    BaselineConfig,
    initial_tsp_sequence,
    limop,
    rts_3nn,
    sa_rts_3opt,
)
from .generator import (
    GeneratorSetting,
    all_settings,
    generate,
    get_setting,
    random_instance,
)
from .io import load_instance, load_solution, save_instance, save_solution
from .energy import (
    DroneEnergyParams,
    ExtendedCostModel,
    ExtendedCosts,
    battery_current,
    case_study_instance,
    pract,
)
from .reports import SolveReport

__version__ = "0.1.0"
