"""Markov chain quasi-Monte Carlo laboratory.

Driver sequences in place of i.i.d. uniforms, star and pull-back
discrepancies with exact and bracketed evaluation, delta-covers, the
closed-form error bounds, a Metropolis ball walk with invertible updates,
and driver search / construction on top.
"""

__version__ = "0.1.0"

from .core import (
    BallDomain,
    BoxDomain,
    Rng,
    TargetMeasure,
    exp_linear_ball,
    exp_linear_box,
    exp_linear_interval,
    halton_sequence,
    uniform_ball,
    uniform_box,
    uniform_driver,
    uniform_interval,
)
from .chain import (
    ChainSystem,
    make_direct_kernel,
    make_lazy_direct_kernel,
    run_chains,
)
from .discrepancy import (
    DeltaCover,
    DiscrepancyReport,
    H1Function,
    build_quantile_cover,
    kh_error_bound,
    pullback_discrepancy_mc,
    star_discrepancy_bracket,
    star_discrepancy_exact,
)
from .bounds import (
    ballwalk_gap_bound,
    beck_bound,
    corollary_main_bound,
    hoeffding_tail,
    main_discrepancy_bound,
    tv_average_bound,
)
from .ballwalk import (
    BallWalkParams,
    ball_generator,
    invert_update,
    make_metropolis_system,
)
from .search import SearchConfig, SearchResult, best_of_k, invert_to_target, rate_study
