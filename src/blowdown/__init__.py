"""Exact-arithmetic tools for chain blowdowns of smooth 4-manifolds.

The package tracks three layers of structure and keeps every number a
Fraction or an int:

  * lattice / moduli: the linear plumbing of a blowdown chain, its relative
    homology with boundary residues, and the closed-form dimensions of the
    reducible loci that obstruct gluing arguments.
  * exppoly / transform: finite exponential sums over an intersection
    lattice, the series calculus they support, and the surgery moves
    (blowup, log transform, chain blowdown) acting on them.
  * swinv / catalog / suites / cli: basic-class maps with the same surgery
    moves, a catalog of named families walked into surgery plans and built
    along two independent routes, the verification suites, and a
    command-line front end that replays every comparison.
"""

from .catalog import (
    BlowupSpec,
    EllipticSpec,
    HpSumSpec,
    HSpec,
    LogSpec,
    SpecParseError,
    WSpec,
    YSpec,
    adjunction_audit,
    donaldson_closed_form,
    donaldson_pipeline,
    parse_spec,
    render,
    replay,
    surgery_plan,
    sw_closed_form,
    sw_covered,
    sw_replay,
)
from .exppoly import (
    ExpKernel,
    coeff_sum,
    cosh_c,
    directional_derivative,
    exact_div,
    exp_c,
    parity,
    refine_lattice,
    sinh_c,
    twist,
)
from .lattice import (
    ChainConfig,
    HClass,
    IntersectionLattice,
    QClass,
    RelClass,
    Residue,
    boundary,
    boundary_residue_class,
    chain_lattice,
    characteristic_square,
    diagonal_lattice,
    is_characteristic,
    pairing,
    plumbing_inverse,
    plumbing_matrix,
    rel_pairing,
)
from .moduli import (
    CanonicalClass,
    DimReport,
    canonical_tb,
    corr,
    dim_moduli,
    dim_report,
    e_square,
    general_e_square,
    min_dim_search,
    mod2_lift_exists,
    rho_half_closed_form,
    verify_boundary_value_lemmas,
)
from .reporting import CheckReport
from .swinv import (
    SWMap,
    sw_blowup,
    sw_dim,
    sw_dim_shift,
    sw_en,
    sw_log_transform,
    sw_simple_type,
    sw_taut_blowdown,
    witten_check,
    witten_exponent,
    witten_kernel,
)
from .transform import (
    BlowdownResult,
    ClassRecord,
    ManifoldSeries,
    RestrictedClass,
    blowup,
    check_adjunction,
    check_sphere_relation,
    check_taut,
    connected_sum_hp,
    formal_log_coefficients,
    log_transform,
    nodal_log_pipeline,
    p2_blowdown,
    restrict_class,
    taut_blowdown,
    verify_nodal_matrix_identity,
)

__version__ = "0.1.0"
