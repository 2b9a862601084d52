"""Verification toolkit for Ramanujan theta-function products.

Exact formal-series and arbitrary-precision numeric machinery for P-Q
eta-quotient modular equations, Weber-Ramanujan class invariants, and the
closed-form evaluation of the theta products a(m,n) and b(m,n).
"""
from __future__ import annotations

__version__ = "0.1.0"

from .series import (  # noqa: F401
    LATTICE,
    PowerSeries,
    SeriesCheck,
    add,
    add_scalar,
    check_entry24,
    invert,
    mul,
    pow_int,
    scalar_mul,
    scale_argument,
    series_f,
    series_phi,
    series_psi,
    shift,
    sub,
)
from .precision import (  # noqa: F401
    PrecisionError,
    PrecisionSpec,
    RealValue,
    compute_checked,
    digits_agreed,
)
from .quotient import BLOCK_KINDS, EtaFactor, EtaQuotient  # noqa: F401
from .blocks import (  # noqa: F401
    Nome,
    eval_block,
    eval_eta_quotient,
    eval_series_at,
    nome,
)
from .relation import Poly2, RelationError, parse_relation  # noqa: F401
from .catalogue import (  # noqa: F401
    CatalogueError,
    IdentityRecord,
    find_record,
    load_builtin,
    parse_catalogue,
)
from .verify import (  # noqa: F401
    Residual,
    default_probes,
    default_tolerance,
    verify_multiplier13,
    verify_numeric,
    verify_series,
)
from .products import (  # noqa: F401
    CrossFormError,
    ProductValue,
    a_numeric,
    b_numeric,
)
from .radicals import (  # noqa: F401
    CorollaryCheck,
    CorollaryRecord,
    RadicalError,
    eval_radical,
    load_builtin_registry,
    parse_radical,
    parse_registry,
    registry_find,
    verify_corollary,
)
from .invariants import (  # noqa: F401
    COMPANIONS,
    G_numeric,
    InvariantValue,
    RootSelectionError,
    g_numeric,
    registry_lookup,
    solve_companion,
)
from .pipeline import (  # noqa: F401
    FAMILIES,
    LambdaValue,
    ReproduceReport,
    SolvedPair,
    family_for_degree,
    lambda_value,
    reproduce_corollary,
    reproduce_ids,
    solve_pair,
)
from .report import CheckRecord, RunReport, render_text  # noqa: F401
