"""Exact symbolic dynamics on eventually periodic binary sequences.

Layers, bottom up: :mod:`epshift.epcore` (eventually periodic subsets of
the naturals and their finite set algebras), :mod:`epshift.dynamics` (the
shift system, recurrence and proximality certificates, AET solvers),
:mod:`epshift.ipcore` (finite-sums machinery, certified IP sequences,
Hindman searches), :mod:`epshift.filters` (partial minimal idempotent
ultrafilters over finite algebras), and :mod:`epshift.cli`.

The names most tasks need are re-exported here; anything certificate- or
report-shaped lives in its home module.
"""

from __future__ import annotations

from .epcore import (
    EMPTY,
    FULL,
    Algebra,
    CapacityError,
    ConstructionError,
    EpSet,
    GapCertificate,
    InputError,
    LiteralError,
    generate_algebra,
)
from .dynamics import (
    AetPairError,
    BlockCode,
    SymbolicPoint,
    ae_solve,
    apply_block_code,
    are_proximal,
    covering_bound,
    distance_exponent,
    eaet_extend,
    eaet_prime,
    encode_point,
    is_uniformly_recurrent,
    orbit_closure,
    shift,
)
from .ipcore import (
    IpGenerator,
    PartitionError,
    aet_to_iht_pipeline,
    fs_enumerate,
    hindman_search,
    iht_search,
    ip_limit_check,
    ip_sequence_construct,
    verify_ip_certificate,
)
from .filters import (
    PartialUltrafilter,
    build_partial_ultrafilter,
    central_check,
    extend_filter,
    filter_member,
    translate_membership_set,
    ultralimit,
    verify_filter,
)

__all__ = [
    "EMPTY",
    "FULL",
    "AetPairError",
    "Algebra",
    "BlockCode",
    "CapacityError",
    "ConstructionError",
    "EpSet",
    "GapCertificate",
    "InputError",
    "IpGenerator",
    "LiteralError",
    "PartialUltrafilter",
    "PartitionError",
    "SymbolicPoint",
    "ae_solve",
    "aet_to_iht_pipeline",
    "apply_block_code",
    "are_proximal",
    "build_partial_ultrafilter",
    "central_check",
    "covering_bound",
    "distance_exponent",
    "eaet_extend",
    "eaet_prime",
    "encode_point",
    "extend_filter",
    "filter_member",
    "fs_enumerate",
    "generate_algebra",
    "hindman_search",
    "iht_search",
    "ip_limit_check",
    "ip_sequence_construct",
    "is_uniformly_recurrent",
    "orbit_closure",
    "shift",
    "translate_membership_set",
    "ultralimit",
    "verify_filter",
    "verify_ip_certificate",
]

__version__ = "0.1.0"
