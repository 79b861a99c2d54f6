"""City-scale control plane: sharded portals, placement, migration.

See ``docs/CONTROL_PLANE.md`` for the component map, the placement
policy contract, and the migration state machine.
"""

from repro.cloud.controlplane.errors import (
    ControlPlaneConfigError,
    ControlPlaneError,
    DroneStateError,
    MigrationAbortedError,
    MigrationError,
    MigrationStateError,
    MigrationTargetError,
    NoFeasiblePlacementError,
    PlacementError,
    UnknownDroneError,
    UnknownShardError,
)
from repro.cloud.controlplane.fleet import (
    WHITELIST_CLASSES,
    DroneSpec,
    DroneState,
    FleetDirectory,
    PlacedTenant,
    whitelist_rank,
)
from repro.cloud.controlplane.migration import (
    TRANSITIONS,
    MigrationCoordinator,
    MigrationState,
    MigrationTicket,
)
from repro.cloud.controlplane.placement import (
    PLACERS,
    BinPackingPlacer,
    FirstFitPlacer,
    PlacementDecision,
    PlacementPolicy,
    PlacementRequest,
    feasible,
    make_placer,
)
from repro.cloud.controlplane.plane import (
    TENANT_STATES,
    CityControlPlane,
    TenantRecord,
)
from repro.cloud.controlplane.ring import ConsistentHashRouter
from repro.cloud.controlplane.shard import ORDER_STRIDE, ControlPlaneShard

__all__ = [
    "ControlPlaneError",
    "ControlPlaneConfigError",
    "UnknownShardError",
    "UnknownDroneError",
    "DroneStateError",
    "PlacementError",
    "NoFeasiblePlacementError",
    "MigrationError",
    "MigrationStateError",
    "MigrationTargetError",
    "MigrationAbortedError",
    "WHITELIST_CLASSES",
    "whitelist_rank",
    "DroneSpec",
    "DroneState",
    "PlacedTenant",
    "FleetDirectory",
    "ConsistentHashRouter",
    "PlacementRequest",
    "PlacementDecision",
    "PlacementPolicy",
    "BinPackingPlacer",
    "FirstFitPlacer",
    "PLACERS",
    "make_placer",
    "feasible",
    "MigrationState",
    "MigrationTicket",
    "MigrationCoordinator",
    "TRANSITIONS",
    "ControlPlaneShard",
    "ORDER_STRIDE",
    "CityControlPlane",
    "TenantRecord",
    "TENANT_STATES",
]
