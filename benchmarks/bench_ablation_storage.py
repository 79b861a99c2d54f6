"""Ablation A5: layered images and the storage-cost claim.

"Common read-only base disk images can be shared across virtual drones,
making virtual drones easier to manage and reducing storage costs" and a
virtual drone "consists only of its differences from a base virtual drone
image, allowing for minimal storage requirements when running multiple
virtual drones and storing them offline" (Sections 3, 4.1).

Quantifies both: on-drone image-store bytes with layer sharing vs flat
copies, and VDR bytes for stored (offline) virtual drones vs shipping
full images.
"""


from repro.analysis import render_table
from repro.cloud import VirtualDroneRepository
from tests.util import make_node, simple_definition

TENANTS = 3
#: Per-tenant app data written during the "flight" (photos, logs).
TENANT_DATA_BYTES = 4_000


def run_ablation():
    node = make_node(seed=101)
    vdr = VirtualDroneRepository()
    node.vdc.vdr = vdr
    base_image = node.runtime.images.get("android-things")
    base_bytes = base_image.size_bytes()
    for i in range(1, TENANTS + 1):
        vdrone = node.start_virtual_drone(
            simple_definition(f"vd{i}", apps=[]))
        vdrone.container.write_file(
            f"/data/flight-{i}.bin", "x" * TENANT_DATA_BYTES)
        # Snapshot each virtual drone as a tagged image (docker commit):
        # with layering, the base is stored once across all snapshots.
        node.runtime.images.tag(
            f"vd{i}-snap", base_image.extend(vdrone.container.commit()))
    stored = node.vdc.save_to_vdr(node.vdc.drones)

    shared_bytes = node.runtime.images.unique_bytes()
    flat_bytes = node.runtime.images.apparent_bytes()
    vdr_bytes = vdr.total_stored_bytes()
    naive_vdr_bytes = TENANTS * (base_bytes + TENANT_DATA_BYTES)
    return base_bytes, shared_bytes, flat_bytes, vdr_bytes, naive_vdr_bytes


def test_ablation_storage_dedup(benchmark, record_result):
    base, shared, flat, vdr_bytes, naive_vdr = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1)
    rows = [
        ("base Android Things image", base),
        ("on-drone store, layered (actual)", shared),
        ("on-drone store, flat copies (naive)", flat),
        ("VDR, diffs only (actual)", vdr_bytes),
        ("VDR, full images (naive)", naive_vdr),
        ("VDR saving", f"{(1 - vdr_bytes / naive_vdr) * 100:.0f}%"),
    ]
    record_result("ablation_storage", render_table(
        ["Quantity", "Bytes"], rows,
        title=f"Ablation A5: storage with {TENANTS} virtual drones"))

    # Layering means the base is stored once, not per-tenant.
    assert shared < flat
    assert flat - shared >= (TENANTS - 1) * base * 0.9
    # Offline virtual drones cost (roughly) their data, not their OS.
    assert vdr_bytes < naive_vdr / 3
    assert vdr_bytes >= TENANTS * TENANT_DATA_BYTES
