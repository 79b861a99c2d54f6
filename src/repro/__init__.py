"""AnDrone: Virtual Drone Computing in the Cloud — full reproduction.

A Python reimplementation of the EuroSys 2019 paper by Van't Hof and
Nieh, including every substrate the system depends on (simulated Linux
kernel, Binder IPC with device namespaces, containers, Android Things
services, a quadcopter flight stack with MAVLink/MAVProxy, and the cloud
service) plus the benchmark harness regenerating every table and figure
of the paper's evaluation.

Entry points:

* :class:`repro.core.AnDroneSystem` — the full system (cloud + fleet);
* :class:`repro.core.DroneNode` — one drone's onboard stack;
* :class:`repro.flight.SitlDrone` — just the flight simulation;
* :mod:`repro.workloads` — PassMark/cyclictest/stress/iperf analogs.

See README.md for a tour and DESIGN.md for the substitution map.
"""

from importlib import import_module

__version__ = "1.0.0"
__paper__ = ("Alexander Van't Hof and Jason Nieh. AnDrone: Virtual Drone "
             "Computing in the Cloud. EuroSys 2019. "
             "https://doi.org/10.1145/3302424.3303969")


def lazy_exports(package: str, namespace: dict, table: dict):
    """PEP 562 exports for a package ``__init__``.

    ``table`` maps each submodule (relative to ``package``) to the names
    the package exports from it.  Returns ``(__all__, __getattr__,
    __dir__)`` for the package to bind: a name's submodule is imported on
    its first access and the name cached in ``namespace`` (the package
    globals), so importing the package alone loads none of them.
    """
    home = {name: f"{package}.{module}"
            for module, names in table.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home[name]), name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
