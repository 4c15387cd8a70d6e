"""Workload name -> instance (imports the program: child process only)."""

from __future__ import annotations

from .workload import Workload


def make(name: str) -> Workload:
    from .wl_compile import CompileZoo
    from .wl_serve import FleetPaced, ServeSat
    from .wl_train import GIB, TrainConcrete, TrainSim
    if name == "train_roomy":
        return TrainSim(name, 12 * GIB)
    if name == "train_pressured":
        return TrainSim(name, 1 * GIB)
    if name == "train_concrete":
        return TrainConcrete()
    if name == "compile_zoo":
        return CompileZoo()
    if name == "serve_sat_w1":
        return ServeSat(name, workers=1)
    if name == "serve_sat_w4":
        return ServeSat(name, workers=4)
    if name == "fleet_paced":
        return FleetPaced()
    raise KeyError(name)
