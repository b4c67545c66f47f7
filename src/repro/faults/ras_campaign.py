"""The RAS campaign: retention-rate x scrub-interval grid.

Each **analytic cell** schedules a workload twice — clean, and with a
:class:`~repro.faults.ras.RasEngine` driving retention errors, ECC,
scrubbing, and spare remapping on the simulated clock — and reports
the uncorrected-error count and the time overhead.  The **functional
cell** replays the same two-layer story against real RNS words: the
shared bootstrap fixture runs under :class:`RasSession`, where every
retention event flips 1-3 bits of a SEC-DED codeword, ECC resolves
what it can, and only the escapes reach the residue-checksum guard.

The matrix gate pins the composition claim: **zero uncorrected errors
in every cell** (ECC + checksum leave no silent gap) and bounded
overhead at the default operating point.  Cells are pure functions of
their arguments and run through :func:`repro.parallel.run_cells`, so
the assembled document is byte-identical for any worker count.  Both
cell kinds reuse the fault campaign's runners
(:func:`~repro.faults.campaign.clean_and_guarded` and
:func:`~repro.faults.campaign.guarded_bootstrap`).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dram.reliability import ReliabilityConfig
from repro.faults.campaign import (MAX_DECRYPT_ERROR, clean_and_guarded,
                                   guarded_bootstrap)
from repro.faults.guard import FaultSession
from repro.faults.plan import FaultModel, FaultPlan
from repro.faults.ras import SecDedCode

#: Grid axes swept by the default campaign.  The default operating
#: point (DEFAULT_RELIABILITY's rate and interval) is a grid cell, so
#: the pinned baseline reads straight off the surface.
DEFAULT_RETENTION_RATES = (200.0, 1000.0, 5000.0)
DEFAULT_SCRUB_INTERVALS = (2e-4, 1e-3, 5e-3)

#: Acceptance bound on the default cell's total RAS overhead.
OVERHEAD_BOUND = 0.05

#: Per-kernel exposure window of the functional model: converts the
#: analytic errors/second retention rate into a per-elementwise-kernel
#: event probability.
FUNCTIONAL_DT_S = 2e-5


class RasSession(FaultSession):
    """Functional fault session with a SEC-DED layer ahead of the
    residue-checksum guard.

    Every element-wise kernel faces one retention event with
    probability ``retention_rate * FUNCTIONAL_DT_S``; an event flips
    1, 2, or 3 bits (per the config's severity fractions) of the ECC
    codeword protecting one stored residue word.  Single-bit flips are
    corrected in place, double-bit flips are detected and repaired
    from redundancy before the kernel consumes them, and >= 3-bit
    escapes (possibly miscorrected by the decoder) corrupt the word
    for real — the inherited checksum verify catches those and drives
    the usual retry recovery.
    """

    def __init__(self, config: ReliabilityConfig):
        super().__init__(FaultPlan(seed=config.seed))
        self.config = config
        self.code = SecDedCode(32)
        self._rng = config.rng("functional")
        self.event_rate = min(0.05,
                              config.retention_rate * FUNCTIONAL_DT_S)
        self.events = 0
        self.ecc_corrected = 0
        self.ecc_detected = 0
        self.checksum_caught = 0

    def _inject(self, out: np.ndarray, op: str, site: int):
        injected = super()._inject(out, op, site)
        if injected is not None:
            return injected
        cfg = self.config
        rng = self._rng
        if rng.random() >= self.event_rate:
            return None
        self.events += 1
        severity = rng.random()
        if severity < cfg.escape_fraction:
            flips = 3
        elif severity < cfg.escape_fraction + cfg.multi_bit_fraction:
            flips = 2
        else:
            flips = 1
        flat = out.reshape(-1)
        index = int(rng.integers(flat.size))
        clean = int(flat[index]) & 0xFFFFFFFF
        codeword = self.code.encode(clean)
        for pos in rng.choice(self.code.codeword_bits, size=flips,
                              replace=False):
            codeword ^= 1 << int(pos)
        decoded, status = self.code.decode(codeword)
        if decoded == clean:
            # Data bits intact (flips confined to check bits, or
            # corrected exactly): the word the kernel consumes is clean.
            if status == "corrected":
                self.ecc_corrected += 1
            else:
                self.ecc_detected += 1
            return None
        if status == "detected":
            # ECC flagged the fetch; the word is rewritten from
            # redundancy before the kernel consumes it.
            self.ecc_detected += 1
            return None
        # Miscorrection: the decoder "fixed" a >= 3-bit pattern into
        # the wrong word.  The corruption is live — the checksum guard
        # below is the backstop.
        self.checksum_caught += 1
        flat[index] = decoded
        return self.injector.event(FaultModel.PIM_BITFLIP_BUFFER, op,
                                   "functional", site=site, index=index,
                                   flips=int(flips), ecc="escape")


def _record_ras_metrics(metrics, corrected: int, detected: int,
                        scrub_passes=None, remaps=None) -> None:
    if metrics is None:
        return
    if corrected:
        metrics.counter("anaheim_ecc_corrected_total",
                        "Single-bit errors corrected by SEC-DED").inc(
                            corrected)
    if detected:
        metrics.counter(
            "anaheim_ecc_detected_total",
            "Double-bit errors detected (uncorrectable) by SEC-DED").inc(
                detected)
    for kind, count in (scrub_passes or {}).items():
        if count:
            metrics.counter("anaheim_scrub_passes_total",
                            "Scrub passes by kind",
                            labelnames=("kind",)).inc(count, kind=kind)
    for reason, count in (remaps or {}).items():
        if count:
            metrics.counter("anaheim_remap_total",
                            "Region migrations to spares",
                            labelnames=("reason",)).inc(count,
                                                        reason=reason)


def run_analytic_ras(config: ReliabilityConfig, workload: str = "Boot",
                     gpu=None, pim=None, metrics=None) -> dict:
    """One analytic grid cell: clean vs RAS-enabled schedule."""
    clean, guarded = clean_and_guarded(workload, "ras", gpu=gpu, pim=pim,
                                       ras_config=config, metrics=metrics)
    clean_t = clean.total_time
    ras_t = guarded.total_time
    return {
        "layer": "analytic",
        "workload": workload,
        "retention_rate": config.retention_rate,
        "scrub_interval_s": config.scrub_interval_s,
        "config_digest": config.digest(),
        "clean_time_s": clean_t,
        "guarded_time_s": ras_t,
        "overhead": ras_t / clean_t - 1.0 if clean_t else 0.0,
        "ras": guarded.fault_summary["ras"],
    }


def run_functional_ras(config: ReliabilityConfig,
                       record_wall: bool = True, metrics=None) -> dict:
    """The functional validation cell: bootstrap under ECC + checksum.

    ``record_wall=False`` omits the wall-clock field so the result is
    a pure function of the config (the determinism contract).
    """
    sess = RasSession(config)
    err, wall_s = guarded_bootstrap(sess)
    accounted = (sess.ecc_corrected + sess.ecc_detected
                 + sess.checksum_caught)
    result = {
        "layer": "functional",
        "seed": config.seed,
        "retention_rate": config.retention_rate,
        "config_digest": config.digest(),
        "events": sess.events,
        "ecc_corrected": sess.ecc_corrected,
        "ecc_detected": sess.ecc_detected,
        "checksum_caught": sess.checksum_caught,
        "unaccounted": sess.events - accounted,
        "summary": sess.log.summary(),
        "max_error": err,
        "decrypt_ok": err <= MAX_DECRYPT_ERROR,
    }
    if record_wall:
        result["wall_s"] = wall_s
    _record_ras_metrics(metrics, sess.ecc_corrected, sess.ecc_detected)
    return result


def ras_units(retention_rates=DEFAULT_RETENTION_RATES,
              scrub_intervals=DEFAULT_SCRUB_INTERVALS,
              base: ReliabilityConfig = None,
              functional: bool = True) -> list:
    """Ordered cells of one RAS matrix: the rate-major analytic grid,
    an explicit default cell when the grid misses the base operating
    point, and the functional validation cell."""
    base = base if base is not None else ReliabilityConfig()
    units = [("analytic", rate, interval)
             for rate in retention_rates
             for interval in scrub_intervals]
    if ("analytic", base.retention_rate, base.scrub_interval_s) \
            not in units:
        units.append(("analytic", base.retention_rate,
                      base.scrub_interval_s))
    if functional:
        units.append(("functional", base.retention_rate,
                      base.scrub_interval_s))
    return units


def ras_unit_key(kind: str, rate: float, interval: float) -> str:
    return f"{kind}/{rate:g}/{interval:g}"


def run_ras_unit(kind: str, rate: float, interval: float, *,
                 base: ReliabilityConfig = None, workload: str = "Boot",
                 record_wall: bool = True, gpu=None, pim=None,
                 metrics=None) -> dict:
    """Execute one matrix cell (fully determined by its arguments)."""
    base = base if base is not None else ReliabilityConfig()
    config = base.with_overrides(retention_rate=rate,
                                 scrub_interval_s=interval)
    if kind == "functional":
        return run_functional_ras(config, record_wall=record_wall,
                                  metrics=metrics)
    return run_analytic_ras(config, workload=workload, gpu=gpu, pim=pim,
                            metrics=metrics)


def assemble_ras_matrix(results, retention_rates, scrub_intervals,
                        base: ReliabilityConfig, workload: str,
                        functional: bool,
                        overhead_bound: float = OVERHEAD_BOUND) -> dict:
    """The campaign document from per-unit results (a pure function
    of its inputs)."""
    def cell(rate, interval):
        return results[ras_unit_key("analytic", rate, interval)]

    surfaces = {"uncorrected": [], "overhead": [], "corrected": [],
                "scrub_time_s": [], "remaps": []}
    for rate in retention_rates:
        row = {key: [] for key in surfaces}
        for interval in scrub_intervals:
            c = cell(rate, interval)
            row["uncorrected"].append(c["ras"]["uncorrected"])
            row["overhead"].append(c["overhead"])
            row["corrected"].append(c["ras"]["corrected"])
            row["scrub_time_s"].append(c["ras"]["scrub_time_s"])
            row["remaps"].append(sum(c["ras"]["remaps"].values()))
        for key in surfaces:
            surfaces[key].append(row[key])

    default_cell = cell(base.retention_rate, base.scrub_interval_s)
    func_cell = (results.get(ras_unit_key(
        "functional", base.retention_rate, base.scrub_interval_s))
        if functional else None)

    violations = []
    for key, result in sorted(results.items()):
        if result["layer"] != "analytic":
            continue
        if result["ras"]["uncorrected"] != 0:
            violations.append(
                f"{key}: {result['ras']['uncorrected']} uncorrected "
                f"errors escaped both ECC and checksum recovery")
    if default_cell["overhead"] >= overhead_bound:
        violations.append(
            f"default cell overhead {default_cell['overhead']:.4f} "
            f">= bound {overhead_bound}")
    if func_cell is not None:
        if not func_cell["decrypt_ok"]:
            violations.append("functional: decrypt error over bound")
        if func_cell["summary"]["undetected"] != 0:
            violations.append("functional: undetected checksum escapes")
        if func_cell["summary"]["unrecovered"] != 0:
            violations.append("functional: unrecovered faults")
        if func_cell["unaccounted"] != 0:
            violations.append(
                f"functional: {func_cell['unaccounted']} retention "
                f"events unaccounted by ECC/checksum layers")
    return {
        "tool": "anaheim-repro",
        "kind": "ras",
        "version": 1,
        "workload": workload,
        "config": base.canonical(),
        "retention_rates": list(retention_rates),
        "scrub_intervals": list(scrub_intervals),
        "cells": [cell(rate, interval) for rate in retention_rates
                  for interval in scrub_intervals],
        "default_cell": default_cell,
        "functional": func_cell,
        "surfaces": surfaces,
        "gate": {"passed": not violations, "violations": violations,
                 "overhead_bound": overhead_bound},
    }


def run_ras_matrix(retention_rates=DEFAULT_RETENTION_RATES,
                   scrub_intervals=DEFAULT_SCRUB_INTERVALS,
                   base: ReliabilityConfig = None,
                   workload: str = "Boot", functional: bool = True,
                   record_wall: bool = True, gpu=None, pim=None,
                   overhead_bound: float = OVERHEAD_BOUND,
                   metrics=None, workers: int = 1,
                   threads: int = 1) -> dict:
    """The full RAS campaign: grid sweep, surfaces, and gate verdict.

    The cells run through :func:`repro.parallel.run_cells` on
    ``workers`` processes of ``threads`` kernel threads each; the
    document is byte-identical for any worker count.
    """
    from repro.parallel import run_cells
    base = base if base is not None else ReliabilityConfig()
    units = ras_units(retention_rates, scrub_intervals, base=base,
                      functional=functional)
    cell = functools.partial(run_ras_unit, base=base, workload=workload,
                             record_wall=record_wall, gpu=gpu, pim=pim)
    results = run_cells(cell, units, workers, threads, metrics)
    return assemble_ras_matrix(
        {ras_unit_key(*unit): result
         for unit, result in zip(units, results)},
        retention_rates, scrub_intervals, base, workload, functional,
        overhead_bound=overhead_bound)


def ras_baseline_metrics(document: dict) -> dict:
    """Flat, gateable metrics of the default cell (plus the functional
    validation counts) for baseline write/check."""
    cell = document["default_cell"]
    ras = cell["ras"]
    metrics = {
        "errors_total": float(ras["errors_total"]),
        "corrected": float(ras["corrected"]),
        "detected": float(ras["detected"]),
        "escaped": float(ras["escaped"]),
        "uncorrected": float(ras["uncorrected"]),
        "scrub_passes_total": float(sum(ras["scrub_passes"].values())),
        "remaps_total": float(sum(ras["remaps"].values())),
        "overhead": float(cell["overhead"]),
        "ras_time_s": float(ras["ras_time_s"]),
        "clean_time_s": float(cell["clean_time_s"]),
    }
    func = document.get("functional")
    if func is not None:
        metrics["functional_events"] = float(func["events"])
        metrics["functional_ecc_corrected"] = float(
            func["ecc_corrected"])
        metrics["functional_checksum_caught"] = float(
            func["checksum_caught"])
    return metrics
