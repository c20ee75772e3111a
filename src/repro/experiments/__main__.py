"""Regenerate every paper table/figure in one run.

Usage::

    python -m repro.experiments            # full report to stdout
    python -m repro.experiments --quick    # reduced runs/horizons
    python -m repro.experiments --out out/report.txt

The per-experiment modules remain individually runnable
(``python -m repro.experiments.fig02_motivation`` etc.); this driver
strings them together in paper order and stamps each section.
"""

from __future__ import annotations

import argparse
import os
import time

from ..telemetry import get_logger
from . import (fig02_motivation, fig05_fig06_rop, fig09_signatures,
               fig10_microscope, fig11_misalignment, fig12_t10_2,
               fig14_random, sec5_extensions, sec5_polling, tab02_usrp,
               tab03_exposed)


def build_sections(quick: bool):
    horizon = 400_000.0 if quick else 1_000_000.0
    runs = 100 if quick else 300
    fig14_runs = 6 if quick else 50
    return [
        ("Fig. 2 — motivating network",
         lambda: fig02_motivation.report(fig02_motivation.run(horizon))),
        ("Fig. 5 / Fig. 6 — ROP subchannels and guard sweep",
         lambda: fig05_fig06_rop.report(
             fig05_fig06_rop.run_fig5(),
             fig05_fig06_rop.run_fig6(runs=max(runs // 3, 30)))),
        ("Fig. 9 — signature detection",
         lambda: fig09_signatures.report(fig09_signatures.run(runs=runs))),
        ("Table 2 — USRP prototype",
         lambda: tab02_usrp.report(tab02_usrp.run(
             horizon_us=20_000_000.0 if quick else 60_000_000.0))),
        ("Fig. 10 — under the microscope",
         lambda: fig10_microscope.report(fig10_microscope.run())),
        ("Fig. 11 — misalignment convergence",
         lambda: fig11_misalignment.report(fig11_misalignment.run())),
        ("Fig. 12(a-c) — T(10,2) UDP",
         lambda: fig12_t10_2.report(fig12_t10_2.run(
             "udp", uplink_rates=(0.0, 4.0, 10.0) if quick
             else fig12_t10_2.DEFAULT_UPLINK_RATES,
             horizon_us=horizon))),
        ("Fig. 12(d-f) — T(10,2) TCP",
         lambda: fig12_t10_2.report(fig12_t10_2.run(
             "tcp", uplink_rates=(0.0, 10.0), horizon_us=horizon))),
        ("Table 3 — exposed-link topologies",
         lambda: tab03_exposed.report(tab03_exposed.run(horizon))),
        ("Fig. 14 — random-network gain CDF",
         lambda: fig14_random.report(fig14_random.run(
             n_runs=fig14_runs, horizon_us=min(horizon, 600_000.0)))),
        ("Sec. 5 — polling frequency and light traffic",
         lambda: "\n\n".join([
             sec5_polling.report_batch_size(
                 sec5_polling.run_batch_size(sec5_polling.HEAVY_MBPS,
                                             horizon_us=horizon),
                 sec5_polling.run_batch_size(sec5_polling.LIGHT_MBPS,
                                             horizon_us=horizon)),
             sec5_polling.report_light(sec5_polling.run_light_traffic()),
         ])),
        ("Sec. 5 — extensions (signatures, energy, coexistence)",
         lambda: "\n\n".join([
             sec5_extensions.report_signature_lengths(
                 sec5_extensions.run_signature_lengths()),
             sec5_extensions.report_energy(sec5_extensions.run_energy()),
             sec5_extensions.report_coexistence(
                 sec5_extensions.run_coexistence()),
         ])),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every DOMINO table/figure.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced horizons and run counts")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file "
                             "(reports belong under the untracked out/)")
    args = parser.parse_args(argv)

    log = get_logger("experiments")
    chunks = []
    for title, runner in build_sections(args.quick):
        started = time.time()
        log.info("%s: running...", title)
        body = runner()
        elapsed = time.time() - started
        chunk = "\n".join([
            "=" * 72,
            f"{title}   ({elapsed:.1f} s)",
            "=" * 72,
            body,
            "",
        ])
        print(chunk)
        chunks.append(chunk)
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write("\n".join(chunks))
        log.info("report written to %s", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
