//! Quick behavioural smoke run: the four headline systems on the
//! lv-tweet burst window. Not a paper figure; a fast check that the
//! reproduction's headline direction holds. Exits nonzero unless PARD
//! has a higher goodput and a lower drop rate than every baseline.

use pard_bench::{must, run_burst_window, Workload};
use pard_metrics::table::{pct2, Table};
use pard_policies::SystemKind;

fn main() {
    let workload = Workload::lv_tweet();
    let mut table = Table::new(
        "smoke: lv-tweet burst window",
        &[
            "system",
            "arrivals",
            "goodput",
            "drop rate",
            "invalid",
            "peak workers",
        ],
    );
    // (system, goodput fraction, drop rate) per system.
    let mut results = Vec::new();
    for system in SystemKind::BASELINES {
        let result = must(run_burst_window(workload, system));
        let log = &result.log;
        let goodput = log.goodput_count() as f64 / log.len().max(1) as f64;
        table.row(&[
            system.name().to_string(),
            log.len().to_string(),
            format!("{} ({:.1}%)", log.goodput_count(), 100.0 * goodput),
            pct2(log.drop_rate()),
            pct2(log.invalid_rate()),
            result.peak_workers.to_string(),
        ]);
        results.push((system, goodput, log.drop_rate()));
    }
    print!("{}", table.render());

    let (_, pard_goodput, pard_drops) = *results
        .iter()
        .find(|(system, _, _)| *system == SystemKind::Pard)
        .expect("PARD is among the headline systems");
    let mut failed = false;
    for &(system, goodput, drops) in &results {
        if system == SystemKind::Pard {
            continue;
        }
        if pard_goodput <= goodput || pard_drops >= drops {
            eprintln!(
                "smoke: PARD (goodput {:.1}%, drop rate {:.2}%) does not beat {} \
                 (goodput {:.1}%, drop rate {:.2}%)",
                100.0 * pard_goodput,
                100.0 * pard_drops,
                system.name(),
                100.0 * goodput,
                100.0 * drops,
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
