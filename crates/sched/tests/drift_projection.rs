//! The drift-watch projection of a simulation must conserve every
//! request and react to injected surges: it is a faithful view of the
//! simulation's lifecycle recorder.

use sched::policy::SplitCfg;
use sched::{simulate, ModelRuntime, ModelTable, Policy};
use split_watch::WatchCfg;
use workload::Arrival;

fn table() -> ModelTable {
    let mut t = ModelTable::new();
    t.insert(ModelRuntime::vanilla("short", 0, 8_000.0));
    t.insert(ModelRuntime::split(
        "mid",
        1,
        30_000.0,
        vec![16_000.0, 16_500.0],
    ));
    t
}

fn split_policy() -> Policy {
    Policy::Split(SplitCfg {
        alpha: 4.0,
        elastic: None,
    })
}

#[test]
fn drift_report_conserves_simulated_requests() {
    let arrivals: Vec<Arrival> = (0..40)
        .map(|i| Arrival {
            id: i,
            model: ["short", "mid"][(i % 2) as usize].into(),
            arrival_us: i as f64 * 12_000.0,
        })
        .collect();
    let r = simulate(&split_policy(), &arrivals, &table());
    let report = r.drift(WatchCfg {
        window_us: 100_000.0,
        ..WatchCfg::default()
    });
    assert!(report.conservation_holds(), "{report:?}");
    assert_eq!(report.fed.arrivals, 40);
    assert_eq!(report.fed.completions, r.completions.len() as u64);
    // Two projections of the same result are identical (pure replay).
    let again = r.drift(WatchCfg {
        window_us: 100_000.0,
        ..WatchCfg::default()
    });
    assert_eq!(again, report);
}

#[test]
fn drift_report_flags_injected_surge() {
    // 30 calm windows of one short request each, then a sustained 12×
    // arrival surge. Detectors warm up on the calm prefix and must fire
    // after the onset.
    let window_us = 50_000.0;
    let mut arrivals = Vec::new();
    let mut id = 0u64;
    for k in 0..60 {
        let n = if k < 30 { 1 } else { 12 };
        for i in 0..n {
            arrivals.push(Arrival {
                id,
                model: "short".into(),
                arrival_us: k as f64 * window_us + 10.0 + i as f64 * 100.0,
            });
            id += 1;
        }
    }
    let r = simulate(&split_policy(), &arrivals, &table());
    let report = r.drift(WatchCfg {
        window_us,
        ..WatchCfg::default()
    });
    assert!(
        !report.events.is_empty(),
        "12x surge left no regime events:\n{}",
        report.render_text()
    );
    let first = &report.events[0];
    assert!(
        (30..=33).contains(&(first.window as usize)),
        "first event at window {} not within 3 windows of onset 30",
        first.window
    );
}
