//! Decision-exact replay: the threaded runtime and an offline
//! `SplitMachine` run the same decision code, so feeding the runtime's
//! own recording back through a fresh machine — in record order, with
//! the recorded timestamps — must reproduce every preemption decision and
//! every block grant, whatever the thread interleaving or host load.

use split_repro::sched::policy::{SplitCfg, SplitMachine};
use split_repro::split_core::{ElasticConfig, SplitPlan};
use split_repro::split_runtime::{Deployment, RequestStatus, Server, ServerConfig};
use split_repro::split_telemetry::Event;
use std::time::Duration;

fn deployment() -> Deployment {
    let mut d = Deployment::new();
    d.deploy_vanilla("short", 10_000.0);
    for (name, blocks) in [("long", 3), ("mid", 2)] {
        d.deploy_plan(&SplitPlan {
            model: name.into(),
            cuts: (1..blocks).map(|c| c * 40).collect(),
            block_times_us: vec![22_000.0; blocks],
            vanilla_us: 20_000.0 * blocks as f64,
            overhead_ratio: 0.1,
            std_us: 0.0,
            fitness: -1.0,
            transfer_bytes: vec![8_192; blocks - 1],
        });
    }
    d
}

#[test]
fn recording_replays_to_identical_decisions() {
    let d = deployment();
    let table = d.table().clone();
    // Bursts from four clients outrun a 50 ms window, so splitting turns
    // off mid-burst; the quiet gap between bursts turns it back on.
    let cfg = ServerConfig {
        alpha: 4.0,
        elastic: Some(ElasticConfig {
            window_us: 50_000.0,
            density_off_per_s: 400.0,
            density_on_per_s: 200.0,
            same_type_frac: 0.9,
            min_samples: 8,
        }),
        compression: 20.0,
    };
    let server = Server::start(d, cfg.clone());
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let client = server.client();
            std::thread::spawn(move || {
                let mut rxs = Vec::new();
                for burst in 0..5 {
                    for i in 0..10 {
                        let model = match (c + burst + i) % 4 {
                            0 => "long",
                            1 => "mid",
                            _ => "short",
                        };
                        rxs.push(client.infer(model));
                    }
                    rxs.push(client.infer("ghost"));
                    std::thread::sleep(Duration::from_millis(15));
                }
                rxs
            })
        })
        .collect();
    let (mut completed, mut dropped) = (0u64, 0u64);
    for h in clients {
        for rx in h.join().unwrap() {
            match rx.recv_timeout(Duration::from_secs(30)).unwrap().status {
                RequestStatus::Completed => completed += 1,
                RequestStatus::Dropped => dropped += 1,
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(
        (completed, dropped),
        (200, 20),
        "unknown models are dropped"
    );
    assert_eq!(report.served, 200);
    assert_eq!(report.recorder.dropped(), 0, "ring must hold the whole run");

    let mut machine = SplitMachine::new(
        table,
        &SplitCfg {
            alpha: cfg.alpha,
            elastic: cfg.elastic,
        },
    );
    let mut admitted = None;
    let mut downgrade_seen = false;
    let (mut decisions, mut grants, mut downgrades) = (0u64, 0usize, 0usize);
    for e in report.recorder.events() {
        match e {
            Event::Arrival { req, model, t_us } => {
                let a = machine.admit(*t_us, *req, model, ()).expect("deployed");
                admitted = Some((*req, a));
                downgrade_seen = false;
            }
            Event::Downgrade {
                req, from_blocks, ..
            } => {
                let (id, a) = admitted.as_ref().expect("downgrade follows arrival");
                assert_eq!((id, a.downgraded_from), (req, Some(*from_blocks)));
                downgrade_seen = true;
                downgrades += 1;
            }
            Event::PreemptDecision {
                req,
                position,
                comparisons,
                stop,
                ..
            } => {
                let (id, a) = admitted.take().expect("decision follows arrival");
                assert_eq!(id, *req);
                let d = &a.decision;
                assert_eq!(
                    (d.position, d.comparisons, format!("{:?}", d.stop)),
                    (*position, *comparisons, stop.clone()),
                    "decision for request {req}"
                );
                assert_eq!(a.downgraded_from.is_some(), downgrade_seen);
                decisions += 1;
            }
            Event::BlockStart {
                req, block, t_us, ..
            } => {
                let g = machine.dispatch(*t_us).expect("replay grants a block");
                assert_eq!((g.id, g.block), (*req, *block), "grant #{grants}");
                grants += 1;
            }
            Event::BlockEnd { t_us, .. } => {
                machine.retire(*t_us);
            }
            _ => {}
        }
    }
    assert_eq!(decisions, report.decisions);
    assert_eq!(decisions, 200);
    assert!(grants > 200, "split models run several blocks");
    assert!(downgrades > 0, "the bursts must trigger elastic downgrades");
    assert_eq!(machine.queued(), 0, "replay drains like the server");
}
