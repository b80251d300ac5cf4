//! Shared by `concurrency.rs` and `identity_matrix.rs`: the hand-driven
//! synchronous baseline the one-core scheduler is held to.

use trackfm_suite::sim::Machine;
use trackfm_suite::workloads::openloop::OpenLoopSpec;
use trackfm_suite::workloads::runner::{self, Outcome, RunConfig};

/// Runs the open-loop requests by hand on a plain synchronous machine —
/// exactly what the suite did before the scheduler existed — and returns
/// the outcome the runner would, plus the machine's final clock.
pub fn manual_sync_outcome(ol: &OpenLoopSpec, cfg: &RunConfig) -> (Outcome, u64) {
    let (module, report, mem) = runner::compile_for(&ol.spec, cfg, None);
    let heap = ol.spec.heap_size(cfg.object_size);
    let mut machine = Machine::new(&module, mem, cfg.cost, heap);
    let args = runner::setup(&ol.spec, &mut machine, false);
    let tel = runner::telemetry_for(cfg);
    machine.set_telemetry(tel.clone());
    let mut last = None;
    for req in &ol.requests {
        let start = machine.clock().max(req.arrival);
        machine.set_clock(start);
        let mut call = args.clone();
        call.push(req.key);
        last = Some(machine.run("get", &call).unwrap());
    }
    let mut result = last.expect("at least one request");
    result.stats.cycles = machine.clock();
    let mut telemetry = tel.snapshot();
    runner::attribute_removed_guards(&report, &mut telemetry);
    (
        Outcome {
            result,
            report: Some(report),
            telemetry,
        },
        machine.clock(),
    )
}
