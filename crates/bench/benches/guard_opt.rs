//! The guard-removal ablation: what each [`GuardOpt`] level deletes and
//! what that buys.
//!
//! For each workload, compile and run at the three levels under identical
//! far-memory pressure:
//!
//!   * **None** — the naive §3.3 transformation, every guard kept;
//!   * **Local** — summary-free redundant-guard elimination within one
//!     function (every call kills custody);
//!   * **Full** — `Local` plus the interprocedural layer: custody
//!     summaries, call-aware kill sets, loop-invariant guard motion
//!     (today's default).
//!
//! The gate asserts:
//!
//!   1. **Determinism** — compiling twice yields the identical
//!      [`ElisionOutcome`] and [`MotionOutcome`] (counts *and* per-site
//!      attribution);
//!   2. **Soundness dividend** — no level changes the workload's result
//!      (the runner checks the checksum) and simulated cycles never
//!      increase from one level to the next;
//!   3. **Strict win** — on the serving loop, whose invariant-slot guard is
//!      only hoistable interprocedurally, `Full` must *strictly* beat
//!      `Local`;
//!   4. the per-level guard counts and cycles feed EXPERIMENTS.md.
//!
//! ```sh
//! cargo bench -q -p tfm-bench --bench guard_opt
//! ```
//!
//! [`ElisionOutcome`]: trackfm::ElisionOutcome
//! [`MotionOutcome`]: trackfm::MotionOutcome

use tfm_bench::{print_table, scale};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::{analytics, kmeans, memcached, nas, serving, stream, WorkloadSpec};
use trackfm::{GuardOpt, TrackFmCompiler};

fn workloads() -> Vec<(&'static str, WorkloadSpec, RunConfig)> {
    let s = scale();
    vec![
        (
            "serving",
            serving::serving(&serving::ServingParams {
                ops: (1 << 16) / s,
                buckets: 256,
                seed: 42,
            }),
            RunConfig::trackfm(0.25).with_object_size(64),
        ),
        (
            "quickstart(stream-sum)",
            stream::sum(&stream::StreamParams {
                elems: (1 << 20) / s,
            }),
            RunConfig::trackfm(0.25),
        ),
        (
            "kv_store(memcached)",
            memcached::memcached(&memcached::MemcachedParams {
                keys: 20_000 / s,
                gets: 60_000 / s,
                skew: 1.05,
                seed: 99,
            }),
            RunConfig::trackfm(0.10).with_object_size(64),
        ),
        (
            "analytics",
            analytics::analytics(&analytics::AnalyticsParams {
                rows: 100_000 / s,
                groups: 8_000 / s,
            }),
            RunConfig::trackfm(0.25),
        ),
        (
            "kmeans",
            kmeans::kmeans(&kmeans::KmeansParams {
                points: 4_000 / s,
                dims: 8,
                k: 4,
                iters: 2,
            }),
            RunConfig::trackfm(0.25),
        ),
        (
            "nas-cg",
            nas::cg(&nas::NasParams { shrink: 25 * s }),
            RunConfig::trackfm(0.25),
        ),
    ]
}

fn main() {
    println!("guard_opt: guard-removal ablation gate (None / Local / Full)");
    let mut rows: Vec<Vec<String>> = Vec::new();

    for (name, spec, base) in workloads() {
        // Determinism: the same module must lose the same guards, with the
        // same per-site attribution, on every compile.
        let r1 = TrackFmCompiler::new(base.compiler).compile(&mut spec.module.clone(), None);
        let r2 = TrackFmCompiler::new(base.compiler).compile(&mut spec.module.clone(), None);
        assert_eq!(
            (&r1.elision, &r1.motion),
            (&r2.elision, &r2.motion),
            "{name}: elision and motion outcomes must be deterministic"
        );

        // Execute at each level; the runner asserts the checksum, so a
        // semantic deviation aborts loudly.
        let [(none, g_none, c_none), (local, g_local, c_local), (full, g_full, c_full)] =
            [GuardOpt::None, GuardOpt::Local, GuardOpt::Full].map(|level| {
                let mut cfg = base;
                cfg.compiler.guard_opt = level;
                let out = execute(&spec, &cfg);
                let rep = out.report.expect("trackfm runs compile");
                let surviving = rep.total_guards() - rep.elision.eliminated - rep.motion.upgraded;
                (rep, surviving, out.result.stats.cycles)
            });
        assert!(
            none.elision == Default::default()
                && none.motion == Default::default()
                && local.motion == Default::default(),
            "{name}: None removes nothing and Local never moves a guard"
        );
        assert!(
            c_none >= c_local && c_local >= c_full,
            "{name}: a level increased cycles ({c_none} -> {c_local} -> {c_full})"
        );
        if name == "serving" {
            assert!(
                c_full < c_local,
                "{name}: Full must strictly beat Local ({c_local} -> {c_full})"
            );
            assert!(full.motion.hoisted >= 1, "{name}: nothing was hoisted");
        }

        rows.push(vec![
            name.to_string(),
            g_none.to_string(),
            g_local.to_string(),
            g_full.to_string(),
            full.motion.hoisted.to_string(),
            c_none.to_string(),
            c_local.to_string(),
            c_full.to_string(),
            format!("{:.2}%", 100.0 * (c_none - c_full) as f64 / c_none as f64),
        ]);
    }

    print_table(
        "guard_opt (cycles at the row's budget; guards = surviving static sites)",
        &[
            "workload",
            "guards(None)",
            "guards(Local)",
            "guards(Full)",
            "hoisted",
            "cycles(None)",
            "cycles(Local)",
            "cycles(Full)",
            "saved",
        ],
        &rows,
    );
    println!("\n  gate: outcomes deterministic; results unchanged;");
    println!("  cycles(None) >= cycles(Local) >= cycles(Full) everywhere,");
    println!("  Full strictly less than Local on serving.");
}
