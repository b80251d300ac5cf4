//! The paper's claims (C1–C11 of the artifact appendix, the two §5 lessons,
//! Tables 1–2, §4.6 and the ablation orderings) and this repository's own
//! (guard removal, shards, failover, cores) at test scale: one test per
//! exhibit of `tfm_bench::EXHIBITS`, each running the exhibit and checking
//! the same predicate the `figures` bench checks at full scale.
//!
//! Workload sizes are the bench's divided by the number beside the id: 16;
//! 8 where the rows the claim names need the room (analytics at 25% local
//! and STREAM sum at 10% must hold their chunk streams and the prefetch
//! window); 32 for k-means, whose 18 runs are the longest. The four of this
//! repository stay at 16: 8 cores still clear 110x one core there.

use tfm_bench::EXHIBITS;

fn holds(id: &str, scale: usize) {
    let exhibit = EXHIBITS
        .iter()
        .find(|e| e.id == id)
        .expect("a known exhibit");
    let failed = exhibit.failures(&(exhibit.run)(scale));
    assert!(
        failed.is_empty(),
        "{id}: {}\n{}",
        exhibit.claim,
        failed.join("\n")
    );
}

macro_rules! exhibits {
    ($($test:ident => $id:literal / $scale:literal,)*) => {
        $(#[test] fn $test() { holds($id, $scale) })*

        #[test]
        fn every_exhibit_has_a_test() {
            let ids: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
            assert_eq!(ids, [$($id),*]);
        }
    };
}

exhibits! {
    guard_costs_match_table_1 => "table1" / 16,
    primitive_overheads_match_table_2 => "table2" / 16,
    cost_model_predicts_the_chunking_crossover => "fig06" / 16,
    c1_chunking_speeds_up_stream => "fig07" / 16,
    c2_selective_chunking_rescues_kmeans => "fig08" / 32,
    c3_small_objects_win_for_hashmap => "fig09" / 16,
    c4_large_objects_win_for_stream => "fig10" / 16,
    c5_prefetching_helps_when_memory_is_scarce => "fig11" / 16,
    c6_trackfm_beats_fastswap_on_stream => "fig12" / 16,
    c7_io_amplification => "fig13" / 16,
    c8_analytics_trackfm_between_fastswap_and_aifm => "fig14" / 8,
    c9_filtered_chunking_beats_both_extremes_on_analytics => "fig15" / 8,
    c10_skew_amortizes_faults_and_trackfm_wins_low_skew => "fig16" / 16,
    c11_nas_directions => "fig17" / 16,
    code_grows_with_the_guards_inserted => "sec46" / 16,
    ablation_orderings => "ablations" / 8,
    lesson_temporal_locality_amortizes_faults => "sec5a" / 16,
    lesson_hybrid_compiler_kernel => "sec5b" / 16,
    guard_removal_adds_no_sites_and_no_cycles_but_on_nas_is => "guard_opt" / 16,
    shards_split_the_wire_occupancy => "shards" / 16,
    a_cold_crash_under_two_replicas_loses_nothing => "failover" / 16,
    eight_cores_clear_four_times_one => "cores" / 16,
}
