//! Serial-vs-parallel determinism on an all-fallback instance: every stage
//! of the `deep` bench family (`rp_bench::deep_fallback_instance`) is
//! served by the stage DP fallback, so this pins the fallback path — the
//! stuck forest filtered out of the scope forest, the pruned backtrack,
//! the batched flush — to bit-identical results whether it runs in the
//! serial sweep or in the frontier workers of `multiple_bin_par`, whose
//! sub-arenas cut deadlines above their local roots.

use rp_bench::deep_fallback_instance;
use rp_core::{multiple_bin_par, multiple_bin_with, SolverScratch};

#[test]
fn deep_fallback_solves_match_across_thread_counts() {
    for seed in [1, 2, 3] {
        let instance = deep_fallback_instance(4096, true, seed);
        let mut serial = SolverScratch::new();
        let expected =
            multiple_bin_with(&instance, &mut serial).expect("deep instances are feasible");
        let stats = *serial.stage_stats();
        assert!(stats.stages > 0, "seed {seed}: the instance runs stages");
        assert_eq!(stats.dp_fallbacks, stats.stages, "seed {seed}: every stage falls back");

        let mut par = SolverScratch::new();
        par.load_arena(instance.tree());
        for threads in [2, 4] {
            let got = multiple_bin_par(&mut par, instance.capacity(), instance.dmax(), threads)
                .expect("deep instances are feasible");
            assert_eq!(got, expected, "seed {seed}: solution diverged at {threads} threads");
            assert_eq!(
                *par.stage_stats(),
                stats,
                "seed {seed}: stage counters diverged at {threads} threads"
            );
        }
    }
}
