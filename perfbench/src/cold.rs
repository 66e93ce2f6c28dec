//! Cold-solve workloads: a caller that keeps one `SolverScratch` hands
//! `multiple-bin` an instance it has not solved before and wants the
//! placement back in the text wire format. Every request is a fresh seeded
//! instance, so a run samples hundreds of inputs of its family.
//!
//! Spans per request: `ingest` (arena load), `solver` (`multiple_bin_arena`:
//! deadlines, sweep, stages, materialisation) and `respond`
//! (`rp_tree::io::write_solution`).
//!
//! Set-up builds the first instance and solves it on a fresh scratch, which
//! grows the scratch to its working size; it runs [`SETUPS`] times and the
//! last scratch serves the measured loop. The loop makes [`PASSES`] passes
//! over the same instances (the first pass takes its share of the time and
//! fixes how many), in batches of [`BATCH`] generated ahead of the timed
//! loop, and checks every answer after the batch: each must be a valid
//! placement, and every [`REFERENCE_EVERY`]th instance of the first pass
//! must use as many replicas as the [`reference_replicas`] solve of it.

use crate::gen::{Spec, SplitMix};
use crate::report::{self, ms, Outcome, Request, Timings, PASSES, STAGE_COUNTS};
use rp_bench::alloc_track;
use rp_core::SolverScratch;
use rp_tree::Instance;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SETUPS: usize = 15;
const BATCH: usize = 8;
/// Every this many instances, the first pass also makes a reference solve.
const REFERENCE_EVERY: usize = 4;

/// Instance `i` of a run: its own generator stream, derived from the seed.
fn instance_rng(seed: u64, i: u64) -> SplitMix {
    SplitMix::new(seed ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Replica count of a `multiple-bin` solve on a fresh scratch with the
/// solver's reference paths switched on: the whole-subtree stage commit,
/// the linear warm-overlap scan and no warm seeding. These are the
/// references the repository's differential tests hold the fast paths to.
pub fn reference_replicas(inst: &Instance) -> Result<usize, String> {
    let mut scratch = SolverScratch::new();
    scratch.set_naive_stage_commit(true);
    scratch.set_naive_warm_start(true);
    scratch.set_warm_start_disabled(true);
    scratch.load_arena(inst.tree());
    rp_core::multiple_bin_arena(&mut scratch, inst.capacity(), inst.dmax())
        .map(|s| s.replica_count())
        .map_err(|e| format!("reference solve failed: {e}"))
}

pub fn run(
    make: fn(&mut SplitMix) -> Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut kept: Option<SolverScratch> = None;
    for rep in 0..SETUPS {
        drop(kept.take());
        let spec = make(&mut instance_rng(seed, 0));
        let t = Instant::now();
        let inst = spec.instance()?;
        let heap = trace && rep == 0;
        let base = alloc_track::current_bytes();
        alloc_track::reset_peak();
        let mut scratch = SolverScratch::new();
        scratch.load_arena(inst.tree());
        let solved = rp_core::multiple_bin_arena(&mut scratch, inst.capacity(), inst.dmax());
        out.setup_s.push(t.elapsed().as_secs_f64());
        if heap {
            out.peak_heap_bytes = alloc_track::peak_bytes().saturating_sub(base);
        }
        let solution = solved.map_err(|e| format!("set-up solve failed: {e}"))?;
        spec.check(&solution).map_err(|e| format!("set-up solve: {e}"))?;
        kept = Some(scratch);
    }
    let mut scratch = kept.expect("SETUPS is positive");

    let mut totals = [0u64; STAGE_COUNTS.len()];
    let share = Duration::from_secs_f64(seconds / PASSES as f64);
    // Pass 0 stops after its share of the time, not counting the
    // reference solves, which are the harness's own work.
    let mut reference_time = Duration::ZERO;
    let start = Instant::now();
    let mut requests: Vec<Timings> = Vec::new();
    for pass in 0..PASSES {
        let mut next = 0;
        while if pass == 0 {
            start.elapsed() < share + reference_time
        } else {
            next < requests.len()
        } {
            let end = if pass == 0 { next + BATCH } else { requests.len().min(next + BATCH) };
            let batch = (next..end)
                .map(|i| {
                    let spec = make(&mut instance_rng(seed, i as u64 + 1));
                    spec.instance().map(|inst| (spec, inst))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut answers = Vec::with_capacity(batch.len());
            let t = Instant::now();
            for (_, inst) in &batch {
                let t0 = Instant::now();
                scratch.load_arena(inst.tree());
                let t1 = Instant::now();
                let solved =
                    rp_core::multiple_bin_arena(&mut scratch, inst.capacity(), inst.dmax());
                let t2 = Instant::now();
                black_box(solved.as_ref().ok().map(rp_tree::io::write_solution));
                let t3 = Instant::now();
                let spans = Request {
                    latency_ms: ms(t3 - t0),
                    ingest_ms: ms(t1 - t0),
                    solver_ms: ms(t2 - t1),
                    respond_ms: ms(t3 - t2),
                };
                answers.push((solved, spans, *scratch.stage_stats()));
            }
            out.loop_s += t.elapsed().as_secs_f64();

            for (k, ((spec, inst), (solved, spans, stats))) in batch.iter().zip(answers).enumerate()
            {
                let i = next + k;
                let checked = solved.map_err(|e| format!("solve failed: {e}")).and_then(|s| {
                    spec.check(&s)?;
                    if pass == 0 && i % REFERENCE_EVERY == 0 {
                        let t = Instant::now();
                        let reference = reference_replicas(inst)?;
                        reference_time += t.elapsed();
                        if s.replica_count() != reference {
                            return Err(format!(
                                "{} replicas, the reference solve places {reference}",
                                s.replica_count()
                            ));
                        }
                    }
                    Ok(())
                });
                if let Err(e) = &checked {
                    eprintln!("perfbench: instance {}: {e}", i + 1);
                } else {
                    out.completed += 1;
                }
                let timed = checked.ok().map(|()| spans);
                if pass == 0 {
                    requests.push(Some(Vec::with_capacity(PASSES)));
                    if trace {
                        report::add_stage_counts(&mut totals, &stats)?;
                    }
                }
                report::add_timing(&mut requests[i], timed);
            }
            next = end;
        }
    }
    out.record(&requests);
    if trace {
        out.set_counts(&totals, 0, requests.len() as u64);
    }
    Ok(out)
}
