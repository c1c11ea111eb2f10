//! The parallel figure engine must be invisible in the output: the same
//! experiment grid fanned out across workers must yield the exact
//! `MessageReport` stream the serial engine produces, and whole rendered
//! figures must be byte-identical at any worker count and under seeded
//! adversarial `taskpool` schedules (shuffled task pickup, injected
//! yields) — the dynamic companion to xcheck's static
//! `determinism-unordered-iter` rule.

use bench::{par, Mode};
use grouprekey::experiment::{ExperimentParams, ExperimentRun};
use grouprekey::MessageReport;

/// A small but non-trivial grid: three group sizes x two seeds, a few
/// messages each, mixed loss exposure through the default topology.
fn grid() -> Vec<ExperimentParams> {
    let mut cells = Vec::new();
    for n in [256u32, 512, 1024] {
        for seed in [7u64, 1009] {
            let mut p = ExperimentParams::default().with_n(n);
            p.seed = seed;
            p.messages = 2;
            cells.push(p);
        }
    }
    cells
}

fn run_grid(workers: usize) -> Vec<Vec<MessageReport>> {
    let cells = grid();
    taskpool::with_workers(workers, || {
        par(&cells, |&params| {
            let mut run = ExperimentRun::new(params);
            (0..params.messages).map(|_| run.step()).collect()
        })
    })
}

#[test]
fn report_stream_is_worker_count_invariant() {
    let sequential = run_grid(1);
    assert_eq!(sequential.len(), grid().len());
    for workers in [3, 8] {
        let parallel = run_grid(workers);
        assert_eq!(sequential, parallel, "workers={workers}");
    }
}

#[test]
fn report_stream_matches_direct_serial_loop() {
    // `par` under one worker must equal a plain for-loop: the helper adds
    // ordering machinery but no semantics.
    let cells = grid();
    let direct: Vec<Vec<MessageReport>> = cells
        .iter()
        .map(|&params| {
            let mut run = ExperimentRun::new(params);
            (0..params.messages).map(|_| run.step()).collect()
        })
        .collect();
    assert_eq!(direct, run_grid(1));
}

fn render_figure(workers: usize, sched_seed: Option<u64>, fig: bench::FigFn) -> Vec<u8> {
    let mode = Mode {
        messages: 2,
        runs: 2,
        trajectory: 4,
    };
    let mut out = Vec::new();
    taskpool::with_workers(workers, || match sched_seed {
        Some(seed) => taskpool::with_schedule(seed, || fig(mode, &mut out)),
        None => fig(mode, &mut out),
    })
    .expect("figure renders to a Vec");
    out
}

#[test]
fn figure_text_is_worker_count_and_schedule_invariant() {
    // End-to-end through the figure formatting layer on two cheap
    // figures — a workload table and a transport grid — at plain worker
    // counts, then under eight adversarial schedules each, sequential
    // and parallel.
    for fig in [
        bench::figures::sigcomm_sparseness as bench::FigFn,
        bench::figures::sigcomm_model as bench::FigFn,
    ] {
        let baseline = render_figure(1, None, fig);
        assert!(!baseline.is_empty());
        for workers in [3, 8] {
            assert_eq!(
                baseline,
                render_figure(workers, None, fig),
                "workers={workers}"
            );
        }
        for seed in 0..8u64 {
            for workers in [1, 3] {
                assert_eq!(
                    baseline,
                    render_figure(workers, Some(seed), fig),
                    "seed={seed}, workers={workers}"
                );
            }
        }
    }
}
