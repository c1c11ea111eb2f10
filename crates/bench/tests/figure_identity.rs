//! The figure grid's fan-out must be invisible in the output: whole
//! rendered figures are byte-identical whether their cells run on one
//! grid worker or on four.

use bench::{FigFn, Mode};

fn render(workers: usize, fig: FigFn) -> Vec<u8> {
    let mode = Mode {
        messages: 2,
        runs: 2,
        trajectory: 4,
    };
    let mut out = Vec::new();
    bench::with_workers(workers, || fig(mode, &mut out)).expect("figure renders to a Vec");
    out
}

/// A cheap but representative subset of the figures: one workload grid,
/// one adaptive trajectory, one table, one ablation.
const SAMPLED: [&str; 4] = [
    "fig06",
    "fig14",
    "sigcomm_sparseness",
    "ablation_loss_model",
];

#[test]
fn sampled_figures_are_byte_identical_at_one_and_four_grid_workers() {
    for (name, fig) in bench::ALL_FIGURES {
        if !SAMPLED.contains(name) {
            continue;
        }
        let serial = render(1, *fig);
        assert!(!serial.is_empty(), "{name}");
        assert_eq!(serial, render(4, *fig), "{name}");
    }
}
