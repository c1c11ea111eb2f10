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

#[test]
fn smoke_figures_are_byte_identical_at_one_and_four_grid_workers() {
    for (name, fig) in bench::ALL_FIGURES {
        if !bench::SMOKE_FIGURES.contains(name) {
            continue;
        }
        let serial = render(1, *fig);
        assert!(!serial.is_empty(), "{name}");
        assert_eq!(serial, render(4, *fig), "{name}");
    }
}
