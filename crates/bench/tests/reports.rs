//! The layout every committed `BENCH_*.json` shares: one row per line, so
//! two reports diff by row and `cmp` is the whole sentinel.

use bench::report::{self, Spec};

#[test]
fn a_report_is_one_row_per_line_and_refuses_a_non_finite_ratio() {
    let spec = Spec {
        schema: "bench_scale/v5",
        file: "BENCH_scale.json",
        sinks: &[],
    };
    let mut w = report::begin(&spec);
    w.key("scale");
    w.begin_array();
    for n in [1024u64, 4096] {
        w.begin_object();
        w.field_u64("n", n);
        w.field_u64("encryptions", 940);
        report::ratio(&mut w, "resident_bytes_per_node", 27.125).expect("finite");
        w.end_object();
    }
    w.end_array();
    let text = report::finish(w);
    assert_eq!(
        text,
        "{\n  \"schema\": \"bench_scale/v5\",\n  \"scale\": [\n    \
         {\"n\": 1024, \"encryptions\": 940, \"resident_bytes_per_node\": 27.125},\n    \
         {\"n\": 4096, \"encryptions\": 940, \"resident_bytes_per_node\": 27.125}\n  ]\n}\n"
    );

    // A ratio that is not finite fails the run and names its key.
    let mut w = report::begin(&spec);
    for bad in [f64::INFINITY, f64::NAN] {
        let e = report::ratio(&mut w, "mean_depth_final", bad).expect_err("not finite");
        assert!(
            e.to_string().starts_with("mean_depth_final is not finite"),
            "{e}"
        );
    }
}
