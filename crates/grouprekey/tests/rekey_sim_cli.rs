//! `rekey-sim` refuses a network it cannot simulate the way it refuses a
//! malformed flag: the reason and the usage on stderr, exit status 2, no
//! panic (`NetworkConfig::validate` is the rule).

use std::process::Command;

#[test]
fn an_impossible_network_is_a_usage_error_not_a_panic() {
    for (flags, reason) in [
        (["--p-high", "1.0"], "p_high 1 outside [0, 1)"),
        (["--alpha", "NaN"], "alpha NaN outside [0, 1]"),
        (["--n", "0"], "need at least one user"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rekey-sim"))
            .args(flags)
            .output()
            .expect("rekey-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.starts_with(reason), "{flags:?}: {stderr}");
        assert!(stderr.contains("usage: rekey-sim"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a table");
    }
}
