//! With the metrics layer compiled in, the byte-faithful driver reports its
//! delivery through the same spans as the figure simulator, because both
//! run the one loop in `grouprekey::transport`. Alone in its test binary:
//! the registry is process-wide, and the counts below are exact. Vacuous in
//! a no-op build.

use grouprekey::driver::Group;
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;

#[test]
fn one_rekey_records_one_message_span_and_its_rounds() {
    if !obs::enabled() {
        return;
    }
    let net = NetworkConfig {
        n_users: 64,
        alpha: 1.0,
        p_high: 0.3,
        seed: 3,
        ..NetworkConfig::default()
    };
    let mut group = Group::new(64, ServerOptions::default(), net);
    obs::reset();
    let report = group.rekey(Batch::new(vec![], vec![5, 40]));
    assert!(group.all_agents_synchronized());

    let snap = obs::snapshot();
    let message = snap.span("transport.message").expect("message span");
    assert_eq!(message.count, 1);
    let rounds = snap.span("transport.round").expect("round spans");
    assert!(rounds.count >= 1);
    assert_eq!(rounds.count, snap.counter("transport.rounds"));
    // Every round the users counted is a round the loop drove.
    assert!(rounds.count as usize >= report.rounds_all_users());
}
