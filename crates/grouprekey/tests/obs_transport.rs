//! With the metrics layer compiled in, the byte-faithful driver reports its
//! delivery through the same spans as the figure simulator, because both
//! run the one loop in `grouprekey::transport`, and its byte receivers count
//! every delivered frame by what the session did with it. One test, alone in
//! its binary: the registry is process-wide, and the counts below are exact.
//! Vacuous in a no-op build.

use grouprekey::driver::Group;
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;

#[test]
fn one_rekey_records_its_spans_and_every_delivery_by_outcome() {
    if !obs::enabled() {
        return;
    }
    let net = NetworkConfig {
        n_users: 1024,
        alpha: 1.0,
        p_high: 0.3,
        seed: 3,
        ..NetworkConfig::default()
    };
    let mut group = Group::new(1024, ServerOptions::default(), net);
    obs::reset();
    let report = group.rekey(Batch::new(vec![], (0..1024).step_by(16).collect()));
    assert!(group.all_agents_synchronized());

    let snap = obs::snapshot();
    let message = snap.span("transport.message").expect("message span");
    assert_eq!(message.count, 1);
    let rounds = snap.span("transport.round").expect("round spans");
    assert!(rounds.count >= 1);
    assert_eq!(rounds.count, snap.counter("transport.rounds"));
    // Every round the users counted is a round the loop drove.
    assert!(rounds.count as usize >= report.rounds_all_users());

    // Every delivery the network made reached a session, and the session
    // said what it did with it: `transport.frame.*` partitions the
    // deliveries by outcome.
    let frames = |reason: &str| snap.counter(&format!("transport.frame.{reason}"));
    let by_reason: u64 = ["mine", "kept", "wrong_message", "out_of_range", "satisfied"]
        .into_iter()
        .map(frames)
        .sum();
    assert_eq!(
        by_reason,
        snap.counter("net.deliveries") + snap.counter("net.unicast_delivered")
    );
    // At most one frame keys each of the 960 members left, most of what a
    // member hears is someone else's packet, and the server sends nothing
    // a member has to turn away.
    assert!((1..=960).contains(&frames("mine")));
    assert!(frames("kept") > frames("mine"));
    assert_eq!(frames("wrong_message") + frames("out_of_range"), 0);
}
