//! With the metrics layer compiled in, the byte-faithful driver reports its
//! delivery through the same spans as the figure simulator, because both
//! run the one loop in `grouprekey::transport`, and its byte receivers count
//! every delivered frame by what the session did with it. One test, alone in
//! its binary: the registry is process-wide, and the counts below are exact.
//! A no-op build runs the rekey and the stray frame, and counts nothing.

use grouprekey::driver::Group;
use grouprekey::transport::{ByteReceiver, Receiver};
use grouprekey::ServerOptions;
use keytree::Batch;
use netsim::NetworkConfig;
use rekeymsg::Layout;
use rekeyproto::UserSession;

#[test]
fn one_rekey_records_its_spans_and_every_delivery_by_outcome() {
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

    // A frame cut short on the way is counted and dropped, not a panic.
    let layout = Layout::DEFAULT;
    let mut stray = ByteReceiver::new(UserSession::new(5, 4, 10, layout), 0, 5);
    stray.receive(&vec![0u8; layout.enc_packet_len - 1].into());
    assert!(!stray.is_satisfied());

    if !obs::enabled() {
        return;
    }
    let snap = obs::snapshot();
    let message = snap.span("transport.message").expect("message span");
    assert_eq!(message.count, 1);
    let rounds = snap.span("transport.round").expect("round spans");
    assert!(rounds.count >= 1);
    assert_eq!(rounds.count, snap.counter("transport.rounds"));
    // The receivers' two rows: one delivery span per multicast round and
    // one boundary span per round.
    let deliver = snap.span("transport.deliver").expect("delivery spans");
    assert!((1..=rounds.count).contains(&deliver.count));
    let boundary = snap.span("transport.boundary").expect("boundary spans");
    assert_eq!(boundary.count, rounds.count);
    // Every round the users counted is a round the loop drove.
    assert!(rounds.count as usize >= report.rounds_all_users());

    // Every delivery the network made reached a session, and the session
    // said what it did with it — or the walk it was on found its own packet
    // and it never read it (`unread`): `transport.frame.*` partitions the
    // deliveries (and the one stray frame) by outcome.
    let frames = |reason: &str| snap.counter(&format!("transport.frame.{reason}"));
    let by_reason: u64 = [
        "mine",
        "kept",
        "wrong_message",
        "out_of_range",
        "satisfied",
        "ruled_out",
        "malformed",
        "unread",
    ]
    .into_iter()
    .map(frames)
    .sum();
    assert_eq!(
        by_reason,
        snap.counter("net.deliveries") + snap.counter("net.unicast_delivered") + 1
    );
    // Every delivery answered one question asked of a receiver link: one
    // per packet that crossed the source link to a listener still walking,
    // and one per unicast copy that did. On this fixed run, exactly:
    let queries = snap.counter("net.link_queries");
    let delivered = snap.counter("net.deliveries");
    assert!(delivered + snap.counter("net.unicast_delivered") <= queries);
    assert_eq!((queries, delivered), (14_096, 9_936));
    // A walk asks the network one span at a time, up to the frame the
    // receiver names as the next it may read now; a miss is a named frame
    // delivered and then not read: here, about one a member, the frame
    // whose header taught it its ID.
    let walk = |what: &str| snap.counter(&format!("transport.walk.{what}"));
    assert_eq!((walk("spans"), walk("hint_misses")), (2_672, 871));
    // At most one frame keys each of the 960 members left, most of what a
    // member hears is someone else's packet — kept, ruled out, or never
    // read because its own came in the same round — and the server sends
    // nothing a member has to turn away.
    assert!((1..=960).contains(&frames("mine")));
    let others = frames("kept") + frames("ruled_out") + frames("unread");
    assert!(others > frames("mine"));
    assert!(frames("unread") > 0);
    assert_eq!(frames("wrong_message") + frames("out_of_range"), 0);
    assert_eq!(frames("malformed"), 1);

    // What recovery cost the receivers: the blocks they validated, the
    // packets they examined by header — about one a block, not every
    // missing one — how many of those the received headers did not point
    // at, the blocks that turned out not to hold the member's packet, and
    // the packets rebuilt in full: exactly one per member FEC keyed, each
    // member being keyed once, by its own frame (ENC or USR) or by FEC.
    let decode = |what: &str| snap.counter(&format!("transport.decode.{what}"));
    assert!(decode("blocks") > 0);
    assert!(decode("rows") >= decode("blocks") - decode("exhausted"));
    assert!(decode("rows") < 2 * decode("blocks"));
    assert!(decode("fallback_rows") <= decode("rows"));
    assert!(decode("exhausted") <= decode("blocks"));
    assert!(decode("full_rows") <= decode("rows"));
    assert_eq!(decode("full_rows") + frames("mine"), 960);
    // Each session's recovery at a boundary is one `transport.decode` span
    // inside that boundary's span: at least one per member keyed by FEC
    // (that member's last), and no more time than the boundaries took.
    let session = snap
        .span("transport.decode")
        .expect("session recovery spans");
    assert!(session.count >= decode("full_rows"));
    assert!(session.count >= boundary.count - 1);
    assert!(session.total <= boundary.total);
}
