//! What the byte model holds per member, pinned exactly: the sizes of the
//! per-member types, the path an agent keeps, the live heap of a bootstrapped
//! `Group::new(4096)`, and the transient peak of one rekey shaped like the
//! benchmark's `wire_steady` workload (N = 4096, J = L = 64, k = 10, default
//! loss) at a fixed seed. A change that makes a member cost more, or less,
//! moves one of these numbers on purpose.
//!
//! The heap figures are the sizes asked of the allocator (`xcheck-rt`'s
//! per-thread live bytes), not its rounding. A build with the sanitizer or
//! the obs registry on allocates for them as well, so there only the type
//! sizes are checked. The table is printed (`--nocapture` shows it), one
//! `footprint:` line per row.

use std::mem::size_of;

use grouprekey::driver::Group;
use grouprekey::sim::SimUser;
use grouprekey::transport::ByteReceiver;
use grouprekey::{ServerOptions, UserAgent};
use keytree::Batch;
use netsim::{MarkovLink, NetworkConfig};
use rekeyproto::{BlockSearch, UserOutcome, UserSession};
use wirecrypto::SymKey;

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

const N: u32 = 4096;
const DEGREE: u32 = 4;

fn row(name: &str, bytes: u64) {
    println!("footprint: {name:<44} {bytes:>9} B");
}

#[test]
fn per_member_types_are_this_size() {
    let sizes = [
        ("size_of ByteReceiver", size_of::<ByteReceiver>(), 152),
        ("size_of UserSession", size_of::<UserSession>(), 144),
        ("size_of BlockSearch", size_of::<BlockSearch>(), 56),
        ("size_of UserOutcome", size_of::<UserOutcome>(), 40),
        ("size_of SimUser", size_of::<SimUser>(), 72),
        ("size_of UserAgent", size_of::<UserAgent>(), 56),
        ("size_of MarkovLink", size_of::<MarkovLink>(), 88),
    ];
    for (name, size, _) in sizes {
        row(name, size as u64);
    }
    let got = sizes.map(|(name, size, _)| (name, size));
    assert_eq!(got, sizes.map(|(name, _, pinned)| (name, pinned)));
}

#[test]
fn an_agent_keeps_its_ancestors_and_nothing_else() {
    xcheck_rt::assert_counting();
    // Node 1365 is the first at depth 6 in a degree-4 tree: a member of a
    // full 4096-user group.
    let key = SymKey::from_bytes([7; 16]);
    let before = xcheck_rt::live_bytes();
    let agent = UserAgent::new(9, 1365, key, DEGREE);
    let path = xcheck_rt::live_bytes() - before;
    row("UserAgent path heap at depth 6", path as u64);
    assert_eq!(agent.node_id(), 1365);
    assert_eq!(path, 120);
}

#[test]
fn a_wire_steady_shaped_group_holds_and_peaks_at_this_much() {
    xcheck_rt::assert_counting();
    if obs::enabled() || cfg!(feature = "sanitize") {
        return;
    }
    let mut options = ServerOptions::default();
    options.protocol.block_size = 10;
    let net = NetworkConfig {
        n_users: N as usize,
        seed: 61357,
        ..NetworkConfig::default()
    };
    let before = xcheck_rt::live_bytes();
    let mut group = Group::new(N, options, net);
    let held = xcheck_rt::live_bytes() - before;

    let joins = (N..N + 64).map(|m| (m, SymKey::from_bytes([(m % 251) as u8; 16])));
    let batch = Batch::new(joins.collect(), (0..N).step_by(64).collect());
    let (peak, report) = xcheck_rt::peak_in(|| group.rekey(batch));
    assert!(group.all_agents_synchronized());
    assert!(report.enc_packets > 0);

    row("Group::new(4096) live heap", held as u64);
    row("one wire_steady-shaped rekey, transient peak", peak);
    row("  per member", peak / u64::from(N));
    assert_eq!((held, peak), (1_561_423, 1_169_982));
}
