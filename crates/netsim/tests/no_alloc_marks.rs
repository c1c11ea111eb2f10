//! The `// xcheck: no_alloc` contract, pinned, for the netsim
//! per-packet hot paths: [`Network::source_delivers`],
//! [`Network::link_delivers`], [`Network::walk`] (with a warm `source_ok`
//! buffer), [`Network::multicast_to_into`] (with a warm `delivered` scratch
//! buffer) and [`Network::unicast`] must perform zero heap allocations.

use netsim::{Network, NetworkConfig};

#[global_allocator]
static ALLOC: xcheck_rt::CountingAlloc = xcheck_rt::CountingAlloc;

fn network() -> Network {
    Network::new(NetworkConfig {
        n_users: 256,
        seed: 7,
        ..NetworkConfig::default()
    })
}

#[test]
fn per_link_queries_are_allocation_free() {
    xcheck_rt::assert_counting();
    let mut net = network();
    // Warm-up: in an obs build, each counter slot registers (one
    // leaked Box + a registry push) on its first use — the deliveries
    // counter only on the first packet that gets through.
    let warmed = (0..10u64).any(|t| {
        let now = t as f64 * 100.0;
        net.source_delivers(now) && (0..256).any(|u| net.link_delivers(u, now))
    });
    assert!(warmed, "warm-up packets must get at least one through");
    let mut delivered = 0;
    for t in 10..60u64 {
        let now = t as f64 * 100.0;
        delivered +=
            xcheck_rt::assert_zero_alloc("Network::source_delivers + link_delivers", || {
                let source_ok = net.source_delivers(now);
                (0..128)
                    .filter(|&u| source_ok && net.link_delivers(2 * u, now))
                    .count()
            });
    }
    assert!(delivered > 0, "some packets must get through");
}

#[test]
fn walk_is_allocation_free_with_warm_source_answers() {
    xcheck_rt::assert_counting();
    let mut net = network();
    // A round of 12 packets 100 ms apart, and the next one a boundary
    // later: most queries hit a link's memo, the first of each walk and
    // every query after the boundary refresh it.
    let round =
        |first: f64| -> Vec<f64> { (0..12).map(|i| first + f64::from(i) * 100.0).collect() };
    let (mut source_ok, mut got) = (Vec::with_capacity(12), Vec::with_capacity(12));
    // Warm-up: in an obs build, each counter slot registers on its
    // first use.
    for user in 0..8 {
        net.walk(user, &round(100.0), &mut source_ok, 0..12, &mut got);
    }
    assert!(
        !got.is_empty(),
        "warm-up walks must hear at least one packet"
    );
    let mut heard = 0;
    for (r, first) in [1300.0, 2450.0, 3600.0].into_iter().enumerate() {
        let times = round(first);
        source_ok.clear();
        for user in 8..256 {
            // A span to the user's own packet, and the rest of the round
            // if it was lost, as the transport walks.
            let own = (user + r) % 12;
            got.clear();
            xcheck_rt::assert_zero_alloc("Network::walk", || {
                net.walk(user, &times, &mut source_ok, 0..own + 1, &mut got);
                if got.last() != Some(&own) {
                    net.walk(user, &times, &mut source_ok, own + 1..12, &mut got);
                }
            });
            heard += got.len();
        }
        assert_eq!(source_ok.len(), 12, "some walk must reach the last packet");
    }
    assert!(heard > 3 * 248, "most walks must hear packets");
}

#[test]
fn multicast_to_into_is_allocation_free_with_warm_scratch() {
    xcheck_rt::assert_counting();
    let mut net = network();
    let listeners: Vec<usize> = (0..128).map(|i| i * 2).collect();
    let mut delivered = Vec::new();
    net.multicast_to_into(0.0, &listeners, &mut delivered); // sizes the buffer
    for t in 1..50u64 {
        xcheck_rt::assert_zero_alloc("Network::multicast_to_into", || {
            net.multicast_to_into(t as f64 * 100.0, &listeners, &mut delivered)
        });
        assert_eq!(delivered.len(), listeners.len());
    }
}

#[test]
fn unicast_is_allocation_free() {
    xcheck_rt::assert_counting();
    let mut net = network();
    // Warm-up: in an obs build, the delivered-counter slot only
    // registers (one leaked Box + a registry push) on the first unicast
    // that actually gets through — drive until that has happened.
    let mut warmed = false;
    for t in 0..100u64 {
        warmed |= net.unicast(t as f64 * 50.0, (t % 256) as usize);
        if warmed {
            break;
        }
    }
    assert!(warmed, "warm-up unicasts must get at least one through");
    let mut delivered_any = false;
    for t in 100..300u64 {
        let ok = xcheck_rt::assert_zero_alloc("Network::unicast", || {
            net.unicast(t as f64 * 50.0, (t % 256) as usize)
        });
        delivered_any |= ok;
    }
    assert!(delivered_any, "some unicasts must get through");
}
