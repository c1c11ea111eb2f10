//! Ablation studies of the protocol's design choices (DESIGN.md calls
//! these out): block interleaving vs sequential sending, burst vs
//! independent loss, and UKA vs naive encryption packing.
//!
//! Like `figures`, every ablation is a `grid` sweep printed by `table`.

use std::io::{self, Write};

use grouprekey::experiment::{workload_stats, ExperimentParams};
use keytree::{Batch, KeyTree};
use netsim::NetworkConfig;
use rekeymsg::{assign, Layout, SendOrder};
use rekeyproto::ServerConfig;
use wirecrypto::KeyGen;

use crate::{fixed_rho, grid, header, mean, multicast, params, table, Mode};

/// The transport columns both loss ablations print: first-round NACKs,
/// bandwidth overhead and rounds to every user, averaged over a
/// multicast-only run of `proto` (k = 10) over burst or independent loss.
fn loss_cell(mode: Mode, seed: u64, independent_loss: bool, proto: ServerConfig) -> String {
    let reports = multicast(ExperimentParams {
        net: NetworkConfig {
            independent_loss,
            ..NetworkConfig::default()
        },
        ..params(4096, 0.2, proto, mode.messages, seed)
    });
    format!(
        " {:>10.1} {:>12.3} {:>12.2}",
        mean(&reports, |m| m.nacks_round1 as f64),
        mean(&reports, |m| m.bandwidth_overhead),
        mean(&reports, |m| m.rounds_all_users() as f64),
    )
}

/// The loss process a row runs over, as the ablations label it.
fn loss_name(independent: bool) -> &'static str {
    if independent {
        "independent"
    } else {
        "burst"
    }
}

/// Interleaved vs sequential send order, under burst and independent
/// loss. Interleaving should pay only when losses are bursty.
pub fn ablation_send_order(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Ablation: send order",
        "interleaved vs sequential, burst vs independent loss (rho = 1, k = 10)",
    )?;
    let rows = [
        (false, SendOrder::Interleaved, "interleaved"),
        (false, SendOrder::Sequential, "sequential"),
        (true, SendOrder::Interleaved, "interleaved"),
        (true, SendOrder::Sequential, "sequential"),
    ];
    let cells = grid(&rows, &[()], |_, &(independent, send_order, _), _| {
        let proto = ServerConfig {
            send_order,
            ..fixed_rho(10, 1.0)
        };
        loss_cell(mode, 3100, independent, proto)
    });
    let head = format!(
        "{:<12} {:<12} {:>10} {:>12} {:>12}",
        "loss model", "order", "NACKs r1", "bw overhead", "rounds(all)"
    );
    let labels =
        rows.map(|(independent, _, name)| format!("{:<12} {name:<12}", loss_name(independent)));
    table(out, &head, labels, &cells, String::clone)
}

/// Burst vs independent loss at identical stationary rates: burstiness is
/// what makes FEC blocks fail together and NACK counts spike.
pub fn ablation_loss_model(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Ablation: loss model",
        "Markov burst vs independent loss at equal stationary rates",
    )?;
    let rows = [(false, 1.0), (false, 1.6), (true, 1.0), (true, 1.6)];
    let cells = grid(&rows, &[()], |_, &(independent, rho), _| {
        loss_cell(mode, 3200, independent, fixed_rho(10, rho))
    });
    let head = format!(
        "{:<12} {:>8} {:>10} {:>12} {:>12}",
        "model", "rho", "NACKs r1", "bw overhead", "rounds(all)"
    );
    let labels =
        rows.map(|(independent, rho)| format!("{:<12} {rho:>8.1}", loss_name(independent)));
    table(out, &head, labels, &cells, String::clone)
}

/// UKA vs naive subtree-order packing: what per-user alignment buys.
pub fn ablation_uka(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Ablation: key assignment",
        "UKA (one packet per user) vs naive subtree-order packing",
    )?;
    let ns = [256u32, 1024, 4096];
    let cells = grid(&ns, &[()], |_, &n, _| {
        let l = (n / 4) as usize;
        let layout = Layout::DEFAULT;
        let uka = workload_stats(n, 4, 0, l, mode.runs, 3300, &layout);

        // Naive stats on a matching workload.
        let mut kg = KeyGen::from_seed(3300);
        let mut tree = KeyTree::balanced(n, 4, &mut kg);
        let leaves: Vec<u32> = (0..l as u32).map(|i| (i * 4) % n).collect();
        let outcome = tree.process_batch(&Batch::new(vec![], leaves), &mut kg);
        let naive = assign::naive_plan_stats(&tree, &outcome, &layout);
        let uka_plans = assign::plan(&tree, &outcome, &layout).expect("DEFAULT layout fits");
        (uka.enc_packets.max(uka_plans.len() as f64), naive)
    });
    let head = format!(
        "{:>6} | {:>8} {:>8} | {:>10} {:>8} | {:>22}",
        "N", "UKA pkts", "naive", "pkts/user", "max", "P[1-round] p=2% / 20%"
    );
    let p_success = |p: f64, m: f64| (1.0 - p).powf(m);
    table(
        out,
        &head,
        ns.map(|n| format!("{n:>6}")),
        &cells,
        |(uka_packets, naive)| {
            let per_user = naive.avg_packets_per_user;
            format!(
            " | {uka_packets:>8.1} {:>8} | {per_user:>10.2} {:>8} | UKA {:.3}/{:.3} naive {:.3}/{:.3}",
            naive.packets,
            naive.max_packets_per_user,
            p_success(0.02, 1.0),
            p_success(0.20, 1.0),
            p_success(0.02, per_user),
            p_success(0.20, per_user),
        )
        },
    )?;
    writeln!(
        out,
        "(UKA pays a small duplication overhead; naive pays multiple-packet\n\
         dependence per user, collapsing one-round success at 20% loss.)"
    )
}
