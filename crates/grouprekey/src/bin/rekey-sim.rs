//! `rekey-sim` — command-line driver for the transport simulator.
//!
//! ```sh
//! cargo run --release -p grouprekey --bin rekey-sim -- \
//!     --n 4096 --alpha 0.2 --k 10 --messages 25 --num-nack 20
//! ```
//!
//! Simulates a sequence of rekey messages at the paper's defaults (any of
//! which can be overridden) and prints a per-message table plus summary
//! statistics: the tool an operator would use to size `k`, `rho` and
//! `numNACK` for their own loss environment.

use grouprekey::experiment::{ExperimentParams, ExperimentRun};
use netsim::NetworkConfig;
use rekeyproto::ServerConfig;

#[derive(Debug)]
struct Args {
    n: u32,
    alpha: f64,
    p_high: f64,
    p_low: f64,
    k: usize,
    rho: f64,
    adaptive: bool,
    num_nack: usize,
    messages: usize,
    leaves: Option<usize>,
    joins: usize,
    seed: u64,
    multicast_only: bool,
    csv: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 4096,
            alpha: 0.2,
            p_high: 0.20,
            p_low: 0.02,
            k: 10,
            rho: 1.0,
            adaptive: true,
            num_nack: 20,
            messages: 10,
            leaves: None,
            joins: 0,
            seed: 42,
            multicast_only: false,
            csv: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rekey-sim [--n N] [--alpha F] [--p-high F] [--p-low F] [--k K]\n\
         \x20                [--rho F] [--fixed-rho] [--num-nack T] [--messages M]\n\
         \x20                [--leaves L] [--joins J] [--seed S] [--multicast-only] [--csv]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--n" => args.n = val("--n").parse().unwrap_or_else(|_| usage()),
            "--alpha" => args.alpha = val("--alpha").parse().unwrap_or_else(|_| usage()),
            "--p-high" => args.p_high = val("--p-high").parse().unwrap_or_else(|_| usage()),
            "--p-low" => args.p_low = val("--p-low").parse().unwrap_or_else(|_| usage()),
            "--k" => args.k = val("--k").parse().unwrap_or_else(|_| usage()),
            "--rho" => args.rho = val("--rho").parse().unwrap_or_else(|_| usage()),
            "--fixed-rho" => args.adaptive = false,
            "--num-nack" => args.num_nack = val("--num-nack").parse().unwrap_or_else(|_| usage()),
            "--messages" => args.messages = val("--messages").parse().unwrap_or_else(|_| usage()),
            "--leaves" => args.leaves = Some(val("--leaves").parse().unwrap_or_else(|_| usage())),
            "--joins" => args.joins = val("--joins").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--multicast-only" => args.multicast_only = true,
            "--csv" => args.csv = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let a = parse_args();
    let leaves = a.leaves.unwrap_or((a.n / 4) as usize);

    let mut params = ExperimentParams {
        n: a.n,
        degree: 4,
        joins: a.joins,
        leaves,
        protocol: ServerConfig {
            block_size: a.k,
            initial_rho: a.rho,
            initial_num_nack: a.num_nack,
            adapt_rho: a.adaptive,
            ..ServerConfig::default()
        },
        net: NetworkConfig {
            n_users: a.n as usize + a.joins,
            alpha: a.alpha,
            p_high: a.p_high,
            p_low: a.p_low,
            ..NetworkConfig::default()
        },
        messages: a.messages,
        seed: a.seed,
        ..ExperimentParams::default()
    };
    if a.multicast_only {
        params = params.multicast_only();
    }
    let refusal = if let Err(e) = params.net.validate() {
        Some(e.to_string())
    } else if let Err(e) = rse::BlockEncoder::new(a.k) {
        Some(format!("k: {e}"))
    } else if a.k > rekeymsg::MAX_BLOCK_SIZE {
        Some(format!(
            "k: block size {} over the wire's {}: sequence numbers are 7 bits",
            a.k,
            rekeymsg::MAX_BLOCK_SIZE
        ))
    } else if !(a.rho.is_finite() && a.rho >= 0.0) {
        Some(format!("rho {} is not a finite factor >= 0", a.rho))
    } else if a.messages == 0 {
        Some("need at least one message".to_string())
    } else {
        None
    };
    if let Some(reason) = refusal {
        eprintln!("{reason}");
        usage();
    }

    let mode = if a.adaptive {
        " (adaptive)"
    } else {
        " (fixed)"
    };
    if a.csv {
        println!("msg,enc,rho,nacks_r1,bw_overhead,rounds_all,avg_rounds_user,usr_pkts,missed");
    } else {
        println!(
            "rekey-sim: N={} alpha={} p=({},{}) k={} rho={}{} numNACK={} J={} L={} seed={}",
            a.n, a.alpha, a.p_high, a.p_low, a.k, a.rho, mode, a.num_nack, a.joins, leaves, a.seed
        );
        println!(
            "{:>4} {:>5} {:>7} {:>9} {:>8} {:>7} {:>9} {:>8}",
            "msg", "ENC", "rho", "NACKs r1", "bw ovh", "rounds", "avg r/usr", "USR pkts"
        );
    }

    let mut run = ExperimentRun::new(params);
    let (mut sum_bw, mut sum_nacks, mut sum_rounds) = (0.0, 0usize, 0.0);
    for _ in 0..a.messages {
        let r = run.step();
        if a.csv {
            println!(
                "{},{},{:.3},{},{:.4},{},{:.5},{},{}",
                r.msg_seq,
                r.enc_packets,
                r.rho,
                r.nacks_round1,
                r.bandwidth_overhead,
                r.rounds_all_users(),
                r.avg_user_rounds(),
                r.usr_packets,
                r.missed_deadline,
            );
            continue;
        }
        println!(
            "{:>4} {:>5} {:>7.2} {:>9} {:>8.3} {:>7} {:>9.4} {:>8}",
            r.msg_seq,
            r.enc_packets,
            r.rho,
            r.nacks_round1,
            r.bandwidth_overhead,
            r.rounds_all_users(),
            r.avg_user_rounds(),
            r.usr_packets,
        );
        sum_bw += r.bandwidth_overhead;
        sum_nacks += r.nacks_round1;
        sum_rounds += r.avg_user_rounds();
    }
    if !a.csv {
        let m = a.messages as f64;
        println!(
            "---- mean: bw overhead {:.3}, NACKs r1 {:.1}, rounds/user {:.4}",
            sum_bw / m,
            sum_nacks as f64 / m,
            sum_rounds / m
        );
    }
}
