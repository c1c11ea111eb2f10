//! One regeneration function per figure/table.
//!
//! Parameter values mirror the paper's captions: N = 4096, d = 4, J = 0,
//! L = N/4, alpha = 20% (p_high = 20%, p_low = 2%, p_source = 1%),
//! send interval 100 ms, 1027-byte ENC packets, k = 10, numNACK = 20 —
//! unless the figure sweeps that parameter.
//!
//! Every function writes to a caller-supplied `Write` and fans its
//! independent grid cells out with [`crate::par`]: each cell owns its
//! seeded network and controller, so the produced bytes are identical to
//! a serial run at any worker count (see
//! `crates/bench/tests/figure_identity.rs`).

use std::io::{self, Write};

use grouprekey::experiment::{
    encryption_cost_batch, encryption_cost_individual, run_experiment, workload_stats,
    ExperimentParams, ExperimentRun,
};
use grouprekey::MessageReport;
use netsim::NetworkConfig;
use rekeymsg::Layout;
use rekeyproto::ServerConfig;

use crate::{header, mean, par, Mode};

const ALPHAS: [f64; 4] = [0.0, 0.2, 0.4, 1.0];

/// The wire format's 8-bit block ID caps a message at 256 blocks. At
/// k = 1 and N = 16384 the rekey message (~430 ENC packets) cannot be
/// addressed — a real limit of the paper's packet format that the
/// experiment honours by skipping the combination.
fn wire_feasible(k: usize, n: u32) -> bool {
    !(k == 1 && n > 8192)
}

fn params_for(
    n: u32,
    alpha: f64,
    proto: ServerConfig,
    messages: usize,
    seed: u64,
) -> ExperimentParams {
    ExperimentParams {
        protocol: proto,
        net: NetworkConfig {
            alpha,
            ..NetworkConfig::default()
        },
        messages,
        seed,
        ..ExperimentParams::default()
    }
    .with_n(n)
}

/// Runs a grid of independent adaptive trajectories (one persistent
/// [`ExperimentRun`] per cell) and returns each cell's full report
/// sequence, in cell order.
fn trajectories(cells: &[ExperimentParams], messages: usize) -> Vec<Vec<MessageReport>> {
    par(cells, |&params| {
        let mut run = ExperimentRun::new(params);
        (0..messages).map(|_| run.step()).collect()
    })
}

/// Figure 6 (middle): average # ENC packets as a function of J and L
/// (N = 4096); (right): as a function of N for three (J, L) mixes.
pub fn fig06(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 6 (middle)",
        "avg # ENC packets vs (J, L), N = 4096, d = 4",
    )?;
    let steps = [0usize, 512, 1024, 2048, 3072, 4096];
    let cells: Vec<(usize, usize)> = steps
        .iter()
        .flat_map(|&j| steps.iter().map(move |&l| (j, l)))
        .collect();
    let grid = par(&cells, |&(j, l)| {
        workload_stats(
            4096,
            4,
            j,
            l,
            mode.runs,
            600 + j as u64 * 31 + l as u64,
            &Layout::DEFAULT,
        )
    });
    write!(out, "{:>6}", "J\\L")?;
    for &l in &steps {
        write!(out, "{l:>9}")?;
    }
    writeln!(out)?;
    for (ji, &j) in steps.iter().enumerate() {
        write!(out, "{j:>6}")?;
        for li in 0..steps.len() {
            write!(out, "{:>9.1}", grid[ji * steps.len() + li].enc_packets)?;
        }
        writeln!(out)?;
    }

    header(out, "Figure 6 (right)", "avg # ENC packets vs N")?;
    writeln!(
        out,
        "{:>6} {:>16} {:>16} {:>16}",
        "N", "J=0,L=N/4", "J=N/4,L=N/4", "J=N/4,L=0"
    )?;
    let ns = [64u32, 256, 1024, 4096, 16384];
    let cells: Vec<(u32, usize, usize, u64)> = ns
        .iter()
        .flat_map(|&n| {
            let q = (n / 4) as usize;
            [(n, 0, q, 61), (n, q, q, 62), (n, q, 0, 63)]
        })
        .collect();
    let grid = par(&cells, |&(n, j, l, seed)| {
        workload_stats(n, 4, j, l, mode.runs, seed, &Layout::DEFAULT).enc_packets
    });
    for (ni, &n) in ns.iter().enumerate() {
        writeln!(
            out,
            "{:>6} {:>16.1} {:>16.1} {:>16.1}",
            n,
            grid[3 * ni],
            grid[3 * ni + 1],
            grid[3 * ni + 2]
        )?;
    }
    Ok(())
}

/// Figure 7: UKA duplication overhead vs (J, L) and vs N.
pub fn fig07(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 7 (left)",
        "avg duplication overhead vs (J, L), N = 4096",
    )?;
    let steps = [0usize, 512, 1024, 2048, 3072, 4096];
    let cells: Vec<(usize, usize)> = steps
        .iter()
        .flat_map(|&j| steps.iter().map(move |&l| (j, l)))
        .collect();
    let grid = par(&cells, |&(j, l)| {
        workload_stats(
            4096,
            4,
            j,
            l,
            mode.runs,
            700 + j as u64 * 17 + l as u64,
            &Layout::DEFAULT,
        )
        .duplication
    });
    write!(out, "{:>6}", "J\\L")?;
    for &l in &steps {
        write!(out, "{l:>9}")?;
    }
    writeln!(out)?;
    for (ji, &j) in steps.iter().enumerate() {
        write!(out, "{j:>6}")?;
        for li in 0..steps.len() {
            write!(out, "{:>9.4}", grid[ji * steps.len() + li])?;
        }
        writeln!(out)?;
    }

    header(
        out,
        "Figure 7 (right)",
        "avg duplication overhead vs N (bound (log_d N - 1)/46)",
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>14} {:>12} {:>10}",
        "N", "J=0,L=N/4", "J=N/4,L=N/4", "J=N/4,L=0", "bound"
    )?;
    let ns = [32u32, 128, 512, 2048, 8192];
    let cells: Vec<(u32, usize, usize, u64)> = ns
        .iter()
        .flat_map(|&n| {
            let q = (n / 4) as usize;
            [(n, 0, q, 71), (n, q, q, 72), (n, q, 0, 73)]
        })
        .collect();
    let grid = par(&cells, |&(n, j, l, seed)| {
        workload_stats(n, 4, j, l, mode.runs, seed, &Layout::DEFAULT).duplication
    });
    for (ni, &n) in ns.iter().enumerate() {
        let bound = ((n as f64).log(4.0) - 1.0) / 46.0;
        writeln!(
            out,
            "{:>6} {:>12.4} {:>14.4} {:>12.4} {:>10.4}",
            n,
            grid[3 * ni],
            grid[3 * ni + 1],
            grid[3 * ni + 2],
            bound
        )?;
    }
    Ok(())
}

/// Figure 8: server bandwidth overhead (left) and relative FEC encoding
/// time (right) vs block size k, at fixed rho = 1.
pub fn fig08(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 2, 5, 10, 20, 30, 40, 50];
    let cells: Vec<(usize, f64)> = ks
        .iter()
        .flat_map(|&k| ALPHAS.iter().map(move |&a| (k, a)))
        .collect();
    let grid = par(&cells, |&(k, alpha)| {
        let proto = ServerConfig {
            block_size: k,
            initial_rho: 1.0,
            adapt_rho: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(4096, alpha, proto, mode.messages, 800 + k as u64).multicast_only(),
        );
        let bw = mean(reports.iter().map(|r| r.bandwidth_overhead));
        let units = mean(reports.iter().map(|r| r.encoding_units as f64));
        (bw, units)
    });

    header(
        out,
        "Figure 8 (left)",
        "avg server bandwidth overhead vs k (rho = 1, reactive only)",
    )?;
    write!(out, "{:>4}", "k")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<6}")?;
    }
    writeln!(out)?;
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ai in 0..ALPHAS.len() {
            let (bw, _) = grid[ki * ALPHAS.len() + ai];
            write!(out, "  {bw:<12.3}")?;
        }
        writeln!(out)?;
    }

    header(
        out,
        "Figure 8 (right)",
        "relative overall FEC encoding time vs k (k units per parity packet)",
    )?;
    write!(out, "{:>4}", "k")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<6}")?;
    }
    writeln!(out)?;
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ai in 0..ALPHAS.len() {
            let (_, units) = grid[ki * ALPHAS.len() + ai];
            write!(out, "  {units:<12.0}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 9: first-round NACKs (left) and rounds-to-all-users (right) vs
/// the proactivity factor.
pub fn fig09(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let rhos = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 3.0];
    let cells: Vec<(usize, f64, f64)> = rhos
        .iter()
        .enumerate()
        .flat_map(|(ri, &rho)| ALPHAS.iter().map(move |&a| (ri, rho, a)))
        .collect();
    let grid = par(&cells, |&(ri, rho, alpha)| {
        let proto = ServerConfig {
            initial_rho: rho,
            adapt_rho: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(4096, alpha, proto, mode.messages, 900 + ri as u64).multicast_only(),
        );
        let nacks = mean(reports.iter().map(|r| r.nacks_round1 as f64));
        let rounds = mean(reports.iter().map(|r| r.rounds_all_users() as f64));
        (nacks, rounds)
    });

    header(
        out,
        "Figure 9 (left)",
        "avg # NACKs after round 1 vs rho (k = 10)",
    )?;
    write!(out, "{:>5}", "rho")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<8}")?;
    }
    writeln!(out)?;
    for (ri, &rho) in rhos.iter().enumerate() {
        write!(out, "{rho:>5.1}")?;
        for ai in 0..ALPHAS.len() {
            let (nacks, _) = grid[ri * ALPHAS.len() + ai];
            write!(out, "  {nacks:<14.2}")?;
        }
        writeln!(out)?;
    }

    header(
        out,
        "Figure 9 (right)",
        "avg # rounds until every user has its encryptions vs rho",
    )?;
    write!(out, "{:>5}", "rho")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<8}")?;
    }
    writeln!(out)?;
    for (ri, &rho) in rhos.iter().enumerate() {
        write!(out, "{rho:>5.1}")?;
        for ai in 0..ALPHAS.len() {
            let (_, rounds) = grid[ri * ALPHAS.len() + ai];
            write!(out, "  {rounds:<14.2}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 10: per-round success distribution (left) and bandwidth
/// overhead vs rho (right), alpha = 20%.
pub fn fig10(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 10 (left)",
        "fraction of users needing r rounds (alpha = 20%)",
    )?;
    writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "rho", "r=1", "r=2", "r=3", "r>=4"
    )?;
    let left_rhos = [1.0, 1.6, 2.0];
    let left = par(&left_rhos, |&rho| {
        let proto = ServerConfig {
            initial_rho: rho,
            adapt_rho: false,
            ..ServerConfig::default()
        };
        let reports =
            run_experiment(params_for(4096, 0.2, proto, mode.messages, 1000).multicast_only());
        let mut dist = [0.0f64; 4];
        let mut total = 0.0;
        for r in &reports {
            for (i, &n) in r.rounds_histogram.iter().enumerate() {
                dist[i.min(3)] += n as f64;
                total += n as f64;
            }
        }
        (dist, total)
    });
    for (&rho, (dist, total)) in left_rhos.iter().zip(&left) {
        writeln!(
            out,
            "{:>5.1} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            rho,
            dist[0] / total,
            dist[1] / total,
            dist[2] / total,
            dist[3] / total
        )?;
    }

    header(
        out,
        "Figure 10 (right)",
        "avg server bandwidth overhead vs rho",
    )?;
    write!(out, "{:>5}", "rho")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<8}")?;
    }
    writeln!(out)?;
    let right_rhos = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
    let cells: Vec<(f64, f64)> = right_rhos
        .iter()
        .flat_map(|&rho| ALPHAS.iter().map(move |&a| (rho, a)))
        .collect();
    let grid = par(&cells, |&(rho, alpha)| {
        let proto = ServerConfig {
            initial_rho: rho,
            adapt_rho: false,
            ..ServerConfig::default()
        };
        let reports =
            run_experiment(params_for(4096, alpha, proto, mode.messages, 1010).multicast_only());
        mean(reports.iter().map(|r| r.bandwidth_overhead))
    });
    for (ri, &rho) in right_rhos.iter().enumerate() {
        write!(out, "{rho:>5.1}")?;
        for ai in 0..ALPHAS.len() {
            write!(out, "  {:<14.3}", grid[ri * ALPHAS.len() + ai])?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figures 12 and 13: the adaptive rho trajectory and the controlled
/// first-round NACK counts, from initial rho = 1 and 2.
pub fn fig12_13(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    for initial in [1.0f64, 2.0] {
        header(
            out,
            "Figures 12–13",
            &format!("adaptive rho + NACK control (initial rho = {initial}, numNACK = 20)"),
        )?;
        write!(out, "{:>4}", "msg")?;
        for a in ALPHAS {
            write!(out, "  rho(a={a:<4})  nacks")?;
        }
        writeln!(out)?;
        let cells: Vec<ExperimentParams> = ALPHAS
            .iter()
            .map(|&alpha| {
                let proto = ServerConfig {
                    initial_rho: initial,
                    initial_num_nack: 20,
                    adapt_num_nack: false,
                    ..ServerConfig::default()
                };
                params_for(4096, alpha, proto, mode.trajectory, 1200).multicast_only()
            })
            .collect();
        let runs = trajectories(&cells, mode.trajectory);
        for msg in 1..=mode.trajectory {
            write!(out, "{msg:>4}")?;
            for reports in &runs {
                let r = &reports[msg - 1];
                write!(out, "  {:>10.2}  {:>5}", r.rho, r.nacks_round1)?;
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

/// Figure 14: NACK control across numNACK targets (alpha = 20%).
pub fn fig14(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let targets = [0usize, 5, 10, 40, 100];
    header(
        out,
        "Figure 14",
        "first-round NACKs per message for numNACK in {0,5,10,40,100} (initial rho = 1)",
    )?;
    write!(out, "{:>4}", "msg")?;
    for t in targets {
        write!(out, "  target={t:<4}")?;
    }
    writeln!(out)?;
    let cells: Vec<ExperimentParams> = targets
        .iter()
        .map(|&t| {
            let proto = ServerConfig {
                initial_rho: 1.0,
                initial_num_nack: t,
                adapt_num_nack: false,
                ..ServerConfig::default()
            };
            params_for(4096, 0.2, proto, mode.trajectory, 1400).multicast_only()
        })
        .collect();
    let runs = trajectories(&cells, mode.trajectory);
    for msg in 1..=mode.trajectory {
        write!(out, "{msg:>4}")?;
        for reports in &runs {
            write!(out, "  {:>10}", reports[msg - 1].nacks_round1)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 15: NACK fluctuation across block sizes (adaptive rho).
pub fn fig15(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 5, 10, 30, 50];
    header(
        out,
        "Figure 15",
        "first-round NACKs per message for k in {1,5,10,30,50} (numNACK = 20)",
    )?;
    write!(out, "{:>4}", "msg")?;
    for k in ks {
        write!(out, "  k={k:<8}")?;
    }
    writeln!(out)?;
    let cells: Vec<ExperimentParams> = ks
        .iter()
        .map(|&k| {
            let proto = ServerConfig {
                block_size: k,
                initial_rho: 1.0,
                initial_num_nack: 20,
                adapt_num_nack: false,
                ..ServerConfig::default()
            };
            params_for(4096, 0.2, proto, mode.trajectory, 1500).multicast_only()
        })
        .collect();
    let runs = trajectories(&cells, mode.trajectory);
    for msg in 1..=mode.trajectory {
        write!(out, "{msg:>4}")?;
        for reports in &runs {
            write!(out, "  {:>10}", reports[msg - 1].nacks_round1)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 16: bandwidth overhead vs k under adaptive rho, across alpha
/// (left) and across N (right).
pub fn fig16(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 2, 5, 10, 20, 30, 40, 50];
    header(
        out,
        "Figure 16 (left)",
        "avg server bandwidth overhead vs k (adaptive rho, numNACK = 20)",
    )?;
    write!(out, "{:>4}", "k")?;
    for a in ALPHAS {
        write!(out, "  alpha={a:<6}")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, f64)> = ks
        .iter()
        .flat_map(|&k| ALPHAS.iter().map(move |&a| (k, a)))
        .collect();
    let grid = par(&cells, |&(k, alpha)| {
        let proto = ServerConfig {
            block_size: k,
            initial_rho: 1.0,
            adapt_num_nack: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(4096, alpha, proto, mode.messages, 1600 + k as u64).multicast_only(),
        );
        mean(reports.iter().map(|r| r.bandwidth_overhead))
    });
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ai in 0..ALPHAS.len() {
            write!(out, "  {:<12.3}", grid[ki * ALPHAS.len() + ai])?;
        }
        writeln!(out)?;
    }

    header(
        out,
        "Figure 16 (right)",
        "same, across group size (alpha = 20%)",
    )?;
    let ns = [1024u32, 4096, 8192, 16384];
    write!(out, "{:>4}", "k")?;
    for n in ns {
        write!(out, "  N={n:<8}")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, u32)> = ks
        .iter()
        .flat_map(|&k| ns.iter().map(move |&n| (k, n)))
        .collect();
    let grid = par(&cells, |&(k, n)| {
        if !wire_feasible(k, n) {
            return None;
        }
        let proto = ServerConfig {
            block_size: k,
            initial_rho: 1.0,
            adapt_num_nack: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(n, 0.2, proto, mode.messages, 1650 + k as u64).multicast_only(),
        );
        Some(mean(reports.iter().map(|r| r.bandwidth_overhead)))
    });
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ni in 0..ns.len() {
            match grid[ki * ns.len() + ni] {
                Some(bw) => write!(out, "  {bw:<10.3}")?,
                None => write!(out, "  {:<10}", "n/a")?,
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 17: delivery latency (rounds) vs k under adaptive rho.
pub fn fig17(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 2, 5, 10, 20, 30, 40, 50];
    header(
        out,
        "Figure 17",
        "avg rounds until all users done / avg rounds per user vs k (adaptive rho)",
    )?;
    write!(out, "{:>4}", "k")?;
    for a in ALPHAS {
        write!(out, "  all(a={a:<4}) user")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, f64)> = ks
        .iter()
        .flat_map(|&k| ALPHAS.iter().map(move |&a| (k, a)))
        .collect();
    let grid = par(&cells, |&(k, alpha)| {
        let proto = ServerConfig {
            block_size: k,
            initial_rho: 1.0,
            adapt_num_nack: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(4096, alpha, proto, mode.messages, 1700 + k as u64).multicast_only(),
        );
        let all = mean(reports.iter().map(|r| r.rounds_all_users() as f64));
        let per = mean(reports.iter().map(|r| r.avg_user_rounds()));
        (all, per)
    });
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ai in 0..ALPHAS.len() {
            let (all, per) = grid[ki * ALPHAS.len() + ai];
            write!(out, "  {all:>10.2} {per:>5.3}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 18: per-user rounds (left) and bandwidth overhead (right) as a
/// function of the numNACK target.
pub fn fig18(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let targets = [0usize, 5, 10, 20, 40, 60, 80, 100];
    header(
        out,
        "Figure 18",
        "avg rounds per user / avg server bandwidth overhead vs numNACK",
    )?;
    write!(out, "{:>8}", "numNACK")?;
    for a in ALPHAS {
        write!(out, "  rounds(a={a:<4})  bw")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, f64)> = targets
        .iter()
        .flat_map(|&t| ALPHAS.iter().map(move |&a| (t, a)))
        .collect();
    let grid = par(&cells, |&(t, alpha)| {
        let proto = ServerConfig {
            initial_rho: 1.0,
            initial_num_nack: t,
            adapt_num_nack: false,
            ..ServerConfig::default()
        };
        let reports = run_experiment(
            params_for(4096, alpha, proto, mode.messages, 1800 + t as u64).multicast_only(),
        );
        let rounds = mean(reports.iter().map(|r| r.avg_user_rounds()));
        let bw = mean(reports.iter().map(|r| r.bandwidth_overhead));
        (rounds, bw)
    });
    for (ti, &t) in targets.iter().enumerate() {
        write!(out, "{t:>8}")?;
        for ai in 0..ALPHAS.len() {
            let (rounds, bw) = grid[ti * ALPHAS.len() + ai];
            write!(out, "  {rounds:>13.4}  {bw:>5.2}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figures 19–20: extra bandwidth of adaptive proactive FEC versus the
/// reactive-only baseline (rho = 1), across alpha and across N.
pub fn fig19_20(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 2, 5, 10, 20, 30, 40, 50];
    let overhead = |k: usize, n: u32, alpha: f64, adaptive: bool, seed: u64| -> f64 {
        let proto = ServerConfig {
            block_size: k,
            initial_rho: 1.0,
            adapt_rho: adaptive,
            adapt_num_nack: false,
            ..ServerConfig::default()
        };
        let reports =
            run_experiment(params_for(n, alpha, proto, mode.messages, seed).multicast_only());
        mean(reports.iter().map(|r| r.bandwidth_overhead))
    };

    header(
        out,
        "Figure 19",
        "server bandwidth overhead: adaptive rho vs rho = 1, by alpha (N = 4096)",
    )?;
    write!(out, "{:>4}", "k")?;
    let f19_alphas = [0.0, 0.2, 1.0];
    for a in f19_alphas {
        write!(out, "  a={a:<4} adap  rho1")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, f64)> = ks
        .iter()
        .flat_map(|&k| f19_alphas.iter().map(move |&a| (k, a)))
        .collect();
    let grid = par(&cells, |&(k, alpha)| {
        let ad = overhead(k, 4096, alpha, true, 1900 + k as u64);
        let fx = overhead(k, 4096, alpha, false, 1900 + k as u64);
        (ad, fx)
    });
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ai in 0..f19_alphas.len() {
            let (ad, fx) = grid[ki * f19_alphas.len() + ai];
            write!(out, "  {ad:>10.2} {fx:>5.2}")?;
        }
        writeln!(out)?;
    }

    header(
        out,
        "Figure 20",
        "server bandwidth overhead: adaptive rho vs rho = 1, by N (alpha = 20%)",
    )?;
    write!(out, "{:>4}", "k")?;
    let f20_ns = [1024u32, 8192, 16384];
    for n in f20_ns {
        write!(out, "  N={n:<5} adap  rho1")?;
    }
    writeln!(out)?;
    let cells: Vec<(usize, u32)> = ks
        .iter()
        .flat_map(|&k| f20_ns.iter().map(move |&n| (k, n)))
        .collect();
    let grid = par(&cells, |&(k, n)| {
        if !wire_feasible(k, n) {
            return None;
        }
        let ad = overhead(k, n, 0.2, true, 2000 + k as u64);
        let fx = overhead(k, n, 0.2, false, 2000 + k as u64);
        Some((ad, fx))
    });
    for (ki, &k) in ks.iter().enumerate() {
        write!(out, "{k:>4}")?;
        for ni in 0..f20_ns.len() {
            match grid[ki * f20_ns.len() + ni] {
                Some((ad, fx)) => write!(out, "  {ad:>11.2} {fx:>5.2}")?,
                None => write!(out, "  {:>11} {:>5}", "n/a", "n/a")?,
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Figure 21: deadline misses and the numNACK trajectory with deadline =
/// 2 rounds, initial numNACK = 200. A single persistent trajectory, so it
/// runs serially.
pub fn fig21(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 21",
        "users missing a 2-round deadline + numNACK adaptation (initial numNACK = 200)",
    )?;
    let proto = ServerConfig {
        initial_rho: 1.0,
        initial_num_nack: 200,
        max_nack: 200,
        adapt_num_nack: true,
        max_multicast_rounds: 2,
        ..ServerConfig::default()
    };
    let mut params = params_for(4096, 0.2, proto, mode.trajectory * 4, 2100);
    params.sim.deadline_rounds = 2;
    let messages = params.messages;
    let mut run = ExperimentRun::new(params);
    writeln!(
        out,
        "{:>4} {:>10} {:>9} {:>8} {:>8}",
        "msg", "missed", "numNACK", "rho", "usrPkts"
    )?;
    for msg in 1..=messages {
        let r = run.step();
        writeln!(
            out,
            "{:>4} {:>10} {:>9} {:>8.2} {:>8}",
            msg, r.missed_deadline, r.num_nack, r.rho, r.usr_packets
        )?;
    }
    Ok(())
}

/// SIGCOMM axis: encryption cost vs key-tree degree.
pub fn sigcomm_degree(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-deg [SIGCOMM axis]",
        "avg encryptions per rekey message vs tree degree d (N = 4096)",
    )?;
    writeln!(
        out,
        "{:>4} {:>14} {:>14} {:>14}",
        "d", "J=0,L=N/4", "J=N/8,L=N/8", "J=N/4,L=0"
    )?;
    let ds = [2u32, 3, 4, 8, 16];
    let cells: Vec<(u32, usize, usize, u64)> = ds
        .iter()
        .flat_map(|&d| [(d, 0, 1024, 2200), (d, 512, 512, 2201), (d, 1024, 0, 2202)])
        .collect();
    let grid = par(&cells, |&(d, j, l, seed)| {
        encryption_cost_batch(4096, d, j, l, mode.runs, seed)
    });
    for (di, &d) in ds.iter().enumerate() {
        writeln!(
            out,
            "{:>4} {:>14.1} {:>14.1} {:>14.1}",
            d,
            grid[3 * di],
            grid[3 * di + 1],
            grid[3 * di + 2]
        )?;
    }
    Ok(())
}

/// SIGCOMM axis: batch versus individual rekeying cost.
pub fn sigcomm_batch(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-batch [SIGCOMM axis]",
        "encryptions per interval: batch vs individual rekeying (N = 4096, d = 4)",
    )?;
    writeln!(
        out,
        "{:>6} {:>6} {:>12} {:>14} {:>9}",
        "J", "L", "batch", "individual", "saving"
    )?;
    let mixes = [
        (0usize, 256usize),
        (0, 1024),
        (256, 256),
        (1024, 1024),
        (1024, 0),
    ];
    let grid = par(&mixes, |&(j, l)| {
        let b = encryption_cost_batch(4096, 4, j, l, mode.runs.min(3), 2300);
        let i = encryption_cost_individual(4096, 4, j, l, 1, 2300);
        (b, i)
    });
    for (&(j, l), &(b, i)) in mixes.iter().zip(&grid) {
        writeln!(
            out,
            "{j:>6} {l:>6} {b:>12.1} {i:>14.1} {:>8.1}x",
            i / b.max(1.0)
        )?;
    }
    Ok(())
}

/// SIGCOMM axis: the closed-form expected-encryptions model vs the real
/// marking algorithm.
pub fn sigcomm_model(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-model [SIGCOMM axis]",
        "closed-form E[encryptions] vs measured marking algorithm (d = 4, N = 4096)",
    )?;
    writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>8}",
        "L", "model", "measured", "err%"
    )?;
    let ls = [1usize, 64, 256, 1024, 2048, 3584];
    let grid = par(&ls, |&l| {
        encryption_cost_batch(4096, 4, 0, l, mode.runs, 2500 + l as u64)
    });
    for (&l, &measured) in ls.iter().zip(&grid) {
        let model = keytree::analysis::expected_encryptions_leave_only(4, 6, l as u64);
        let err = if model > 0.0 {
            100.0 * (measured - model) / model
        } else {
            0.0
        };
        writeln!(out, "{l:>6} {model:>12.1} {measured:>12.1} {err:>7.1}%")?;
    }
    Ok(())
}

/// SIGCOMM axis: sparseness of the rekey workload.
pub fn sigcomm_sparseness(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-sparse [SIGCOMM axis]",
        "rekey message size vs per-user needs (J = 0, L = N/4, d = 4)",
    )?;
    writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>10}",
        "N", "encryptions", "per-user need", "ratio"
    )?;
    let ns = [64u32, 256, 1024, 4096, 16384];
    let grid = par(&ns, |&n| {
        workload_stats(n, 4, 0, (n / 4) as usize, mode.runs, 2400, &Layout::DEFAULT)
    });
    for (&n, p) in ns.iter().zip(&grid) {
        writeln!(
            out,
            "{:>6} {:>14.1} {:>14.2} {:>10.1}",
            n,
            p.encryptions,
            p.per_user_need,
            p.encryptions / p.per_user_need.max(1e-9)
        )?;
    }
    Ok(())
}
