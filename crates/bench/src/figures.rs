//! One regeneration function per figure/table.
//!
//! Parameter values mirror the paper's captions: N = 4096, d = 4, J = 0,
//! L = N/4, alpha = 20% (p_high = 20%, p_low = 2%, p_source = 1%),
//! send interval 100 ms, 1027-byte ENC packets, k = 10, numNACK = 20 —
//! unless the figure sweeps that parameter.
//!
//! A figure is its sweep, its cell and its panel formats: `grid` runs
//! every (row, column) cell in order on the calling thread and `table`
//! prints a panel. Each cell owns its seeded network and key server.

use std::io::{self, Write};

use grouprekey::experiment::{
    encryption_cost_batch, encryption_cost_individual, run_experiment, workload_stats,
    WorkloadPoint,
};
use grouprekey::MessageReport;
use rekeymsg::Layout;
use rekeyproto::ServerConfig;

use crate::{adaptive_rho, fixed_rho, grid, header, mean, multicast, params, table, Mode};

const ALPHAS: [f64; 4] = [0.0, 0.2, 0.4, 1.0];

/// The block sizes swept by Figures 8 and 16–20.
const KS: [usize; 8] = [1, 2, 5, 10, 20, 30, 40, 50];

/// The J and L steps of the N = 4096 workload panels (Figures 6, 7).
const STEPS: [usize; 6] = [0, 512, 1024, 2048, 3072, 4096];

/// The wire format's 8-bit block ID caps a message at 256 blocks. At
/// k = 1 and N = 16384 the rekey message (~430 ENC packets) cannot be
/// addressed — a real limit of the paper's packet format that the
/// experiment honours by skipping the combination.
fn wire_feasible(k: usize, n: u32) -> bool {
    !(k == 1 && n > 8192)
}

/// A panel with one row per block size in [`KS`] under the column heads
/// `heads`.
fn by_k<T>(
    out: &mut dyn Write,
    heads: &str,
    cells: &[Vec<T>],
    show: impl Fn(&T) -> String,
) -> io::Result<()> {
    let head = format!("{:>4}{heads}", "k");
    table(out, &head, KS.map(|k| format!("{k:>4}")), cells, show)
}

/// The J × L panel of Figures 6 and 7 (N = 4096): each (J, L) step's
/// workload, seeded by `seed(J, L)`, as `show` formats it.
fn jl_panel(
    mode: Mode,
    out: &mut dyn Write,
    seed: fn(u64, u64) -> u64,
    show: impl Fn(&WorkloadPoint) -> String,
) -> io::Result<()> {
    let cells = grid(&STEPS, &STEPS, |_, &j, &l| {
        let seed = seed(j as u64, l as u64);
        workload_stats(4096, 4, j, l, mode.runs, seed, &Layout::DEFAULT)
    });
    let head = format!("{:>6}{}", "J\\L", STEPS.map(|l| format!("{l:>9}")).concat());
    table(out, &head, STEPS.map(|j| format!("{j:>6}")), &cells, show)
}

/// The by-N cells of Figures 6 and 7: per N, the workloads J = 0, L = N/4;
/// J = L = N/4; and J = N/4, L = 0, seeded `seed`, `seed + 1`, `seed + 2`.
fn by_n(mode: Mode, ns: &[u32], seed: u64) -> Vec<Vec<WorkloadPoint>> {
    grid(
        ns,
        &[(0, 1, 0), (1, 1, 1), (1, 0, 2)],
        |_, &n, &(j, l, i)| {
            let q = (n / 4) as usize;
            workload_stats(n, 4, j * q, l * q, mode.runs, seed + i, &Layout::DEFAULT)
        },
    )
}

/// A panel with one row per rho in `rhos` and one column per alpha in
/// [`ALPHAS`].
fn by_rho<T>(
    out: &mut dyn Write,
    rhos: &[f64],
    cells: &[Vec<T>],
    show: impl Fn(&T) -> String,
) -> io::Result<()> {
    let cols = ALPHAS.map(|a| format!("  alpha={a:<8}")).concat();
    let labels = rhos.iter().map(|rho| format!("{rho:>5.1}"));
    table(out, &format!("{:>5}{cols}", "rho"), labels, cells, show)
}

/// A trajectory panel under the column heads `heads`: column `c` is the
/// run `run(&sweep[c])`, row `m` its `m`-th message as `show` formats it.
fn by_message<C>(
    out: &mut dyn Write,
    heads: &str,
    sweep: &[C],
    run: impl Fn(&C) -> Vec<MessageReport>,
    show: impl Fn(&MessageReport) -> String,
) -> io::Result<()> {
    let runs: Vec<Vec<MessageReport>> = sweep.iter().map(run).collect();
    let messages = runs.first().map_or(0, Vec::len);
    let rows: Vec<Vec<&MessageReport>> = (0..messages)
        .map(|m| runs.iter().filter_map(|run| run.get(m)).collect())
        .collect();
    let head = format!("{:>4}{heads}", "msg");
    let labels = (1..=messages).map(|m| format!("{m:>4}"));
    table(out, &head, labels, &rows, |r| show(r))
}

/// Figure 6 (middle): average # ENC packets as a function of J and L
/// (N = 4096); (right): as a function of N for three (J, L) mixes.
pub fn fig06(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 6 (middle)",
        "avg # ENC packets vs (J, L), N = 4096, d = 4",
    )?;
    jl_panel(
        mode,
        out,
        |j, l| 600 + j * 31 + l,
        |p| format!("{:>9.1}", p.enc_packets),
    )?;

    header(out, "Figure 6 (right)", "avg # ENC packets vs N")?;
    let ns = [64u32, 256, 1024, 4096, 16384];
    let head = format!(
        "{:>6} {:>16} {:>16} {:>16}",
        "N", "J=0,L=N/4", "J=N/4,L=N/4", "J=N/4,L=0"
    );
    table(
        out,
        &head,
        ns.map(|n| format!("{n:>6}")),
        &by_n(mode, &ns, 61),
        |p| format!(" {:>16.1}", p.enc_packets),
    )
}

/// Figure 7: UKA duplication overhead vs (J, L) and vs N.
pub fn fig07(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 7 (left)",
        "avg duplication overhead vs (J, L), N = 4096",
    )?;
    jl_panel(
        mode,
        out,
        |j, l| 700 + j * 17 + l,
        |p| format!("{:>9.4}", p.duplication),
    )?;

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
    let per_packet = Layout::DEFAULT.encryptions_per_packet() as f64;
    for (&n, row) in ns.iter().zip(by_n(mode, &ns, 71)) {
        let [a, b, c] = [0, 1, 2].map(|i| row[i].duplication);
        let bound = ((n as f64).log(4.0) - 1.0) / per_packet;
        writeln!(out, "{n:>6} {a:>12.4} {b:>14.4} {c:>12.4} {bound:>10.4}")?;
    }
    Ok(())
}

/// Figure 8: server bandwidth overhead (left) and relative FEC encoding
/// time (right) vs block size k, at fixed rho = 1.
pub fn fig08(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let cells = grid(&KS, &ALPHAS, |_, &k, &alpha| {
        let proto = fixed_rho(k, 1.0);
        multicast(params(4096, alpha, proto, mode.messages, 800 + k as u64))
    });
    let cols = ALPHAS.map(|a| format!("  alpha={a:<6}")).concat();
    header(
        out,
        "Figure 8 (left)",
        "avg server bandwidth overhead vs k (rho = 1, reactive only)",
    )?;
    by_k(out, &cols, &cells, |r| {
        format!("  {:<12.3}", mean(r, |m| m.bandwidth_overhead))
    })?;
    header(
        out,
        "Figure 8 (right)",
        "relative overall FEC encoding time vs k (k units per parity packet)",
    )?;
    by_k(out, &cols, &cells, |r| {
        format!("  {:<12.0}", mean(r, |m| m.encoding_units as f64))
    })
}

/// Figure 9: first-round NACKs (left) and rounds-to-all-users (right) vs
/// the proactivity factor.
pub fn fig09(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let rhos = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 3.0];
    let cells = grid(&rhos, &ALPHAS, |ri, &rho, &alpha| {
        let proto = fixed_rho(10, rho);
        multicast(params(4096, alpha, proto, mode.messages, 900 + ri as u64))
    });
    header(
        out,
        "Figure 9 (left)",
        "avg # NACKs after round 1 vs rho (k = 10)",
    )?;
    by_rho(out, &rhos, &cells, |r| {
        format!("  {:<14.2}", mean(r, |m| m.nacks_round1 as f64))
    })?;
    header(
        out,
        "Figure 9 (right)",
        "avg # rounds until every user has its encryptions vs rho",
    )?;
    by_rho(out, &rhos, &cells, |r| {
        format!("  {:<14.2}", mean(r, |m| m.rounds_all_users() as f64))
    })
}

/// Figure 10: per-round success distribution (left) and bandwidth
/// overhead vs rho (right), alpha = 20%.
pub fn fig10(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 10 (left)",
        "fraction of users needing r rounds (alpha = 20%)",
    )?;
    let rhos = [1.0, 1.6, 2.0];
    let shares = grid(&rhos, &[()], |_, &rho, _| {
        let reports = multicast(params(4096, 0.2, fixed_rho(10, rho), mode.messages, 1000));
        let mut dist = [0.0f64; 4];
        let mut total = 0.0;
        for r in &reports {
            for (i, &n) in r.rounds_histogram.iter().enumerate() {
                dist[i.min(3)] += n as f64;
                total += n as f64;
            }
        }
        dist.map(|d| d / total)
    });
    let head = format!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "rho", "r=1", "r=2", "r=3", "r>=4"
    );
    table(
        out,
        &head,
        rhos.map(|rho| format!("{rho:>5.1}")),
        &shares,
        |s| s.map(|share| format!(" {share:>12.6}")).concat(),
    )?;

    header(
        out,
        "Figure 10 (right)",
        "avg server bandwidth overhead vs rho",
    )?;
    let rhos = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
    let cells = grid(&rhos, &ALPHAS, |_, &rho, &alpha| {
        let reports = multicast(params(4096, alpha, fixed_rho(10, rho), mode.messages, 1010));
        mean(&reports, |m| m.bandwidth_overhead)
    });
    by_rho(out, &rhos, &cells, |bw| format!("  {bw:<14.3}"))
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
        let cols = ALPHAS.map(|a| format!("  rho(a={a:<4})  nacks")).concat();
        let run = |&alpha: &f64| {
            let proto = adaptive_rho(10, initial, 20);
            multicast(params(4096, alpha, proto, mode.trajectory, 1200))
        };
        by_message(out, &cols, &ALPHAS, run, |r| {
            format!("  {:>10.2}  {:>5}", r.rho, r.nacks_round1)
        })?;
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
    let cols = targets.map(|t| format!("  target={t:<4}")).concat();
    let run = |&t: &usize| {
        let proto = adaptive_rho(10, 1.0, t);
        multicast(params(4096, 0.2, proto, mode.trajectory, 1400))
    };
    by_message(out, &cols, &targets, run, |r| {
        format!("  {:>10}", r.nacks_round1)
    })
}

/// Figure 15: NACK fluctuation across block sizes (adaptive rho).
pub fn fig15(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    let ks = [1usize, 5, 10, 30, 50];
    header(
        out,
        "Figure 15",
        "first-round NACKs per message for k in {1,5,10,30,50} (numNACK = 20)",
    )?;
    let cols = ks.map(|k| format!("  k={k:<8}")).concat();
    let run = |&k: &usize| {
        let proto = adaptive_rho(k, 1.0, 20);
        multicast(params(4096, 0.2, proto, mode.trajectory, 1500))
    };
    by_message(out, &cols, &ks, run, |r| {
        format!("  {:>10}", r.nacks_round1)
    })
}

/// Figure 16: bandwidth overhead vs k under adaptive rho, across alpha
/// (left) and across N (right).
pub fn fig16(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 16 (left)",
        "avg server bandwidth overhead vs k (adaptive rho, numNACK = 20)",
    )?;
    let cells = grid(&KS, &ALPHAS, |_, &k, &alpha| {
        let proto = adaptive_rho(k, 1.0, 20);
        let reports = multicast(params(4096, alpha, proto, mode.messages, 1600 + k as u64));
        mean(&reports, |m| m.bandwidth_overhead)
    });
    let cols = ALPHAS.map(|a| format!("  alpha={a:<6}")).concat();
    by_k(out, &cols, &cells, |bw| format!("  {bw:<12.3}"))?;

    header(
        out,
        "Figure 16 (right)",
        "same, across group size (alpha = 20%)",
    )?;
    let ns = [1024u32, 4096, 8192, 16384];
    let cells = grid(&KS, &ns, |_, &k, &n| {
        wire_feasible(k, n).then(|| {
            let proto = adaptive_rho(k, 1.0, 20);
            let reports = multicast(params(n, 0.2, proto, mode.messages, 1650 + k as u64));
            mean(&reports, |m| m.bandwidth_overhead)
        })
    });
    let cols = ns.map(|n| format!("  N={n:<8}")).concat();
    by_k(out, &cols, &cells, |bw| match bw {
        Some(bw) => format!("  {bw:<10.3}"),
        None => format!("  {:<10}", "n/a"),
    })
}

/// Figure 17: delivery latency (rounds) vs k under adaptive rho.
pub fn fig17(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 17",
        "avg rounds until all users done / avg rounds per user vs k (adaptive rho)",
    )?;
    let cells = grid(&KS, &ALPHAS, |_, &k, &alpha| {
        let proto = adaptive_rho(k, 1.0, 20);
        multicast(params(4096, alpha, proto, mode.messages, 1700 + k as u64))
    });
    let cols = ALPHAS.map(|a| format!("  all(a={a:<4}) user")).concat();
    by_k(out, &cols, &cells, |r| {
        let all = mean(r, |m| m.rounds_all_users() as f64);
        format!(
            "  {all:>10.2} {:>5.3}",
            mean(r, MessageReport::avg_user_rounds)
        )
    })
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
    let cells = grid(&targets, &ALPHAS, |_, &t, &alpha| {
        let proto = adaptive_rho(10, 1.0, t);
        multicast(params(4096, alpha, proto, mode.messages, 1800 + t as u64))
    });
    let cols = ALPHAS.map(|a| format!("  rounds(a={a:<4})  bw")).concat();
    let labels = targets.map(|t| format!("{t:>8}"));
    table(
        out,
        &format!("{:>8}{cols}", "numNACK"),
        labels,
        &cells,
        |r| {
            let rounds = mean(r, MessageReport::avg_user_rounds);
            format!(
                "  {rounds:>13.4}  {:>5.2}",
                mean(r, |m| m.bandwidth_overhead)
            )
        },
    )
}

/// Figures 19–20: extra bandwidth of adaptive proactive FEC versus the
/// reactive-only baseline (rho = 1), across alpha and across N.
pub fn fig19_20(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    // The baseline is the adaptive cell with adaptation switched off.
    let pair = |k: usize, n: u32, alpha: f64, seed: u64| {
        [true, false].map(|adapt_rho| {
            let proto = ServerConfig {
                adapt_rho,
                ..adaptive_rho(k, 1.0, 20)
            };
            let reports = multicast(params(n, alpha, proto, mode.messages, seed));
            mean(&reports, |m| m.bandwidth_overhead)
        })
    };

    header(
        out,
        "Figure 19",
        "server bandwidth overhead: adaptive rho vs rho = 1, by alpha (N = 4096)",
    )?;
    let alphas = [0.0, 0.2, 1.0];
    let cells = grid(&KS, &alphas, |_, &k, &alpha| {
        pair(k, 4096, alpha, 1900 + k as u64)
    });
    let cols = alphas.map(|a| format!("  a={a:<4} adap  rho1")).concat();
    by_k(out, &cols, &cells, |[ad, fx]| {
        format!("  {ad:>10.2} {fx:>5.2}")
    })?;

    header(
        out,
        "Figure 20",
        "server bandwidth overhead: adaptive rho vs rho = 1, by N (alpha = 20%)",
    )?;
    let ns = [1024u32, 8192, 16384];
    let cells = grid(&KS, &ns, |_, &k, &n| {
        wire_feasible(k, n).then(|| pair(k, n, 0.2, 2000 + k as u64))
    });
    let cols = ns.map(|n| format!("  N={n:<5} adap  rho1")).concat();
    by_k(out, &cols, &cells, |cell| match cell {
        Some([ad, fx]) => format!("  {ad:>11.2} {fx:>5.2}"),
        None => format!("  {:>11} {:>5}", "n/a", "n/a"),
    })
}

/// Figure 21: deadline misses and the numNACK trajectory with deadline =
/// 2 rounds, initial numNACK = 200: one persistent trajectory, with the
/// unicast tail.
pub fn fig21(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "Figure 21",
        "users missing a 2-round deadline + numNACK adaptation (initial numNACK = 200)",
    )?;
    let proto = ServerConfig {
        max_nack: 200,
        adapt_num_nack: true,
        max_multicast_rounds: 2,
        ..adaptive_rho(10, 1.0, 200)
    };
    let mut run = params(4096, 0.2, proto, mode.trajectory * 4, 2100);
    run.sim.deadline_rounds = 2;
    let cols = format!(
        " {:>10} {:>9} {:>8} {:>8}",
        "missed", "numNACK", "rho", "usrPkts"
    );
    by_message(
        out,
        &cols,
        &[run],
        |&p| run_experiment(p),
        |r| {
            let (missed, num_nack, usr) = (r.missed_deadline, r.num_nack, r.usr_packets);
            format!(" {missed:>10} {num_nack:>9} {:>8.2} {usr:>8}", r.rho)
        },
    )
}

/// SIGCOMM axis: encryption cost vs key-tree degree.
pub fn sigcomm_degree(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-deg [SIGCOMM axis]",
        "avg encryptions per rekey message vs tree degree d (N = 4096)",
    )?;
    let ds = [2u32, 3, 4, 8, 16];
    let mixes = [(0, 1024, 2200), (512, 512, 2201), (1024, 0, 2202)];
    let cells = grid(&ds, &mixes, |_, &d, &(j, l, seed)| {
        encryption_cost_batch(4096, d, j, l, mode.runs, seed)
    });
    let head = format!(
        "{:>4} {:>14} {:>14} {:>14}",
        "d", "J=0,L=N/4", "J=N/8,L=N/8", "J=N/4,L=0"
    );
    table(out, &head, ds.map(|d| format!("{d:>4}")), &cells, |e| {
        format!(" {e:>14.1}")
    })
}

/// SIGCOMM axis: batch versus individual rekeying cost.
pub fn sigcomm_batch(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-batch [SIGCOMM axis]",
        "encryptions per interval: batch vs individual rekeying (N = 4096, d = 4)",
    )?;
    let mixes = [
        (0usize, 256usize),
        (0, 1024),
        (256, 256),
        (1024, 1024),
        (1024, 0),
    ];
    let cells = grid(&mixes, &[()], |_, &(j, l), _| {
        let b = encryption_cost_batch(4096, 4, j, l, mode.runs.min(3), 2300);
        (b, encryption_cost_individual(4096, 4, j, l, 1, 2300))
    });
    let head = format!(
        "{:>6} {:>6} {:>12} {:>14} {:>9}",
        "J", "L", "batch", "individual", "saving"
    );
    let labels = mixes.map(|(j, l)| format!("{j:>6} {l:>6}"));
    table(out, &head, labels, &cells, |&(b, i)| {
        format!(" {b:>12.1} {i:>14.1} {:>8.1}x", i / b.max(1.0))
    })
}

/// SIGCOMM axis: the closed-form expected-encryptions model vs the real
/// marking algorithm.
pub fn sigcomm_model(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-model [SIGCOMM axis]",
        "closed-form E[encryptions] vs measured marking algorithm (d = 4, N = 4096)",
    )?;
    let ls = [1usize, 64, 256, 1024, 2048, 3584];
    let height = 4096u32.ilog(4);
    let cells = grid(&ls, &[()], |_, &l, _| {
        let model = keytree::analysis::expected_encryptions_leave_only(4, height, l as u64);
        let measured = encryption_cost_batch(4096, 4, 0, l, mode.runs, 2500 + l as u64);
        (model, measured)
    });
    let head = format!(
        "{:>6} {:>12} {:>12} {:>8}",
        "L", "model", "measured", "err%"
    );
    table(
        out,
        &head,
        ls.map(|l| format!("{l:>6}")),
        &cells,
        |&(model, measured)| {
            let err = if model > 0.0 {
                100.0 * (measured - model) / model
            } else {
                0.0
            };
            format!(" {model:>12.1} {measured:>12.1} {err:>7.1}%")
        },
    )
}

/// SIGCOMM axis: sparseness of the rekey workload.
pub fn sigcomm_sparseness(mode: Mode, out: &mut dyn Write) -> io::Result<()> {
    header(
        out,
        "T-sparse [SIGCOMM axis]",
        "rekey message size vs per-user needs (J = 0, L = N/4, d = 4)",
    )?;
    let ns = [64u32, 256, 1024, 4096, 16384];
    let cells = grid(&ns, &[()], |_, &n, _| {
        workload_stats(n, 4, 0, (n / 4) as usize, mode.runs, 2400, &Layout::DEFAULT)
    });
    let head = format!(
        "{:>6} {:>14} {:>14} {:>10}",
        "N", "encryptions", "per-user need", "ratio"
    );
    table(out, &head, ns.map(|n| format!("{n:>6}")), &cells, |p| {
        let ratio = p.encryptions / p.per_user_need.max(1e-9);
        format!(
            " {:>14.1} {:>14.2} {ratio:>10.1}",
            p.encryptions, p.per_user_need
        )
    })
}
