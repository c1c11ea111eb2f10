//! Per-message reporting used by experiments and examples.
//!
//! [`MessageReport`] carries the quantities the paper's evaluation plots;
//! each field's doc names the paper symbol it reproduces, so the figure
//! code reads as a transcription of the evaluation section. The paper's
//! notation, for reference: `h` is the number of real (systematic) ENC
//! packets in a rekey message, `h'` the number actually multicast once
//! proactive FEC parity is added (so `h'/h` is the multicast bandwidth
//! overhead), `ρ` (rho) the proactivity factor `h'/h − 1` chosen before
//! sending, and `numNACK` the adaptive controller's per-message target
//! for round-one NACKs.

/// Measurements of one rekey message's delivery, as `KeyServer::report` reads them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageReport {
    /// Message sequence number. No paper symbol; identifies the message
    /// within an experiment trace.
    pub msg_seq: u64,
    /// Real ENC packets — the paper's `h`, the systematic payload of the
    /// rekey message before any parity is added.
    pub enc_packets: usize,
    /// FEC blocks the message was split into — the paper's block count
    /// (each block holds at most `k` ENC packets and is decoded
    /// independently).
    pub blocks: usize,
    /// Proactivity factor used for this message — the paper's `ρ`: parity
    /// packets are provisioned so `h' = (1 + ρ)·h`.
    pub rho: f64,
    /// The adaptive controller's round-one NACK target in force for this
    /// message — the paper's `numNACK`.
    pub num_nack: usize,
    /// NACKs the server actually received at the end of round one — the
    /// observed quantity `numNACK` steers toward its target.
    pub nacks_round1: usize,
    /// Multicast bandwidth overhead — the paper's `h'/h` ratio (1.0 means
    /// no parity or retransmission cost at all).
    pub bandwidth_overhead: f64,
    /// Multicast rounds used by the server — the paper's "number of
    /// rounds" from the server's perspective.
    pub server_rounds: usize,
    /// Per-user rounds-to-success histogram: `rounds_histogram[r]` users
    /// succeeded in round `r + 1`. The paper's per-user "rounds needed to
    /// receive" distribution.
    pub rounds_histogram: Vec<usize>,
    /// Users that had not recovered when the message completed (should be
    /// zero — reliability is eventual).
    pub unserved_users: usize,
    /// Users that missed the deadline (strictly more rounds than allowed).
    pub missed_deadline: usize,
    /// USR packets unicast (with duplicates) — the unicast tail of the
    /// paper's hybrid delivery, once the multicast rounds are used up.
    pub usr_packets: usize,
    /// Unicast bytes (USR + UDP headers).
    pub usr_bytes: usize,
    /// Duplication overhead of the UKA assignment — the paper's key
    /// duplication factor (sealed copies per fresh key beyond the first).
    pub duplication_overhead: f64,
    /// Total FEC encoding cost in the paper's abstract units
    /// (multiply-accumulate passes; `k` per parity packet).
    pub encoding_units: u64,
}

impl MessageReport {
    /// Average rounds a user needed to receive its encryptions.
    pub fn avg_user_rounds(&self) -> f64 {
        let total: usize = self.rounds_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .rounds_histogram
            .iter()
            .enumerate()
            .map(|(r, &n)| (r + 1) * n)
            .sum();
        weighted as f64 / total as f64
    }

    /// Rounds needed until *every* user had its encryptions (the paper's
    /// "number of rounds for all users").
    pub fn rounds_all_users(&self) -> usize {
        self.rounds_histogram
            .iter()
            .rposition(|&n| n > 0)
            .map(|r| r + 1)
            .unwrap_or(0)
    }

    /// Fraction of users that succeeded within `r` rounds.
    pub fn fraction_within(&self, r: usize) -> f64 {
        let total: usize = self.rounds_histogram.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let within: usize = self.rounds_histogram.iter().take(r).sum();
        within as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MessageReport {
        MessageReport {
            rounds_histogram: vec![90, 8, 2],
            ..MessageReport::default()
        }
    }

    #[test]
    fn averages() {
        let r = report();
        // (90*1 + 8*2 + 2*3) / 100 = 1.12
        assert!((r.avg_user_rounds() - 1.12).abs() < 1e-12);
        assert_eq!(r.rounds_all_users(), 3);
    }

    #[test]
    fn fraction_within_rounds() {
        let r = report();
        assert!((r.fraction_within(1) - 0.90).abs() < 1e-12);
        assert!((r.fraction_within(2) - 0.98).abs() < 1e-12);
        assert!((r.fraction_within(3) - 1.0).abs() < 1e-12);
        assert!((r.fraction_within(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let r = MessageReport::default();
        assert_eq!(r.avg_user_rounds(), 0.0);
        assert_eq!(r.rounds_all_users(), 0);
        assert_eq!(r.fraction_within(1), 1.0);
    }
}
