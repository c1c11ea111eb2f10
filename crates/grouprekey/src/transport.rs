//! The one transport loop.
//!
//! The paper's protocol — multicast ENC + PARITY, collect NACKs,
//! retransmit `amax` parities, switch to unicast — is driven by [`run`] and
//! by nothing else. The loop owns time (one clock tick per packet, one
//! round trip per round), the order of network draws, the NACK boundary,
//! the round cap and the per-user statistics; a [`Receiver`] owns what a
//! delivered packet *means*. Two models implement it:
//!
//! * the **count model**, [`crate::sim::SimUser`]: a frame is the borrowed
//!   [`Packet`]; the user records which FEC shares arrived and touches no
//!   byte. It may skip the decode because the code is MDS (any `k`
//!   distinct shares of a block reconstruct it — `rse`'s tests prove it)
//!   and decoding is deterministic in the share set.
//! * the **byte model**, [`ByteReceiver`]: a frame is the packet's wire
//!   bytes, emitted once per send and shared by the real [`UserSession`]s it
//!   reaches: header read in place, the serving frame kept where it lies,
//!   FEC off the frames.
//!
//! Both see the same loss draws in the same order (listeners are the
//! unsatisfied receivers in slice order, a list kept between packets and
//! rounds and only ever shrunk; every unicast copy is drawn), so
//! the same seed gives both models the same rounds, NACKs and overhead —
//! `tests/model_agreement.rs` holds them to it.
//!
//! [`run`]: crate::transport::run
//! [`Receiver`]: crate::transport::Receiver
//! [`ByteReceiver`]: crate::transport::ByteReceiver
//! [`Packet`]: rekeymsg::Packet
//! [`UserSession`]: rekeyproto::UserSession

use std::collections::HashMap;
use std::sync::Arc;

use keytree::NodeId;
use netsim::Network;
use rekeymsg::{Layout, NackPacket, Packet};
use rekeyproto::{Ignored, Received, RoundDecision, ServerSession, UserSession};

/// What [`run`] needs from one receiver of a rekey message.
pub trait Receiver {
    /// What the network hands this receiver for one sent packet.
    type Frame<'p>;

    /// Turns one packet the server sends into the frame its listeners are
    /// handed; called once per send, before the loss draws.
    fn frame<'p>(pkt: &'p Packet, layout: &Layout) -> Self::Frame<'p>;

    /// Index of this receiver's link in the [`Network`].
    fn net_index(&self) -> usize;

    /// The receiver's current u-node ID: the server attributes its NACKs
    /// to it and addresses its USR packet by it.
    fn node_id(&self) -> NodeId;

    /// True once the receiver stops listening. Only [`Receiver::receive`]
    /// and [`Receiver::end_of_round_into`] may turn it true, and nothing
    /// turns it false again: [`run`] drops a satisfied receiver from its
    /// listener list for good, after a packet's deliveries and after a
    /// round boundary.
    fn is_satisfied(&self) -> bool;

    /// One frame got through, during round `round`.
    fn receive(&mut self, frame: &Self::Frame<'_>, round: usize);

    /// Round boundary, called on the receivers still on the listener list
    /// (the unsatisfied, and those a unicast wave has just satisfied):
    /// attempts recovery, then fills `nack` and returns true when the
    /// receiver still has to NACK.
    fn end_of_round_into(&mut self, round: usize, nack: &mut NackPacket) -> bool;

    /// The round in which the receiver got what it needed.
    fn success_round(&self) -> Option<usize>;
}

/// The byte model: a real [`UserSession`] behind one receiver link.
#[derive(Debug)]
pub struct ByteReceiver {
    /// The user's protocol state machine.
    pub session: UserSession,
    /// Index of the user's receiver link in the [`Network`].
    pub link: usize,
    /// The user's u-node ID after the batch.
    pub node: NodeId,
    /// Wire layout the frames are parsed against.
    pub layout: Layout,
}

impl Receiver for ByteReceiver {
    type Frame<'p> = Arc<[u8]>;

    fn frame(pkt: &Packet, layout: &Layout) -> Arc<[u8]> {
        pkt.emit(layout).into()
    }

    fn net_index(&self) -> usize {
        self.link
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn is_satisfied(&self) -> bool {
        self.session.is_satisfied()
    }

    fn receive(&mut self, frame: &Arc<[u8]>, _round: usize) {
        // Whatever arrives is counted, never trusted: a frame that is no
        // packet under the layout is dropped like any other the session
        // has no use for.
        let counter = match self.session.receive_frame(frame) {
            Ok(Received::Mine) => "transport.frame.mine",
            Ok(Received::Kept) => "transport.frame.kept",
            Ok(Received::Ignored(Ignored::WrongMessage)) => "transport.frame.wrong_message",
            Ok(Received::Ignored(Ignored::OutOfRange)) => "transport.frame.out_of_range",
            Ok(Received::Ignored(Ignored::Satisfied)) => "transport.frame.satisfied",
            Err(_) => "transport.frame.malformed",
        };
        obs::counter_add(counter, 1);
    }

    fn end_of_round_into(&mut self, _round: usize, nack: &mut NackPacket) -> bool {
        let sent = self.session.end_of_round();
        let did = self.session.decode_work;
        if did.blocks > 0 {
            obs::counter_add("transport.decode.blocks", did.blocks.into());
            obs::counter_add("transport.decode.rows", did.rows.into());
            obs::counter_add("transport.decode.fallback_rows", did.fallback_rows.into());
            obs::counter_add("transport.decode.exhausted", did.exhausted.into());
        }
        let Some(sent) = sent else {
            return false;
        };
        // The NACK crosses the (lossless) reverse path as bytes as well, so
        // the server acts on what the wire format carries.
        let bytes = Packet::Nack(sent).emit(&self.layout);
        #[expect(
            clippy::unreachable,
            reason = "invariant: emit and parse are inverses on every packet the wire types can hold (wire_fuzz)"
        )]
        let Ok(Packet::Nack(parsed)) = Packet::parse(&bytes, &self.layout) else {
            unreachable!("a NACK emits and parses back as a NACK")
        };
        *nack = parsed;
        true
    }

    fn success_round(&self) -> Option<usize> {
        self.session.rounds_to_success()
    }
}

/// Transport-simulation knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Deadline in rounds for the soft real-time requirement.
    pub deadline_rounds: usize,
    /// Safety valve on total rounds (multicast + unicast waves).
    pub max_total_rounds: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            deadline_rounds: 2,
            max_total_rounds: 64,
        }
    }
}

/// Outcome of one message's delivery.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Rounds (multicast rounds plus unicast waves) used.
    pub total_rounds: usize,
    /// Per-user rounds histogram (`[r]` = users succeeding in round `r+1`).
    pub rounds_histogram: Vec<usize>,
    /// Users that missed the deadline.
    pub missed_deadline: usize,
    /// Users never served (only possible if the round cap fired).
    pub unserved: usize,
}

/// Reusable scratch buffers for [`run`].
///
/// One instance per experiment (or per thread) makes the loop's own
/// per-packet and per-round work allocation-free: the listener list (slots
/// of the receivers still unsatisfied, kept across packets and rounds of a
/// message — they are who a multicast is drawn for and who is visited at a
/// round boundary), their link indices, delivery flags, unicast target map,
/// and the NACK packet threaded through the listeners at a round boundary
/// all reuse their capacity across packets, rounds, and messages.
#[derive(Debug, Default)]
pub struct TransportScratch {
    delivered: Vec<bool>,
    /// Slots of the unsatisfied receivers, in slice order.
    listener_slots: Vec<usize>,
    /// Their link indices, in step.
    listeners: Vec<usize>,
    by_node: HashMap<NodeId, usize>,
    nack: NackPacket,
}

impl TransportScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the listeners that are satisfied by now, keeping slice order.
    fn retain_listening<R: Receiver>(&mut self, receivers: &[R]) {
        let before = self.listener_slots.len();
        self.listener_slots
            .retain(|&slot| !receivers[slot].is_satisfied());
        if self.listener_slots.len() < before {
            self.listeners.clear();
            self.listeners.extend(
                self.listener_slots
                    .iter()
                    .map(|&s| receivers[s].net_index()),
            );
        }
    }
}

/// Delivers one rekey message to `receivers` over the network.
///
/// `session` must be freshly created (not yet started). The clock advances
/// by one send interval per packet; round boundaries add one round-trip
/// time; the reverse path is lossless (see DESIGN.md). `usr_packet(slot)`
/// supplies the USR packet for `receivers[slot]` when the server unicasts
/// to it. Stops when the server declares the message complete, or once
/// `cfg.max_total_rounds` is exceeded (`total_rounds` then reads one past
/// the cap).
pub fn run<R: Receiver>(
    net: &mut Network,
    clock: &mut f64,
    session: &mut ServerSession,
    receivers: &mut [R],
    cfg: &SimConfig,
    scratch: &mut TransportScratch,
    mut usr_packet: impl FnMut(usize) -> Packet,
) -> TransportStats {
    let _span_msg = obs::span("transport.message");
    let send_interval = net.config().send_interval_ms;
    let rtt = 2.0 * net.config().one_way_delay_ms;
    let layout = session.blocks().layout();
    scratch.by_node.clear();
    scratch.listener_slots.clear();
    scratch.listener_slots.extend(0..receivers.len());
    scratch.listeners.clear();
    scratch.listeners.extend(receivers.iter().map(R::net_index));
    scratch.retain_listening(receivers);

    let mut round = 1usize;
    let mut action = RoundDecision::Multicast(session.start());

    loop {
        let _span_round = obs::span("transport.round");
        obs::counter_add("transport.rounds", 1);
        match &action {
            RoundDecision::Multicast(schedule) => {
                for pkt in schedule {
                    *clock += send_interval;
                    if scratch.listeners.is_empty() {
                        break;
                    }
                    let frame = R::frame(pkt, &layout);
                    net.multicast_to_into(*clock, &scratch.listeners, &mut scratch.delivered);
                    for (&slot, &ok) in scratch.listener_slots.iter().zip(&scratch.delivered) {
                        if ok {
                            receivers[slot].receive(&frame, round);
                        }
                    }
                    scratch.retain_listening(receivers);
                }
            }
            RoundDecision::Unicast(wave) => {
                // Only a message that gets this far pays for the map.
                if scratch.by_node.is_empty() {
                    let nodes = receivers.iter().enumerate();
                    scratch.by_node.extend(nodes.map(|(i, r)| (r.node_id(), i)));
                }
                // `duplicates` copies per target, every one of them drawn;
                // any one suffices.
                for node in &wave.targets {
                    let Some(&slot) = scratch.by_node.get(node) else {
                        continue;
                    };
                    let pkt = usr_packet(slot);
                    let frame = R::frame(&pkt, &layout);
                    for _ in 0..wave.duplicates {
                        *clock += send_interval;
                        if net.unicast(*clock, receivers[slot].net_index()) {
                            receivers[slot].receive(&frame, round);
                        }
                    }
                }
            }
            RoundDecision::Done => {}
        }
        *clock += rtt;

        for &slot in &scratch.listener_slots {
            let r = &mut receivers[slot];
            if r.end_of_round_into(round, &mut scratch.nack) {
                session.accept_nack(r.node_id(), &scratch.nack);
            }
        }
        scratch.retain_listening(receivers);

        action = session.end_of_round();
        if matches!(action, RoundDecision::Done) {
            break;
        }
        round += 1;
        if round > cfg.max_total_rounds {
            break;
        }
    }

    // Once the server has declared the message complete nobody is left
    // waiting: a receiver without a success round then needed nothing.
    // Only the round cap leaves users unserved.
    let capped = !matches!(action, RoundDecision::Done);
    let mut stats = TransportStats {
        total_rounds: round,
        ..TransportStats::default()
    };
    for r in receivers.iter() {
        match r.success_round() {
            Some(won) => {
                if stats.rounds_histogram.len() < won {
                    stats.rounds_histogram.resize(won, 0);
                }
                stats.rounds_histogram[won - 1] += 1;
                if won > cfg.deadline_rounds {
                    stats.missed_deadline += 1;
                }
            }
            None if capped && !r.is_satisfied() => {
                stats.unserved += 1;
                stats.missed_deadline += 1;
            }
            None => {}
        }
    }
    stats
}
