//! The one transport loop.
//!
//! The paper's protocol — multicast ENC + PARITY, collect NACKs,
//! retransmit `amax` parities, switch to unicast — is driven by [`run`] and
//! by nothing else. The loop owns time (one clock tick per packet, one
//! round trip per round), the network questions, the NACK boundary, the
//! round cap and the per-user statistics; a [`Receiver`] owns what a
//! delivered packet *means*. Two models implement it:
//!
//! * the **count model**, [`crate::sim::SimUser`]: a frame is the borrowed
//!   [`Packet`]; the user records which FEC shares arrived, touches no
//!   byte and skips the decode (exact, as argued there).
//! * the **byte model**, [`ByteReceiver`]: a frame is the packet's wire
//!   bytes, emitted once per round and shared by the real [`UserSession`]s
//!   it reaches: header read in place, the serving frame kept where it
//!   lies, FEC off the frames.
//!
//! Both file shares through one [`BlockSearch`]: the same index check,
//! 16-bit guard, ruled-out test and NACK.
//!
//! A multicast round is delivered receiver by receiver (`multicast_round`):
//! every link is asked the same questions at the same times as in a
//! packet-by-packet walk, and links share no randomness. Both models see
//! the same draws (every unicast copy is drawn too), so the same seed gives
//! them the same rounds, NACKs and overhead — `tests/model_agreement.rs`
//! holds them to it.
//!
//! [`run`]: crate::transport::run
//! [`Receiver`]: crate::transport::Receiver
//! [`ByteReceiver`]: crate::transport::ByteReceiver
//! [`Packet`]: rekeymsg::Packet
//! [`UserSession`]: rekeyproto::UserSession
//! [`BlockSearch`]: rekeyproto::BlockSearch

use std::collections::HashMap;
use std::sync::Arc;

use keytree::NodeId;
use netsim::Network;
use rekeymsg::{Header, Layout, NackPacket, Packet};
use rekeyproto::{Ignored, Received, RoundDecision, ServerSession, UserSession};
use rse::DecodeCtx;

/// What [`run`] needs from one receiver of a rekey message.
pub trait Receiver {
    /// The frames of one send: a multicast round's schedule, or one USR
    /// packet, in order.
    type Frames<'p>;

    /// Turns the packets of one send into the frames receivers are handed:
    /// each packet once, however many receivers it reaches.
    fn frames<'p>(packets: &'p [Packet], layout: &Layout) -> Self::Frames<'p>;

    /// Index of this receiver's link in the [`Network`].
    fn net_index(&self) -> usize;

    /// The receiver's current u-node ID: the server attributes its NACKs
    /// to it and addresses its USR packet by it.
    fn node_id(&self) -> NodeId;

    /// True once the receiver stops listening. Only
    /// [`Receiver::receive_at`] and [`Receiver::end_of_round_into`] may turn
    /// it true, and nothing turns it false again: [`run`] stops walking a
    /// multicast round for a receiver at the frame that satisfies it, and
    /// drops it from its listener list for good after the round and after a
    /// round boundary.
    fn is_satisfied(&self) -> bool;

    /// Frame `j` of `frames` got through, during round `round`.
    fn receive_at(&mut self, frames: &Self::Frames<'_>, j: usize, round: usize);

    /// Whether a multicast walk must read frame `j` at once: the receiver's
    /// own packet, the one frame that can end the walk, or one that read
    /// later could read differently. Records nothing `receive_at` would not.
    fn reads_now(&mut self, frames: &Self::Frames<'_>, j: usize) -> bool;

    /// A lower bound on the next frame from `from` on that `reads_now` takes
    /// (the frame count: none); records nothing. [`run`] walks the network to
    /// it unasked: a bound too early costs a `reads_now`, never an answer.
    fn next_read(&mut self, frames: &Self::Frames<'_>, from: usize) -> usize;

    /// Round boundary, called on the receivers still on the listener list
    /// (the unsatisfied, and those a unicast wave has just satisfied):
    /// attempts recovery in `decode` (one context the loop lends every
    /// receiver it visits), then fills `nack` and returns true when the
    /// receiver still has to NACK.
    fn end_of_round_into(
        &mut self,
        round: usize,
        nack: &mut NackPacket,
        decode: &mut DecodeCtx,
    ) -> bool;

    /// The round in which the receiver got what it needed.
    fn success_round(&self) -> Option<usize>;
}

/// The byte model: a real [`UserSession`] behind one receiver link.
#[derive(Debug)]
pub struct ByteReceiver {
    /// The user's protocol state machine; frames are read under its layout.
    pub session: UserSession,
    /// Index of the user's receiver link in the [`Network`].
    link: u32,
    /// The user's u-node ID after the batch.
    node: NodeId,
}

impl ByteReceiver {
    /// `session` behind link `link` of the [`Network`] (none past `u32::MAX`),
    /// for the member at u-node `node` after the batch.
    pub fn new(session: UserSession, link: usize, node: NodeId) -> Self {
        ByteReceiver {
            session,
            link: u32::try_from(link).unwrap_or(u32::MAX),
            node,
        }
    }

    /// Feeds one frame to the session and counts what it did with it.
    pub fn receive(&mut self, frame: &Arc<[u8]>) {
        // Whatever arrives is counted, never trusted: a frame that is no
        // packet under the layout is dropped like any other the session
        // has no use for.
        let counter = match self.session.receive_frame(frame) {
            Ok(Received::Mine) => "transport.frame.mine",
            Ok(Received::Kept) => "transport.frame.kept",
            Ok(Received::Ignored(Ignored::WrongMessage)) => "transport.frame.wrong_message",
            Ok(Received::Ignored(Ignored::OutOfRange)) => "transport.frame.out_of_range",
            Ok(Received::Ignored(Ignored::Satisfied)) => "transport.frame.satisfied",
            Ok(Received::Ignored(Ignored::RuledOut)) => "transport.frame.ruled_out",
            Err(_) => "transport.frame.malformed",
        };
        obs::counter_add(counter, 1);
    }
}

/// The byte model's frames of one send: each packet's wire bytes, and the
/// `[frm_id, to_id]` its header names, read once for all receivers (none
/// for PARITY and NACK; all for USR, or a frame that is no packet).
#[derive(Debug)]
pub struct Frames {
    bytes: Vec<Arc<[u8]>>,
    ids: Vec<[u32; 2]>,
}

impl Frames {
    fn new(bytes: Vec<Arc<[u8]>>, layout: &Layout) -> Self {
        let ids = (bytes.iter())
            .map(|frame| match Packet::header(frame, layout) {
                Ok((_, Header::Enc(h))) => [h.frm_id.into(), h.to_id.into()],
                Ok((_, Header::Parity { .. } | Header::Nack)) => [1, 0],
                Ok((_, Header::Usr)) | Err(_) => [0, u32::MAX],
            })
            .collect();
        Frames { bytes, ids }
    }
}

impl Receiver for ByteReceiver {
    type Frames<'p> = Frames;

    fn frames(packets: &[Packet], layout: &Layout) -> Frames {
        let bytes = packets.iter().map(|pkt| pkt.emit(layout).into());
        Frames::new(bytes.collect(), layout)
    }

    fn receive_at(&mut self, frames: &Frames, j: usize, _round: usize) {
        self.receive(&frames.bytes[j]);
    }

    /// [`UserSession::reads_now`].
    fn reads_now(&mut self, frames: &Frames, j: usize) -> bool {
        self.session.reads_now(&frames.bytes[j])
    }

    /// `from` until a header teaches the ID; then the first range holding it.
    fn next_read(&mut self, frames: &Frames, from: usize) -> usize {
        let (m, rest) = (self.session.current_id(), frames.ids.get(from..));
        let holds = |&[frm, to]: &[u32; 2]| m.is_none_or(|m| frm <= m && m <= to);
        from + rest.map_or(0, |rest| rest.iter().position(holds).unwrap_or(rest.len()))
    }

    fn net_index(&self) -> usize {
        self.link as usize
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn is_satisfied(&self) -> bool {
        self.session.is_satisfied()
    }

    /// The session's round boundary: its FEC recovery, timed as
    /// `transport.decode`, then its NACK.
    fn end_of_round_into(
        &mut self,
        _round: usize,
        nack: &mut NackPacket,
        decode: &mut DecodeCtx,
    ) -> bool {
        let span = obs::span("transport.decode");
        let did = self.session.recover_in(decode);
        drop(span);
        let sent = self.session.close_round();
        if did.blocks > 0 {
            obs::counter_add("transport.decode.blocks", did.blocks.into());
            obs::counter_add("transport.decode.rows", did.rows.into());
            obs::counter_add("transport.decode.fallback_rows", did.fallback_rows.into());
            obs::counter_add("transport.decode.full_rows", did.full_rows.into());
            obs::counter_add("transport.decode.exhausted", did.exhausted.into());
        }
        let Some(sent) = sent else {
            return false;
        };
        // The NACK crosses the (lossless) reverse path as bytes as well, so
        // the server acts on what the wire format carries.
        let layout = self.session.layout();
        let bytes = Packet::Nack(sent).emit(&layout);
        #[expect(
            clippy::unreachable,
            reason = "invariant: emit and parse are inverses on every packet the wire types can hold (wire_fuzz)"
        )]
        let Ok(Packet::Nack(parsed)) = Packet::parse(&bytes, &layout) else {
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
/// of the receivers still unsatisfied, kept across rounds of a message —
/// they are who a multicast round is drawn for and who is visited at a
/// round boundary), a multicast round's send times and source-link
/// answers, the frames one walk deferred, the unicast target map, and the
/// NACK packet and FEC decode context lent to the listeners at a round
/// boundary all reuse their capacity across rounds and messages.
#[derive(Debug, Default)]
pub struct TransportScratch {
    /// Slots of the unsatisfied receivers, in slice order.
    listener_slots: Vec<usize>,
    /// The multicast round's send times, as the clock reads them.
    send_times: Vec<f64>,
    /// The source link's answer for each packet sent so far this round.
    source_ok: Vec<bool>,
    /// The frames delivered to the listener being walked that were not its
    /// own, by schedule index, in delivery order.
    deferred: Vec<usize>,
    by_node: HashMap<NodeId, usize>,
    nack: NackPacket,
    decode: DecodeCtx,
}

impl TransportScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the listeners that are satisfied by now, keeping slice order.
    fn retain_listening<R: Receiver>(&mut self, receivers: &[R]) {
        self.listener_slots
            .retain(|&slot| !receivers[slot].is_satisfied());
    }
}

/// One multicast round, receiver by receiver (DESIGN.md "One transport
/// loop"). Each listener, in slice order, walks the schedule in spans to the
/// frames [`Receiver::next_read`] names ([`Network::walk`]: the source drawn
/// once per packet, its own link only where the source delivered, as the
/// packet-major walk asks), reading a named frame that got through at once
/// if [`Receiver::reads_now`] takes it. Only an own packet can satisfy during
/// a walk, so it stops where the packet-major one did; a listener it left
/// unsatisfied then reads the rest in delivery order, one whose own packet
/// came never does (`transport.frame.unread`). The clock ends where the
/// packet-major walk leaves it: a send interval per packet sent, one more at
/// the packet that found nobody left.
fn multicast_round<R: Receiver>(
    net: &mut Network,
    clock: &mut f64,
    schedule: &[Packet],
    layout: &Layout,
    receivers: &mut [R],
    round: usize,
    scratch: &mut TransportScratch,
) {
    let send_interval = net.config().send_interval_ms;
    let (times, source_ok) = (&mut scratch.send_times, &mut scratch.source_ok);
    times.clear();
    let mut now = *clock;
    times.extend(schedule.iter().map(|_| {
        now += send_interval;
        now
    }));
    source_ok.clear();
    let deferred = &mut scratch.deferred;
    deferred.clear();
    // A walk defers at most the whole schedule: no growth mid-round.
    deferred.reserve(schedule.len());
    let frames = R::frames(schedule, layout);
    for &slot in &scratch.listener_slots {
        let r = &mut receivers[slot];
        deferred.clear();
        let mut j = 0;
        while j < times.len() {
            let s = r.next_read(&frames, j);
            let span = j..times.len().min(s + 1);
            net.walk(r.net_index(), times, source_ok, span, deferred);
            let delivered = deferred.last() == Some(&s);
            let read = delivered && r.reads_now(&frames, s);
            obs::counter_add("transport.walk.spans", 1);
            obs::counter_add("transport.walk.hint_misses", u64::from(delivered && !read));
            if read {
                deferred.pop();
                r.receive_at(&frames, s, round);
                if r.is_satisfied() {
                    break;
                }
            }
            j = s + 1;
        }
        if r.is_satisfied() {
            obs::counter_add("transport.frame.unread", deferred.len() as u64);
        } else {
            for &j in deferred.iter() {
                r.receive_at(&frames, j, round);
            }
        }
    }
    if let Some(&end) = times.get(source_ok.len()).or(times.last()) {
        *clock = end;
    }
}

/// Delivers one rekey message to `receivers` over the network.
///
/// `session` must be freshly created (not yet started). A multicast round
/// is delivered receiver by receiver; the clock advances by one send
/// interval per packet (and one more for the packet at which every
/// receiver is satisfied, if one is), round boundaries add one round-trip
/// time, and the reverse path is lossless (see DESIGN.md).
/// `usr_packet(node)` supplies the USR packet for the receiver at u-node
/// `node` when the server unicasts to it. Stops when the server declares
/// the message complete, or once `cfg.max_total_rounds` is exceeded
/// (`total_rounds` then reads one past the cap).
pub fn run<R: Receiver>(
    net: &mut Network,
    clock: &mut f64,
    session: &mut ServerSession,
    receivers: &mut [R],
    cfg: &SimConfig,
    scratch: &mut TransportScratch,
    mut usr_packet: impl FnMut(NodeId) -> Packet,
) -> TransportStats {
    let _span_msg = obs::span("transport.message");
    let send_interval = net.config().send_interval_ms;
    let rtt = 2.0 * net.config().one_way_delay_ms;
    let layout = session.blocks().layout();
    scratch.by_node.clear();
    scratch.listener_slots.clear();
    scratch.listener_slots.extend(0..receivers.len());
    scratch.retain_listening(receivers);

    let mut round = 1usize;
    let mut action = RoundDecision::Multicast(session.start());

    loop {
        let _span_round = obs::span("transport.round");
        obs::counter_add("transport.rounds", 1);
        match &action {
            RoundDecision::Multicast(schedule) => {
                let _span_deliver = obs::span("transport.deliver");
                multicast_round(net, clock, schedule, &layout, receivers, round, scratch);
                scratch.retain_listening(receivers);
            }
            RoundDecision::Unicast(wave) => {
                // Only a message that gets this far pays for the map, and only
                // for its listeners: a target is a NACKer, still listening.
                if scratch.by_node.is_empty() {
                    let nodes = scratch
                        .listener_slots
                        .iter()
                        .map(|&i| (receivers[i].node_id(), i));
                    scratch.by_node.extend(nodes);
                }
                // `duplicates` copies per target, every one of them drawn;
                // any one suffices.
                for node in &wave.targets {
                    let Some(&slot) = scratch.by_node.get(node) else {
                        continue;
                    };
                    let pkt = usr_packet(*node);
                    let frames = R::frames(std::slice::from_ref(&pkt), &layout);
                    for _ in 0..wave.duplicates {
                        *clock += send_interval;
                        if net.unicast(*clock, receivers[slot].net_index()) {
                            receivers[slot].receive_at(&frames, 0, round);
                        }
                    }
                }
            }
            RoundDecision::Done => {}
        }
        *clock += rtt;

        let span_boundary = obs::span("transport.boundary");
        for &slot in &scratch.listener_slots {
            let r = &mut receivers[slot];
            if r.end_of_round_into(round, &mut scratch.nack, &mut scratch.decode) {
                session.accept_nack(r.node_id(), &scratch.nack);
            }
        }
        scratch.retain_listening(receivers);
        drop(span_boundary);

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

#[cfg(test)]
mod receiver_reference;
