//! The application data path: what the group key is *for*.
//!
//! The paper's soft real-time requirement exists because application data
//! keeps flowing while a rekey message is in flight: packets encrypted
//! under the *new* group key arrive at users that have not yet received
//! that key, and must be buffered — "we would like to limit the buffer
//! size". This module provides both ends:
//!
//! * [`DataSource`] — the sender: encrypts payloads under the current
//!   group key, tagging each packet with the key *epoch* (the rekey
//!   message sequence number that installed the key);
//! * [`DataSink`] — a member: decrypts immediately when it holds the
//!   epoch's key, otherwise buffers up to a bound and drains the buffer
//!   the moment the rekey completes.
//!
//! Forward/backward secrecy carry over: a departed member never obtains
//! later epochs' keys, so buffered-or-sniffed ciphertext stays opaque.
//!
//! [`DataSource`]: crate::datapath::DataSource
//! [`DataSink`]: crate::datapath::DataSink

use std::collections::{HashMap, VecDeque};

use wirecrypto::{mac, StreamCipher, SymKey};

/// One application-data packet on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Key epoch: the rekey message sequence that installed the group key
    /// this packet is encrypted under.
    pub epoch: u64,
    /// Per-epoch packet sequence number (nonce component).
    pub seq: u64,
    /// Ciphertext.
    pub body: Vec<u8>,
    /// Authentication tag over epoch, seq and body.
    pub tag: u32,
}

fn nonce(epoch: u64, seq: u64) -> u64 {
    (epoch << 28) ^ seq ^ 0x6461_7461 // "data" domain separation
}

fn tag_input(epoch: u64, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(16 + body.len());
    v.extend_from_slice(&epoch.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(body);
    v
}

/// The sending side of the secured group channel.
#[derive(Debug)]
pub struct DataSource {
    key: SymKey,
    epoch: u64,
    seq: u64,
}

impl DataSource {
    /// Starts sending under `key` installed at `epoch`.
    pub fn new(key: SymKey, epoch: u64) -> Self {
        DataSource { key, epoch, seq: 0 }
    }

    /// Switches to the group key installed by rekey message `epoch`.
    pub fn rekeyed(&mut self, key: SymKey, epoch: u64) {
        assert!(epoch > self.epoch, "epochs must advance");
        self.key = key;
        self.epoch = epoch;
        self.seq = 0;
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Encrypts one payload.
    pub fn encrypt(&mut self, payload: &[u8]) -> DataPacket {
        let seq = self.seq;
        self.seq += 1;
        let mut body = payload.to_vec();
        StreamCipher::apply_oneshot(&self.key, nonce(self.epoch, seq), &mut body);
        let tag = mac::mac32(&self.key, &tag_input(self.epoch, seq, &body));
        DataPacket {
            epoch: self.epoch,
            seq,
            body,
            tag,
        }
    }
}

/// What happened to a packet offered to a [`DataSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkResult {
    /// Decrypted immediately.
    Delivered(Vec<u8>),
    /// Key epoch unknown (rekey in flight): buffered for later.
    Buffered,
    /// Buffer full: the packet was dropped (and counted).
    Dropped,
    /// Authentication failed under the known epoch key.
    Rejected,
}

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Payloads delivered (immediately or from the buffer).
    pub delivered: u64,
    /// Packets dropped to the buffer bound.
    pub dropped: u64,
    /// Packets rejected by authentication.
    pub rejected: u64,
    /// High-water mark of the buffer.
    pub max_buffered: usize,
}

/// The receiving side of the secured group channel for one member.
#[derive(Debug)]
pub struct DataSink {
    keys: HashMap<u64, SymKey>,
    buffer: VecDeque<DataPacket>,
    max_buffer: usize,
    /// Counters.
    pub stats: SinkStats,
}

impl DataSink {
    /// Creates a sink holding the key of `epoch`, buffering at most
    /// `max_buffer` packets of not-yet-decryptable data.
    pub fn new(epoch: u64, key: SymKey, max_buffer: usize) -> Self {
        let mut keys = HashMap::new();
        keys.insert(epoch, key);
        DataSink {
            keys,
            buffer: VecDeque::new(),
            max_buffer,
            stats: SinkStats::default(),
        }
    }

    /// Packets currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    fn decrypt(&self, pkt: &DataPacket) -> Option<Vec<u8>> {
        let key = self.keys.get(&pkt.epoch)?;
        let expect = mac::mac32(key, &tag_input(pkt.epoch, pkt.seq, &pkt.body));
        if !mac::tags_equal(expect, pkt.tag) {
            return None;
        }
        let mut body = pkt.body.clone();
        StreamCipher::apply_oneshot(key, nonce(pkt.epoch, pkt.seq), &mut body);
        Some(body)
    }

    /// Offers one received packet.
    pub fn receive(&mut self, pkt: DataPacket) -> SinkResult {
        if self.keys.contains_key(&pkt.epoch) {
            match self.decrypt(&pkt) {
                Some(body) => {
                    self.stats.delivered += 1;
                    SinkResult::Delivered(body)
                }
                None => {
                    self.stats.rejected += 1;
                    SinkResult::Rejected
                }
            }
        } else if self.buffer.len() < self.max_buffer {
            self.buffer.push_back(pkt);
            self.stats.max_buffered = self.stats.max_buffered.max(self.buffer.len());
            SinkResult::Buffered
        } else {
            self.stats.dropped += 1;
            SinkResult::Dropped
        }
    }

    /// Installs the key delivered by rekey message `epoch` and drains
    /// every buffered packet that now decrypts. Returns the drained
    /// payloads in arrival order.
    pub fn install_key(&mut self, epoch: u64, key: SymKey) -> Vec<Vec<u8>> {
        self.keys.insert(epoch, key);
        let mut drained = Vec::new();
        let mut keep = VecDeque::new();
        while let Some(pkt) = self.buffer.pop_front() {
            if self.keys.contains_key(&pkt.epoch) {
                match self.decrypt(&pkt) {
                    Some(body) => {
                        self.stats.delivered += 1;
                        drained.push(body);
                    }
                    None => self.stats.rejected += 1,
                }
            } else {
                keep.push_back(pkt);
            }
        }
        self.buffer = keep;
        drained
    }

    /// Forgets keys older than `epoch` (bounding state; old traffic can no
    /// longer be decrypted, which is usually what retention policy wants).
    pub fn expire_before(&mut self, epoch: u64) {
        self.keys.retain(|&e, _| e >= epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymKey {
        SymKey::from_bytes([b; 16])
    }

    #[test]
    fn in_epoch_traffic_flows() {
        let mut src = DataSource::new(key(1), 0);
        let mut sink = DataSink::new(0, key(1), 8);
        for i in 0..10u32 {
            let payload = format!("frame {i}");
            let pkt = src.encrypt(payload.as_bytes());
            assert_eq!(
                sink.receive(pkt),
                SinkResult::Delivered(payload.into_bytes())
            );
        }
        assert_eq!(sink.stats.delivered, 10);
        assert_eq!(sink.buffered(), 0);
    }

    #[test]
    fn rekey_in_flight_buffers_then_drains_in_order() {
        let mut src = DataSource::new(key(1), 0);
        let mut sink = DataSink::new(0, key(1), 8);
        let _ = sink.receive(src.encrypt(b"old-1"));

        // Server rekeys to epoch 1; the sink has not received the rekey
        // message yet.
        src.rekeyed(key(2), 1);
        assert_eq!(sink.receive(src.encrypt(b"new-1")), SinkResult::Buffered);
        assert_eq!(sink.receive(src.encrypt(b"new-2")), SinkResult::Buffered);
        assert_eq!(sink.buffered(), 2);

        // The rekey message arrives: the buffer drains in order.
        let drained = sink.install_key(1, key(2));
        assert_eq!(drained, vec![b"new-1".to_vec(), b"new-2".to_vec()]);
        assert_eq!(sink.buffered(), 0);
        assert_eq!(sink.stats.max_buffered, 2);

        // Subsequent traffic flows directly.
        assert_eq!(
            sink.receive(src.encrypt(b"new-3")),
            SinkResult::Delivered(b"new-3".to_vec())
        );
    }

    #[test]
    fn buffer_bound_drops_excess() {
        let mut src = DataSource::new(key(1), 0);
        let mut sink = DataSink::new(0, key(1), 2);
        src.rekeyed(key(2), 1);
        assert_eq!(sink.receive(src.encrypt(b"a")), SinkResult::Buffered);
        assert_eq!(sink.receive(src.encrypt(b"b")), SinkResult::Buffered);
        assert_eq!(sink.receive(src.encrypt(b"c")), SinkResult::Dropped);
        assert_eq!(sink.stats.dropped, 1);
        // Only the two buffered frames come out.
        assert_eq!(sink.install_key(1, key(2)).len(), 2);
    }

    #[test]
    fn departed_member_cannot_read_new_epoch() {
        let mut src = DataSource::new(key(1), 0);
        // The departed member still holds the epoch-0 key only.
        let mut departed = DataSink::new(0, key(1), 64);
        src.rekeyed(key(2), 1);
        let pkt = src.encrypt(b"secret");
        // It buffers (unknown epoch) and can never drain without the key.
        assert_eq!(departed.receive(pkt.clone()), SinkResult::Buffered);
        // Even force-installing a *wrong* key rejects by authentication.
        let drained = departed.install_key(1, key(99));
        assert!(drained.is_empty());
        assert_eq!(departed.stats.rejected, 1);
    }

    #[test]
    fn tampered_packet_rejected() {
        let mut src = DataSource::new(key(1), 0);
        let mut sink = DataSink::new(0, key(1), 8);
        let mut pkt = src.encrypt(b"payload");
        pkt.body[0] ^= 1;
        assert_eq!(sink.receive(pkt), SinkResult::Rejected);
        assert_eq!(sink.stats.rejected, 1);
    }

    #[test]
    fn cross_epoch_replay_rejected() {
        // A packet from epoch 0 replayed as epoch 1 fails (tag binds the
        // epoch).
        let mut src = DataSource::new(key(1), 0);
        let mut sink = DataSink::new(0, key(1), 8);
        let mut pkt = src.encrypt(b"x");
        pkt.epoch = 1;
        sink.install_key(1, key(2));
        assert_eq!(sink.receive(pkt), SinkResult::Rejected);
    }

    #[test]
    fn key_expiry_bounds_state() {
        let mut sink = DataSink::new(0, key(1), 8);
        sink.install_key(1, key(2));
        sink.install_key(2, key(3));
        sink.expire_before(2);
        // Epoch-0 traffic no longer decrypts.
        let mut src = DataSource::new(key(1), 0);
        let pkt = src.encrypt(b"stale");
        assert_eq!(sink.receive(pkt), SinkResult::Buffered);
    }

    #[test]
    #[should_panic(expected = "advance")]
    fn epoch_regression_panics() {
        let mut src = DataSource::new(key(1), 5);
        src.rekeyed(key(2), 5);
    }
}
