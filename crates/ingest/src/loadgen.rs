//! Deterministic fleet load generator.
//!
//! Simulating 10k+ full devices tick-by-tick just to exercise the
//! ingest path would dominate the benchmark with firmware simulation.
//! Instead, a handful of *template* sessions are captured through the
//! real stack — device firmware, ARQ retransmit queue, lossy radio,
//! live host acks, all driven by the device tick in one
//! [`ScriptedSession`], the session experiment L2 sweeps — and the fleet
//! replays them: device `d` plays template `d % templates` with a
//! deterministic start-round offset, so arrival interleaving varies
//! across the cohort while each session's byte stream (and therefore
//! every decode counter) is exactly reproducible.
//!
//! Replay fidelity rests on a property of the decoder: feeding a fixed
//! byte stream to a fresh ARQ-terminating decoder delivers a fixed
//! record sequence, independent of everything else in the system. Each
//! template's ground-truth count is measured exactly that way at
//! capture time, so `Σ template.records` over the cohort is the number
//! an unbounded ingest run must hit *exactly*.

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_core::CoreError;
use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_hw::board::Telemetry;
use distscroll_hw::clock::SimDuration;
use distscroll_hw::link::RadioChannel;
use distscroll_hw::power::Battery;

/// Link fault profile a template session is captured under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Frame-drop probability, both directions.
    pub drop_prob: f64,
    /// Bit error rate, both directions.
    pub ber: f64,
    /// Arrival jitter in milliseconds.
    pub jitter_ms: u64,
}

impl LinkProfile {
    /// A perfect link: in-order, lossless. Replaying a clean template
    /// through a fresh decoder delivers every record even across
    /// eviction/resume, which is what makes eviction runs exactly
    /// checkable.
    pub const CLEAN: LinkProfile = LinkProfile {
        drop_prob: 0.0,
        ber: 0.0,
        jitter_ms: 0,
    };

    /// The paper-ish hallway condition: some loss, some reordering.
    pub const LOSSY: LinkProfile = LinkProfile {
        drop_prob: 0.05,
        ber: 1e-5,
        jitter_ms: 30,
    };
}

/// One captured session, chunked into per-round byte slices.
#[derive(Debug, Clone)]
pub struct Template {
    /// Radio bytes that arrived at the host in round `r`, in arrival
    /// order (retransmissions and duplicates included — this is the
    /// on-air truth, not the decoded record stream).
    pub rounds: Vec<Vec<u8>>,
    /// Records a fresh fleet session delivers when replaying this
    /// template — measured by replaying the captured stream through a
    /// resync decoder at capture time, so it is the *exact* ground
    /// truth for an unbounded ingest of the cohort. (This can differ
    /// from the capture-side ack endpoint's count by a frame or two:
    /// the device interleaves Event- and State-class frames out of
    /// sequence order, and a decoder that adopts the first sequence it
    /// sees judges the opening window differently than one born
    /// expecting zero.)
    pub records: u64,
    /// Interaction-event records among them, measured the same way.
    pub events: u64,
    /// Records the device's ARQ transmitter saw acknowledged by the
    /// capture-side host ([`LinkQuality::acked`](distscroll_hw::arq::LinkQuality::acked)):
    /// the device-side ledger, counted without the replay decoder that
    /// measures [`records`](Template::records).
    pub device_acked: u64,
}

/// Captures one scripted device session through the real firmware,
/// ARQ, and lossy radio, returning its on-air byte stream chunked into
/// `rounds` epochs of `round_ms` each (plus a drain tail with the hand
/// at rest so the retransmit queue empties).
///
/// The script is L2's fault-injection campaign itself: both drive one
/// [`ScriptedSession`], so the stream carries every record kind the
/// fleet path must preserve.
pub fn capture_template(link: LinkProfile, rounds: u64, round_ms: u64, seed: u64) -> Template {
    let mut profile = DeviceProfile::paper();
    profile.arq = true;
    let mut session = ScriptedSession::new(profile, link, seed, rounds);
    // The ground truth the fleet path reproduces: the captured stream
    // replayed through the same kind of decoder a shard opens.
    let mut replay = StreamDecoder::with_arq_resync();
    let mut events = 0u64;
    let mut chunks: Vec<Vec<u8>> = Vec::new();

    // 8 idle drain epochs: one retransmit timeout plus slack, so
    // anything the lossy link ate gets resent before the books close.
    for _ in 0..rounds + 8 {
        let Ok(air) = session.epoch(round_ms, |_| {}, |_| {}) else {
            break; // battery is sized to outlast the script
        };
        replay.push_bytes_with(air, |rec| {
            if let Record::Event(_) = rec {
                events += 1;
            }
        });
        chunks.push(air.to_vec());
    }

    Template {
        rounds: chunks,
        records: replay.records_ok(),
        events,
        device_acked: session
            .device()
            .firmware()
            .arq_quality()
            .map_or(0, |q| q.acked),
    }
}

/// One scripted device session over a [`LinkProfile`], with its live
/// host: the single definition of the session L2 and
/// [`capture_template`] run.
///
/// The device is a paper device over an eight-entry flat menu on a
/// battery sized to outlast any script; the host decoder terminates ARQ
/// exactly when the profile turns it on. For the first `script_epochs`
/// epochs the hand sweeps slowly across the 4–30 cm range with periodic
/// select and back clicks; after that it rests, so a caller can drain
/// the retransmit queue. Each epoch ends with the host's pump: poll the
/// air, decode, ack.
pub struct ScriptedSession {
    dev: DistScrollDevice,
    decoder: StreamDecoder,
    /// Bytes that reached the host in the latest epoch.
    air: Vec<u8>,
    epoch: u64,
    script_epochs: u64,
}

impl ScriptedSession {
    /// Boots the device under `profile` on `link` and opens the host.
    pub fn new(profile: DeviceProfile, link: LinkProfile, seed: u64, script_epochs: u64) -> Self {
        let decoder = if profile.arq {
            StreamDecoder::with_arq()
        } else {
            StreamDecoder::new()
        };
        let mut dev = DistScrollDevice::new(profile, Menu::flat(8), seed);
        dev.set_battery(Battery::with_capacity(1e12));
        let mut radio = RadioChannel::lossy(link.drop_prob, link.ber);
        radio.jitter = SimDuration::from_millis(link.jitter_ms);
        dev.set_radio(radio);
        ScriptedSession {
            dev,
            decoder,
            air: Vec::new(),
            epoch: 0,
            script_epochs,
        }
    }

    /// Runs one epoch of `ms`: the script's move, the device, the
    /// script's clicks, then the pump. Drained interaction events go to
    /// `on_event`, every record the host decodes to `on_record`; the
    /// bytes that reached the host this epoch are returned.
    ///
    /// # Errors
    ///
    /// A device error (the battery gave out) ends the epoch early.
    pub fn epoch(
        &mut self,
        ms: u64,
        mut on_event: impl FnMut(&TimedEvent),
        on_record: impl FnMut(Record),
    ) -> Result<&[u8], CoreError> {
        let e = self.epoch;
        self.epoch += 1;
        let scripted = e < self.script_epochs;
        if scripted {
            self.dev.set_distance(17.0 + 13.0 * (e as f64 * 0.37).sin());
        }
        self.dev.run_for_ms(ms)?;
        if scripted && e % 7 == 3 {
            self.dev.click_select()?;
        }
        if scripted && e % 11 == 6 {
            self.dev.click_back()?;
        }
        self.dev.poll_events(&mut on_event);
        self.air.clear();
        let air = &mut self.air;
        self.dev
            .poll_telemetry(&mut |t: &Telemetry| air.extend_from_slice(&t.bytes));
        self.decoder.push_bytes_with(&self.air, on_record);
        if let Some(ack) = self.decoder.ack_payload() {
            self.dev.host_send(&ack);
        }
        Ok(&self.air)
    }

    /// The device, for its firmware's books.
    pub fn device(&self) -> &DistScrollDevice {
        &self.dev
    }

    /// The host decoder, for its delivery books.
    pub fn decoder(&self) -> &StreamDecoder {
        &self.decoder
    }
}

/// A synthetic, strictly in-order template: `rounds` chunks of
/// `per_round` event records each, generated straight from an
/// [`ArqTx`](distscroll_hw::arq::ArqTx) with the ack channel keeping
/// pace, so the stream carries no retransmissions, no reordering, one
/// ARQ class.
///
/// Only such a stream lets an evicted session resume with *zero* loss
/// and *zero* double-delivery, which is what makes eviction runs
/// exactly checkable: the first frame after any chunk boundary is
/// precisely the next undelivered sequence. A simulator capture cannot
/// promise that — same-tick Event and State frames swap places on the
/// air (shorter frames land first), a parked out-of-order frame that
/// eviction discards was already bitmap-acked and is never resent, and
/// ack lag puts fast-retransmit duplicates at chunk heads where a
/// resumed receiver would adopt them. Exactness tests use these
/// templates; [`capture_template`] streams exercise realism instead.
#[expect(
    clippy::expect_used,
    reason = "ArqTx::enqueue bounds every queued wire to one frame's payload"
)]
pub fn inorder_template(rounds: u64, per_round: u64) -> Template {
    use distscroll_hw::arq::{decode_ack, decode_data, ArqClass, ArqRx, ArqTx};
    use distscroll_hw::link::encode_frame;

    let mut tx = ArqTx::new();
    let mut rx = ArqRx::new();
    let mut chunks = Vec::new();
    let mut records = 0u64;
    let mut stamp = 0u16;
    for round in 0..rounds {
        for _ in 0..per_round {
            let payload = [
                b'E',
                (stamp >> 8) as u8,
                stamp as u8,
                b'H',
                (stamp % 8) as u8,
            ];
            // A five-byte event record always fits a data frame.
            let _ = tx.enqueue(ArqClass::Event, &payload, round);
            stamp = stamp.wrapping_add(1);
        }
        let mut chunk = Vec::new();
        let deliveries = &mut records;
        tx.service(round, |wire| {
            chunk.extend_from_slice(&encode_frame(wire).expect("an arq wire fits one frame"));
            if let Some((seq, _)) = decode_data(wire) {
                rx.on_data(seq, || (), |()| *deliveries += 1);
            }
        });
        if let Some((cum, bitmap)) = decode_ack(&rx.ack_payload()) {
            tx.on_ack(cum, bitmap);
        }
        chunks.push(chunk);
    }
    Template {
        rounds: chunks,
        records,
        events: records,
        device_acked: tx.quality().acked,
    }
}

/// A cohort of devices replaying captured templates on staggered
/// start rounds.
#[derive(Debug, Clone)]
pub struct CohortLoad {
    templates: Vec<Template>,
    /// Devices in the cohort, with ids `0..devices`.
    pub devices: u64,
    /// Start offsets are spread over `0..stagger` rounds.
    pub stagger: u64,
}

impl CohortLoad {
    pub fn new(templates: Vec<Template>, devices: u64, stagger: u64) -> Self {
        assert!(
            !templates.is_empty(),
            "a cohort needs at least one template"
        );
        CohortLoad {
            templates,
            devices,
            stagger: stagger.max(1),
        }
    }

    /// The template device `d` replays.
    #[expect(
        clippy::expect_used,
        reason = "new() refuses empty template sets, so the modulo index is in range"
    )]
    fn template_of(&self, device: u64) -> &Template {
        let n = self.templates.len() as u64;
        self.templates
            .get((device % n) as usize)
            .expect("non-empty template set")
    }

    /// The round device `d` starts transmitting in: a cheap integer
    /// hash (not `d % stagger`) so consecutive device ids — which land
    /// on consecutive shards — do not all start in lockstep.
    fn offset_of(&self, device: u64) -> u64 {
        (device.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % self.stagger
    }

    /// Total rounds the cohort spans.
    pub fn rounds(&self) -> u64 {
        let longest = self
            .templates
            .iter()
            .map(|t| t.rounds.len() as u64)
            .max()
            .unwrap_or(0);
        self.stagger + longest
    }

    /// Visits every (device, chunk) active in round `r`, in device-id
    /// order — the deterministic arrival order of the round.
    pub fn for_round<F: FnMut(u64, &[u8])>(&self, round: u64, mut offer: F) {
        for device in 0..self.devices {
            let off = self.offset_of(device);
            if round < off {
                continue;
            }
            let template = self.template_of(device);
            if let Some(chunk) = template.rounds.get((round - off) as usize) {
                if !chunk.is_empty() {
                    offer(device, chunk);
                }
            }
        }
    }

    /// Ground truth: records an unbounded ingest of the full cohort
    /// delivers, exactly.
    pub fn expected_records(&self) -> u64 {
        (0..self.devices).map(|d| self.template_of(d).records).sum()
    }

    /// Ground truth restricted to the devices of one shard (for
    /// per-shard comparisons under targeted overload).
    pub fn expected_records_for_shard(&self, shard: usize, shards: usize) -> u64 {
        (0..self.devices)
            .filter(|d| crate::shard_of(*d, shards) == shard)
            .map(|d| self.template_of(d).records)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_deterministic_and_nonempty() {
        let a = capture_template(LinkProfile::LOSSY, 12, 100, 42);
        let b = capture_template(LinkProfile::LOSSY, 12, 100, 42);
        assert_eq!(a.rounds, b.rounds, "same seed, same bytes");
        assert_eq!(a.records, b.records);
        assert!(a.records > 0, "the script must generate traffic");
        assert!(a.events > 0, "clicks must appear in the stream");
        let c = capture_template(LinkProfile::LOSSY, 12, 100, 43);
        assert_ne!(a.rounds, c.rounds, "seeds must matter");
    }

    /// The replay count and the device-side ledger are measured by
    /// different parties: the host's replay decoder, and the device's
    /// transmitter counting acknowledgements. They agree within the
    /// frame or two documented on [`Template::records`], and neither is
    /// zero, so a host decoder that delivers nothing cannot pass.
    #[test]
    fn replay_count_matches_the_device_side_ack_ledger() {
        for link in [LinkProfile::CLEAN, LinkProfile::LOSSY] {
            for seed in [7, 42, 20050607] {
                let t = capture_template(link, 12, 100, seed);
                assert!(
                    t.device_acked > 0,
                    "{link:?} seed {seed}: the device saw no ack"
                );
                assert!(
                    t.records.abs_diff(t.device_acked) <= 2,
                    "{link:?} seed {seed}: replay delivered {} records, the device saw {} acked",
                    t.records,
                    t.device_acked
                );
            }
        }
        let t = inorder_template(12, 3);
        assert_eq!((t.records, t.device_acked), (36, 36));
    }

    /// 64-bit FNV-1a: a fixed, dependency-free hash, so the golden value
    /// below cannot move with the standard library's hasher.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A golden capture, as `fleet_ingest` builds its lossy template:
    /// the chunk boundaries and bytes, and both ground-truth counts. Any
    /// change to the script, the device tick, the radio's draw order or
    /// the host pump moves at least one of these.
    #[test]
    fn lossy_capture_matches_the_golden_record() {
        let t = capture_template(LinkProfile::LOSSY, 48, 100, 20050607);
        let hash = t.rounds.iter().fold(0xcbf2_9ce4_8422_2325, |h, chunk| {
            fnv1a(fnv1a(h, &(chunk.len() as u64).to_le_bytes()), chunk)
        });
        assert_eq!(t.rounds.len(), 56);
        assert_eq!(hash, 0xa638_0bb7_e243_1e8e);
        assert_eq!((t.records, t.events, t.device_acked), (114, 46, 114));
    }

    #[test]
    fn clean_template_replays_exactly_through_fresh_decoder() {
        let t = capture_template(LinkProfile::CLEAN, 12, 100, 7);
        let mut dec = StreamDecoder::with_arq_resync();
        let mut n = 0u64;
        for chunk in &t.rounds {
            dec.push_bytes_with(chunk, |_| n += 1);
        }
        assert_eq!(n, t.records, "replay must deliver the captured count");
        assert_eq!(dec.arq_resynced(), Some(false), "stream starts at zero");
    }

    #[test]
    fn cohort_covers_every_device_once_per_active_round() {
        let t = capture_template(LinkProfile::CLEAN, 6, 100, 7);
        let expect_one = t.records;
        let load = CohortLoad::new(vec![t], 50, 4);
        let mut offers = 0u64;
        let mut devices_seen = std::collections::BTreeSet::new();
        for r in 0..load.rounds() {
            load.for_round(r, |d, chunk| {
                offers += 1;
                devices_seen.insert(d);
                assert!(!chunk.is_empty());
            });
        }
        assert_eq!(devices_seen.len(), 50, "every device transmits");
        assert!(offers >= 50, "at least one chunk per device");
        assert_eq!(load.expected_records(), 50 * expect_one);
        let per_shard: u64 = (0..4).map(|s| load.expected_records_for_shard(s, 4)).sum();
        assert_eq!(per_shard, load.expected_records());
    }
}
