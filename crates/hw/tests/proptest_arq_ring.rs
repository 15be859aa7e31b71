//! Differential property test: the fixed parked ring in [`ArqRx`]
//! against the receiver it replaced, which parked each out-of-order
//! record in a `Vec` and found it again by linear scan.
//!
//! Both receivers see the same arbitrary arrival sequence: in-order
//! frames, duplicates of delivered and of parked frames, reorders up to
//! and past [`WINDOW`] (including `ahead == WINDOW`, whose ring slot is
//! the one `expected` maps to), serially old and far-future sequence
//! numbers, the 65535 → 0 wrap, and `new_resync` adoption. After every
//! frame they must agree on the records delivered (which copy, in which
//! order), on the three receive counters, on `resynced()` and on
//! `ack_payload()`.
//!
//! Several [`RxState`]s interleaved over one shared [`RingStore`] must
//! each agree with a reference of their own in the same way: a ring
//! taken, released and taken again by another receiver carries nothing
//! across, and every ring is back in the store once each receiver is
//! released.

use distscroll_hw::arq::{
    decode_data, ArqRx, LinkQuality, RingStore, RxBooks, RxState, Seq16, ACK_TAG, WINDOW,
};
use proptest::prelude::*;

/// The sequence number with wire value `raw`, as the decoder yields it.
fn seq(raw: u16) -> Seq16 {
    let [hi, lo] = raw.to_be_bytes();
    decode_data(&[b'D', hi, lo, 0]).map_or(Seq16::ZERO, |(s, _)| s)
}

/// The wire value of `s`.
fn raw(s: Seq16) -> u16 {
    s.distance_from(Seq16::ZERO)
}

/// The Vec-parked receiver, kept as the reference: out-of-order records
/// sit in a `Vec` in arrival order, the duplicate check and release scan
/// it linearly. (The spare-buffer recycling it also did changed no
/// output and is left out.)
struct VecRx {
    expected: Seq16,
    parked: Vec<(Seq16, Vec<u8>)>,
    quality: LinkQuality,
    sync_on_first: bool,
    synced: bool,
    resynced: bool,
}

impl VecRx {
    fn new(sync_on_first: bool) -> Self {
        VecRx {
            expected: Seq16::ZERO,
            parked: Vec::new(),
            quality: LinkQuality::default(),
            sync_on_first,
            synced: false,
            resynced: false,
        }
    }

    fn on_data(&mut self, seq: Seq16, inner: &[u8], deliver: &mut impl FnMut(Vec<u8>)) {
        if self.sync_on_first && !self.synced {
            self.synced = true;
            if seq != self.expected {
                self.expected = seq;
                self.resynced = true;
            }
        }
        let ahead = seq.distance_from(self.expected);
        if ahead >= 0x8000 {
            self.quality.duplicates += 1;
            return;
        }
        if ahead == 0 {
            deliver(inner.to_vec());
            self.quality.delivered += 1;
            self.expected = self.expected.next();
            while let Some(at) = self.parked.iter().position(|p| p.0 == self.expected) {
                let (_, rec) = self.parked.swap_remove(at);
                deliver(rec);
                self.quality.delivered += 1;
                self.expected = self.expected.next();
            }
            return;
        }
        self.quality.out_of_order += 1;
        if ahead > WINDOW {
            return;
        }
        if self.parked.iter().any(|p| p.0 == seq) {
            self.quality.duplicates += 1;
            return;
        }
        self.parked.push((seq, inner.to_vec()));
    }

    fn ack_payload(&self) -> [u8; 4] {
        let cum = seq(raw(self.expected).wrapping_sub(1));
        let mut bitmap = 0u8;
        for (s, _) in &self.parked {
            let ahead = s.distance_from(cum);
            if (2..2 + WINDOW).contains(&ahead) {
                bitmap |= 1 << (ahead - 2);
            }
        }
        let [hi, lo] = raw(cum).to_be_bytes();
        [ACK_TAG, hi, lo, bitmap]
    }
}

/// Feeds `arrivals` (wire sequence numbers) to both receivers, the
/// `k`-th frame carrying record `k`, and checks them against each
/// other after every frame. Returns the records delivered.
fn run_both(resync: bool, arrivals: impl IntoIterator<Item = u16>) -> usize {
    let mut ring: ArqRx<Vec<u8>> = if resync {
        ArqRx::new_resync()
    } else {
        ArqRx::new()
    };
    let mut reference = VecRx::new(resync);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (k, s) in arrivals.into_iter().enumerate() {
        let inner = (k as u32).to_be_bytes();
        ring.on_data(seq(s), || inner.to_vec(), |rec| got.push(rec));
        reference.on_data(seq(s), &inner, &mut |rec| want.push(rec));
        assert_eq!(got, want, "deliveries after frame {k} (seq {s})");
        assert_eq!(
            ring.quality(),
            reference.quality,
            "counters after frame {k}"
        );
        assert_eq!(
            ring.resynced(),
            reference.resynced,
            "adoption after frame {k}"
        );
        assert_eq!(
            ring.ack_payload(),
            reference.ack_payload(),
            "ack after frame {k} (seq {s})"
        );
    }
    got.len()
}

/// Turns generated ops into wire sequence numbers relative to the
/// reference's `expected` (or to `base` before a resync receiver's
/// first frame): in-order frames, near offsets from two behind to two
/// past the window, reorders far past it, and arbitrary values.
fn arrivals(resync: bool, base: u16, ops: &[(u8, u16)]) -> Vec<u16> {
    let mut model = VecRx::new(resync);
    let mut out = Vec::with_capacity(ops.len());
    for (k, &(kind, x)) in ops.iter().enumerate() {
        let anchor = if resync && !model.synced {
            base
        } else {
            raw(model.expected)
        };
        let s = match kind {
            0 | 1 => anchor,
            2..=5 => anchor.wrapping_add(x % (WINDOW + 5)).wrapping_sub(2),
            6 => anchor.wrapping_add(x % 40),
            _ => x,
        };
        model.on_data(seq(s), &(k as u32).to_be_bytes(), &mut |_| {});
        out.push(s);
    }
    out
}

/// One receiver of [`run_shared`]: its state and books, its reference
/// and what each delivered.
struct Shared {
    state: RxState,
    books: RxBooks,
    reference: VecRx,
    got: Vec<Vec<u8>>,
    want: Vec<Vec<u8>>,
}

/// Feeds each receiver its own `arrivals`, interleaved in the order
/// `turns` names them (a receiver whose arrivals are used up is
/// skipped), with every receiver parking in one shared store; checks
/// each against its own reference after every frame. A turn that also
/// says `retire` first releases the receiver and replaces it, and its
/// reference, with a fresh one, whose ring may be one another receiver
/// gave back with records still parked.
fn run_shared(receivers: &[(bool, Vec<u16>)], turns: &[(usize, bool)]) {
    let mut rings: RingStore<Vec<u8>> = RingStore::new();
    let mut rx: Vec<Shared> = receivers
        .iter()
        .map(|&(resync, _)| Shared {
            state: if resync {
                RxState::new_resync()
            } else {
                RxState::new()
            },
            books: RxBooks::default(),
            reference: VecRx::new(resync),
            got: Vec::new(),
            want: Vec::new(),
        })
        .collect();
    let mut next = vec![0; receivers.len()];
    for (k, &(turn, retire)) in turns.iter().enumerate() {
        let r = turn % receivers.len();
        let Some(&s) = receivers[r].1.get(next[r]) else {
            continue;
        };
        next[r] += 1;
        // The record names its receiver and frame.
        let inner = [r as u8, (k >> 8) as u8, k as u8];
        let one = &mut rx[r];
        if retire {
            let resync = receivers[r].0;
            one.state.release(&mut rings);
            one.state = if resync {
                RxState::new_resync()
            } else {
                RxState::new()
            };
            one.books = RxBooks::default();
            one.reference = VecRx::new(resync);
        }
        let got = &mut one.got;
        one.state.on_data(
            seq(s),
            &mut rings,
            &mut one.books,
            || inner.to_vec(),
            |rec| got.push(rec),
        );
        let want = &mut one.want;
        one.reference
            .on_data(seq(s), &inner, &mut |rec| want.push(rec));
        assert_eq!(one.got, one.want, "receiver {r}: deliveries after turn {k}");
        assert_eq!(
            one.books.quality(),
            one.reference.quality,
            "receiver {r}: counters after turn {k}"
        );
        assert_eq!(one.state.resynced(), one.reference.resynced);
        assert_eq!(
            one.state.ack_payload(&rings),
            one.reference.ack_payload(),
            "receiver {r}: ack after turn {k} (seq {s})"
        );
        let parking = rx.iter().filter(|x| !x.reference.parked.is_empty()).count();
        assert_eq!(rings.in_use(), parking, "a ring per receiver with a gap");
    }
    for one in &mut rx {
        one.state.release(&mut rings);
    }
    assert_eq!(rings.in_use(), 0, "every ring is back");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn receivers_sharing_one_store_match_their_vec_receivers(
        receivers in proptest::collection::vec(
            (
                any::<bool>(),
                any::<u16>(),
                proptest::collection::vec((0u8..8, any::<u16>()), 0..120),
            ),
            1..5,
        ),
        turns in proptest::collection::vec((0usize..4, 0u8..20), 0..400),
    ) {
        // One turn in twenty retires its receiver first.
        let turns: Vec<(usize, bool)> = turns.iter().map(|&(r, x)| (r, x == 0)).collect();
        let receivers: Vec<(bool, Vec<u16>)> = receivers
            .iter()
            .map(|(resync, base, ops)| (*resync, arrivals(*resync, *base, ops)))
            .collect();
        run_shared(&receivers, &turns);
    }

    #[test]
    fn ring_receiver_matches_the_vec_receiver(
        resync in any::<bool>(),
        base in any::<u16>(),
        near_wrap in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, any::<u16>()), 0..300),
    ) {
        // Half the resync runs adopt just below the wrap, so their
        // deliveries cross 65535 -> 0.
        let base = if near_wrap { 0xfff0 | (base & 0xf) } else { base };
        run_both(resync, arrivals(resync, base, &ops));
    }
}

#[test]
fn a_record_parked_a_full_window_ahead_shares_the_expected_slot() {
    // Adopt at 65532; park 65533 + 8 = 5, whose slot is the one
    // `expected` (65533) maps to, refuse 6 as beyond the window, park
    // the rest of the window in reverse, re-send two parked frames, then
    // fill the gap: the whole run releases across the wrap in order.
    let base = 65_532u16;
    let at = |k: u16| base.wrapping_add(k);
    let mut arrivals = vec![at(0), at(1 + WINDOW), at(2 + WINDOW)];
    arrivals.extend((2..=WINDOW).rev().map(at));
    arrivals.extend([at(1 + WINDOW), at(5), at(1), at(0), at(2 + WINDOW)]);
    assert_eq!(run_both(true, arrivals), 3 + usize::from(WINDOW));
}

#[test]
fn a_fresh_receiver_judges_from_zero() {
    // Frames before zero are serially old, a window's worth past it
    // parks, and the full window then releases in one burst.
    let mut arrivals = vec![65_535, 65_000, 8, 9, 32_767, 32_768];
    arrivals.extend((1..8).rev());
    arrivals.extend([0, 0, 7]);
    assert_eq!(run_both(false, arrivals), 1 + usize::from(WINDOW));
}
