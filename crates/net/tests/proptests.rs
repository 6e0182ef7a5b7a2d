//! Property tests: wire-framing integrity and NIC RX bookkeeping.

use dlb_net::{Frame, FrameError, NicRx, NicSpec, RxError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frame_roundtrips(
        request_id in any::<u64>(),
        client_id in any::<u32>(),
        ts in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let f = Frame { request_id, client_id, send_ts_nanos: ts, payload };
        let bytes = f.encode();
        prop_assert_eq!(bytes.len(), f.wire_len());
        prop_assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn truncation_never_panics(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        cut in any::<proptest::sample::Index>(),
    ) {
        let f = Frame { request_id: 1, client_id: 2, send_ts_nanos: 3, payload };
        let bytes = f.encode();
        let cut = cut.index(bytes.len());
        let r = Frame::decode(&bytes[..cut]);
        if cut < bytes.len() {
            prop_assert!(r.is_err());
        }
        let well_formed_error = matches!(
            r,
            Ok(_) | Err(FrameError::Truncated)
                | Err(FrameError::LengthMismatch { .. })
                | Err(FrameError::BadMagic { .. })
        );
        prop_assert!(well_formed_error);
    }

    #[test]
    fn corrupted_magic_is_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        byte in 0usize..4,
        flip in 1u8..=255,
    ) {
        let f = Frame { request_id: 7, client_id: 1, send_ts_nanos: 9, payload };
        let mut bytes = f.encode();
        bytes[byte] ^= flip;
        let bad_magic = matches!(Frame::decode(&bytes), Err(FrameError::BadMagic { .. }));
        prop_assert!(bad_magic);
    }

    #[test]
    fn length_field_mismatch_is_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        delta in prop::sample::select(vec![-3i64, -2, -1, 1, 2, 3, 1000]),
    ) {
        let real_len = payload.len() as i64;
        let declared = real_len + delta;
        prop_assume!(declared >= 0);
        let f = Frame { request_id: 7, client_id: 1, send_ts_nanos: 9, payload };
        let mut bytes = f.encode();
        bytes[24..28].copy_from_slice(&(declared as u32).to_le_bytes());
        let r = Frame::decode(&bytes);
        prop_assert_eq!(
            r,
            Err(FrameError::LengthMismatch {
                declared: declared as u32,
                present: real_len as usize,
            })
        );
    }

    #[test]
    fn bounded_ring_conserves_frames(
        capacity in 1usize..32,
        bursts in prop::collection::vec(1usize..12, 1..20),
    ) {
        // Alternating burst-deliver / drain-one cycles: every delivered
        // frame is either pollable or counted as dropped, never lost.
        let nic = NicRx::with_ring_capacity(NicSpec::forty_gbps(), 0, capacity);
        let mut delivered = 0u64;
        let mut polled = 0u64;
        let mut id = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                let f = Frame {
                    request_id: id,
                    client_id: 0,
                    send_ts_nanos: 0,
                    payload: vec![0u8; 16],
                };
                id += 1;
                delivered += 1;
                match nic.deliver(&f.encode(), id) {
                    Ok(_) => {}
                    Err(RxError::RingFull { capacity: c }) => prop_assert_eq!(c, capacity),
                    Err(e) => prop_assert!(false, "unexpected deliver error: {}", e),
                }
                prop_assert!(nic.pending() <= capacity, "ring exceeded its bound");
            }
            if nic.poll().is_some() {
                polled += 1;
            }
        }
        polled += nic.poll_batch(usize::MAX).len() as u64;
        prop_assert_eq!(polled + nic.dropped(), delivered);
        // Only ring-resident frames hold payload buffers.
        prop_assert_eq!(nic.buffers_held() as u64, polled);
    }

    #[test]
    fn nic_descriptors_are_disjoint_and_fetchable(
        sizes in prop::collection::vec(1usize..2048, 1..40)
    ) {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000);
        let mut descs = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let f = Frame {
                request_id: i as u64,
                client_id: 0,
                send_ts_nanos: 0,
                payload: vec![i as u8; *len],
            };
            descs.push(nic.deliver(&f.encode(), i as u64).unwrap());
        }
        // Buffer ranges never overlap.
        let mut ranges: Vec<(u64, u64)> = descs
            .iter()
            .map(|d| (d.phys_addr, d.phys_addr + d.len as u64))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping RX buffers {:?}", w);
        }
        // Every payload fetches back intact; release exactly once.
        for (i, d) in descs.iter().enumerate() {
            let got = nic.fetch(d.phys_addr, d.len).unwrap();
            prop_assert_eq!(&*got, &vec![i as u8; sizes[i]]);
            prop_assert!(nic.release(d.phys_addr));
            prop_assert!(!nic.release(d.phys_addr));
        }
        prop_assert_eq!(nic.buffers_held(), 0);
    }
}
