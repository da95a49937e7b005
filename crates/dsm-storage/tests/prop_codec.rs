//! Property tests for stable storage and the codec.

use dsm_storage::{ByteReader, ByteWriter, DiskMode, DiskModel, SegmentKind, StableStore};
use proptest::prelude::*;

proptest! {
    /// Decoding arbitrary bytes never panics — corrupt stable storage must
    /// surface as errors, not aborts.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = ByteReader::new(&bytes);
        // Drain the input with a fixed mixed-field schedule.
        loop {
            if r.get_u8().is_err() { break; }
            if r.get_u32().is_err() { break; }
            if r.get_varint().is_err() { break; }
            if r.get_bytes().is_err() { break; }
        }
    }

    /// A mixed write/read schedule roundtrips exactly.
    #[test]
    fn mixed_fields_roundtrip(
        a in any::<u64>(),
        b in any::<u32>(),
        s in proptest::collection::vec(any::<u8>(), 0..64),
        v in proptest::collection::vec(any::<u32>(), 0..32),
        f in any::<f64>(),
    ) {
        let mut w = ByteWriter::new();
        w.put_u64(a);
        w.put_bytes(&s);
        w.put_u32(b);
        w.put_varint(a);
        v.iter().for_each(|&x| w.put_varint(x.into()));
        w.put_f64(f);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        prop_assert_eq!(r.get_u64().unwrap(), a);
        prop_assert_eq!(r.get_bytes().unwrap(), &s[..]);
        prop_assert_eq!(r.get_u32().unwrap(), b);
        prop_assert_eq!(r.get_varint().unwrap(), a);
        for x in v {
            prop_assert_eq!(r.get_varint().unwrap(), u64::from(x));
        }
        let got = r.get_f64().unwrap();
        prop_assert_eq!(got.to_bits(), f.to_bits());
        prop_assert!(r.is_exhausted());
    }

    /// Store accounting invariants: live bytes equal the sum of the latest
    /// write per segment; cumulative traffic equals the sum of all writes.
    #[test]
    fn store_accounting_is_exact(
        ops in proptest::collection::vec((0u64..6, 0usize..200, any::<bool>()), 1..40),
    ) {
        let store = StableStore::new(DiskModel::instant());
        let mut live: std::collections::HashMap<(bool, u64), usize> = Default::default();
        let mut total = 0u64;
        for (id, len, is_log) in ops {
            let kind = if is_log { SegmentKind::Log } else { SegmentKind::Checkpoint };
            store.write_segment(kind, id, vec![0xAB; len]);
            live.insert((is_log, id), len);
            total += len as u64;
        }
        prop_assert_eq!(store.stats().bytes_written, total);
        let expect_live: usize = live.values().sum();
        prop_assert_eq!(store.total_live_bytes(), expect_live as u64);
        for ((is_log, id), len) in live {
            let kind = if is_log { SegmentKind::Log } else { SegmentKind::Checkpoint };
            prop_assert_eq!(store.read().segment(kind, id).unwrap().len(), len);
        }
    }
}

#[test]
fn disk_model_is_monotone_in_bytes() {
    let m = DiskModel::scsi_1999(1.0, DiskMode::AccountOnly);
    let mut last = std::time::Duration::ZERO;
    for mb in [0u64, 1, 4, 16, 64] {
        let t = m.write_time(mb * 1024 * 1024);
        assert!(t >= last);
        last = t;
    }
}
