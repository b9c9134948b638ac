//! Property-based fuzzing of the `GESTEVC1` eval-cache sidecar decoder.
//! Arbitrary bytes, bit flips and truncations must never panic; a bit
//! flip inside one record must drop that record and nothing else; and
//! encode → decode must restore every entry, so that re-encoding gives
//! back the same bytes.

use gest_core::{CachedEval, EvalCache, EvalKey};
use gest_isa::codec::Decoder;
use proptest::prelude::*;

const FP: u64 = 0x0123_4567_89ab_cdef;
const CAP: usize = 1 << 20;

/// `(genes hash halves, measurement bit patterns)` per entry; NaNs and
/// infinities included.
fn entries_strategy() -> impl Strategy<Value = Vec<(u64, u64, Vec<u64>)>> {
    prop::collection::vec(
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..6usize),
        ),
        1..24usize,
    )
}

fn key(hi: u64, lo: u64) -> EvalKey {
    EvalKey {
        config_fp: FP,
        genes_hash: (u128::from(hi) << 64) | u128::from(lo),
    }
}

/// A cache holding `entries` in insertion order; later duplicates of a
/// key replace earlier ones.
fn filled(entries: &[(u64, u64, Vec<u64>)]) -> EvalCache {
    let cache = EvalCache::new(CAP, FP);
    for (hi, lo, bits) in entries {
        cache.insert(
            key(*hi, *lo),
            CachedEval {
                measurements: bits.iter().map(|&b| f64::from_bits(b)).collect(),
                detail_kv: None,
            },
        );
    }
    cache
}

/// Reads an encoded sidecar's header: magic, version, fingerprint and
/// record count.
fn read_header(dec: &mut Decoder<'_>) -> u64 {
    dec.bytes().unwrap();
    dec.u32().unwrap();
    dec.u64().unwrap();
    dec.varint().unwrap()
}

/// Byte range of each record's payload and CRC in an encoded sidecar,
/// with the key the record holds.
fn record_spans(bytes: &[u8]) -> Vec<(std::ops::Range<usize>, EvalKey)> {
    let mut dec = Decoder::new(bytes);
    let count = read_header(&mut dec);
    (0..count)
        .map(|_| {
            let record = dec.bytes().unwrap();
            let start = bytes.len() - dec.remaining() - record.len();
            dec.u32().unwrap();
            let mut fields = Decoder::new(record);
            let hi = fields.u64().unwrap();
            let lo = fields.u64().unwrap();
            (start..bytes.len() - dec.remaining(), key(hi, lo))
        })
        .collect()
}

fn measurement_bits(cache: &EvalCache, key: &EvalKey) -> Option<Vec<u64>> {
    cache
        .get(key)
        .map(|hit| hit.measurements.iter().map(|m| m.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..200usize),
        entries in entries_strategy(),
    ) {
        // Pure noise almost never passes the header, so noise also goes
        // behind a valid header and count.
        let mut framed = filled(&entries).encode();
        let mut dec = Decoder::new(&framed);
        read_header(&mut dec);
        framed.truncate(framed.len() - dec.remaining());
        framed.extend_from_slice(&noise);
        for bytes in [&noise, &framed] {
            let cache = EvalCache::decode(bytes, FP, CAP);
            prop_assert!(cache.stats().entries <= entries.len());
        }
    }

    #[test]
    fn bit_flips_and_truncations_never_panic(
        entries in entries_strategy(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4usize),
        cut in any::<usize>(),
    ) {
        let bytes = filled(&entries).encode();
        let mut flipped = bytes.clone();
        for (position, bit) in flips {
            let position = position % flipped.len();
            flipped[position] ^= 1 << (bit % 8);
        }
        let _ = EvalCache::decode(&flipped, FP, CAP);
        let _ = EvalCache::decode(&bytes[..cut % bytes.len()], FP, CAP);
    }

    #[test]
    fn a_flipped_record_drops_only_that_record(
        entries in entries_strategy(),
        pick in any::<usize>(),
        offset in any::<usize>(),
        bit in 0u8..8,
    ) {
        let original = filled(&entries);
        let bytes = original.encode();
        let spans = record_spans(&bytes);
        let (span, lost) = spans[pick % spans.len()].clone();
        let mut flipped = bytes.clone();
        flipped[span.start + offset % span.len()] ^= 1 << bit;

        let restored = EvalCache::decode(&flipped, FP, CAP);
        prop_assert_eq!(restored.stats().corrupt_dropped, 1);
        prop_assert_eq!(restored.stats().entries, spans.len() - 1);
        prop_assert!(restored.get(&lost).is_none());
        for (_, kept) in spans.iter().filter(|(_, key)| *key != lost) {
            prop_assert_eq!(measurement_bits(&restored, kept), measurement_bits(&original, kept));
        }
    }

    #[test]
    fn encode_then_decode_restores_every_entry(entries in entries_strategy()) {
        let original = filled(&entries);
        let bytes = original.encode();
        let restored = EvalCache::decode(&bytes, FP, CAP);
        prop_assert_eq!(restored.stats().entries, original.stats().entries);
        prop_assert_eq!(restored.stats().corrupt_dropped, 0);
        // Same entries in the same recency order.
        prop_assert_eq!(restored.encode(), bytes);
        for (hi, lo, _) in &entries {
            let key = key(*hi, *lo);
            prop_assert_eq!(measurement_bits(&restored, &key), measurement_bits(&original, &key));
        }
        // Another configuration's sidecar is ignored.
        prop_assert_eq!(EvalCache::decode(&bytes, FP ^ 1, CAP).stats().entries, 0);
    }
}
