//! Property-based fuzzing of the `GESTSUR1` surrogate-model sidecar
//! decoder. Arbitrary bytes, bit flips and truncations must never panic;
//! encode → decode → encode must give back the same bytes for any model;
//! and a sidecar whose rolling window claims more pairs than the model
//! keeps must be rejected.

use gest_core::SurrogateModel;
use gest_isa::codec::Encoder;
use gest_isa::features::{FeatureVec, FEATURE_DIM};
use proptest::prelude::*;

/// The model's rolling `(predicted, actual)` window
/// (`surrogate::PAIR_WINDOW`); `a_full_window_encodes_window_pairs`
/// checks this copy against the model.
const PAIR_WINDOW: usize = 256;

/// Bytes one encoded pair takes: two `f64`s.
const PAIR_BYTES: usize = 16;

/// Feature vectors in the normalized `[0, 1]` range the runner feeds.
fn features_strategy() -> impl Strategy<Value = FeatureVec> {
    prop::collection::vec(0.0f64..=1.0, FEATURE_DIM)
        .prop_map(|features| features.try_into().expect("FEATURE_DIM features"))
}

/// `(observations, pairs as bit patterns, refit?)`: pairs include NaNs and
/// infinities, since the window stores them verbatim.
type ModelSpec = (Vec<(FeatureVec, f64)>, Vec<(u64, u64)>, bool);

fn model_strategy() -> impl Strategy<Value = ModelSpec> {
    (
        prop::collection::vec((features_strategy(), -1e6f64..1e6), 0..12usize),
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..24usize),
        any::<bool>(),
    )
}

fn build((observations, pairs, refit): &ModelSpec) -> SurrogateModel {
    let mut model = SurrogateModel::new();
    for (features, fitness) in observations {
        model.observe(features, *fitness);
    }
    for &(predicted, actual) in pairs {
        model.record_pair(f64::from_bits(predicted), f64::from_bits(actual));
    }
    if *refit {
        model.fit();
    }
    model
}

/// An encoded sidecar whose window holds `pairs` pairs of zeros: the
/// empty model's encoding, whose last byte is its zero pair count, with
/// that count replaced.
fn with_pair_count(pairs: usize) -> Vec<u8> {
    let mut bytes = SurrogateModel::new().encode(7, 3);
    assert_eq!(
        bytes.pop(),
        Some(0),
        "an empty window encodes as one zero byte"
    );
    let mut tail = Encoder::new();
    tail.varint(pairs as u64);
    for _ in 0..pairs {
        tail.f64(0.0).f64(0.0);
    }
    bytes.extend_from_slice(&tail.into_bytes());
    bytes
}

#[test]
fn a_full_window_encodes_window_pairs() {
    let mut model = SurrogateModel::new();
    for i in 0..PAIR_WINDOW + 40 {
        model.record_pair(i as f64, i as f64);
    }
    let bytes = model.encode(7, 3);
    assert_eq!(bytes.len(), with_pair_count(PAIR_WINDOW).len());
    let (_, _, restored) = SurrogateModel::decode(&bytes).unwrap();
    assert_eq!(restored.encode(7, 3), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..400usize),
        spec in model_strategy(),
    ) {
        // Pure noise almost never passes the magic, so noise also goes
        // behind a valid header, and in place of a valid pair window.
        let bytes = build(&spec).encode(1, 2);
        let header = SurrogateModel::new().encode(1, 2).len() - 1;
        let mut framed = bytes[..header].to_vec();
        framed.extend_from_slice(&noise);
        for input in [&noise, &framed] {
            let _ = SurrogateModel::decode(input);
        }
    }

    #[test]
    fn bit_flips_and_truncations_never_panic(
        spec in model_strategy(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4usize),
        cut in any::<usize>(),
    ) {
        let bytes = build(&spec).encode(1, 2);
        let mut flipped = bytes.clone();
        for (position, bit) in flips {
            let position = position % flipped.len();
            flipped[position] ^= 1 << (bit % 8);
        }
        let _ = SurrogateModel::decode(&flipped);
        prop_assert!(SurrogateModel::decode(&bytes[..cut % bytes.len()]).is_err());
    }

    #[test]
    fn encode_decode_encode_is_byte_identical(
        spec in model_strategy(),
        config_fp in any::<u64>(),
        generation in any::<u32>(),
    ) {
        let bytes = build(&spec).encode(config_fp, generation);
        let (fp, stamped, restored) = SurrogateModel::decode(&bytes).unwrap();
        prop_assert_eq!((fp, stamped), (config_fp, generation));
        prop_assert_eq!(restored.samples(), spec.0.len() as u64);
        prop_assert_eq!(restored.encode(config_fp, generation), bytes);
    }

    #[test]
    fn a_pair_count_above_the_window_is_rejected(extra in 1usize..64) {
        let bytes = with_pair_count(PAIR_WINDOW + extra);
        let error = SurrogateModel::decode(&bytes).unwrap_err();
        prop_assert!(error.to_string().contains("exceeds the cap"), "{}", error);
        // The claim alone is rejected, before any pair is read.
        let claim = bytes.len() - (PAIR_WINDOW + extra) * PAIR_BYTES;
        let error = SurrogateModel::decode(&bytes[..claim]).unwrap_err();
        prop_assert!(error.to_string().contains("exceeds the cap"), "{}", error);
    }
}
