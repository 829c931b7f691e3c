//! Typed codec for shipping training batches over [`crate::Comm`]'s
//! `f32`-payload messages.
//!
//! The simulated trainers move mini-batches from the data-holding rank
//! to the compute ranks as flat `Vec<f32>` messages. This module gives
//! that convention one implementation with a validating decoder, instead
//! of each trainer hand-rolling `[labels…, pixels…]` framing and
//! panicking on malformed input.
//!
//! Wire format (all `f32`, exactly representable integers for the
//! header fields):
//!
//! ```text
//! [ MAGIC, label_count, pixel_count, labels…, pixels… ]
//! ```
//!
//! Framing costs three floats per message; simulated transfer *times*
//! are unaffected because every data send prices the transfer explicitly
//! (`send_costed` and friends), never by payload length.

use std::fmt;

/// Sentinel first element of every encoded batch (`0x5EA5` — exactly
/// representable in `f32`, compared bit-for-bit on decode).
pub const BATCH_MAGIC: f32 = 0x5EA5 as f32;

/// Largest count encodable exactly in an `f32` header field.
const MAX_EXACT: usize = 1 << 24;

/// Why a payload failed to decode as a [`BatchMsg`].
#[derive(Clone, Debug, PartialEq)]
pub enum CodecError {
    /// Payload shorter than the three-float header.
    Truncated {
        /// Floats present.
        got: usize,
    },
    /// First element is not [`BATCH_MAGIC`] — the message is not a
    /// batch (mis-tagged or mis-routed).
    BadMagic {
        /// Bit pattern found where the magic was expected.
        got_bits: u32,
    },
    /// Header declares a different batch size than the receiver expects.
    BatchMismatch {
        /// Label count declared in the header.
        declared: usize,
        /// Label count the receiver expected.
        expected: usize,
    },
    /// Header field is not a non-negative integer of at most 2²⁴ (the
    /// largest count [`BatchMsg::encode`] writes).
    BadHeader {
        /// Offending header value.
        value: f32,
    },
    /// Payload length disagrees with the declared label + pixel counts.
    LengthMismatch {
        /// Floats the header implies.
        declared: usize,
        /// Floats actually present.
        got: usize,
    },
    /// A label slot holds something other than a non-negative integer.
    BadLabel {
        /// Index of the bad label.
        index: usize,
        /// Its value.
        value: f32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { got } => {
                write!(f, "batch payload truncated: {got} floats, header needs 3")
            }
            CodecError::BadMagic { got_bits } => {
                write!(f, "not a batch message: magic bits 0x{got_bits:08x}")
            }
            CodecError::BatchMismatch { declared, expected } => {
                write!(
                    f,
                    "batch size mismatch: message has {declared}, expected {expected}"
                )
            }
            CodecError::BadHeader { value } => {
                write!(
                    f,
                    "batch header field {value} is not an integer in 0..=2^24"
                )
            }
            CodecError::LengthMismatch { declared, got } => {
                write!(
                    f,
                    "batch length mismatch: header declares {declared} floats, got {got}"
                )
            }
            CodecError::BadLabel { index, value } => {
                write!(f, "label {index} is {value}, not a non-negative integer")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Reads a header count field: a non-negative exact integer no larger
/// than any count the encoder writes — so the length the header implies
/// cannot overflow, however hostile the bytes.
fn header_count(value: f32) -> Result<usize, CodecError> {
    let ok = (0.0..=MAX_EXACT as f32).contains(&value) && value.fract() == 0.0;
    if !ok {
        return Err(CodecError::BadHeader { value });
    }
    Ok(value as usize)
}

/// One mini-batch on the wire. Stateless namespace for the codec.
pub struct BatchMsg;

impl BatchMsg {
    /// Encodes `pixels` + `labels` into one flat message.
    ///
    /// # Panics
    /// Panics if either count exceeds 2²⁴ (no longer exactly
    /// representable in the `f32` header) — a caller bug, not a wire
    /// condition.
    pub fn encode(pixels: &[f32], labels: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(3 + labels.len() + pixels.len());
        Self::encode_into(pixels, labels, &mut out);
        out
    }

    /// [`encode`](Self::encode) into a caller-provided buffer (cleared
    /// first) — the zero-allocation framing path once `out` has warmed
    /// up to the batch size.
    pub fn encode_into(pixels: &[f32], labels: &[usize], out: &mut Vec<f32>) {
        assert!(
            labels.len() <= MAX_EXACT && pixels.len() <= MAX_EXACT,
            "batch too large for exact f32 framing"
        );
        out.clear();
        out.reserve(3 + labels.len() + pixels.len());
        out.push(BATCH_MAGIC);
        out.push(labels.len() as f32);
        out.push(pixels.len() as f32);
        out.extend(labels.iter().map(|&l| l as f32));
        out.extend_from_slice(pixels);
    }

    /// Decodes a payload produced by [`BatchMsg::encode`], validating
    /// magic, shape, and label integrity. `expected_batch` is the label
    /// count the receiver was configured for.
    pub fn decode(
        payload: &[f32],
        expected_batch: usize,
    ) -> Result<(Vec<usize>, &[f32]), CodecError> {
        let mut labels = Vec::with_capacity(expected_batch);
        let pixels = Self::decode_into(payload, expected_batch, &mut labels)?;
        Ok((labels, pixels))
    }

    /// [`decode`](Self::decode) writing the labels into a caller-provided
    /// buffer (cleared first) — the zero-allocation receive path once
    /// `labels` has warmed up to the batch size.
    pub fn decode_into<'a>(
        payload: &'a [f32],
        expected_batch: usize,
        labels: &mut Vec<usize>,
    ) -> Result<&'a [f32], CodecError> {
        labels.clear();
        if payload.len() < 3 {
            return Err(CodecError::Truncated { got: payload.len() });
        }
        if payload[0].to_bits() != BATCH_MAGIC.to_bits() {
            return Err(CodecError::BadMagic {
                got_bits: payload[0].to_bits(),
            });
        }
        let n_labels = header_count(payload[1])?;
        let n_pixels = header_count(payload[2])?;
        if n_labels != expected_batch {
            return Err(CodecError::BatchMismatch {
                declared: n_labels,
                expected: expected_batch,
            });
        }
        let declared = 3 + n_labels + n_pixels;
        if payload.len() != declared {
            return Err(CodecError::LengthMismatch {
                declared,
                got: payload.len(),
            });
        }
        labels.reserve(n_labels);
        for (i, &l) in payload[3..3 + n_labels].iter().enumerate() {
            if !(l.is_finite() && l >= 0.0 && l.fract() == 0.0) {
                return Err(CodecError::BadLabel { index: i, value: l });
            }
            labels.push(l as usize);
        }
        Ok(&payload[3 + n_labels..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let pixels = vec![0.25f32, -1.5, 3.0, 0.0, 9.75, 2.5, -0.125, 7.0];
        let labels = vec![3usize, 9];
        let msg = BatchMsg::encode(&pixels, &labels);
        let (l2, p2) = BatchMsg::decode(&msg, 2).expect("roundtrip decodes");
        assert_eq!(l2, labels);
        assert_eq!(p2, &pixels[..]);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let msg = BatchMsg::encode(&[], &[]);
        let (l, p) = BatchMsg::decode(&msg, 0).expect("empty decodes");
        assert!(l.is_empty() && p.is_empty());
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let msg = BatchMsg::encode(&[1.0; 6], &[0, 1, 2]);
        // Chop mid-pixels: header now over-declares.
        let cut = &msg[..msg.len() - 4];
        assert_eq!(
            BatchMsg::decode(cut, 3),
            Err(CodecError::LengthMismatch {
                declared: 12,
                got: 8
            })
        );
        // Chop into the header itself.
        assert_eq!(
            BatchMsg::decode(&msg[..2], 3),
            Err(CodecError::Truncated { got: 2 })
        );
    }

    #[test]
    fn mistagged_payload_is_a_typed_error() {
        // A weight vector (arbitrary floats) mis-routed to a batch recv.
        let weights = vec![0.17f32, -0.3, 1.2, 0.9];
        let err = BatchMsg::decode(&weights, 2).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn corrupted_fields_are_typed_errors() {
        let mut msg = BatchMsg::encode(&[1.0; 4], &[1, 2]);
        msg[1] = f32::NAN; // label count corrupted
        assert!(matches!(
            BatchMsg::decode(&msg, 2),
            Err(CodecError::BadHeader { .. })
        ));

        let mut msg = BatchMsg::encode(&[1.0; 4], &[1, 2]);
        msg[3] = 2.5; // non-integral label
        assert_eq!(
            BatchMsg::decode(&msg, 2),
            Err(CodecError::BadLabel {
                index: 0,
                value: 2.5
            })
        );

        let msg = BatchMsg::encode(&[1.0; 4], &[1, 2]);
        assert_eq!(
            BatchMsg::decode(&msg, 4),
            Err(CodecError::BatchMismatch {
                declared: 2,
                expected: 4
            })
        );
    }

    /// SplitMix64 step: the flip positions of one property case.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Decodes `payload` as a `batch`-label message into a reused label
    /// buffer and checks what came back: an `Ok` must be consistent with
    /// the payload (labels read from their slots, pixels the rest);
    /// anything else must be a typed error. A panic fails the property.
    fn decode_is_ok_or_typed(payload: &[f32], batch: usize, labels: &mut Vec<usize>) -> bool {
        labels.push(usize::MAX); // stale contents must not leak through
        match BatchMsg::decode_into(payload, batch, labels) {
            Ok(pixels) => {
                assert_eq!(labels.len(), batch);
                assert_eq!(3 + labels.len() + pixels.len(), payload.len());
                for (i, &l) in labels.iter().enumerate() {
                    assert_eq!(l, payload[3 + i] as usize, "label {i}");
                }
                assert!(std::ptr::eq(pixels, &payload[3 + batch..]));
                true
            }
            Err(e) => {
                assert!(labels.is_empty() || matches!(e, CodecError::BadLabel { .. }));
                assert!(!e.to_string().is_empty());
                false
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn hostile_payloads_decode_to_a_batch_or_a_typed_error(
            batch in 0usize..6,
            per_sample in 0usize..5,
            flips in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let labels: Vec<usize> = (0..batch).map(|_| (next(&mut state) % 10) as usize).collect();
            let pixels: Vec<f32> = (0..batch * per_sample)
                .map(|_| (next(&mut state) % 1000) as f32 / 7.0 - 50.0)
                .collect();
            let msg = BatchMsg::encode(&pixels, &labels);
            let mut out = Vec::new();
            proptest::prop_assert!(decode_is_ok_or_typed(&msg, batch, &mut out));
            // Truncated at every length: never a batch.
            for len in 0..msg.len() {
                proptest::prop_assert!(!decode_is_ok_or_typed(&msg[..len], batch, &mut out));
            }
            // Extended by one to three floats: never a batch.
            for extra in 1..=3 {
                let mut long = msg.clone();
                long.extend(std::iter::repeat_n(BATCH_MAGIC, extra));
                proptest::prop_assert!(!decode_is_ok_or_typed(&long, batch, &mut out));
            }
            // Bit-flipped at random positions, headers included: a batch
            // consistent with the flipped bytes, or a typed error.
            let mut hostile = msg.clone();
            for _ in 0..flips {
                let bit = (next(&mut state) % (32 * hostile.len() as u64)) as usize;
                hostile[bit / 32] = f32::from_bits(hostile[bit / 32].to_bits() ^ (1 << (bit % 32)));
                decode_is_ok_or_typed(&hostile, batch, &mut out);
            }
            // And under every expected batch size the flipped bytes
            // might claim.
            for expect in 0..8 {
                decode_is_ok_or_typed(&hostile, expect, &mut out);
            }
        }
    }

    #[test]
    fn a_header_count_past_the_exact_range_is_a_typed_error() {
        // A flipped exponent bit turns 784.0 into ~1.4e22, which an
        // unchecked `as usize` saturates and `3 + labels + pixels` would
        // overflow.
        let mut msg = BatchMsg::encode(&[1.0; 4], &[1, 2]);
        msg[2] = f32::from_bits(msg[2].to_bits() ^ (1 << 29));
        assert!(matches!(
            BatchMsg::decode(&msg, 2),
            Err(CodecError::BadHeader { .. })
        ));
    }

    #[test]
    fn error_messages_name_the_failure() {
        let e = CodecError::LengthMismatch {
            declared: 12,
            got: 8,
        };
        assert!(e.to_string().contains("12"));
        let e = CodecError::BadMagic {
            got_bits: 0xDEAD_BEEF,
        };
        assert!(e.to_string().contains("deadbeef"));
    }
}
