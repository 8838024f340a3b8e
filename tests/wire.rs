//! Property-based tests for the wire frame codec
//! (`docs/WIRE_FORMAT.md`), mirroring `tests/snapshot.rs`: round-trip
//! bit-identity over arbitrary payload bit patterns, and typed rejection
//! of every single-byte flip, every truncation offset, and hostile
//! declared lengths — never a panic, never an attacker-sized allocation.

use aerorem::numerics::codec::crc32;
use aerorem::propagation::ap::MacAddress;
use aerorem::serve::wire::{
    ErrorCode, Frame, FrameKind, Message, NamespaceInfo, WireError, FRAME_HEADER_LEN, MAX_PAYLOAD,
};
use aerorem::serve::{Query, Response};
use aerorem::spatial::octree::BoxStats;
use aerorem::spatial::{Aabb, Vec3};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Seeded queries with arbitrary f64 bit patterns wherever the wire
/// carries raw bits (positions, thresholds); box regions stay finite and
/// ordered because `Aabb` enforces positive extent.
fn random_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mac = MacAddress::from_index(rng.gen_range(1..200));
            let raw_vec = |rng: &mut rand::rngs::StdRng| {
                Vec3::new(
                    f64::from_bits(rng.gen()),
                    f64::from_bits(rng.gen()),
                    f64::from_bits(rng.gen()),
                )
            };
            match rng.gen_range(0..4) {
                0 => Query::Point {
                    pos: raw_vec(&mut rng),
                    ap: mac,
                },
                1 => Query::BestAp {
                    pos: raw_vec(&mut rng),
                },
                2 => {
                    let min = Vec3::new(
                        rng.gen_range(-50.0..50.0),
                        rng.gen_range(-50.0..50.0),
                        rng.gen_range(-50.0..50.0),
                    );
                    let max = Vec3::new(
                        min.x + rng.gen_range(0.1..9.0),
                        min.y + rng.gen_range(0.1..9.0),
                        min.z + rng.gen_range(0.1..9.0),
                    );
                    Query::BoxStats {
                        region: Aabb::new(min, max).expect("positive extent"),
                        ap: mac,
                    }
                }
                _ => Query::Coverage {
                    threshold_dbm: f64::from_bits(rng.gen()),
                    ap: mac,
                },
            }
        })
        .collect()
}

/// Seeded responses with arbitrary f64 bit patterns everywhere.
fn random_responses(seed: u64, count: usize) -> Vec<Response> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| match rng.gen_range(0..4) {
            0 => Response::Value(if rng.gen() {
                Some(f64::from_bits(rng.gen()))
            } else {
                None
            }),
            1 => Response::Best(if rng.gen() {
                Some((
                    MacAddress::from_index(rng.gen_range(1..200)),
                    f64::from_bits(rng.gen()),
                ))
            } else {
                None
            }),
            2 => Response::Stats(BoxStats {
                min: f64::from_bits(rng.gen()),
                max: f64::from_bits(rng.gen()),
                sum: f64::from_bits(rng.gen()),
                count: rng.gen_range(0..1 << 32),
            }),
            _ => Response::Covered {
                cells: rng.gen_range(0..1 << 32),
                fraction: f64::from_bits(rng.gen()),
            },
        })
        .collect()
}

fn queries_bit_identical(a: &[Query], b: &[Query]) -> bool {
    let v3 = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Query::Point { pos: p, ap: m }, Query::Point { pos: q, ap: n }) => {
                v3(*p) == v3(*q) && m == n
            }
            (Query::BestAp { pos: p }, Query::BestAp { pos: q }) => v3(*p) == v3(*q),
            (Query::BoxStats { region: r, ap: m }, Query::BoxStats { region: s, ap: n }) => {
                v3(r.min()) == v3(s.min()) && v3(r.max()) == v3(s.max()) && m == n
            }
            (
                Query::Coverage { threshold_dbm: t, ap: m },
                Query::Coverage { threshold_dbm: u, ap: n },
            ) => t.to_bits() == u.to_bits() && m == n,
            _ => false,
        })
}

fn responses_bit_identical(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Response::Value(u), Response::Value(v)) => {
                u.map(f64::to_bits) == v.map(f64::to_bits)
            }
            (Response::Best(u), Response::Best(v)) => {
                u.map(|(m, x)| (m, x.to_bits())) == v.map(|(m, x)| (m, x.to_bits()))
            }
            (Response::Stats(u), Response::Stats(v)) => {
                u.min.to_bits() == v.min.to_bits()
                    && u.max.to_bits() == v.max.to_bits()
                    && u.sum.to_bits() == v.sum.to_bits()
                    && u.count == v.count
            }
            (
                Response::Covered { cells: uc, fraction: uf },
                Response::Covered { cells: vc, fraction: vf },
            ) => uc == vc && uf.to_bits() == vf.to_bits(),
            _ => false,
        })
}

proptest! {
    // --- round trip: frames and messages survive the wire bit-exactly ---

    #[test]
    fn request_frames_round_trip_bit_identically(
        seed in 0u64..300,
        count in 0usize..=256,
        namespace in 0u32..16,
        seq in any::<u64>(),
    ) {
        let queries = random_queries(seed, count);
        let frame = Message::Request { queries: queries.clone() }.into_frame(namespace, seq);
        let bytes = frame.encode();
        let decoded = Frame::decode_exact(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded.kind, FrameKind::Request);
        prop_assert_eq!(decoded.namespace, namespace);
        prop_assert_eq!(decoded.seq, seq);
        match Message::from_frame(&decoded).expect("own payload must decode") {
            Message::Request { queries: got } => prop_assert!(queries_bit_identical(&queries, &got)),
            other => prop_assert!(false, "wrong message decoded: {other:?}"),
        }
    }

    #[test]
    fn response_frames_round_trip_bit_identically(
        seed in 0u64..300,
        count in 0usize..=256,
        generation in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let responses = random_responses(seed, count);
        let frame = Message::Response { generation, responses: responses.clone() }
            .into_frame(0, seq);
        let decoded = Frame::decode_exact(&frame.encode()).expect("own encoding must decode");
        match Message::from_frame(&decoded).expect("own payload must decode") {
            Message::Response { generation: g, responses: got } => {
                prop_assert_eq!(g, generation);
                prop_assert!(responses_bit_identical(&responses, &got));
            }
            other => prop_assert!(false, "wrong message decoded: {other:?}"),
        }
    }

    // --- corruption: every single-byte flip anywhere is a typed error ---
    //
    // The frame leaves no unprotected bytes: magic and version are
    // checked literally, the remaining 22 header bytes (and the header
    // CRC itself) are covered by the header CRC-32, and the payload by
    // the payload CRC-32. So ANY one-byte change is rejected, and the
    // error class is determined by the region that changed.

    #[test]
    fn any_single_byte_flip_is_rejected(
        seed in 0u64..150,
        count in 1usize..=256,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let frame = Message::Request { queries: random_queries(seed, count) }.into_frame(3, 77);
        let mut bytes = frame.encode();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= mask;
        let err = Frame::decode_exact(&bytes).expect_err("corrupted frame must not decode");
        match pos {
            0..=3 => prop_assert!(matches!(err, WireError::BadMagic { .. })),
            4..=5 => prop_assert!(matches!(err, WireError::UnsupportedVersion { .. })),
            6..=31 => prop_assert!(matches!(err, WireError::HeaderChecksum)),
            _ => prop_assert!(matches!(err, WireError::PayloadChecksum)),
        }
    }

    // --- truncation at any offset is "incomplete", never a panic ---

    #[test]
    fn any_truncation_is_rejected(
        seed in 0u64..150,
        count in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = Message::Request { queries: random_queries(seed, count) }.into_frame(0, 1);
        let bytes = frame.encode();
        let cut = ((cut_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        // Exact decode: a typed truncation error.
        let err = Frame::decode_exact(&bytes[..cut]).expect_err("truncated frame must not decode");
        prop_assert!(matches!(err, WireError::Truncated(_)));
        // Stream decode: the same prefix just means "need more bytes".
        prop_assert_eq!(Frame::decode_stream(&bytes[..cut]).expect("prefix is valid"), None);
    }

    // --- hostile declared lengths fail before any allocation ---

    #[test]
    fn oversized_declared_payload_lengths_are_rejected(
        declared in (MAX_PAYLOAD as u64 + 1..=u32::MAX as u64),
    ) {
        let mut bytes = Message::List.into_frame(0, 9).encode();
        bytes[20..24].copy_from_slice(&(declared as u32).to_le_bytes());
        // Re-seal the header CRC so ONLY the length field is hostile.
        let crc = crc32(&bytes[..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        let err = Frame::decode_exact(&bytes[..FRAME_HEADER_LEN])
            .expect_err("oversized declared payload must not decode");
        prop_assert_eq!(err, WireError::Oversized {
            declared,
            max: MAX_PAYLOAD as u64,
        });
    }

    #[test]
    fn hostile_declared_counts_never_oversize_allocations(
        count in (1u64 << 20..=u32::MAX as u64),
        as_response in any::<bool>(),
    ) {
        // A tiny payload declaring up to 4 billion records must fail on
        // truncation (allocation grows with bytes read, not the count).
        let kind = if as_response { FrameKind::Response } else { FrameKind::Request };
        let mut payload = Vec::new();
        if kind == FrameKind::Response {
            payload.extend_from_slice(&7u64.to_le_bytes()); // generation
        }
        payload.extend_from_slice(&(count as u32).to_le_bytes());
        let frame = Frame { kind, namespace: 0, seq: 0, payload };
        let err = Message::from_frame(&frame).expect_err("bodyless count must not decode");
        prop_assert!(matches!(err, WireError::Truncated(_)));
    }
}

// --- deterministic spot checks ---

/// The worked example from `docs/WIRE_FORMAT.md` §8, byte for byte. If
/// this test fails, either the codec or the spec is wrong — fix the
/// document together with the code.
#[test]
fn the_specs_worked_example_is_byte_exact() {
    let expected: Vec<u8> = [
        0x41, 0x52, 0x57, 0x46, 0x01, 0x00, 0x01, 0x00, // magic, version, kind, flags
        0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // namespace 2, seq 1...
        0x00, 0x00, 0x00, 0x00, 0x23, 0x00, 0x00, 0x00, // ...seq, payload_len 35
        0xD0, 0x6D, 0x01, 0x7A, 0x92, 0x80, 0x0A, 0xE1, // payload CRC, header CRC
        0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // count 1, tag Point, x...
        0x00, 0x00, 0x00, 0xF0, 0x3F, 0x00, 0x00, 0x00, // ...x = 1.0, y...
        0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, // ...y = 2.0, z...
        0x00, 0x00, 0x00, 0xE0, 0x3F, 0x02, 0x00, 0x00, // ...z = 0.5, mac...
        0x00, 0x00, 0x01, // ...mac 02:00:00:00:00:01
    ]
    .to_vec();

    let frame = Message::Request {
        queries: vec![Query::Point {
            pos: Vec3::new(1.0, 2.0, 0.5),
            ap: MacAddress([2, 0, 0, 0, 0, 1]),
        }],
    }
    .into_frame(2, 1);
    assert_eq!(frame.encode(), expected, "encoder must match the spec");

    let decoded = Frame::decode_exact(&expected).expect("spec bytes decode");
    assert_eq!(decoded.namespace, 2);
    assert_eq!(decoded.seq, 1);
    assert_eq!(Message::from_frame(&decoded).unwrap(), Message::Request {
        queries: vec![Query::Point {
            pos: Vec3::new(1.0, 2.0, 0.5),
            ap: MacAddress([2, 0, 0, 0, 0, 1]),
        }],
    });
}

#[test]
fn error_frames_round_trip_and_unknown_codes_are_rejected() {
    let frame = Message::Error {
        code: ErrorCode::UnknownNamespace,
        detail: "namespace 9 is not served".into(),
    }
    .into_frame(9, 4);
    let decoded = Frame::decode_exact(&frame.encode()).unwrap();
    assert_eq!(
        Message::from_frame(&decoded).unwrap(),
        Message::Error {
            code: ErrorCode::UnknownNamespace,
            detail: "namespace 9 is not served".into(),
        }
    );

    // An error payload with an unregistered code byte is typed, not trusted.
    let mut payload = vec![0xEE, 0x00]; // code 0x00EE
    payload.extend_from_slice(&0u32.to_le_bytes()); // empty detail
    let hostile = Frame {
        kind: FrameKind::Error,
        namespace: 0,
        seq: 0,
        payload,
    };
    assert_eq!(
        Message::from_frame(&hostile).unwrap_err(),
        WireError::BadErrorCode { found: 0xEE }
    );
}

#[test]
fn listing_frames_round_trip() {
    let namespaces = vec![
        NamespaceInfo {
            id: 0,
            generation: 3,
            aps: 4,
            cells: 65536,
            name: "building-a".into(),
        },
        NamespaceInfo {
            id: 1,
            generation: 1,
            aps: 2,
            cells: 4096,
            name: "лаборатория".into(), // non-ASCII UTF-8 survives
        },
    ];
    let frame = Message::Listing {
        namespaces: namespaces.clone(),
    }
    .into_frame(0, 11);
    let decoded = Frame::decode_exact(&frame.encode()).unwrap();
    assert_eq!(
        Message::from_frame(&decoded).unwrap(),
        Message::Listing { namespaces }
    );
}

#[test]
fn non_utf8_names_are_rejected() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_le_bytes()); // name length
    payload.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
    payload.extend_from_slice(&0u32.to_le_bytes()); // empty snapshot body
    let frame = Frame {
        kind: FrameKind::Load,
        namespace: 0,
        seq: 0,
        payload,
    };
    assert_eq!(Message::from_frame(&frame).unwrap_err(), WireError::BadName);
}
