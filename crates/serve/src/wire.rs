//! The AeroREM wire format: length-prefixed, CRC-protected frames over a
//! byte stream.
//!
//! Byte-level spec: `docs/WIRE_FORMAT.md` — every offset, constant, and
//! rejection rule in this module is normative there. The short version:
//! a 32-byte frame header (magic `ARWF`, version, kind, namespace id,
//! sequence number, payload length, payload CRC-32, header CRC-32)
//! followed by `payload_len` payload bytes. Payloads carry [`Message`]s,
//! which in turn carry the serving layer's [`Query`]/[`Response`] types
//! encoded with the same [`aerorem_numerics::codec`] primitives as the
//! snapshot format — floats travel as raw IEEE-754 bits, so a response
//! decoded from the wire is **bit-identical** to the in-process answer.
//!
//! Decoding is hostile-input safe by construction: every multi-byte field
//! is covered by a checksum or checked literally, declared lengths are
//! capped *before* any allocation is sized from them, and every reject
//! path is a typed [`WireError`] — never a panic (test-enforced over
//! single-byte flips, truncations, and oversized lengths in
//! `tests/wire.rs`).

use std::fmt;

use aerorem_numerics::codec::{crc32, ByteReader, ByteWriter, CodecError};
use aerorem_propagation::ap::MacAddress;
use aerorem_spatial::octree::BoxStats;
use aerorem_spatial::{Aabb, Vec3};

use crate::query::{Query, Response};

/// Frame magic: ASCII `ARWF` ("AeroRem Wire Format").
pub const WIRE_MAGIC: [u8; 4] = *b"ARWF";

/// Current (and only) wire format version. Readers reject any other.
pub const WIRE_VERSION: u16 = 1;

/// Frame header size in bytes; a frame is exactly this plus its payload.
pub const FRAME_HEADER_LEN: usize = 32;

/// Hard cap on a frame's declared payload length (1 GiB). A header
/// declaring more is rejected before any payload byte is read or any
/// allocation is sized, so hostile lengths cannot OOM a peer.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Cap on an error frame's detail string.
const MAX_ERROR_DETAIL: usize = 1 << 16;

/// Cap on a namespace name.
const MAX_NAME: usize = 255;

/// Initial capacity clamp when decoding counted sequences: allocation
/// grows with bytes actually read, never with a hostile declared count.
const PREALLOC_CLAMP: usize = 4096;

/// What a frame carries — byte 6 of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: a batch of queries against one namespace.
    Request = 1,
    /// Server → client: the answers to one request, in slot order.
    Response = 2,
    /// Server → client: the request it echoes (by `seq`) failed.
    Error = 3,
    /// Client → server: load (or hot-swap) a snapshot into a namespace.
    Load = 4,
    /// Server → client: the snapshot was installed.
    Loaded = 5,
    /// Client → server: enumerate namespaces.
    List = 6,
    /// Server → client: the namespace table.
    Listing = 7,
    /// Client → server: stop the daemon.
    Shutdown = 8,
    /// Server → client: shutdown acknowledged; the connection closes.
    Bye = 9,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Error,
            4 => FrameKind::Load,
            5 => FrameKind::Loaded,
            6 => FrameKind::List,
            7 => FrameKind::Listing,
            8 => FrameKind::Shutdown,
            9 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// Error frame codes — `code` field of [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame named a namespace id the daemon does not serve.
    UnknownNamespace = 1,
    /// The frame's payload failed to decode as its kind's message.
    BadPayload = 2,
    /// A `Load` carried bytes that are not a valid snapshot.
    SnapshotRejected = 3,
    /// A decoded snapshot failed [`crate::RemStore::build`] validation.
    StoreRejected = 4,
    /// The batch failed inside the engine (see [`crate::ServeError`]).
    BatchFailed = 5,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::UnknownNamespace,
            2 => ErrorCode::BadPayload,
            3 => ErrorCode::SnapshotRejected,
            4 => ErrorCode::StoreRejected,
            5 => ErrorCode::BatchFailed,
            _ => return None,
        })
    }
}

/// Every way a byte sequence can fail to be a frame or message. Decoding
/// never panics; hostile input lands in exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`WIRE_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The header declared a version this reader does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// The header CRC-32 does not match bytes 0–27 — some header field
    /// (kind, flags, namespace, seq, lengths, or the CRC itself) flipped.
    HeaderChecksum,
    /// The (checksum-valid) kind byte is not a known [`FrameKind`].
    BadKind {
        /// The byte found.
        found: u8,
    },
    /// The flags byte is not zero; v1 defines no flags.
    BadFlags {
        /// The byte found.
        found: u8,
    },
    /// The header declared a payload longer than [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        declared: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The payload CRC-32 does not match the payload bytes.
    PayloadChecksum,
    /// The input ended mid-frame or mid-field.
    Truncated(CodecError),
    /// Bytes remained after the structure the payload declared.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A query record's tag byte is not a known query kind.
    BadQueryTag {
        /// The byte found.
        found: u8,
    },
    /// A response record's tag byte is not a known response kind.
    BadResponseTag {
        /// The byte found.
        found: u8,
    },
    /// An option-presence byte was neither 0 nor 1.
    BadPresence {
        /// The byte found.
        found: u8,
    },
    /// A box-stats region decoded to a box with non-positive extent.
    BadBounds,
    /// A name field was not valid UTF-8 or exceeded its length cap.
    BadName,
    /// An error frame carried an unknown [`ErrorCode`].
    BadErrorCode {
        /// The code found.
        found: u16,
    },
    /// The payload's message does not match the frame's kind byte.
    KindMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02X?}, expected {WIRE_MAGIC:02X?}")
            }
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found}, this reader speaks {WIRE_VERSION}")
            }
            WireError::HeaderChecksum => write!(f, "frame header CRC-32 mismatch"),
            WireError::BadKind { found } => write!(f, "unknown frame kind byte {found:#04x}"),
            WireError::BadFlags { found } => {
                write!(f, "flags byte {found:#04x} is not zero; v1 defines no flags")
            }
            WireError::Oversized { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds the {max}-byte cap")
            }
            WireError::PayloadChecksum => write!(f, "frame payload CRC-32 mismatch"),
            WireError::Truncated(e) => write!(f, "truncated frame: {e}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} byte(s) after the end of the declared payload structure")
            }
            WireError::BadQueryTag { found } => write!(f, "unknown query tag {found:#04x}"),
            WireError::BadResponseTag { found } => {
                write!(f, "unknown response tag {found:#04x}")
            }
            WireError::BadPresence { found } => {
                write!(f, "presence byte {found:#04x} is neither 0 nor 1")
            }
            WireError::BadBounds => write!(f, "region bounds have non-positive extent"),
            WireError::BadName => write!(f, "name is not valid UTF-8 or exceeds the length cap"),
            WireError::BadErrorCode { found } => write!(f, "unknown error code {found}"),
            WireError::KindMismatch => {
                write!(f, "payload message does not match the frame kind byte")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Truncated(e)
    }
}

/// One frame: the header's routing fields plus the raw payload bytes.
///
/// [`Frame::encode`] and the decode functions are exact inverses; the
/// payload is opaque at this layer — [`Message`] gives it meaning.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload carries.
    pub kind: FrameKind,
    /// Namespace the frame addresses (requests/loads); writers set 0
    /// when the kind does not address one.
    pub namespace: u32,
    /// Correlation id: servers echo the request's `seq` in every reply.
    pub seq: u64,
    /// The message bytes (see [`Message`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encodes the frame: 32-byte header + payload.
    ///
    /// # Panics
    ///
    /// If `payload` exceeds [`MAX_PAYLOAD`] — writers construct payloads
    /// and must keep them under the protocol cap.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame to `out`, so several frames can go out
    /// in one write.
    ///
    /// # Panics
    ///
    /// As [`Frame::encode`].
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            self.payload.len() <= MAX_PAYLOAD as usize,
            "payload exceeds the protocol cap"
        );
        let mut w = ByteWriter::with_capacity(FRAME_HEADER_LEN);
        w.put_bytes(&WIRE_MAGIC);
        w.put_u16(WIRE_VERSION);
        w.put_u8(self.kind as u8);
        w.put_u8(0); // flags, reserved
        w.put_u32(self.namespace);
        w.put_u64(self.seq);
        w.put_u32(self.payload.len() as u32);
        w.put_u32(crc32(&self.payload));
        let header_crc = crc32(w.as_slice());
        w.put_u32(header_crc);
        out.extend_from_slice(w.as_slice());
        out.extend_from_slice(&self.payload);
    }

    /// Decodes one frame from the front of a stream buffer.
    ///
    /// Returns `Ok(None)` when `buf` holds a valid-so-far prefix that
    /// needs more bytes, and `Ok(Some((frame, consumed)))` when a full
    /// frame was decoded — the caller drains `consumed` bytes and may call
    /// again for pipelined frames.
    ///
    /// # Errors
    ///
    /// Any malformed header or payload is a [`WireError`]; the connection
    /// is then unsynchronized and should be closed. Header fields are
    /// validated as soon as the 32 header bytes are present, so an
    /// oversized declared length fails **before** waiting for (or
    /// allocating) payload bytes.
    pub fn decode_stream(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let header = Self::check_header(buf)?;
        let total = FRAME_HEADER_LEN + header.payload_len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[FRAME_HEADER_LEN..total]; // lint:allow(panic-reach) — the two guards above return Ok(None) unless buf.len() ≥ total ≥ FRAME_HEADER_LEN
        if crc32(payload) != header.payload_crc {
            return Err(WireError::PayloadChecksum);
        }
        Ok(Some((
            Frame {
                kind: header.kind,
                namespace: header.namespace,
                seq: header.seq,
                payload: payload.to_vec(),
            },
            total,
        )))
    }

    /// Decodes a buffer that must hold exactly one frame.
    ///
    /// # Errors
    ///
    /// Everything [`Frame::decode_stream`] rejects, plus
    /// [`WireError::Truncated`] for an incomplete frame and
    /// [`WireError::TrailingBytes`] for bytes after it.
    pub fn decode_exact(buf: &[u8]) -> Result<Frame, WireError> {
        match Self::decode_stream(buf)? {
            Some((frame, consumed)) if consumed == buf.len() => Ok(frame),
            Some((_, consumed)) => Err(WireError::TrailingBytes {
                extra: buf.len() - consumed,
            }),
            None => Err(WireError::Truncated(CodecError::UnexpectedEof {
                offset: 0,
                wanted: FRAME_HEADER_LEN,
                remaining: buf.len(),
            })),
        }
    }

    /// Validates the 32 header bytes at the front of `buf` (which must be
    /// at least [`FRAME_HEADER_LEN`] long) and extracts its fields.
    ///
    /// Order matters for typed rejection: magic and version are checked
    /// literally first (they identify the protocol), then the header CRC
    /// (so a flip in *any* other header byte is `HeaderChecksum`), and
    /// only then the semantic validity of checksum-correct fields.
    fn check_header(buf: &[u8]) -> Result<Header, WireError> {
        let magic: [u8; 4] = buf[0..4].try_into().expect("4-byte slice"); // lint:allow(panic-reach) — a 4-byte range into a [u8; 4] cannot fail; callers guarantee FRAME_HEADER_LEN bytes
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let declared_crc = u32::from_le_bytes([buf[28], buf[29], buf[30], buf[31]]);
        if crc32(&buf[..28]) != declared_crc {
            return Err(WireError::HeaderChecksum);
        }
        let kind = FrameKind::from_u8(buf[6]).ok_or(WireError::BadKind { found: buf[6] })?;
        if buf[7] != 0 {
            return Err(WireError::BadFlags { found: buf[7] });
        }
        let namespace = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let seq = u64::from_le_bytes([
            buf[12], buf[13], buf[14], buf[15], buf[16], buf[17], buf[18], buf[19],
        ]);
        let payload_len = u32::from_le_bytes([buf[20], buf[21], buf[22], buf[23]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                declared: payload_len as u64,
                max: MAX_PAYLOAD as u64,
            });
        }
        let payload_crc = u32::from_le_bytes([buf[24], buf[25], buf[26], buf[27]]);
        Ok(Header {
            kind,
            namespace,
            seq,
            payload_len,
            payload_crc,
        })
    }
}

/// A validated frame header's fields.
struct Header {
    kind: FrameKind,
    namespace: u32,
    seq: u64,
    payload_len: u32,
    payload_crc: u32,
}

/// One row of a [`Message::Listing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceInfo {
    /// Namespace id — the value request frames put in their header.
    pub id: u32,
    /// Snapshot generation currently served (bumps on every hot-swap).
    pub generation: u64,
    /// APs in the served snapshot.
    pub aps: u32,
    /// Voxel cells per AP grid.
    pub cells: u64,
    /// Human-chosen namespace name (≤ 255 bytes of UTF-8).
    pub name: String,
}

/// The meaning of a frame's payload, by [`FrameKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A batch of queries against the frame's namespace.
    Request {
        /// Queries, answered in order.
        queries: Vec<Query>,
    },
    /// The answers to one request.
    Response {
        /// Store generation that answered — lets clients observe
        /// hot-swaps.
        generation: u64,
        /// One response per query, in request order.
        responses: Vec<Response>,
    },
    /// The request this frame echoes (by seq) failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Install `snapshot` under `name`: a new namespace if the name is
    /// unknown, a hot-swap of the existing one otherwise.
    Load {
        /// Namespace name.
        name: String,
        /// A complete `docs/SNAPSHOT_FORMAT.md` image.
        snapshot: Vec<u8>,
    },
    /// A [`Message::Load`] succeeded.
    Loaded {
        /// Id assigned to (or already held by) the namespace.
        namespace: u32,
        /// Generation now being served.
        generation: u64,
        /// APs in the installed snapshot.
        aps: u32,
        /// Voxel cells per AP grid.
        cells: u64,
    },
    /// Enumerate namespaces.
    List,
    /// The namespace table.
    Listing {
        /// One row per namespace, ascending by id.
        namespaces: Vec<NamespaceInfo>,
    },
    /// Stop the daemon.
    Shutdown,
    /// Shutdown acknowledged.
    Bye,
}

impl Message {
    /// The frame kind this message travels under.
    pub fn kind(&self) -> FrameKind {
        match self {
            Message::Request { .. } => FrameKind::Request,
            Message::Response { .. } => FrameKind::Response,
            Message::Error { .. } => FrameKind::Error,
            Message::Load { .. } => FrameKind::Load,
            Message::Loaded { .. } => FrameKind::Loaded,
            Message::List => FrameKind::List,
            Message::Listing { .. } => FrameKind::Listing,
            Message::Shutdown => FrameKind::Shutdown,
            Message::Bye => FrameKind::Bye,
        }
    }

    /// Encodes the message into a frame addressed at `namespace` with
    /// correlation id `seq`.
    pub fn into_frame(self, namespace: u32, seq: u64) -> Frame {
        let mut w = ByteWriter::new();
        let kind = self.kind();
        match self {
            Message::Request { queries } => {
                w.put_u32(queries.len() as u32);
                for q in &queries {
                    encode_query(&mut w, q);
                }
            }
            Message::Response {
                generation,
                responses,
            } => {
                w.put_u64(generation);
                w.put_u32(responses.len() as u32);
                for r in &responses {
                    encode_response(&mut w, r);
                }
            }
            Message::Error { code, detail } => {
                w.put_u16(code as u16);
                let mut detail = detail.into_bytes();
                detail.truncate(MAX_ERROR_DETAIL);
                w.put_len_bytes(&detail);
            }
            Message::Load { name, snapshot } => {
                w.put_len_bytes(name.as_bytes());
                w.put_len_bytes(&snapshot);
            }
            Message::Loaded {
                namespace,
                generation,
                aps,
                cells,
            } => {
                w.put_u32(namespace);
                w.put_u64(generation);
                w.put_u32(aps);
                w.put_u64(cells);
            }
            Message::List | Message::Shutdown | Message::Bye => {}
            Message::Listing { namespaces } => {
                w.put_u32(namespaces.len() as u32);
                for ns in &namespaces {
                    w.put_u32(ns.id);
                    w.put_u64(ns.generation);
                    w.put_u32(ns.aps);
                    w.put_u64(ns.cells);
                    w.put_len_bytes(ns.name.as_bytes());
                }
            }
        }
        Frame {
            kind,
            namespace,
            seq,
            payload: w.into_bytes(),
        }
    }

    /// Decodes a frame's payload according to its kind byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the payload ends mid-field,
    /// [`WireError::TrailingBytes`] when bytes remain after the declared
    /// structure, and the payload-specific variants (bad tags, presence
    /// bytes, bounds, names, error codes) for semantic rejects.
    pub fn from_frame(frame: &Frame) -> Result<Message, WireError> {
        let mut r = ByteReader::new(&frame.payload);
        let msg = match frame.kind {
            FrameKind::Request => {
                let count = r.take_u32()? as usize;
                let mut queries = Vec::with_capacity(count.min(PREALLOC_CLAMP));
                for _ in 0..count {
                    queries.push(decode_query(&mut r)?);
                }
                Message::Request { queries }
            }
            FrameKind::Response => {
                let generation = r.take_u64()?;
                let count = r.take_u32()? as usize;
                let mut responses = Vec::with_capacity(count.min(PREALLOC_CLAMP));
                for _ in 0..count {
                    responses.push(decode_response(&mut r)?);
                }
                Message::Response {
                    generation,
                    responses,
                }
            }
            FrameKind::Error => {
                let raw = r.take_u16()?;
                let code =
                    ErrorCode::from_u16(raw).ok_or(WireError::BadErrorCode { found: raw })?;
                let detail = r.take_len_bytes(MAX_ERROR_DETAIL)?;
                let detail =
                    String::from_utf8(detail.to_vec()).map_err(|_| WireError::BadName)?;
                Message::Error { code, detail }
            }
            FrameKind::Load => {
                let name = take_name(&mut r)?;
                let snapshot = r.take_len_bytes(MAX_PAYLOAD as usize)?.to_vec();
                Message::Load { name, snapshot }
            }
            FrameKind::Loaded => Message::Loaded {
                namespace: r.take_u32()?,
                generation: r.take_u64()?,
                aps: r.take_u32()?,
                cells: r.take_u64()?,
            },
            FrameKind::List => Message::List,
            FrameKind::Listing => {
                let count = r.take_u32()? as usize;
                let mut namespaces = Vec::with_capacity(count.min(PREALLOC_CLAMP));
                for _ in 0..count {
                    let id = r.take_u32()?;
                    let generation = r.take_u64()?;
                    let aps = r.take_u32()?;
                    let cells = r.take_u64()?;
                    let name = take_name(&mut r)?;
                    namespaces.push(NamespaceInfo {
                        id,
                        generation,
                        aps,
                        cells,
                        name,
                    });
                }
                Message::Listing { namespaces }
            }
            FrameKind::Shutdown => Message::Shutdown,
            FrameKind::Bye => Message::Bye,
        };
        if !r.is_empty() {
            return Err(WireError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(msg)
    }
}

/// Reads a length-prefixed, cap-checked, UTF-8 name.
fn take_name(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    let bytes = match r.take_len_bytes(MAX_NAME) {
        Ok(b) => b,
        Err(CodecError::OverlongField { .. }) => return Err(WireError::BadName),
        Err(e) => return Err(WireError::Truncated(e)),
    };
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadName)
}

fn put_vec3(w: &mut ByteWriter, v: Vec3) {
    w.put_f64(v.x);
    w.put_f64(v.y);
    w.put_f64(v.z);
}

fn take_vec3(r: &mut ByteReader<'_>) -> Result<Vec3, CodecError> {
    Ok(Vec3::new(r.take_f64()?, r.take_f64()?, r.take_f64()?))
}

fn put_mac(w: &mut ByteWriter, mac: MacAddress) {
    w.put_bytes(&mac.octets());
}

fn take_mac(r: &mut ByteReader<'_>) -> Result<MacAddress, CodecError> {
    let b = r.take_bytes(6)?;
    Ok(MacAddress([b[0], b[1], b[2], b[3], b[4], b[5]]))
}

/// Query record tags (first byte of each query record).
const QUERY_POINT: u8 = 1;
const QUERY_BEST_AP: u8 = 2;
const QUERY_BOX_STATS: u8 = 3;
const QUERY_COVERAGE: u8 = 4;

/// Encodes one query record (tag byte + fields).
pub(crate) fn encode_query(w: &mut ByteWriter, q: &Query) {
    match *q {
        Query::Point { pos, ap } => {
            w.put_u8(QUERY_POINT);
            put_vec3(w, pos);
            put_mac(w, ap);
        }
        Query::BestAp { pos } => {
            w.put_u8(QUERY_BEST_AP);
            put_vec3(w, pos);
        }
        Query::BoxStats { region, ap } => {
            w.put_u8(QUERY_BOX_STATS);
            put_vec3(w, region.min());
            put_vec3(w, region.max());
            put_mac(w, ap);
        }
        Query::Coverage { threshold_dbm, ap } => {
            w.put_u8(QUERY_COVERAGE);
            w.put_f64(threshold_dbm);
            put_mac(w, ap);
        }
    }
}

/// Decodes one query record.
pub(crate) fn decode_query(r: &mut ByteReader<'_>) -> Result<Query, WireError> {
    let tag = r.take_u8()?;
    Ok(match tag {
        QUERY_POINT => Query::Point {
            pos: take_vec3(r)?,
            ap: take_mac(r)?,
        },
        QUERY_BEST_AP => Query::BestAp { pos: take_vec3(r)? },
        QUERY_BOX_STATS => {
            let min = take_vec3(r)?;
            let max = take_vec3(r)?;
            let ap = take_mac(r)?;
            let region = Aabb::new(min, max).ok_or(WireError::BadBounds)?;
            Query::BoxStats { region, ap }
        }
        QUERY_COVERAGE => Query::Coverage {
            threshold_dbm: r.take_f64()?,
            ap: take_mac(r)?,
        },
        _ => return Err(WireError::BadQueryTag { found: tag }),
    })
}

/// Response record tags.
const RESPONSE_VALUE: u8 = 1;
const RESPONSE_BEST: u8 = 2;
const RESPONSE_STATS: u8 = 3;
const RESPONSE_COVERED: u8 = 4;

/// Encodes one response record (tag byte + fields; floats as raw bits).
pub(crate) fn encode_response(w: &mut ByteWriter, resp: &Response) {
    match *resp {
        Response::Value(v) => {
            w.put_u8(RESPONSE_VALUE);
            match v {
                Some(x) => {
                    w.put_u8(1);
                    w.put_f64(x);
                }
                None => w.put_u8(0),
            }
        }
        Response::Best(best) => {
            w.put_u8(RESPONSE_BEST);
            match best {
                Some((mac, v)) => {
                    w.put_u8(1);
                    put_mac(w, mac);
                    w.put_f64(v);
                }
                None => w.put_u8(0),
            }
        }
        Response::Stats(s) => {
            w.put_u8(RESPONSE_STATS);
            w.put_f64(s.min);
            w.put_f64(s.max);
            w.put_f64(s.sum);
            w.put_u64(s.count as u64);
        }
        Response::Covered { cells, fraction } => {
            w.put_u8(RESPONSE_COVERED);
            w.put_u64(cells as u64);
            w.put_f64(fraction);
        }
    }
}

/// Decodes one response record.
pub(crate) fn decode_response(r: &mut ByteReader<'_>) -> Result<Response, WireError> {
    let tag = r.take_u8()?;
    Ok(match tag {
        RESPONSE_VALUE => Response::Value(match r.take_u8()? {
            0 => None,
            1 => Some(r.take_f64()?),
            found => return Err(WireError::BadPresence { found }),
        }),
        RESPONSE_BEST => Response::Best(match r.take_u8()? {
            0 => None,
            1 => Some((take_mac(r)?, r.take_f64()?)),
            found => return Err(WireError::BadPresence { found }),
        }),
        RESPONSE_STATS => Response::Stats(BoxStats {
            min: r.take_f64()?,
            max: r.take_f64()?,
            sum: r.take_f64()?,
            count: r.take_u64()? as usize,
        }),
        RESPONSE_COVERED => Response::Covered {
            cells: r.take_u64()? as usize,
            fraction: r.take_f64()?,
        },
        _ => return Err(WireError::BadResponseTag { found: tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_queries() -> Vec<Query> {
        vec![
            Query::Point {
                pos: Vec3::new(1.25, -2.5, 0.75),
                ap: MacAddress::from_index(3),
            },
            Query::BestAp {
                pos: Vec3::new(0.0, 0.0, 0.0),
            },
            Query::BoxStats {
                region: Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 3.0, 1.0)).unwrap(),
                ap: MacAddress::from_index(1),
            },
            Query::Coverage {
                threshold_dbm: -62.5,
                ap: MacAddress::from_index(2),
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Value(Some(f64::from_bits(0x7FF8_DEAD_BEEF_0001))), // NaN payload
            Response::Value(None),
            Response::Best(Some((MacAddress::from_index(9), -41.5))),
            Response::Best(None),
            Response::Stats(BoxStats {
                min: -88.0,
                max: -30.25,
                sum: -512.75,
                count: 12,
            }),
            Response::Covered {
                cells: 4096,
                fraction: 0.34375,
            },
        ]
    }

    /// Bit-level response equality (PartialEq treats NaN != NaN).
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

    #[test]
    fn frames_round_trip_through_encode_and_both_decoders() {
        let frame = Message::Request {
            queries: sample_queries(),
        }
        .into_frame(7, 42);
        let bytes = frame.encode();
        assert_eq!(Frame::decode_exact(&bytes).unwrap(), frame);
        let (streamed, consumed) = Frame::decode_stream(&bytes).unwrap().unwrap();
        assert_eq!(streamed, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn every_message_round_trips() {
        let messages = vec![
            Message::Request {
                queries: sample_queries(),
            },
            Message::Request { queries: vec![] },
            Message::Response {
                generation: 3,
                responses: sample_responses(),
            },
            Message::Error {
                code: ErrorCode::UnknownNamespace,
                detail: "namespace 9 is not served".into(),
            },
            Message::Load {
                name: "tower-b".into(),
                snapshot: vec![1, 2, 3, 4, 5],
            },
            Message::Loaded {
                namespace: 2,
                generation: 5,
                aps: 3,
                cells: 16384,
            },
            Message::List,
            Message::Listing {
                namespaces: vec![NamespaceInfo {
                    id: 0,
                    generation: 1,
                    aps: 3,
                    cells: 16384,
                    name: "lab".into(),
                }],
            },
            Message::Shutdown,
            Message::Bye,
        ];
        for msg in messages {
            let frame = msg.clone().into_frame(1, 99);
            let bytes = frame.encode();
            let decoded = Frame::decode_exact(&bytes).unwrap();
            let got = Message::from_frame(&decoded).unwrap();
            match (&msg, &got) {
                // Response floats may be NaN; compare at the bit level.
                (
                    Message::Response { responses: a, generation: ga },
                    Message::Response { responses: b, generation: gb },
                ) => {
                    assert_eq!(ga, gb);
                    assert!(responses_bit_identical(a, b));
                }
                _ => assert_eq!(msg, got),
            }
        }
    }

    #[test]
    fn stream_decoder_waits_for_more_bytes_then_yields_pipelined_frames() {
        let f1 = Message::List.into_frame(0, 1).encode();
        let f2 = Message::Shutdown.into_frame(0, 2).encode();
        let mut buf = Vec::new();
        buf.extend_from_slice(&f1);
        buf.extend_from_slice(&f2);
        // Every proper prefix of the first frame is "need more bytes".
        for cut in 0..f1.len() {
            assert_eq!(Frame::decode_stream(&buf[..cut]).unwrap(), None);
        }
        let (first, consumed) = Frame::decode_stream(&buf).unwrap().unwrap();
        assert_eq!(first.kind, FrameKind::List);
        assert_eq!(consumed, f1.len());
        let (second, consumed2) = Frame::decode_stream(&buf[consumed..]).unwrap().unwrap();
        assert_eq!(second.kind, FrameKind::Shutdown);
        assert_eq!(consumed + consumed2, buf.len());
    }

    #[test]
    fn oversized_declared_payload_fails_before_payload_bytes_arrive() {
        let mut bytes = Message::List.into_frame(0, 1).encode();
        // Rewrite payload_len (offset 20) to MAX_PAYLOAD + 1 and re-seal
        // the header CRC so only the length is wrong.
        bytes[20..24].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let crc = crc32(&bytes[..28]);
        bytes[28..32].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Frame::decode_stream(&bytes[..FRAME_HEADER_LEN]).unwrap_err(),
            WireError::Oversized {
                declared: (MAX_PAYLOAD + 1) as u64,
                max: MAX_PAYLOAD as u64,
            }
        );
    }

    #[test]
    fn hostile_request_counts_cannot_oversize_allocations() {
        // A request declaring u32::MAX queries with no bodies must fail
        // with a truncation error, not attempt a u32::MAX allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let frame = Frame {
            kind: FrameKind::Request,
            namespace: 0,
            seq: 0,
            payload: w.into_bytes(),
        };
        let err = Message::from_frame(&frame).unwrap_err();
        assert!(matches!(err, WireError::Truncated(_)));
    }

    #[test]
    fn kind_specific_payload_rejects_are_typed() {
        // Bad query tag.
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u8(0xEE);
        let frame = Frame {
            kind: FrameKind::Request,
            namespace: 0,
            seq: 0,
            payload: w.into_bytes(),
        };
        assert_eq!(
            Message::from_frame(&frame).unwrap_err(),
            WireError::BadQueryTag { found: 0xEE }
        );

        // Inverted box bounds.
        let inverted = {
            let mut w = ByteWriter::new();
            w.put_u32(1);
            w.put_u8(QUERY_BOX_STATS);
            put_vec3(&mut w, Vec3::new(1.0, 1.0, 1.0));
            put_vec3(&mut w, Vec3::new(0.0, 0.0, 0.0));
            put_mac(&mut w, MacAddress::from_index(1));
            w.into_bytes()
        };
        let frame = Frame {
            kind: FrameKind::Request,
            namespace: 0,
            seq: 0,
            payload: inverted,
        };
        assert_eq!(Message::from_frame(&frame).unwrap_err(), WireError::BadBounds);

        // Bad presence byte in a response.
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u32(1);
        w.put_u8(RESPONSE_VALUE);
        w.put_u8(7);
        let frame = Frame {
            kind: FrameKind::Response,
            namespace: 0,
            seq: 0,
            payload: w.into_bytes(),
        };
        assert_eq!(
            Message::from_frame(&frame).unwrap_err(),
            WireError::BadPresence { found: 7 }
        );

        // Trailing bytes after the declared structure.
        let mut frame = Message::List.into_frame(0, 0);
        frame.payload.push(0xAB);
        assert_eq!(
            Message::from_frame(&frame).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
    }
}
