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
//!
//! The daemon and the client copy each frame once. Received frames are
//! decoded in place from the connection's read buffer, into which the
//! socket reads directly; outgoing frames are encoded straight into the
//! connection's write buffer by one header writer around the same payload
//! writers [`Message::into_frame`] uses. The owned [`Frame`]/[`Message`]
//! API wraps that code for callers outside the crate; its only extra copy
//! is the owned value it returns.

use std::fmt;
use std::io::{self, Read};

use aerorem_numerics::codec::{crc32, ByteReader, CodecError};
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
/// payload is opaque at this layer — [`Message`] gives it meaning. The
/// daemon and [`crate::WireClient`] never build one: they decode frames in
/// place from their read buffers and encode straight into their write
/// buffers, through the same header and payload code these methods wrap.
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
        let written = write_frame(&mut out, self.kind, self.namespace, self.seq, |out| {
            out.extend_from_slice(&self.payload)
        });
        assert!(written.is_ok(), "payload exceeds the protocol cap");
        out
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
        Ok(next_frame(buf)?.map(|(header, payload)| {
            (
                Frame {
                    kind: header.kind,
                    namespace: header.namespace,
                    seq: header.seq,
                    payload: payload.to_vec(),
                },
                header.frame_len(),
            )
        }))
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
}

/// A validated frame header's fields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) kind: FrameKind,
    pub(crate) namespace: u32,
    pub(crate) seq: u64,
    payload_len: u32,
    payload_crc: u32,
}

impl Header {
    /// Validates the 32 header bytes at the front of `buf` and extracts
    /// its fields; `Ok(None)` while fewer than [`FRAME_HEADER_LEN`] bytes
    /// are buffered. The only header parser.
    ///
    /// Order matters for typed rejection: magic and version are checked
    /// literally first (they identify the protocol), then the header CRC
    /// (so a flip in *any* other header byte is `HeaderChecksum`), and
    /// only then the semantic validity of checksum-correct fields.
    fn parse(buf: &[u8]) -> Result<Option<Header>, WireError> {
        let Some(h) = buf.first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        let magic = [h[0], h[1], h[2], h[3]];
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        let declared_crc = u32::from_le_bytes([h[28], h[29], h[30], h[31]]);
        if crc32(&h[..28]) != declared_crc {
            return Err(WireError::HeaderChecksum);
        }
        let kind = FrameKind::from_u8(h[6]).ok_or(WireError::BadKind { found: h[6] })?;
        if h[7] != 0 {
            return Err(WireError::BadFlags { found: h[7] });
        }
        let namespace = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        let seq = u64::from_le_bytes([h[12], h[13], h[14], h[15], h[16], h[17], h[18], h[19]]);
        let payload_len = u32::from_le_bytes([h[20], h[21], h[22], h[23]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                declared: payload_len as u64,
                max: MAX_PAYLOAD as u64,
            });
        }
        let payload_crc = u32::from_le_bytes([h[24], h[25], h[26], h[27]]);
        Ok(Some(Header {
            kind,
            namespace,
            seq,
            payload_len,
            payload_crc,
        }))
    }

    /// Header plus payload bytes.
    fn frame_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload_len as usize
    }
}

/// Decodes the frame at the front of `buf` in place: its header and its
/// CRC-checked payload, borrowed from `buf`. `Ok(None)` while the frame is
/// incomplete; a malformed header fails as soon as its 32 bytes are there.
fn next_frame(buf: &[u8]) -> Result<Option<(Header, &[u8])>, WireError> {
    let Some(header) = Header::parse(buf)? else {
        return Ok(None);
    };
    let Some(payload) = buf.get(FRAME_HEADER_LEN..header.frame_len()) else {
        return Ok(None);
    };
    if crc32(payload) != header.payload_crc {
        return Err(WireError::PayloadChecksum);
    }
    Ok(Some((header, payload)))
}

/// Appends one frame to `out`: `put_payload` appends the payload straight
/// after a reserved header, which is then filled in. The only header
/// writer.
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload exceeds [`MAX_PAYLOAD`];
/// `out` is then left as it was.
pub(crate) fn write_frame(
    out: &mut Vec<u8>,
    kind: FrameKind,
    namespace: u32,
    seq: u64,
    put_payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    put_payload(out);
    let payload = out.get(start + FRAME_HEADER_LEN..).unwrap_or_default();
    let Some(payload_len) = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD)
    else {
        let declared = payload.len() as u64;
        out.truncate(start);
        return Err(WireError::Oversized {
            declared,
            max: MAX_PAYLOAD as u64,
        });
    };
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0..4].copy_from_slice(&WIRE_MAGIC);
    h[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    h[6] = kind as u8;
    // h[7]: flags, reserved zero.
    h[8..12].copy_from_slice(&namespace.to_le_bytes());
    h[12..20].copy_from_slice(&seq.to_le_bytes());
    h[20..24].copy_from_slice(&payload_len.to_le_bytes());
    h[24..28].copy_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&h[..28]);
    h[28..32].copy_from_slice(&header_crc.to_le_bytes());
    if let Some(slot) = out.get_mut(start..start + FRAME_HEADER_LEN) {
        slot.copy_from_slice(&h);
    }
    Ok(())
}

/// Read-buffer size a connection starts with; it doubles whenever a frame
/// does not fit.
const READ_BUF_LEN: usize = 64 * 1024;

/// A connection's read buffer. Reads land straight in it and frames are
/// decoded from it in place, so every received byte is copied once, by
/// the kernel.
pub(crate) struct ReadBuf {
    bytes: Vec<u8>,
    /// `bytes[start..end]` has been read and not yet consumed.
    start: usize,
    end: usize,
}

impl ReadBuf {
    pub(crate) fn new() -> ReadBuf {
        ReadBuf {
            bytes: vec![0; READ_BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    /// Whether the unread bytes begin with a whole frame.
    ///
    /// # Errors
    ///
    /// A malformed header, as soon as its 32 bytes are buffered.
    pub(crate) fn has_frame(&self) -> Result<bool, WireError> {
        let unread = self.unread();
        Ok(Header::parse(unread)?.is_some_and(|h| h.frame_len() <= unread.len()))
    }

    /// Decodes the frame at the front of the unread bytes in place and
    /// consumes it; `Ok(None)` while it is incomplete.
    ///
    /// # Errors
    ///
    /// A malformed header or a payload checksum mismatch.
    pub(crate) fn take_frame(&mut self) -> Result<Option<(Header, &[u8])>, WireError> {
        let unread = self.bytes.get(self.start..self.end).unwrap_or_default();
        let frame = next_frame(unread)?;
        if let Some((header, _)) = &frame {
            self.start += header.frame_len();
        }
        Ok(frame)
    }

    /// Reads once from `r` into the buffer and returns the byte count, 0
    /// when the peer has closed. Unread bytes move to the front first, and
    /// the buffer doubles when they fill it, so it grows with the bytes a
    /// frame has actually sent, never with the length it declares.
    ///
    /// # Errors
    ///
    /// The transport's, except `Interrupted`, which is retried.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.bytes.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.bytes.len() {
            self.bytes.resize(2 * self.bytes.len(), 0);
        }
        let free = self.bytes.get_mut(self.end..).unwrap_or_default();
        let n = loop {
            match r.read(free) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                read => break read?.min(free.len()),
            }
        };
        self.end += n;
        Ok(n)
    }

    fn unread(&self) -> &[u8] {
        self.bytes.get(self.start..self.end).unwrap_or_default()
    }
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
        let mut payload = Vec::new();
        self.put_payload(&mut payload);
        Frame {
            kind: self.kind(),
            namespace,
            seq,
            payload,
        }
    }

    /// Appends the message's payload to `out`.
    pub(crate) fn put_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Request { queries } => put_request_payload(out, queries),
            Message::Response {
                generation,
                responses,
            } => put_response_payload(out, *generation, responses),
            Message::Error { code, detail } => {
                put_u16(out, *code as u16);
                let detail = detail.as_bytes();
                put_len_bytes(out, detail.get(..MAX_ERROR_DETAIL).unwrap_or(detail));
            }
            Message::Load { name, snapshot } => put_load_payload(out, name, snapshot),
            Message::Loaded {
                namespace,
                generation,
                aps,
                cells,
            } => {
                put_u32(out, *namespace);
                put_u64(out, *generation);
                put_u32(out, *aps);
                put_u64(out, *cells);
            }
            Message::List | Message::Shutdown | Message::Bye => {}
            Message::Listing { namespaces } => {
                put_u32(out, namespaces.len() as u32);
                for ns in namespaces {
                    put_u32(out, ns.id);
                    put_u64(out, ns.generation);
                    put_u32(out, ns.aps);
                    put_u64(out, ns.cells);
                    put_len_bytes(out, ns.name.as_bytes());
                }
            }
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
        Message::decode(frame.kind, &frame.payload)
    }

    /// Decodes a payload of kind `kind`, as [`Message::from_frame`] does.
    pub(crate) fn decode(kind: FrameKind, payload: &[u8]) -> Result<Message, WireError> {
        let mut r = ByteReader::new(payload);
        let msg = match kind {
            FrameKind::Request => {
                let mut queries = Vec::new();
                decode_request_into(payload, &mut queries)?;
                return Ok(Message::Request { queries });
            }
            FrameKind::Response => {
                let (generation, responses) = decode_response_payload(payload)?;
                return Ok(Message::Response {
                    generation,
                    responses,
                });
            }
            FrameKind::Load => {
                let (name, snapshot) = decode_load_payload(payload)?;
                return Ok(Message::Load {
                    name: name.to_string(),
                    snapshot: snapshot.to_vec(),
                });
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
                    let name = take_name(&mut r)?.to_string();
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
        expect_end(&r)?;
        Ok(msg)
    }
}

/// Appends a `Request` payload: the query count, then one record per
/// query.
pub(crate) fn put_request_payload(out: &mut Vec<u8>, queries: &[Query]) {
    out.reserve(4 + queries.len() * QUERY_RECORD_MAX);
    put_u32(out, queries.len() as u32);
    for q in queries {
        put_query(out, q);
    }
}

/// Decodes a `Request` payload in place, appending its queries to
/// `queries`, and returns how many it held. On error `queries` is left as
/// it was.
pub(crate) fn decode_request_into(
    payload: &[u8],
    queries: &mut Vec<Query>,
) -> Result<usize, WireError> {
    let before = queries.len();
    let decoded = take_queries(payload, queries);
    if decoded.is_err() {
        queries.truncate(before);
    }
    decoded
}

fn take_queries(payload: &[u8], queries: &mut Vec<Query>) -> Result<usize, WireError> {
    let mut r = ByteReader::new(payload);
    let count = r.take_u32()? as usize;
    queries.reserve(count.min(PREALLOC_CLAMP));
    for _ in 0..count {
        queries.push(take_query(&mut r)?);
    }
    expect_end(&r)?;
    Ok(count)
}

/// Appends a `Response` payload: the answering generation, the response
/// count, then one record per response.
pub(crate) fn put_response_payload(out: &mut Vec<u8>, generation: u64, responses: &[Response]) {
    out.reserve(12 + responses.len() * RESPONSE_RECORD_MAX);
    put_u64(out, generation);
    put_u32(out, responses.len() as u32);
    for resp in responses {
        put_response(out, resp);
    }
}

/// Decodes a `Response` payload in place into the answering generation and
/// its responses.
pub(crate) fn decode_response_payload(payload: &[u8]) -> Result<(u64, Vec<Response>), WireError> {
    let mut r = ByteReader::new(payload);
    let generation = r.take_u64()?;
    let count = r.take_u32()? as usize;
    let mut responses = Vec::with_capacity(count.min(PREALLOC_CLAMP));
    for _ in 0..count {
        responses.push(take_response(&mut r)?);
    }
    expect_end(&r)?;
    Ok((generation, responses))
}

/// Appends a `Load` payload: the namespace name, then the snapshot image.
pub(crate) fn put_load_payload(out: &mut Vec<u8>, name: &str, snapshot: &[u8]) {
    out.reserve(8 + name.len() + snapshot.len());
    put_len_bytes(out, name.as_bytes());
    put_len_bytes(out, snapshot);
}

/// Decodes a `Load` payload in place: the namespace name and the snapshot
/// image, both borrowed from `payload`.
pub(crate) fn decode_load_payload(payload: &[u8]) -> Result<(&str, &[u8]), WireError> {
    let mut r = ByteReader::new(payload);
    let name = take_name(&mut r)?;
    let snapshot = r.take_len_bytes(MAX_PAYLOAD as usize)?;
    expect_end(&r)?;
    Ok((name, snapshot))
}

/// Rejects bytes left after a payload's declared structure.
fn expect_end(r: &ByteReader<'_>) -> Result<(), WireError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes {
            extra: r.remaining(),
        })
    }
}

/// Reads a length-prefixed, cap-checked, UTF-8 name.
fn take_name<'a>(r: &mut ByteReader<'a>) -> Result<&'a str, WireError> {
    let bytes = match r.take_len_bytes(MAX_NAME) {
        Ok(b) => b,
        Err(CodecError::OverlongField { .. }) => return Err(WireError::BadName),
        Err(e) => return Err(WireError::Truncated(e)),
    };
    std::str::from_utf8(bytes).map_err(|_| WireError::BadName)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Floats travel as their raw IEEE-754 bits.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A `u32` byte count, then the bytes. A count over `u32::MAX` would
/// truncate, but its payload exceeds [`MAX_PAYLOAD`] and [`write_frame`]
/// rejects the frame; the same holds for the record counts.
fn put_len_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f64(out, v.x);
    put_f64(out, v.y);
    put_f64(out, v.z);
}

fn take_vec3(r: &mut ByteReader<'_>) -> Result<Vec3, CodecError> {
    Ok(Vec3::new(r.take_f64()?, r.take_f64()?, r.take_f64()?))
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

/// The longest query record, a box-stats one: tag, two corners, MAC.
const QUERY_RECORD_MAX: usize = 1 + 48 + 6;

/// Appends one query record (tag byte + fields).
fn put_query(out: &mut Vec<u8>, q: &Query) {
    match *q {
        Query::Point { pos, ap } => {
            out.push(QUERY_POINT);
            put_vec3(out, pos);
            out.extend_from_slice(&ap.octets());
        }
        Query::BestAp { pos } => {
            out.push(QUERY_BEST_AP);
            put_vec3(out, pos);
        }
        Query::BoxStats { region, ap } => {
            out.push(QUERY_BOX_STATS);
            put_vec3(out, region.min());
            put_vec3(out, region.max());
            out.extend_from_slice(&ap.octets());
        }
        Query::Coverage { threshold_dbm, ap } => {
            out.push(QUERY_COVERAGE);
            put_f64(out, threshold_dbm);
            out.extend_from_slice(&ap.octets());
        }
    }
}

/// Decodes one query record.
fn take_query(r: &mut ByteReader<'_>) -> Result<Query, WireError> {
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

/// The longest response record, a stats one: tag, three floats, a count.
const RESPONSE_RECORD_MAX: usize = 1 + 32;

/// Appends one response record (tag byte + fields; floats as raw bits).
fn put_response(out: &mut Vec<u8>, resp: &Response) {
    match *resp {
        Response::Value(v) => {
            out.push(RESPONSE_VALUE);
            match v {
                Some(x) => {
                    out.push(1);
                    put_f64(out, x);
                }
                None => out.push(0),
            }
        }
        Response::Best(best) => {
            out.push(RESPONSE_BEST);
            match best {
                Some((mac, v)) => {
                    out.push(1);
                    out.extend_from_slice(&mac.octets());
                    put_f64(out, v);
                }
                None => out.push(0),
            }
        }
        Response::Stats(s) => {
            out.push(RESPONSE_STATS);
            put_f64(out, s.min);
            put_f64(out, s.max);
            put_f64(out, s.sum);
            put_u64(out, s.count as u64);
        }
        Response::Covered { cells, fraction } => {
            out.push(RESPONSE_COVERED);
            put_u64(out, cells as u64);
            put_f64(out, fraction);
        }
    }
}

/// Decodes one response record.
fn take_response(r: &mut ByteReader<'_>) -> Result<Response, WireError> {
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
    use aerorem_numerics::codec::ByteWriter;

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

    /// Yields at most `step` of its bytes per read, as a slow peer does.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            let (head, rest) = self.bytes.split_at(n);
            buf[..n].copy_from_slice(head);
            self.bytes = rest;
            Ok(n)
        }
    }

    #[test]
    fn the_read_buffer_decodes_frames_in_place_whatever_the_read_sizes() {
        // A frame three times the starting buffer between two small ones:
        // the buffer compacts after the first and grows for the second.
        let frames = [
            Message::List.into_frame(0, 1),
            Message::Load {
                name: "big".into(),
                snapshot: vec![0xA5; 3 * READ_BUF_LEN],
            }
            .into_frame(0, 2),
            Message::Shutdown.into_frame(0, 3),
        ];
        let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        for step in [1, 7, 4096, usize::MAX] {
            let mut peer = Trickle { bytes: &wire, step };
            let mut buf = ReadBuf::new();
            let mut got = Vec::new();
            loop {
                while let Some((header, payload)) = buf.take_frame().unwrap() {
                    got.push(Frame {
                        kind: header.kind,
                        namespace: header.namespace,
                        seq: header.seq,
                        payload: payload.to_vec(),
                    });
                }
                if buf.read_from(&mut peer).unwrap() == 0 {
                    break;
                }
            }
            assert_eq!(got, frames, "step {step}");
            assert!(!buf.has_frame().unwrap());
        }
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
            let mut w = Vec::new();
            put_u32(&mut w, 1);
            w.push(QUERY_BOX_STATS);
            put_vec3(&mut w, Vec3::new(1.0, 1.0, 1.0));
            put_vec3(&mut w, Vec3::new(0.0, 0.0, 0.0));
            w.extend_from_slice(&MacAddress::from_index(1).octets());
            w
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
