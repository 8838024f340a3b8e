//! Blocking wire client for `aerorem-served`.
//!
//! [`WireClient`] speaks `docs/WIRE_FORMAT.md` over TCP or a Unix-domain
//! socket. The simple calls ([`WireClient::query`], [`WireClient::load`],
//! [`WireClient::list`], [`WireClient::shutdown`]) are strict
//! request/reply; the split [`WireClient::send_query`] /
//! [`WireClient::recv_response`] pair lets callers pipeline many request
//! frames onto the wire before collecting replies — the daemon coalesces
//! whatever it finds queued into larger `submit_batch` calls, which is
//! what the `wire` bench measures.

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

use crate::query::{Query, Response};
use crate::wire::{self, ErrorCode, FrameKind, Header, Message, NamespaceInfo, ReadBuf, WireError};

/// What loading a snapshot over the wire installed (mirror of the
/// daemon-side [`crate::daemon::LoadInfo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteLoadInfo {
    /// Namespace id to put in subsequent request frames.
    pub namespace: u32,
    /// Generation now being served.
    pub generation: u64,
    /// APs in the installed snapshot.
    pub aps: u32,
    /// Voxel cells per AP grid.
    pub cells: u64,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The server sent bytes that do not frame or decode.
    Wire(WireError),
    /// The server answered with an error frame.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    UnexpectedFrame {
        /// The kind that arrived.
        kind: FrameKind,
    },
    /// A reply's sequence number does not match the request it should
    /// answer — the connection has lost request/reply pairing.
    SeqMismatch {
        /// Sequence number sent.
        sent: u64,
        /// Sequence number received.
        got: u64,
    },
    /// The server closed the connection mid-reply.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error ({code:?}): {detail}")
            }
            ClientError::UnexpectedFrame { kind } => {
                write!(f, "unexpected reply frame kind {kind:?}")
            }
            ClientError::SeqMismatch { sent, got } => {
                write!(f, "reply seq {got} does not match request seq {sent}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

enum Transport {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Uds(s) => s.read(buf),
        }
    }
}

impl Transport {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.write_all(buf).and_then(|()| s.flush()),
            #[cfg(unix)]
            Transport::Uds(s) => s.write_all(buf).and_then(|()| s.flush()),
        }
    }
}

/// One blocking connection to an `aerorem serve` daemon.
pub struct WireClient {
    transport: Transport,
    /// Replies as read from the socket, decoded in place.
    replies: ReadBuf,
    /// The request being sent, encoded in place; its capacity is reused.
    request: Vec<u8>,
    next_seq: u64,
}

impl WireClient {
    /// Connects over TCP (e.g. `127.0.0.1:4123`).
    ///
    /// # Errors
    ///
    /// Propagates the OS connect failure.
    pub fn connect_tcp(addr: &str) -> Result<WireClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(WireClient::new(Transport::Tcp(stream)))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates the OS connect failure.
    #[cfg(unix)]
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<WireClient, ClientError> {
        Ok(WireClient::new(Transport::Uds(UnixStream::connect(path)?)))
    }

    fn new(transport: Transport) -> WireClient {
        WireClient {
            transport,
            replies: ReadBuf::new(),
            request: Vec::new(),
            next_seq: 1,
        }
    }

    /// Sends one frame of kind `kind` whose payload `put_payload` encodes
    /// straight into the request buffer; returns its seq.
    fn send(
        &mut self,
        kind: FrameKind,
        namespace: u32,
        put_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.request.clear();
        wire::write_frame(&mut self.request, kind, namespace, seq, put_payload)?;
        self.transport.write_all(&self.request)?;
        Ok(seq)
    }

    /// Reads until one complete frame is buffered, then decodes it in
    /// place: its header and its CRC-checked payload, borrowed from the
    /// read buffer.
    fn recv_frame(&mut self) -> Result<(Header, &[u8]), ClientError> {
        while !self.replies.has_frame()? {
            if self.replies.read_from(&mut self.transport)? == 0 {
                return Err(ClientError::Disconnected);
            }
        }
        // `has_frame` held, so the frame is there.
        self.replies.take_frame()?.ok_or(ClientError::Disconnected)
    }

    /// Receives the reply to `seq`, which should be of kind `want`, and
    /// returns its payload, borrowed from the read buffer. An error frame
    /// is [`ClientError::Server`]; any other kind is
    /// [`ClientError::UnexpectedFrame`].
    fn recv_reply(&mut self, seq: u64, want: FrameKind) -> Result<&[u8], ClientError> {
        let (header, payload) = self.recv_frame()?;
        if header.seq != seq {
            return Err(ClientError::SeqMismatch {
                sent: seq,
                got: header.seq,
            });
        }
        if header.kind == want {
            return Ok(payload);
        }
        Err(match Message::decode(header.kind, payload)? {
            Message::Error { code, detail } => ClientError::Server { code, detail },
            _ => ClientError::UnexpectedFrame { kind: header.kind },
        })
    }

    /// One control round trip: sends a frame of kind `kind` on namespace
    /// 0 and decodes its reply, which should be of kind `want`.
    fn call(
        &mut self,
        kind: FrameKind,
        put_payload: impl FnOnce(&mut Vec<u8>),
        want: FrameKind,
    ) -> Result<Message, ClientError> {
        let seq = self.send(kind, 0, put_payload)?;
        let payload = self.recv_reply(seq, want)?;
        Ok(Message::decode(want, payload)?)
    }

    /// Sends one batch of queries and waits for its answers.
    ///
    /// Returns the answering store's generation (watch it change across
    /// hot-swaps) and one [`Response`] per query, in order — bit-identical
    /// to what [`crate::RemStore::answer`] returns in-process.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server ([`ClientError::Server`]) failures.
    pub fn query(
        &mut self,
        namespace: u32,
        queries: &[Query],
    ) -> Result<(u64, Vec<Response>), ClientError> {
        let seq = self.send_query(namespace, queries)?;
        self.recv_response(seq)
    }

    /// Fires one request frame without waiting — pair with
    /// [`WireClient::recv_response`] (in send order) to pipeline.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`WireError::Oversized`] for a batch too
    /// large for one frame.
    pub fn send_query(&mut self, namespace: u32, queries: &[Query]) -> Result<u64, ClientError> {
        self.send(FrameKind::Request, namespace, |out| {
            wire::put_request_payload(out, queries)
        })
    }

    /// Receives the answers to a previously sent request frame.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures; [`ClientError::SeqMismatch`]
    /// when replies are collected out of send order.
    pub fn recv_response(&mut self, seq: u64) -> Result<(u64, Vec<Response>), ClientError> {
        let payload = self.recv_reply(seq, FrameKind::Response)?;
        Ok(wire::decode_response_payload(payload)?)
    }

    /// Installs (or hot-swaps) a snapshot image under `name`.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures — a rejected snapshot is
    /// [`ClientError::Server`] with [`ErrorCode::SnapshotRejected`] or
    /// [`ErrorCode::StoreRejected`].
    pub fn load(&mut self, name: &str, snapshot: &[u8]) -> Result<RemoteLoadInfo, ClientError> {
        let reply = self.call(
            FrameKind::Load,
            |out| wire::put_load_payload(out, name, snapshot),
            FrameKind::Loaded,
        )?;
        match reply {
            Message::Loaded {
                namespace,
                generation,
                aps,
                cells,
            } => Ok(RemoteLoadInfo {
                namespace,
                generation,
                aps,
                cells,
            }),
            other => Err(ClientError::UnexpectedFrame { kind: other.kind() }),
        }
    }

    /// Fetches the daemon's namespace table.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures.
    pub fn list(&mut self) -> Result<Vec<NamespaceInfo>, ClientError> {
        match self.call(FrameKind::List, |_| {}, FrameKind::Listing)? {
            Message::Listing { namespaces } => Ok(namespaces),
            other => Err(ClientError::UnexpectedFrame { kind: other.kind() }),
        }
    }

    /// Asks the daemon to stop; resolves when its goodbye arrives.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(FrameKind::Shutdown, |_| {}, FrameKind::Bye)? {
            Message::Bye => Ok(()),
            other => Err(ClientError::UnexpectedFrame { kind: other.kind() }),
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::wire::Frame;
    use aerorem_propagation::ap::MacAddress;
    use aerorem_spatial::Vec3;

    const QUERY: Query = Query::BestAp {
        pos: Vec3::new(1.0, 2.0, 0.5),
    };

    fn answers() -> Vec<Response> {
        vec![Response::Best(Some((MacAddress::from_index(4), -51.25)))]
    }

    /// Sends one query from a client whose peer is scripted: the peer
    /// reads the request frame, writes back the bytes `reply` makes of it,
    /// `chunk` bytes per write, and hangs up.
    fn query_scripted_peer(
        chunk: usize,
        reply: impl FnOnce(&Frame) -> Vec<u8> + Send + 'static,
    ) -> Result<(u64, Vec<Response>), ClientError> {
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        let peer = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let mut byte = [0u8; 4096];
            let request = loop {
                if let Some((frame, _)) = Frame::decode_stream(&buf).expect("request frames") {
                    break frame;
                }
                let n = theirs.read(&mut byte).expect("read request");
                assert!(n > 0, "client hung up before its request was complete");
                buf.extend_from_slice(&byte[..n]);
            };
            for piece in reply(&request).chunks(chunk) {
                theirs.write_all(piece).expect("write reply");
                std::thread::yield_now();
            }
        });
        let mut client = WireClient::new(Transport::Uds(ours));
        let result = client.query(3, &[QUERY]);
        peer.join().expect("peer thread");
        result
    }

    fn response_to(request: &Frame, seq: u64) -> Vec<u8> {
        Message::Response {
            generation: 7,
            responses: answers(),
        }
        .into_frame(request.namespace, seq)
        .encode()
    }

    #[test]
    fn a_reply_written_one_byte_at_a_time_decodes() {
        let got = query_scripted_peer(1, |request| {
            assert_eq!(request.namespace, 3);
            match Message::from_frame(request).expect("request payload") {
                Message::Request { queries } => assert_eq!(queries, [QUERY]),
                other => panic!("expected a request, got {other:?}"),
            }
            response_to(request, request.seq)
        })
        .expect("reply decodes");
        assert_eq!(got, (7, answers()));
    }

    #[test]
    fn a_reply_with_the_wrong_seq_is_a_seq_mismatch() {
        let err = query_scripted_peer(usize::MAX, |request| response_to(request, request.seq + 1))
            .expect_err("wrong seq");
        assert!(
            matches!(err, ClientError::SeqMismatch { sent: 1, got: 2 }),
            "{err}"
        );
    }

    #[test]
    fn a_listing_in_reply_to_a_query_is_an_unexpected_frame() {
        let err = query_scripted_peer(usize::MAX, |request| {
            Message::Listing { namespaces: vec![] }
                .into_frame(0, request.seq)
                .encode()
        })
        .expect_err("listing is not a response");
        assert!(
            matches!(
                err,
                ClientError::UnexpectedFrame {
                    kind: FrameKind::Listing
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn an_error_frame_is_a_server_error() {
        let err = query_scripted_peer(usize::MAX, |request| {
            Message::Error {
                code: ErrorCode::UnknownNamespace,
                detail: "namespace 3 is not served".into(),
            }
            .into_frame(3, request.seq)
            .encode()
        })
        .expect_err("error frame");
        match err {
            ClientError::Server { code, detail } => {
                assert_eq!(code, ErrorCode::UnknownNamespace);
                assert_eq!(detail, "namespace 3 is not served");
            }
            other => panic!("expected a server error, got {other}"),
        }
    }

    #[test]
    fn a_flipped_payload_byte_is_a_payload_checksum_error() {
        let err = query_scripted_peer(usize::MAX, |request| {
            let mut bytes = response_to(request, request.seq);
            if let Some(last) = bytes.last_mut() {
                *last ^= 0x40;
            }
            bytes
        })
        .expect_err("corrupt payload");
        assert!(
            matches!(err, ClientError::Wire(WireError::PayloadChecksum)),
            "{err}"
        );
    }

    #[test]
    fn a_peer_that_closes_mid_frame_is_a_disconnect() {
        let err = query_scripted_peer(usize::MAX, |request| {
            let mut bytes = response_to(request, request.seq);
            bytes.truncate(bytes.len() - 3);
            bytes
        })
        .expect_err("half a reply");
        assert!(matches!(err, ClientError::Disconnected), "{err}");
    }
}
