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
use crate::wire::{ErrorCode, Frame, FrameKind, Message, NamespaceInfo, WireError};

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

impl Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Uds(s) => s.read(buf),
        }
    }

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
    /// Bytes read from the socket; `buf[start..]` is not decoded yet.
    buf: Vec<u8>,
    /// Offset of the first undecoded byte in `buf`.
    start: usize,
    /// The read target, allocated once per connection.
    chunk: Vec<u8>,
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
            buf: Vec::new(),
            start: 0,
            chunk: vec![0; 64 * 1024],
            next_seq: 1,
        }
    }

    fn send(&mut self, msg: Message, namespace: u32) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.transport
            .write_all(&msg.into_frame(namespace, seq).encode())?;
        Ok(seq)
    }

    /// Reads until one complete frame is buffered and returns it. Frames
    /// are consumed by offset; the buffer is compacted once per read.
    fn recv_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            let undecoded = &self.buf[self.start..]; // lint:allow(panic-reach) — start only grows by lengths decode_stream returned for frames inside buf, and compaction resets it to 0
            if let Some((frame, consumed)) = Frame::decode_stream(undecoded)? {
                self.start += consumed;
                return Ok(frame);
            }
            self.buf.drain(..self.start);
            self.start = 0;
            let n = match self.transport.read(&mut self.chunk) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            };
            self.buf.extend_from_slice(&self.chunk[..n]); // lint:allow(panic-reach) — n is the byte count read() just returned; n ≤ chunk.len() by the Read contract
        }
    }

    /// Receives the reply to `seq`, surfacing server error frames as
    /// [`ClientError::Server`].
    fn recv_reply(&mut self, seq: u64) -> Result<(Frame, Message), ClientError> {
        let frame = self.recv_frame()?;
        if frame.seq != seq {
            return Err(ClientError::SeqMismatch {
                sent: seq,
                got: frame.seq,
            });
        }
        let msg = Message::from_frame(&frame)?;
        if let Message::Error { code, detail } = msg {
            return Err(ClientError::Server { code, detail });
        }
        Ok((frame, msg))
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
    /// Transport failures.
    pub fn send_query(&mut self, namespace: u32, queries: &[Query]) -> Result<u64, ClientError> {
        self.send(
            Message::Request {
                queries: queries.to_vec(),
            },
            namespace,
        )
    }

    /// Receives the answers to a previously sent request frame.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures; [`ClientError::SeqMismatch`]
    /// when replies are collected out of send order.
    pub fn recv_response(&mut self, seq: u64) -> Result<(u64, Vec<Response>), ClientError> {
        let (frame, msg) = self.recv_reply(seq)?;
        match msg {
            Message::Response {
                generation,
                responses,
            } => Ok((generation, responses)),
            _ => Err(ClientError::UnexpectedFrame { kind: frame.kind }),
        }
    }

    /// Installs (or hot-swaps) a snapshot image under `name`.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures — a rejected snapshot is
    /// [`ClientError::Server`] with [`ErrorCode::SnapshotRejected`] or
    /// [`ErrorCode::StoreRejected`].
    pub fn load(&mut self, name: &str, snapshot: &[u8]) -> Result<RemoteLoadInfo, ClientError> {
        let seq = self.send(
            Message::Load {
                name: name.to_string(),
                snapshot: snapshot.to_vec(),
            },
            0,
        )?;
        let (frame, msg) = self.recv_reply(seq)?;
        match msg {
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
            _ => Err(ClientError::UnexpectedFrame { kind: frame.kind }),
        }
    }

    /// Fetches the daemon's namespace table.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures.
    pub fn list(&mut self) -> Result<Vec<NamespaceInfo>, ClientError> {
        let seq = self.send(Message::List, 0)?;
        let (frame, msg) = self.recv_reply(seq)?;
        match msg {
            Message::Listing { namespaces } => Ok(namespaces),
            _ => Err(ClientError::UnexpectedFrame { kind: frame.kind }),
        }
    }

    /// Asks the daemon to stop; resolves when its goodbye arrives.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let seq = self.send(Message::Shutdown, 0)?;
        let (frame, msg) = self.recv_reply(seq)?;
        match msg {
            Message::Bye => Ok(()),
            _ => Err(ClientError::UnexpectedFrame { kind: frame.kind }),
        }
    }
}
