//! `aerorem-served`: the blocking request loop that puts a [`RemStore`]
//! behind a socket.
//!
//! A [`Daemon`] owns a table of **namespaces** — named stores, one per
//! building — each wrapped in a generation-counted, atomically swappable
//! handle. [`Daemon::start`] spawns one accept thread per bound
//! [`Listener`] (TCP and/or Unix-domain) and one thread per connection;
//! each connection thread reads `docs/WIRE_FORMAT.md` frames, **batches
//! consecutive pipelined request frames into a single
//! [`RemStore::submit_batch`] call per namespace**, and answers in
//! arrival order with the request's `seq` echoed. A drain's replies are
//! encoded into one buffer and sent with one write, flushed early only at
//! control frames (load, list, shutdown), which stay barriers.
//!
//! Hot-swap: [`Daemon::load`] decodes and builds the incoming snapshot
//! *outside* every lock, then swaps the namespace's `Arc` under a brief
//! write lock and bumps the generation counter. In-flight batches keep
//! their `Arc` clone, so they finish against the store they started on —
//! a swap never drops or corrupts a batch, it only changes the
//! `generation` echoed by later responses.
//!
//! Failure isolation: a malformed frame poisons only its connection
//! (one final error frame, then close); a failed batch or rejected
//! snapshot answers with a typed error frame and the daemon keeps
//! serving; a worker panic is contained by [`RemStore::submit_batch`]
//! ([`crate::ServeError`]) and reported as [`ErrorCode::BatchFailed`].

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use aerorem_core::snapshot::RemSnapshot;
use aerorem_numerics::ExecPolicy;

use crate::query::{Query, Response};
use crate::store::{RemStore, StoreConfig};
use crate::wire::{self, ErrorCode, FrameKind, Header, Message, NamespaceInfo, ReadBuf, WireError};

/// How a [`Daemon`] executes batches and builds stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonConfig {
    /// Execution policy for every [`RemStore::submit_batch`] call.
    pub policy: ExecPolicy,
    /// Passed to [`RemStore::build`] for every snapshot this daemon
    /// builds; [`StoreConfig`] has no settings.
    pub store: StoreConfig,
}

/// What [`Daemon::load`] installed — mirrored to clients as
/// [`Message::Loaded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// Namespace id assigned to (or already held by) the name.
    pub namespace: u32,
    /// Generation now being served under that id.
    pub generation: u64,
    /// APs in the installed snapshot.
    pub aps: u32,
    /// Voxel cells per AP grid.
    pub cells: u64,
}

/// Why a [`Daemon::load`] was refused. The daemon state is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The bytes are not a valid snapshot image.
    Snapshot(String),
    /// The snapshot decoded but failed store validation.
    Store(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            LoadError::Store(e) => write!(f, "store rejected: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One snapshot generation of one namespace. In-flight batches hold an
/// `Arc` of this, so a hot-swap can never free a store mid-batch.
struct Generation {
    store: RemStore,
    generation: u64,
}

/// A named store slot; `current` is the atomically swappable handle.
struct NamespaceSlot {
    name: String,
    current: RwLock<Arc<Generation>>,
}

/// State shared by the daemon handle, accept threads, and connections.
struct Shared {
    config: DaemonConfig,
    /// Slot index is the namespace id on the wire.
    namespaces: RwLock<Vec<Arc<NamespaceSlot>>>,
    stop: AtomicBool,
    /// Endpoints to poke with a throwaway connect so blocked `accept`
    /// calls wake up and observe `stop`.
    nudge: Mutex<Vec<NudgeTarget>>,
    /// Live connection streams by connection id, shut down on stop to
    /// unblock reads. Each connection removes its own entry when it ends.
    conns: Mutex<BTreeMap<u64, ConnHandle>>,
    next_conn: AtomicU64,
}

#[derive(Clone)]
enum NudgeTarget {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

enum ConnHandle {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl ConnHandle {
    fn hang_up(&self) {
        match self {
            ConnHandle::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            ConnHandle::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

/// A bound, not-yet-serving socket. Binding is separate from
/// [`Daemon::start`] so callers can report (or pick) the actual address —
/// TCP port 0 binds an ephemeral port — before serving begins.
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener and the path to unlink on drop.
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// Binds a TCP listener on `addr` (e.g. `127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Propagates the OS bind failure.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain listener at `path`. A socket file there that
    /// still accepts connections belongs to a live daemon and is left
    /// alone; one that refuses them is stale and is replaced.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::AddrInUse`] when a live daemon serves `path`, or
    /// when `path` is some other kind of file; otherwise the OS failure to
    /// remove a stale socket or to bind.
    #[cfg(unix)]
    pub fn bind_uds(path: impl Into<PathBuf>) -> io::Result<Listener> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.into();
        match UnixStream::connect(&path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    "a live daemon is serving this socket",
                ));
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                let stale = std::fs::symlink_metadata(&path);
                if stale.is_ok_and(|m| m.file_type().is_socket()) {
                    std::fs::remove_file(&path)?;
                }
            }
            Err(_) => {}
        }
        Ok(Listener::Uds(UnixListener::bind(&path)?, path))
    }

    /// The bound endpoint, printable: `tcp 127.0.0.1:4123` or
    /// `uds /tmp/aerorem.sock`.
    pub fn endpoint(&self) -> String {
        match self {
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp {a}"),
                Err(_) => "tcp <unknown>".to_string(),
            },
            #[cfg(unix)]
            Listener::Uds(_, path) => format!("uds {}", path.display()),
        }
    }
}

/// The serving daemon: namespace table + request loop.
///
/// Cloning is cheap (an `Arc`); every clone addresses the same daemon.
#[derive(Clone)]
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// A daemon with no namespaces. Serve something with
    /// [`Daemon::load`], then [`Daemon::start`].
    pub fn new(config: DaemonConfig) -> Daemon {
        Daemon {
            shared: Arc::new(Shared {
                config,
                namespaces: RwLock::new(Vec::new()),
                stop: AtomicBool::new(false),
                nudge: Mutex::new(Vec::new()),
                conns: Mutex::new(BTreeMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        }
    }

    /// Installs `bytes` (a `docs/SNAPSHOT_FORMAT.md` image) under `name`:
    /// a new namespace when the name is unknown, a **hot-swap** of the
    /// existing one otherwise. Decode and store build run outside all
    /// locks; the swap itself is a brief write-lock pointer exchange, so
    /// serving continues (on the previous generation) throughout.
    ///
    /// # Errors
    ///
    /// [`LoadError`] when the bytes or the built store are invalid; the
    /// namespace table is untouched.
    pub fn load(&self, name: &str, bytes: &[u8]) -> Result<LoadInfo, LoadError> {
        let snapshot =
            RemSnapshot::from_bytes(bytes).map_err(|e| LoadError::Snapshot(e.to_string()))?;
        let store = RemStore::build(&snapshot, self.shared.config.store)
            .map_err(|e| LoadError::Store(e.to_string()))?;
        let aps = store.macs().len() as u32;
        let cells = store.layout().cell_count() as u64;

        let mut table = lock_write(&self.shared.namespaces);
        if let Some((id, slot)) = table
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (i as u32, Arc::clone(s)))
        {
            drop(table);
            let mut current = lock_write(&slot.current);
            let generation = current.generation + 1;
            *current = Arc::new(Generation { store, generation });
            return Ok(LoadInfo {
                namespace: id,
                generation,
                aps,
                cells,
            });
        }
        let id = table.len() as u32;
        table.push(Arc::new(NamespaceSlot {
            name: name.to_string(),
            current: RwLock::new(Arc::new(Generation {
                store,
                generation: 1,
            })),
        }));
        Ok(LoadInfo {
            namespace: id,
            generation: 1,
            aps,
            cells,
        })
    }

    /// The namespace table, ascending by id.
    pub fn listing(&self) -> Vec<NamespaceInfo> {
        let table = lock_read(&self.shared.namespaces);
        table
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let current = lock_read(&slot.current).clone();
                NamespaceInfo {
                    id: id as u32,
                    generation: current.generation,
                    aps: current.store.macs().len() as u32,
                    cells: current.store.layout().cell_count() as u64,
                    name: slot.name.clone(),
                }
            })
            .collect()
    }

    /// The generation handle a batch against `namespace` should run on,
    /// `None` for an unknown id.
    fn generation_of(&self, namespace: u32) -> Option<Arc<Generation>> {
        let table = lock_read(&self.shared.namespaces);
        let slot = table.get(namespace as usize)?.clone();
        drop(table);
        let current = lock_read(&slot.current).clone();
        Some(current)
    }

    /// Answers one batch in-process — the exact code path connections use,
    /// exposed so tests and benches can diff wire answers against it.
    ///
    /// # Errors
    ///
    /// The error-frame code and detail the daemon would send.
    pub fn answer(
        &self,
        namespace: u32,
        queries: &[Query],
    ) -> Result<(u64, Vec<Response>), (ErrorCode, String)> {
        let generation = self.generation_of(namespace).ok_or_else(|| {
            (
                ErrorCode::UnknownNamespace,
                format!("namespace {namespace} is not served"),
            )
        })?;
        let responses = generation
            .store
            .submit_batch(queries, self.shared.config.policy)
            .map_err(|e| (ErrorCode::BatchFailed, e.to_string()))?;
        Ok((generation.generation, responses))
    }

    /// Spawns the accept loops and returns a handle that joins them.
    /// Serving ends when a client sends a shutdown frame or the handle's
    /// [`ServerHandle::shutdown`] is called.
    pub fn start(&self, listeners: Vec<Listener>) -> ServerHandle {
        let mut threads = Vec::with_capacity(listeners.len());
        for listener in listeners {
            let daemon = self.clone();
            match listener {
                Listener::Tcp(l) => {
                    if let Ok(addr) = l.local_addr() {
                        lock_mutex(&self.shared.nudge).push(NudgeTarget::Tcp(addr));
                    }
                    threads.push(std::thread::spawn(move || daemon.accept_tcp(l)));
                }
                #[cfg(unix)]
                Listener::Uds(l, path) => {
                    lock_mutex(&self.shared.nudge).push(NudgeTarget::Uds(path.clone()));
                    threads.push(std::thread::spawn(move || daemon.accept_uds(l, path)));
                }
            }
        }
        ServerHandle {
            daemon: self.clone(),
            accept_threads: threads,
        }
    }

    fn accept_tcp(&self, listener: TcpListener) {
        let mut conn_threads = Vec::new();
        for stream in listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true);
            let clone = stream.try_clone().ok().map(ConnHandle::Tcp);
            join_finished(&mut conn_threads);
            conn_threads.push(self.spawn_connection(clone, stream));
        }
        for t in conn_threads {
            let _ = t.join();
        }
    }

    #[cfg(unix)]
    fn accept_uds(&self, listener: UnixListener, path: PathBuf) {
        let mut conn_threads = Vec::new();
        for stream in listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let clone = stream.try_clone().ok().map(ConnHandle::Uds);
            join_finished(&mut conn_threads);
            conn_threads.push(self.spawn_connection(clone, stream));
        }
        for t in conn_threads {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Registers a connection's stream clone, then serves the connection
    /// on its own thread, which removes the entry when the connection
    /// ends. Registering first means a shutdown either finds the entry and
    /// hangs it up, or set the stop flag before the thread first checks it.
    fn spawn_connection<S: Read + Write + Send + 'static>(
        &self,
        clone: Option<ConnHandle>,
        stream: S,
    ) -> JoinHandle<()> {
        let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Some(clone) = clone {
            lock_mutex(&self.shared.conns).insert(id, clone);
        }
        let daemon = self.clone();
        std::thread::spawn(move || {
            daemon.serve_connection(stream);
            // Bound so the clone closes after the lock is released.
            let _ended = lock_mutex(&daemon.shared.conns).remove(&id);
        })
    }

    /// Stops serving: flips the stop flag, hangs up every live
    /// connection, and wakes every blocked accept loop.
    fn initiate_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in lock_mutex(&self.shared.conns).values() {
            conn.hang_up();
        }
        // Snapshot the targets and drop the guard before connecting: a
        // wake-up connect can block (half-dead listener, backlogged
        // socket), and every accept loop takes this mutex to register.
        let targets: Vec<NudgeTarget> = lock_mutex(&self.shared.nudge).clone();
        for target in targets {
            match target {
                NudgeTarget::Tcp(addr) => {
                    let _ = TcpStream::connect(addr);
                }
                #[cfg(unix)]
                NudgeTarget::Uds(path) => {
                    let _ = UnixStream::connect(path);
                }
            }
        }
    }

    /// The per-connection request loop: read, frame, batch, reply.
    fn serve_connection<S: Read + Write>(&self, mut stream: S) {
        let mut frames = ReadBuf::new();
        // A drain's replies are encoded here and sent with one write.
        let mut out: Vec<u8> = Vec::new();
        let mut pending = Pending::default();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match frames.read_from(&mut stream) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if self
                .process_frames(&mut frames, &mut stream, &mut out, &mut pending)
                .is_err()
            {
                return;
            }
        }
    }

    /// Drains every complete frame the read buffer holds — everything a
    /// pipelining client managed to get onto the wire before we looked —
    /// decoding each in place. Consecutive request frames queue in
    /// `pending` and are answered with one `submit_batch` per namespace;
    /// replies are encoded into `out` in frame arrival order and written
    /// before each control frame and at the end of the drain. `Err(())`
    /// means the connection should close (unframeable input, a write
    /// failure, or shutdown).
    fn process_frames<S: Write>(
        &self,
        frames: &mut ReadBuf,
        stream: &mut S,
        out: &mut Vec<u8>,
        pending: &mut Pending,
    ) -> Result<(), ()> {
        loop {
            let (header, payload) = match frames.take_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // The stream is unsynchronized: answer what came before,
                    // then one last typed error (seq u64::MAX: no request to
                    // echo), then hang up. Only this connection dies.
                    self.flush_requests(pending, out);
                    put_message(
                        out,
                        0,
                        u64::MAX,
                        &error(ErrorCode::BadPayload, format!("unframeable input: {e}")),
                    );
                    let _ = write_replies(stream, out);
                    return Err(());
                }
            };
            if header.kind == FrameKind::Request {
                if let Err(e) = pending.push(&header, payload) {
                    self.flush_requests(pending, out);
                    put_message(
                        out,
                        header.namespace,
                        header.seq,
                        &bad_payload(header.kind, e),
                    );
                }
                continue;
            }
            // A control frame is a barrier: everything queued ahead of it
            // is answered and sent first, so a slow `Load` never holds back
            // earlier replies.
            self.flush_requests(pending, out);
            write_replies(stream, out)?;
            self.handle_control(&header, payload, stream, out)?;
        }
        self.flush_requests(pending, out);
        write_replies(stream, out)
    }

    /// Answers the queued request frames: one `submit_batch` per
    /// namespace, in first-arrival order, then each frame's reply encoded
    /// into `out` in arrival order from its slice of the answers. A drain
    /// that addresses one namespace answers the queued queries where they
    /// lie; only a drain that mixes namespaces gathers each one's queries.
    fn flush_requests(&self, pending: &mut Pending, out: &mut Vec<u8>) {
        let Pending { queries, frames } = pending;
        // Per namespace: its answers and how many of them replies have
        // taken so far.
        let mut answers: Vec<(u32, Answer, usize)> = Vec::new();
        for &(ns, _, _) in frames.iter() {
            if answers.iter().any(|&(seen, _, _)| seen == ns) {
                continue;
            }
            let answer = if frames.iter().all(|&(other, _, _)| other == ns) {
                self.answer(ns, queries)
            } else {
                let mut batch = Vec::new();
                let mut at = 0;
                for &(other, _, n) in frames.iter() {
                    if other == ns {
                        batch.extend_from_slice(queries.get(at..at + n).unwrap_or_default());
                    }
                    at += n;
                }
                self.answer(ns, &batch)
            };
            answers.push((ns, answer, 0));
        }
        for &(ns, seq, n) in frames.iter() {
            let Some((_, answer, taken)) = answers.iter_mut().find(|(seen, _, _)| *seen == ns)
            else {
                continue;
            };
            let slots = *taken..*taken + n;
            *taken += n;
            match answer {
                Ok((generation, responses)) => match responses.get(slots) {
                    Some(mine) => put_reply(out, FrameKind::Response, ns, seq, |out| {
                        wire::put_response_payload(out, *generation, mine)
                    }),
                    None => {
                        let detail = "the engine returned fewer answers than queries";
                        put_message(out, ns, seq, &error(ErrorCode::BatchFailed, detail.into()));
                    }
                },
                Err((code, detail)) => put_message(out, ns, seq, &error(*code, detail.clone())),
            }
        }
        queries.clear();
        frames.clear();
    }

    /// Handles one non-request frame, encoding its reply into `out`. A
    /// `Load` installs the image straight from the borrowed payload. A
    /// `Shutdown` writes `out` and its goodbye before hanging up.
    fn handle_control<S: Write>(
        &self,
        header: &Header,
        payload: &[u8],
        stream: &mut S,
        out: &mut Vec<u8>,
    ) -> Result<(), ()> {
        let reply = if header.kind == FrameKind::Load {
            match wire::decode_load_payload(payload) {
                Ok((name, image)) => match self.load(name, image) {
                    Ok(info) => Message::Loaded {
                        namespace: info.namespace,
                        generation: info.generation,
                        aps: info.aps,
                        cells: info.cells,
                    },
                    Err(e) => error(
                        match e {
                            LoadError::Snapshot(_) => ErrorCode::SnapshotRejected,
                            LoadError::Store(_) => ErrorCode::StoreRejected,
                        },
                        e.to_string(),
                    ),
                },
                Err(e) => bad_payload(header.kind, e),
            }
        } else {
            match Message::decode(header.kind, payload) {
                Ok(Message::List) => Message::Listing {
                    namespaces: self.listing(),
                },
                Ok(Message::Shutdown) => {
                    put_message(out, 0, header.seq, &Message::Bye);
                    write_replies(stream, out)?;
                    self.initiate_shutdown();
                    return Err(());
                }
                // Server-to-client kinds arriving at the server are
                // protocol misuse; answer with a typed error and keep the
                // connection.
                Ok(other) => error(
                    ErrorCode::BadPayload,
                    format!("frame kind {:?} is not a client request", other.kind()),
                ),
                Err(e) => bad_payload(header.kind, e),
            }
        };
        put_message(out, header.namespace, header.seq, &reply);
        Ok(())
    }
}

/// A namespace's answers to one drain, or the error frame's code and
/// detail.
type Answer = Result<(u64, Vec<Response>), (ErrorCode, String)>;

/// The request frames a drain has queued, decoded in place: every frame's
/// queries appended to one vector that the connection reuses.
#[derive(Default)]
struct Pending {
    /// The queued frames' queries, in arrival order.
    queries: Vec<Query>,
    /// (namespace, seq, query count) of each queued frame, in arrival
    /// order.
    frames: Vec<(u32, u64, usize)>,
}

impl Pending {
    /// Queues one request frame's queries.
    fn push(&mut self, header: &Header, payload: &[u8]) -> Result<(), WireError> {
        let n = wire::decode_request_into(payload, &mut self.queries)?;
        self.frames.push((header.namespace, header.seq, n));
        Ok(())
    }
}

/// An error frame's message.
fn error(code: ErrorCode, detail: String) -> Message {
    Message::Error { code, detail }
}

/// The reply to a frame whose payload does not decode as its kind.
fn bad_payload(kind: FrameKind, e: WireError) -> Message {
    error(ErrorCode::BadPayload, format!("bad {kind:?} payload: {e}"))
}

/// Appends `msg` to `out` as one reply frame.
fn put_message(out: &mut Vec<u8>, namespace: u32, seq: u64, msg: &Message) {
    put_reply(out, msg.kind(), namespace, seq, |out| msg.put_payload(out));
}

/// Appends one reply frame whose payload `put_payload` writes. A reply
/// too large for one frame is answered with a `BatchFailed` error frame
/// instead, whose capped detail always fits.
fn put_reply(
    out: &mut Vec<u8>,
    kind: FrameKind,
    namespace: u32,
    seq: u64,
    put_payload: impl FnOnce(&mut Vec<u8>),
) {
    if let Err(e) = wire::write_frame(out, kind, namespace, seq, put_payload) {
        let too_large = error(
            ErrorCode::BatchFailed,
            format!("the reply does not fit in one frame: {e}"),
        );
        let _always_fits = wire::write_frame(out, FrameKind::Error, namespace, seq, |out| {
            too_large.put_payload(out)
        });
    }
}

/// Joins a running daemon's accept threads.
pub struct ServerHandle {
    daemon: Daemon,
    accept_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Requests shutdown as a wire shutdown frame would: stop, hang up
    /// connections, wake accept loops.
    pub fn shutdown(&self) {
        self.daemon.initiate_shutdown();
    }

    /// Blocks until every accept loop (and its connections) exits.
    pub fn join(self) {
        for t in self.accept_threads {
            let _ = t.join();
        }
    }
}

/// Joins the threads of connections that have ended, so an accept loop
/// holds handles only for live connections and those that ended since its
/// last accept.
fn join_finished(threads: &mut Vec<JoinHandle<()>>) {
    for t in threads.extract_if(.., |t| t.is_finished()) {
        let _ = t.join();
    }
}

/// Sends the encoded replies in `out` with one write and empties it.
fn write_replies<S: Write>(stream: &mut S, out: &mut Vec<u8>) -> Result<(), ()> {
    if out.is_empty() {
        return Ok(());
    }
    let sent = stream.write_all(out).and_then(|()| stream.flush());
    out.clear();
    sent.map_err(|_| ())
}

/// Lock helpers that survive poisoning: a panicking holder's data is
/// still structurally valid here (swaps are pointer writes), and the
/// daemon must keep serving.
fn lock_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn lock_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

fn lock_mutex<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aerorem_core::rem::RemGrid;
    use aerorem_propagation::ap::MacAddress;
    use aerorem_spatial::{Aabb, Vec3};

    fn snapshot_bytes(seedish: u32, dims: (usize, usize, usize)) -> Vec<u8> {
        let grids = (1..=2u32)
            .map(|m| {
                let values = (0..dims.0 * dims.1 * dims.2)
                    .map(|i| -30.0 - (((i as u32 + seedish) * m) as f64 * 0.377).sin() * 35.0)
                    .collect();
                RemGrid::from_parts(
                    MacAddress::from_index(m),
                    Aabb::paper_volume(),
                    dims,
                    values,
                )
                .unwrap()
            })
            .collect();
        RemSnapshot::new(grids).unwrap().to_bytes()
    }

    #[test]
    fn load_assigns_ids_and_hot_swap_bumps_generations() {
        let daemon = Daemon::new(DaemonConfig::default());
        let a = daemon.load("building-a", &snapshot_bytes(0, (6, 5, 4))).unwrap();
        assert_eq!((a.namespace, a.generation), (0, 1));
        let b = daemon.load("building-b", &snapshot_bytes(9, (4, 4, 4))).unwrap();
        assert_eq!((b.namespace, b.generation), (1, 1));
        // Same name again: same id, next generation.
        let a2 = daemon.load("building-a", &snapshot_bytes(7, (6, 5, 4))).unwrap();
        assert_eq!((a2.namespace, a2.generation), (0, 2));
        let listing = daemon.listing();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].name, "building-a");
        assert_eq!(listing[0].generation, 2);
        assert_eq!(listing[1].name, "building-b");
        assert_eq!(listing[1].generation, 1);
    }

    #[test]
    fn bad_loads_leave_the_table_untouched() {
        let daemon = Daemon::new(DaemonConfig::default());
        assert!(matches!(
            daemon.load("x", b"not a snapshot"),
            Err(LoadError::Snapshot(_))
        ));
        // Mismatched grid shapes decode fine but fail store build.
        let mismatched = {
            let g1 = RemGrid::from_parts(
                MacAddress::from_index(1),
                Aabb::paper_volume(),
                (2, 2, 2),
                vec![-40.0; 8],
            )
            .unwrap();
            let g2 = RemGrid::from_parts(
                MacAddress::from_index(2),
                Aabb::paper_volume(),
                (3, 2, 2),
                vec![-40.0; 12],
            )
            .unwrap();
            RemSnapshot::new(vec![g1, g2]).unwrap().to_bytes()
        };
        assert!(matches!(daemon.load("x", &mismatched), Err(LoadError::Store(_))));
        assert!(daemon.listing().is_empty());
    }

    #[test]
    fn answer_reports_unknown_namespaces_and_contains_batch_panics() {
        let daemon = Daemon::new(DaemonConfig::default());
        daemon.load("a", &snapshot_bytes(0, (5, 5, 3))).unwrap();
        let q = [Query::BestAp {
            pos: Vec3::new(1.0, 1.0, 1.0),
        }];
        assert!(daemon.answer(0, &q).is_ok());
        let (code, _) = daemon.answer(3, &q).unwrap_err();
        assert_eq!(code, ErrorCode::UnknownNamespace);

        // Poison the served store through the test hook: the batch fails
        // with a typed code, and the daemon answers the next one fine.
        {
            let slot = lock_read(&daemon.shared.namespaces)[0].clone();
            let mut current = lock_write(&slot.current);
            let mut poisoned = current.store.clone();
            poisoned.panic_mac = Some(MacAddress::from_index(1));
            *current = Arc::new(Generation {
                store: poisoned,
                generation: current.generation,
            });
        }
        let bad = [Query::Point {
            pos: Vec3::new(1.0, 1.0, 1.0),
            ap: MacAddress::from_index(1),
        }];
        let (code, detail) = daemon.answer(0, &bad).unwrap_err();
        assert_eq!(code, ErrorCode::BatchFailed);
        assert!(detail.contains("panicked"));
        assert!(daemon.answer(0, &q).is_ok(), "daemon must survive the panic");
    }

    /// Runs `body` on its own thread and fails if it has not finished
    /// within `secs` seconds, so a daemon that never joins fails the test
    /// instead of hanging the suite.
    fn with_watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        let worker = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(()) => worker.join().expect("test body finished"),
            Err(RecvTimeoutError::Disconnected) => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(RecvTimeoutError::Timeout) => panic!("test body still running after {secs} s"),
        }
    }

    /// Polls the connection registry until it holds `n` entries.
    fn wait_for_registered(daemon: &Daemon, n: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let live = lock_mutex(&daemon.shared.conns).len();
            if live == n {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{live} connections registered, expected {n}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    #[test]
    fn ended_connections_leave_the_registry_and_shutdown_hangs_up_live_ones() {
        with_watchdog(30, || {
            let daemon = Daemon::new(DaemonConfig::default());
            daemon.load("a", &snapshot_bytes(0, (4, 4, 3))).unwrap();
            let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
            let addr = listener.endpoint().trim_start_matches("tcp ").to_string();
            let handle = daemon.start(vec![listener]);
            for _ in 0..64 {
                let mut client = crate::WireClient::connect_tcp(&addr).unwrap();
                assert_eq!(client.list().unwrap().len(), 1);
            }
            wait_for_registered(&daemon, 0);

            // A client that stays connected and idle is still hung up by
            // shutdown, and join returns.
            let mut idle = TcpStream::connect(&addr).unwrap();
            wait_for_registered(&daemon, 1);
            handle.shutdown();
            handle.join();
            let mut byte = [0u8; 1];
            assert!(matches!(idle.read(&mut byte), Ok(0) | Err(_)));
            assert_eq!(lock_mutex(&daemon.shared.conns).len(), 0);
        });
    }

    #[test]
    fn in_flight_generations_outlive_a_hot_swap() {
        let daemon = Daemon::new(DaemonConfig::default());
        daemon.load("a", &snapshot_bytes(0, (6, 5, 4))).unwrap();
        // Simulate an in-flight batch: grab the generation handle, then
        // hot-swap underneath it.
        let held = daemon.generation_of(0).unwrap();
        daemon.load("a", &snapshot_bytes(3, (6, 5, 4))).unwrap();
        assert_eq!(held.generation, 1);
        // The held store still answers (it is not freed by the swap)...
        let q = Query::BestAp {
            pos: Vec3::new(1.0, 1.0, 1.0),
        };
        assert!(held
            .store
            .submit_batch(&[q], ExecPolicy::Serial)
            .is_ok());
        // ...while new batches see the new generation.
        let (generation, _) = daemon.answer(0, &[q]).unwrap();
        assert_eq!(generation, 2);
    }
}
