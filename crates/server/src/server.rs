//! The HTTP query service.
//!
//! Architecture (all std, no external dependencies):
//!
//! * an **accept thread** owns the [`TcpListener`] and hands accepted
//!   sockets to a bounded hand-off queue; when the queue is full the
//!   connection is refused with `503` (counted in
//!   `dita_server_connections_refused_total`, written outside the
//!   queue lock) instead of queueing unboundedly;
//! * a sized pool of **connection threads** parses requests
//!   ([`crate::http`]), prices and submits each query to the shared
//!   [`QueryScheduler`] (shed → `429`, unpriceable → `400`), then waits
//!   on the reply slot while watching the client socket and the
//!   request deadline — both a disconnect and a timeout cancel the
//!   queued query cooperatively via its [`CancelToken`];
//! * one **dispatcher thread** owns the [`Engine`] and drains the
//!   scheduler batch by batch: compatible searches run through
//!   `search_batch`, kNN through `knn_batch`, SQL scripts through
//!   `Engine::execute_batch`, joins and ingest writes per job. Each
//!   dispatched batch runs under a `server-request` span, so the
//!   existing operator spans (`search-batch`, `knn-batch`, `join`,
//!   `ingest`) nest under the service layer in the trace tree.
//!
//! Graceful shutdown ([`Server::shutdown`]) stops accepting, drains
//! in-flight work bounded by [`ServerConfig::drain_deadline`] (a
//! condvar wait notified as requests retire, so drain latency is not
//! quantized to a poll interval), answers anything still queued with
//! `503`, joins every thread and flushes all tables' pending deltas
//! before handing the engine back.
//!
//! Every lock here is a `dita_obs::sync` ordered wrapper with a rank
//! from the CONCURRENCY.md table (`server-engine` < `server-accept-
//! queue` < `server-dispatch-work` < `server-drain` < `server-reply`),
//! so misordered nesting fails fast under debug assertions and
//! contention shows up in `/metrics`.

use crate::http::{Conn, ReadOutcome, Request};
use crate::wire::{self, ErrorBody};
use dita_cluster::{CancelToken, QueryBatch, QueryScheduler, SchedulerConfig, SchedulerCounters};
use dita_core::{join, knn_batch, price_query, search_batch, JoinOptions};
use dita_distance::DistanceFunction;
use dita_obs::json::Value;
use dita_obs::sync::locks;
use dita_obs::{names, Obs, OrderedCondvar, OrderedMutex};
use dita_sql::{Engine, SqlError};
use dita_trajectory::{Point, TrajectoryId};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see [`Server::addr`]).
    pub addr: String,
    /// Connection-serving threads.
    pub http_workers: usize,
    /// Accepted-socket handoff queue; beyond it connections are refused.
    pub accept_backlog: usize,
    /// Admission control bounds, shared by every endpoint.
    pub scheduler: SchedulerConfig,
    /// Per-request deadline when the client sends no
    /// `x-dita-deadline-ms` header.
    pub default_deadline: Duration,
    /// How long [`Server::shutdown`] lets in-flight work finish before
    /// failing the remainder with `503`.
    pub drain_deadline: Duration,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            http_workers: 4,
            accept_backlog: 64,
            scheduler: SchedulerConfig::default(),
            default_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
        }
    }
}

/// Cadence for reply polling, disconnect probing and stop checks.
const POLL: Duration = Duration::from_millis(5);

/// One admitted query, owned by the scheduler until dispatch.
struct Job {
    kind: JobKind,
    reply: Arc<Reply>,
}

enum JobKind {
    Search {
        table: String,
        query: Vec<Point>,
        tau: f64,
        func: DistanceFunction,
    },
    Knn {
        table: String,
        query: Vec<Point>,
        k: usize,
        func: DistanceFunction,
    },
    Join {
        left: String,
        right: String,
        tau: f64,
        func: DistanceFunction,
    },
    Sql {
        statements: Vec<String>,
    },
    Insert {
        table: String,
        rows: Vec<(TrajectoryId, Vec<Point>)>,
    },
    Delete {
        table: String,
        id: TrajectoryId,
    },
    Flush {
        table: String,
    },
    Compact {
        table: String,
    },
}

impl JobKind {
    /// The endpoint this job arrived through (metric label and span tag).
    fn endpoint(&self) -> &'static str {
        match self {
            JobKind::Search { .. } => "/search",
            JobKind::Knn { .. } => "/knn",
            JobKind::Join { .. } => "/join",
            JobKind::Sql { .. } => "/sql",
            JobKind::Insert { .. } => "/insert",
            JobKind::Delete { .. } => "/delete",
            JobKind::Flush { .. } => "/flush",
            JobKind::Compact { .. } => "/compact",
        }
    }
}

/// A one-shot result slot the connection thread waits on. The
/// dispatcher fills it while still holding the engine lock
/// (`server-engine` 10 < `server-reply` 32), which is why the reply
/// slot ranks innermost of the server locks.
struct Reply {
    slot: OrderedMutex<Option<Result<Value, ErrorBody>>>,
    cv: OrderedCondvar,
}

impl Reply {
    fn new(obs: &Obs) -> Reply {
        Reply {
            slot: OrderedMutex::with_obs(&locks::SERVER_REPLY, None, obs),
            cv: OrderedCondvar::new(),
        }
    }

    fn fill(&self, result: Result<Value, ErrorBody>) {
        let mut slot = self.slot.lock();
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Waits up to `step` for the result. Looks at the slot before it
    /// sleeps: a result filled before this call has already spent its
    /// notification.
    fn take(&self, step: Duration) -> Option<Result<Value, ErrorBody>> {
        let slot = self.slot.lock();
        let (mut slot, _) = self
            .cv
            .wait_timeout_while(slot, step, |slot| slot.is_none());
        slot.take()
    }
}

/// Bounded hand-off queue between the accept thread and the worker
/// pool — what the mpsc channel used to be, rebuilt on an ordered
/// mutex + condvar so worker pickup is rank-checked and queue
/// contention is metered like every other lock.
struct AcceptQueue {
    state: OrderedMutex<AcceptState>,
    cv: OrderedCondvar,
}

struct AcceptState {
    streams: VecDeque<TcpStream>,
    capacity: usize,
    /// Set by the accept thread on exit; workers drain then stop.
    closed: bool,
}

impl AcceptQueue {
    fn new(capacity: usize, obs: &Obs) -> AcceptQueue {
        AcceptQueue {
            state: OrderedMutex::with_obs(
                &locks::SERVER_ACCEPT_QUEUE,
                AcceptState {
                    streams: VecDeque::new(),
                    capacity: capacity.max(1),
                    closed: false,
                },
                obs,
            ),
            cv: OrderedCondvar::new(),
        }
    }

    /// Hands a stream to the pool, or returns it when the queue is full
    /// or closed. The caller refuses the returned stream *outside* this
    /// call — writing the 503 under the queue lock would be exactly the
    /// blocking-under-lock hazard rule L7 bans.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock();
        if state.closed || state.streams.len() >= state.capacity {
            return Err(stream);
        }
        state.streams.push_back(stream);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until a stream is available or the queue is closed and
    /// drained (`None` — the worker should exit). The guard is released
    /// before returning, so the caller serves the connection unlocked.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock();
        loop {
            if let Some(stream) = state.streams.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            // Bounded wait: push/close notify, the timeout only bounds
            // the cost of a lost race.
            let (reacquired, _) = self.cv.wait_timeout(state, POLL);
            state = reacquired;
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

struct Shared {
    engine: OrderedMutex<Engine>,
    scheduler: QueryScheduler<Job>,
    accept_queue: AcceptQueue,
    obs: Obs,
    /// No new requests; existing connections close after their response.
    stopping: AtomicBool,
    /// Dispatcher exit flag, set only after the drain window.
    dispatch_stop: AtomicBool,
    /// Test/ops hook: freeze dispatch to observe queue behavior.
    dispatch_paused: AtomicBool,
    inflight: AtomicUsize,
    work_mx: OrderedMutex<()>,
    work_cv: OrderedCondvar,
    /// Shutdown drain rendezvous: [`Server::shutdown`] waits here and
    /// [`Shared::note_drain_progress`] notifies as in-flight requests
    /// retire and batches dispatch.
    drain_mx: OrderedMutex<()>,
    drain_cv: OrderedCondvar,
    default_deadline: Duration,
    max_body_bytes: usize,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    fn wake_dispatcher(&self) {
        let _g = self.work_mx.lock();
        self.work_cv.notify_all();
    }

    /// Wakes the shutdown drain wait after any progress it watches for
    /// (an in-flight request retiring, a batch leaving the queue).
    fn note_drain_progress(&self) {
        let _g = self.drain_mx.lock();
        self.drain_cv.notify_all();
    }
}

/// A running HTTP query service over an embedded [`Engine`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    drain_deadline: Duration,
    accept: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept/worker/dispatcher threads and starts
    /// serving. The engine gets this server's observability context
    /// attached, so `/metrics` exports engine and scheduler state too.
    pub fn start(mut engine: Engine, config: ServerConfig) -> io::Result<Server> {
        let obs = Obs::enabled();
        engine.attach_obs(obs.clone());
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: OrderedMutex::with_obs(&locks::SERVER_ENGINE, engine, &obs),
            scheduler: QueryScheduler::with_obs(config.scheduler, obs.clone()),
            accept_queue: AcceptQueue::new(config.accept_backlog, &obs),
            obs: obs.clone(),
            stopping: AtomicBool::new(false),
            dispatch_stop: AtomicBool::new(false),
            dispatch_paused: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            work_mx: OrderedMutex::with_obs(&locks::SERVER_DISPATCH_WORK, (), &obs),
            work_cv: OrderedCondvar::new(),
            drain_mx: OrderedMutex::with_obs(&locks::SERVER_DRAIN, (), &obs),
            drain_cv: OrderedCondvar::new(),
            default_deadline: config.default_deadline,
            max_body_bytes: config.max_body_bytes,
        });

        let mut workers = Vec::with_capacity(config.http_workers.max(1));
        for i in 0..config.http_workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("dita-http-{i}"))
                    .spawn(move || {
                        while let Some(stream) = shared.accept_queue.pop() {
                            serve_connection(&shared, stream);
                        }
                    })?,
            );
        }

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dita-accept".into())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if shared.stopping() {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        if let Err(stream) = shared.accept_queue.try_push(stream) {
                            refuse(&shared, stream);
                        }
                    }
                    // Closing the queue ends the worker pool once the
                    // backlog drains.
                    shared.accept_queue.close();
                })?
        };

        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dita-dispatch".into())
                .spawn(move || run_dispatcher(&shared))?
        };

        Ok(Server {
            addr,
            shared,
            drain_deadline: config.drain_deadline,
            accept,
            dispatcher,
            workers,
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability context.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Scheduler counters snapshot (admitted/shed/cancelled/...).
    pub fn scheduler_counters(&self) -> SchedulerCounters {
        self.shared.scheduler.counters()
    }

    /// Current admission queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.scheduler.queue_depth()
    }

    /// Requests currently being handled by connection threads.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Freezes the dispatcher (admission keeps running), so queued
    /// state can be observed or overload provoked deterministically.
    pub fn pause_dispatch(&self) {
        self.shared.dispatch_paused.store(true, Ordering::Relaxed);
    }

    /// Undoes [`Server::pause_dispatch`].
    pub fn resume_dispatch(&self) {
        self.shared.dispatch_paused.store(false, Ordering::Relaxed);
        self.shared.wake_dispatcher();
    }

    /// A weak ops handle for pausing/resuming dispatch and reading
    /// counters from another thread — e.g. while this server is being
    /// consumed by [`Server::shutdown`]. Handle methods become no-ops
    /// once the server is gone.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (bounded by the drain deadline), answer the rest with `503`,
    /// join all threads and flush every table's pending deltas.
    /// Returns the engine unless a leaked reference keeps it alive.
    pub fn shutdown(self) -> Option<Engine> {
        let Server {
            addr,
            shared,
            drain_deadline,
            accept,
            dispatcher,
            workers,
        } = self;
        shared.stopping.store(true, Ordering::Relaxed);
        // Unblock the accept loop; the probe connection is discarded.
        let _ = TcpStream::connect(addr);

        // Drain window: let the dispatcher finish what clients are
        // still waiting on. Retiring requests and dispatched batches
        // notify `drain_cv`, so the wait ends the moment the server is
        // idle instead of at the next poll tick. Checking the scheduler
        // depth under the drain lock nests 28 → 40, within rank order.
        {
            let guard = shared.drain_mx.lock();
            let (_guard, _) = shared
                .drain_cv
                .wait_timeout_while(guard, drain_deadline, |()| {
                    shared.inflight.load(Ordering::Relaxed) > 0
                        || shared.scheduler.queue_depth() > 0
                });
        }

        shared.dispatch_stop.store(true, Ordering::Relaxed);
        shared.wake_dispatcher();
        let _ = dispatcher.join();
        // Whatever outlived the drain window is failed loudly, which
        // also releases its connection thread.
        for batch in shared.scheduler.drain() {
            for job in batch.payloads {
                job.reply
                    .fill(Err(ErrorBody::new(503, "server draining; request aborted")));
            }
        }
        let _ = accept.join();
        for w in workers {
            let _ = w.join();
        }

        let shared = Arc::try_unwrap(shared).ok()?;
        let mut engine = shared.engine.into_inner();
        engine.flush_all();
        Some(engine)
    }
}

/// A weak reference to a running server's shared state (see
/// [`Server::handle`]). Safe to hold across shutdown: once the server
/// is gone, mutators are no-ops and readers return `None`/defaults.
#[derive(Clone)]
pub struct ServerHandle {
    shared: std::sync::Weak<Shared>,
}

impl ServerHandle {
    /// See [`Server::pause_dispatch`].
    pub fn pause_dispatch(&self) {
        if let Some(s) = self.shared.upgrade() {
            s.dispatch_paused.store(true, Ordering::Relaxed);
        }
    }

    /// See [`Server::resume_dispatch`].
    pub fn resume_dispatch(&self) {
        if let Some(s) = self.shared.upgrade() {
            s.dispatch_paused.store(false, Ordering::Relaxed);
            s.wake_dispatcher();
        }
    }

    /// See [`Server::queue_depth`]; `0` once the server is gone.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .upgrade()
            .map_or(0, |s| s.scheduler.queue_depth())
    }

    /// See [`Server::scheduler_counters`]; `None` once the server is gone.
    pub fn scheduler_counters(&self) -> Option<SchedulerCounters> {
        self.shared.upgrade().map(|s| s.scheduler.counters())
    }
}

/// Refuses a connection the backlog has no room for.
fn refuse(shared: &Shared, mut stream: TcpStream) {
    shared
        .obs
        .counter(names::SERVER_CONNECTIONS_REFUSED_TOTAL)
        .inc();
    let body = b"{\n  \"error\": \"server connection backlog full\"\n}\n";
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
}

/// Serves one connection until close, error or server stop.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let mut conn = Conn::new(stream, shared.max_body_bytes, POLL);
    loop {
        match conn.read_request(&|| shared.stopping()) {
            Ok(ReadOutcome::Closed) | Err(_) => return,
            Ok(ReadOutcome::Bad(e)) => {
                let body = wire::body_bytes(&ErrorBody::new(e.status(), e.message()).body);
                let _ = conn.write_response(e.status(), "application/json", &body, false);
                return;
            }
            Ok(ReadOutcome::Request(req)) => {
                let keep_alive = !req.wants_close() && !shared.stopping();
                let endpoint = endpoint_label(&req.path);
                let started = Instant::now();
                shared.inflight.fetch_add(1, Ordering::Relaxed);
                shared
                    .obs
                    .gauge(names::SERVER_INFLIGHT_REQUESTS)
                    .set(shared.inflight.load(Ordering::Relaxed) as f64);
                let handled = handle_request(shared, &conn, req);
                let remaining = shared.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
                shared
                    .obs
                    .gauge(names::SERVER_INFLIGHT_REQUESTS)
                    .set(remaining as f64);
                // A retiring request is drain progress shutdown waits on.
                shared.note_drain_progress();
                match handled {
                    Handled::Hangup => return,
                    Handled::Respond {
                        status,
                        content_type,
                        body,
                    } => {
                        let status_text = status.to_string();
                        shared
                            .obs
                            .counter_labeled(
                                names::SERVER_REQUESTS_TOTAL,
                                &[("endpoint", endpoint), ("status", &status_text)],
                            )
                            .inc();
                        shared
                            .obs
                            .histogram_seconds_labeled(
                                names::SERVER_REQUEST_SECONDS,
                                &[("endpoint", endpoint)],
                            )
                            .observe_duration(started.elapsed());
                        if conn
                            .write_response(status, content_type, &body, keep_alive)
                            .is_err()
                            || !keep_alive
                        {
                            return;
                        }
                    }
                }
            }
        }
    }
}

/// Metric label for a request path; unknown paths pool under "other"
/// so clients cannot inflate label cardinality.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/sql" => "/sql",
        "/search" => "/search",
        "/knn" => "/knn",
        "/join" => "/join",
        "/insert" => "/insert",
        "/delete" => "/delete",
        "/flush" => "/flush",
        "/compact" => "/compact",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        _ => "other",
    }
}

enum Handled {
    Respond {
        status: u16,
        content_type: &'static str,
        body: Vec<u8>,
    },
    /// The client went away mid-request; close without writing.
    Hangup,
}

fn respond(status: u16, body: Value) -> Handled {
    Handled::Respond {
        status,
        content_type: "application/json",
        body: wire::body_bytes(&body),
    }
}

fn respond_error(e: ErrorBody) -> Handled {
    respond(e.status, e.body)
}

fn handle_request(shared: &Shared, conn: &Conn, req: Request) -> Handled {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond(200, dita_obs::json::Obj::new().field("ok", &true).build()),
        ("GET", "/metrics") => Handled::Respond {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: shared.obs.report().to_prometheus().into_bytes(),
        },
        ("POST", "/sql")
        | ("POST", "/search")
        | ("POST", "/knn")
        | ("POST", "/join")
        | ("POST", "/insert")
        | ("POST", "/delete")
        | ("POST", "/flush")
        | ("POST", "/compact") => {
            if shared.stopping() {
                return respond_error(ErrorBody::new(503, "server is shutting down"));
            }
            handle_query(shared, conn, &req)
        }
        (_, "/healthz") | (_, "/metrics") => {
            respond_error(ErrorBody::new(405, "use GET on this endpoint"))
        }
        (
            _,
            "/sql" | "/search" | "/knn" | "/join" | "/insert" | "/delete" | "/flush" | "/compact",
        ) => respond_error(ErrorBody::new(405, "use POST on this endpoint")),
        _ => respond_error(ErrorBody::new(404, "no such endpoint")),
    }
}

/// Parses, prices, admits and awaits one query request.
fn handle_query(shared: &Shared, conn: &Conn, req: &Request) -> Handled {
    let deadline = match request_deadline(shared, req) {
        Ok(d) => d,
        Err(e) => return respond_error(e),
    };
    let body = match Value::parse(&String::from_utf8_lossy(&req.body)) {
        Ok(v) => v,
        Err(e) => {
            return respond_error(ErrorBody::new(400, format!("invalid JSON body: {e}")));
        }
    };
    let kind = match parse_job(req.path.as_str(), &body) {
        Ok(kind) => kind,
        Err(e) => return respond_error(e),
    };
    // Pricing needs the engine (table sizes, global index); keep the
    // lock only for this step.
    let (class, cost) = {
        let mut engine = shared.engine.lock();
        match price_and_classify(&mut engine, &kind) {
            Ok(pc) => pc,
            Err(e) => return respond_error(wire::error_of(&e)),
        }
    };

    let reply = Arc::new(Reply::new(&shared.obs));
    let job = Job {
        kind,
        reply: Arc::clone(&reply),
    };
    let token = match shared
        .scheduler
        .submit_with_deadline(class, cost, job, Some(deadline))
    {
        Ok(token) => token,
        Err(admit) => {
            let err = SqlError::from_admit(&admit, shared.scheduler.queue_depth(), cost);
            return respond_error(wire::error_of(&err));
        }
    };
    shared.wake_dispatcher();
    await_reply(shared, conn, &reply, &token, deadline)
}

/// Waits for the dispatcher, watching the deadline and the socket.
fn await_reply(
    shared: &Shared,
    conn: &Conn,
    reply: &Reply,
    token: &CancelToken,
    deadline: Instant,
) -> Handled {
    loop {
        if let Some(result) = reply.take(POLL) {
            return match result {
                Ok(v) => respond(200, v),
                Err(e) => respond_error(e),
            };
        }
        if Instant::now() >= deadline {
            token.cancel();
            shared.wake_dispatcher();
            return respond_error(ErrorBody::new(504, "deadline exceeded; query cancelled"));
        }
        if conn.client_gone() {
            token.cancel();
            shared.wake_dispatcher();
            return Handled::Hangup;
        }
    }
}

/// The request's absolute deadline (header override or server default).
fn request_deadline(shared: &Shared, req: &Request) -> Result<Instant, ErrorBody> {
    match req.header("x-dita-deadline-ms") {
        None => Ok(Instant::now() + shared.default_deadline),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => Ok(Instant::now() + Duration::from_millis(ms)),
            Err(_) => Err(ErrorBody::new(
                400,
                "x-dita-deadline-ms must be an integer millisecond count",
            )),
        },
    }
}

// ---------------------------------------------------------------- parsing

fn bad(msg: impl Into<String>) -> ErrorBody {
    ErrorBody::new(400, msg)
}

/// A finite JSON number. Not through `FromJson for f64`: that reads `null`
/// as 0.0 (the library's own spelling of a non-finite value it wrote), and
/// the number parser turns `1e999` into an infinity — neither is a
/// coordinate or a threshold a client sent.
fn finite(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) if n.is_finite() => Some(*n),
        _ => None,
    }
}

/// The point list `v[key]`; `path` is how error messages name it.
fn parse_points(v: &Value, key: &str, path: &str) -> Result<Vec<Point>, ErrorBody> {
    let raw = match v.get(key) {
        Some(Value::Arr(raw)) if !raw.is_empty() => raw,
        _ => return Err(bad(format!("`{path}` must be a non-empty point list"))),
    };
    let mut points = Vec::with_capacity(raw.len());
    for (i, pair) in raw.iter().enumerate() {
        let xy = match pair {
            Value::Arr(xy) if xy.len() == 2 => xy,
            _ => return Err(bad(format!("`{path}[{i}]` must be a two-element [x, y]"))),
        };
        match (finite(&xy[0]), finite(&xy[1])) {
            (Some(x), Some(y)) => points.push(Point { x, y }),
            _ => return Err(bad(format!("`{path}[{i}]` must hold two finite numbers"))),
        }
    }
    Ok(points)
}

/// The threshold `v["tau"]`: a finite JSON number.
fn parse_tau(v: &Value) -> Result<f64, ErrorBody> {
    v.get("tau")
        .and_then(finite)
        .ok_or_else(|| bad("`tau` must be a finite number"))
}

fn parse_func(v: &Value) -> Result<DistanceFunction, ErrorBody> {
    match v.opt::<String>("func") {
        Ok(None) => Ok(DistanceFunction::Dtw),
        Ok(Some(name)) => DistanceFunction::from_str(&name)
            .map_err(|_| bad(format!("unknown distance function {name:?}"))),
        Err(e) => Err(bad(format!("field `func`: {e}"))),
    }
}

fn req_field<T: dita_obs::json::FromJson>(v: &Value, key: &str) -> Result<T, ErrorBody> {
    v.req(key).map_err(|e| bad(format!("field `{key}`: {e}")))
}

fn parse_job(path: &str, body: &Value) -> Result<JobKind, ErrorBody> {
    match path {
        "/search" => Ok(JobKind::Search {
            table: req_field(body, "table")?,
            query: parse_points(body, "query", "query")?,
            tau: parse_tau(body)?,
            func: parse_func(body)?,
        }),
        "/knn" => {
            let k: f64 = req_field(body, "k")?;
            if !(k.is_finite() && k >= 0.0 && k.fract() == 0.0) {
                return Err(bad("`k` must be a non-negative integer"));
            }
            Ok(JobKind::Knn {
                table: req_field(body, "table")?,
                query: parse_points(body, "query", "query")?,
                k: k as usize,
                func: parse_func(body)?,
            })
        }
        "/join" => Ok(JobKind::Join {
            left: req_field(body, "left")?,
            right: req_field(body, "right")?,
            tau: parse_tau(body)?,
            func: parse_func(body)?,
        }),
        "/sql" => {
            let statements: Vec<String> = match body.get("statements") {
                Some(_) => req_field(body, "statements")?,
                None => vec![req_field(body, "sql")?],
            };
            if statements.is_empty() {
                return Err(bad("`statements` must be non-empty"));
            }
            Ok(JobKind::Sql { statements })
        }
        "/insert" => {
            let rows_raw: Vec<Value> = req_field(body, "rows")?;
            let mut rows = Vec::with_capacity(rows_raw.len());
            for (i, row) in rows_raw.iter().enumerate() {
                let id: TrajectoryId = row
                    .req("id")
                    .map_err(|e| bad(format!("`rows[{i}].id`: {e}")))?;
                let points = parse_points(row, "points", &format!("rows[{i}].points"))?;
                rows.push((id, points));
            }
            if rows.is_empty() {
                return Err(bad("`rows` must be non-empty"));
            }
            Ok(JobKind::Insert {
                table: req_field(body, "table")?,
                rows,
            })
        }
        "/delete" => Ok(JobKind::Delete {
            table: req_field(body, "table")?,
            id: req_field(body, "id")?,
        }),
        "/flush" => Ok(JobKind::Flush {
            table: req_field(body, "table")?,
        }),
        "/compact" => Ok(JobKind::Compact {
            table: req_field(body, "table")?,
        }),
        _ => Err(ErrorBody::new(404, "no such endpoint")),
    }
}

// ---------------------------------------------------------- admission

/// FNV-1a over the job's compatibility descriptor. Jobs in one class
/// are batchable together (same table/function/k or same write
/// stream), and ingest writes to a table share a class so their
/// submission order is their execution order.
fn class_of(descriptor: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in descriptor.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Prices a job for admission and assigns its compatibility class.
/// Search pricing uses the paper's candidate-pair estimate via
/// [`price_query`] (which needs the index, built here on first touch);
/// the rest use structural proxies in the same unit.
fn price_and_classify(engine: &mut Engine, kind: &JobKind) -> Result<(u64, f64), SqlError> {
    match kind {
        JobKind::Search {
            table,
            query,
            tau,
            func,
        } => {
            engine.ensure_index(table)?;
            let cost = match engine.system(table) {
                Some(system) => price_query(system, query, *tau, func, None),
                // No index to price against: a NaN price, which admission
                // control refuses up front.
                None => f64::NAN,
            };
            Ok((class_of(&format!("search:{table}:{func}")), cost))
        }
        JobKind::Knn {
            table,
            query,
            k,
            func,
        } => {
            engine.ensure_index(table)?;
            let n = engine.row_count(table)?;
            Ok((
                class_of(&format!("knn:{table}:{func}:k={k}")),
                (n * query.len()) as f64,
            ))
        }
        JobKind::Join {
            left, right, func, ..
        } => {
            engine.ensure_index(left)?;
            engine.ensure_index(right)?;
            let nl = engine.row_count(left)?;
            let nr = engine.row_count(right)?;
            let cost = (nl as f64) * (nr as f64);
            Ok((class_of(&format!("join:{left}:{right}:{func}")), cost))
        }
        JobKind::Sql { statements } => Ok((class_of("sql"), statements.len() as f64)),
        JobKind::Insert { table, rows } => {
            Ok((class_of(&format!("ingest:{table}")), rows.len() as f64))
        }
        JobKind::Delete { table, .. } | JobKind::Flush { table } | JobKind::Compact { table } => {
            Ok((class_of(&format!("ingest:{table}")), 1.0))
        }
    }
}

// --------------------------------------------------------- dispatcher

fn run_dispatcher(shared: &Shared) {
    loop {
        if shared.dispatch_stop.load(Ordering::Relaxed) {
            return;
        }
        if shared.dispatch_paused.load(Ordering::Relaxed) {
            // Parked on the work condvar; `resume_dispatch` notifies.
            // The POLL bound only re-checks the flag after a lost race.
            let guard = shared.work_mx.lock();
            let _ = shared.work_cv.wait_timeout(guard, POLL);
            continue;
        }
        match shared.scheduler.next_batch() {
            Some(batch) => {
                execute_batch(shared, batch);
                // Queue depth just moved; shutdown may be waiting on it.
                shared.note_drain_progress();
            }
            None => {
                // A submit between `next_batch` and this lock has already
                // notified; its job shows in the queue depth, read under
                // the lock its `wake_dispatcher` takes (`server-dispatch-work`
                // 24 < `scheduler-queue` 40), so no wake-up is lost.
                let guard = shared.work_mx.lock();
                let _ = shared
                    .work_cv
                    .wait_timeout_while(guard, POLL, |()| shared.scheduler.queue_depth() == 0);
            }
        }
    }
}

/// Executes one scheduler batch against the engine. All payloads share
/// a compatibility class, so a batched operator applies when the class
/// is a search or kNN class; everything else runs per job.
fn execute_batch(shared: &Shared, batch: QueryBatch<Job>) {
    let jobs = batch.payloads;
    let Some(first) = jobs.first() else { return };
    let endpoint = first.kind.endpoint();
    let mut engine = shared.engine.lock();
    // The service-layer span: operator spans opened by the engine and
    // the query operators nest under it on this thread.
    let _span = shared.obs.span_labeled(
        names::SPAN_SERVER_REQUEST,
        format!("{endpoint} x{}", jobs.len()),
    );
    match &first.kind {
        JobKind::Search { table, func, .. } => {
            let table = table.clone();
            let func = *func;
            run_search_batch(&engine, &table, func, &jobs);
        }
        JobKind::Knn { table, k, func, .. } => {
            let (table, k, func) = (table.clone(), *k, *func);
            run_knn_batch(&engine, &table, k, func, &jobs);
        }
        JobKind::Sql { .. } => run_sql_batch(&mut engine, &jobs),
        JobKind::Join { .. }
        | JobKind::Insert { .. }
        | JobKind::Delete { .. }
        | JobKind::Flush { .. }
        | JobKind::Compact { .. } => {
            for job in &jobs {
                let result = run_single(&mut engine, &job.kind);
                job.reply.fill(result);
            }
        }
    }
}

fn run_search_batch(engine: &Engine, table: &str, func: DistanceFunction, jobs: &[Job]) {
    let Some(system) = engine.system(table) else {
        fail_all(jobs, &SqlError::UnknownTable { name: table.into() });
        return;
    };
    let mut qs: Vec<&[Point]> = Vec::with_capacity(jobs.len());
    let mut taus: Vec<f64> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let JobKind::Search { query, tau, .. } = &job.kind {
            qs.push(query.as_slice());
            taus.push(*tau);
        }
    }
    if qs.len() != jobs.len() {
        // A mixed batch cannot happen (class hash covers the kind);
        // fail loudly rather than misattributing results.
        fail_all(
            jobs,
            &SqlError::Unsupported {
                message: "mixed search batch".into(),
            },
        );
        return;
    }
    let (results, _) = search_batch(system, &qs, &taus, &func);
    for (job, hits) in jobs.iter().zip(results) {
        job.reply.fill(Ok(wire::hits_value(&hits)));
    }
}

fn run_knn_batch(engine: &Engine, table: &str, k: usize, func: DistanceFunction, jobs: &[Job]) {
    let Some(system) = engine.system(table) else {
        fail_all(jobs, &SqlError::UnknownTable { name: table.into() });
        return;
    };
    let mut qs: Vec<&[Point]> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let JobKind::Knn { query, .. } = &job.kind {
            qs.push(query.as_slice());
        }
    }
    if qs.len() != jobs.len() {
        fail_all(
            jobs,
            &SqlError::Unsupported {
                message: "mixed knn batch".into(),
            },
        );
        return;
    }
    let results = knn_batch(system, &qs, k, &func);
    for (job, (hits, _)) in jobs.iter().zip(results) {
        job.reply.fill(Ok(wire::hits_value(&hits)));
    }
}

/// Runs a batch of SQL scripts as one concatenated `execute_batch`
/// (adjacent compatible searches across requests share trie work); on
/// any error, falls back to per-request execution so one bad script
/// only fails its own request.
fn run_sql_batch(engine: &mut Engine, jobs: &[Job]) {
    let mut all: Vec<&str> = Vec::new();
    let mut counts: Vec<usize> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if let JobKind::Sql { statements } = &job.kind {
            counts.push(statements.len());
            all.extend(statements.iter().map(String::as_str));
        } else {
            counts.push(0);
        }
    }
    match engine.execute_batch(&all) {
        Ok(results) => {
            let mut cursor = results.into_iter();
            for (job, count) in jobs.iter().zip(counts) {
                let chunk: Vec<_> = cursor.by_ref().take(count).collect();
                job.reply.fill(Ok(wire::sql_results_value(&chunk)));
            }
        }
        Err(_) => {
            for job in jobs {
                let result = run_single(engine, &job.kind);
                job.reply.fill(result);
            }
        }
    }
}

/// Executes one non-batchable job.
fn run_single(engine: &mut Engine, kind: &JobKind) -> Result<Value, ErrorBody> {
    let to_err = |e: SqlError| wire::error_of(&e);
    match kind {
        JobKind::Sql { statements } => {
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            let results = engine.execute_batch(&refs).map_err(to_err)?;
            Ok(wire::sql_results_value(&results))
        }
        JobKind::Join {
            left,
            right,
            tau,
            func,
        } => {
            let (Some(lsys), Some(rsys)) = (engine.system(left), engine.system(right)) else {
                let name = if engine.system(left).is_none() {
                    left.clone()
                } else {
                    right.clone()
                };
                return Err(to_err(SqlError::UnknownTable { name }));
            };
            let (pairs, _) = join(lsys, rsys, *tau, func, &JoinOptions::default());
            Ok(wire::pairs_value(&pairs))
        }
        JobKind::Insert { table, rows } => {
            let n = engine.insert_rows(table, rows.clone()).map_err(to_err)?;
            Ok(wire::ack_value(&format!(
                "inserted {n} row(s) into {table}"
            )))
        }
        JobKind::Delete { table, id } => {
            let removed = engine.delete_row(table, *id).map_err(to_err)?;
            Ok(wire::ack_value(&if removed {
                format!("deleted id {id} from {table}")
            } else {
                format!("id {id} not found in {table}")
            }))
        }
        JobKind::Flush { table } => {
            engine.flush(table).map_err(to_err)?;
            Ok(wire::ack_value(&format!("flushed {table}")))
        }
        JobKind::Compact { table } => {
            let compacted = engine.compact(table).map_err(to_err)?;
            Ok(wire::ack_value(&if compacted {
                format!("compacted {table}")
            } else {
                format!("nothing to compact in {table}")
            }))
        }
        JobKind::Search {
            table, query, tau, ..
        } => {
            // Only reachable via the mixed-batch defensive path.
            let _ = (table, query, tau);
            Err(ErrorBody::new(500, "search dispatched outside its batch"))
        }
        JobKind::Knn { table, .. } => {
            let _ = table;
            Err(ErrorBody::new(500, "knn dispatched outside its batch"))
        }
    }
}

fn fail_all(jobs: &[Job], err: &SqlError) {
    for job in jobs {
        job.reply.fill(Err(wire::error_of(err)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 400 message `parse_job` answers `body` with on `path`.
    fn refusal(path: &str, body: &str) -> String {
        let body = Value::parse(body).expect("the test bodies are JSON");
        let err = parse_job(path, &body)
            .err()
            .unwrap_or_else(|| panic!("{path} accepted {body:?}"));
        assert_eq!(err.status, 400);
        match err.body.get("error") {
            Some(Value::Str(message)) => message.clone(),
            other => panic!("no error message: {other:?}"),
        }
    }

    #[test]
    fn null_and_overflowing_numbers_are_not_coordinates() {
        // `null` would decode as 0.0 and `±1e999` as an infinity: none of
        // them is a point a client sent, in either axis, in any position.
        for hole in ["null", "1e999", "-1e999"] {
            for point in [format!("[{hole},39.9]"), format!("[116.4,{hole}]")] {
                for path in ["/search", "/knn"] {
                    let body =
                        format!(r#"{{"table":"t","query":[[116.4,39.9],{point}],"tau":1,"k":1}}"#);
                    let message = refusal(path, &body);
                    assert!(message.contains("`query[1]`"), "{path} {point}: {message}");
                }
                let body = format!(
                    r#"{{"table":"t","rows":[{{"id":1,"points":[[1,2]]}},{{"id":2,"points":[[1,2],[3,4],{point}]}}]}}"#
                );
                let message = refusal("/insert", &body);
                assert!(
                    message.contains("`rows[1].points[2]`"),
                    "{point}: {message}"
                );
            }
        }
    }

    #[test]
    fn a_reply_filled_before_the_wait_is_taken_at_once() {
        // The dispatcher can answer before the connection thread reaches
        // `take`; that notification is spent, so `take` must look at the
        // slot before sleeping. A wait that did sleep would use up the whole
        // step, which is far longer than the bound asserted here.
        let reply = Reply::new(&Obs::disabled());
        reply.fill(Ok(Value::Null));
        let step = Duration::from_secs(20);
        let start = Instant::now();
        assert!(matches!(reply.take(step), Some(Ok(Value::Null))));
        assert!(
            start.elapsed() < step / 4,
            "take slept: {:?}",
            start.elapsed()
        );
        // Nothing left: an empty slot still waits its step out.
        let start = Instant::now();
        assert!(reply.take(POLL).is_none());
        assert!(start.elapsed() >= POLL);
    }

    #[test]
    fn null_and_overflowing_numbers_are_not_thresholds() {
        for hole in ["null", "1e999", "-1e999", "\"3\""] {
            let search = format!(r#"{{"table":"t","query":[[1,2]],"tau":{hole}}}"#);
            assert!(refusal("/search", &search).contains("`tau`"), "{hole}");
            let join = format!(r#"{{"left":"a","right":"b","tau":{hole}}}"#);
            assert!(refusal("/join", &join).contains("`tau`"), "{hole}");
        }
        let missing = r#"{"table":"t","query":[[1,2]]}"#;
        assert!(refusal("/search", missing).contains("`tau`"));
    }

    #[test]
    fn malformed_point_lists_name_the_field() {
        let cases = [
            (r#"{"table":"t","tau":1}"#, "`query`"),
            (r#"{"table":"t","query":[],"tau":1}"#, "`query`"),
            (r#"{"table":"t","query":7,"tau":1}"#, "`query`"),
            (r#"{"table":"t","query":[[1,2],[3]],"tau":1}"#, "`query[1]`"),
            (r#"{"table":"t","query":[[1,2,3]],"tau":1}"#, "`query[0]`"),
            (r#"{"table":"t","query":[5],"tau":1}"#, "`query[0]`"),
            (r#"{"table":"t","query":[["1",2]],"tau":1}"#, "`query[0]`"),
        ];
        for (body, names) in cases {
            let message = refusal("/search", body);
            assert!(message.contains(names), "{body}: {message}");
        }
    }
}
