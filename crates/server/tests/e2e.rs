//! End-to-end tests over real sockets: routing, parity with direct
//! library calls, admission shedding, cooperative cancellation
//! (deadline and client disconnect) and graceful shutdown.

use dita_cluster::{Cluster, ClusterConfig, SchedulerConfig};
use dita_core::{knn_batch, search_batch, DitaConfig};
use dita_distance::DistanceFunction;
use dita_index::{PivotStrategy, TrieConfig};
use dita_obs::json::Value;
use dita_obs::names;
use dita_server::{wire, Server, ServerConfig};
use dita_sql::Engine;
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::Dataset;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn dita_config() -> DitaConfig {
    DitaConfig {
        ng: 2,
        trie: TrieConfig {
            k: 2,
            nl: 2,
            leaf_capacity: 0,
            strategy: PivotStrategy::NeighborDistance,
            cell_side: 2.0,
            ..TrieConfig::default()
        },
    }
}

fn engine() -> Engine {
    let mut e = Engine::new(Cluster::new(ClusterConfig::with_workers(2)), dita_config());
    e.register(
        "taxi",
        Dataset::new("fig1", figure1_trajectories()).unwrap(),
    )
    .unwrap();
    e.register(
        "taxi2",
        Dataset::new("fig1b", figure1_trajectories()).unwrap(),
    )
    .unwrap();
    e
}

fn start(config: ServerConfig) -> Server {
    Server::start(engine(), config).unwrap()
}

/// Minimal blocking HTTP client: one request, full response.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut extra = String::new();
    for (k, v) in headers {
        extra.push_str(&format!("{k}: {v}\r\n"));
    }
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n{extra}connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, Vec<u8>) {
    let text = String::from_utf8_lossy(raw);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head terminator");
    (status, raw[head_end + 4..].to_vec())
}

/// Reads one `Content-Length`-framed response off a keep-alive stream.
fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        raw.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&raw).to_ascii_lowercase();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let head_len = raw.len();
    raw.resize(head_len + len, 0);
    stream.read_exact(&mut raw[head_len..]).unwrap();
    parse_response(&raw)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
    call(addr, "POST", path, body, &[])
}

/// Reads one counter metric's summed value from the server registry.
fn counter_value(server: &Server, name: &str) -> f64 {
    server
        .obs()
        .registry()
        .map(|r| {
            r.snapshot()
                .into_iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        })
        .unwrap_or(0.0)
}

const Q1: &str = "[[1,1],[1,2],[3,2],[4,4],[4,5],[5,5]]";

#[test]
fn routing_health_metrics_and_errors() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    let (status, body) = call(addr, "GET", "/healthz", "", &[]);
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8_lossy(&body).trim(),
        "{\n  \"ok\": true\n}"
    );

    let (status, body) = call(addr, "GET", "/metrics", "", &[]);
    assert_eq!(status, 200);
    let metrics = String::from_utf8_lossy(&body);
    assert!(metrics.contains("dita_server_requests_total"));
    // The ranked-lock layer registers contention series at lock
    // construction, so they are visible (at least at zero) for every
    // `with_obs` lock the server owns.
    assert!(
        metrics.contains("dita_lock_wait_seconds"),
        "lock wait histogram missing"
    );
    assert!(
        metrics.contains("dita_lock_contended_total"),
        "lock contention counter missing"
    );
    assert!(
        metrics.contains("lock=\"server-engine\""),
        "engine lock series missing"
    );

    assert_eq!(call(addr, "GET", "/nope", "", &[]).0, 404);
    assert_eq!(call(addr, "GET", "/search", "", &[]).0, 405);
    assert_eq!(call(addr, "POST", "/healthz", "", &[]).0, 405);
    assert_eq!(post(addr, "/search", "{not json").0, 400);
    assert_eq!(
        post(addr, "/search", "{\"table\": \"taxi\", \"tau\": 1}").0,
        400
    );
    // Unknown table → 404 with the typed message.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"table\": \"ghost\", \"query\": {Q1}, \"tau\": 3}}"),
    );
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("unknown table"));
    // Literal NaN is not JSON → rejected at the parse layer.
    assert_eq!(
        post(
            addr,
            "/search",
            &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": NaN}}"),
        )
        .0,
        400
    );
    // A non-finite threshold (1e999 overflows to ∞) is not a threshold:
    // refused where the request is parsed, naming the field, before it is
    // priced or executed.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 1e999}}"),
    );
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("`tau` must be a finite number"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    server.shutdown().unwrap();
}

#[test]
fn responses_are_byte_identical_to_direct_library_calls() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    // A reference engine built identically answers directly.
    let mut direct = engine();
    direct.ensure_index("taxi").unwrap();
    direct.ensure_index("taxi2").unwrap();

    // /search parity via the shared wire encoder.
    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
    );
    assert_eq!(status, 200);
    let q: Vec<_> = figure1_trajectories()[0].points().to_vec();
    let system = direct.system("taxi").unwrap();
    let (results, _) = search_batch(system, &[q.as_slice()], &[3.0], &DistanceFunction::Dtw);
    let expect = wire::body_bytes(&wire::hits_value(&results[0]));
    assert_eq!(body, expect, "search response must be byte-identical");

    // /knn parity.
    let (status, body) = post(
        addr,
        "/knn",
        &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"k\": 3}}"),
    );
    assert_eq!(status, 200);
    let knn = knn_batch(system, &[q.as_slice()], 3, &DistanceFunction::Dtw);
    let expect = wire::body_bytes(&wire::hits_value(&knn[0].0));
    assert_eq!(body, expect, "knn response must be byte-identical");

    // /search parity under concurrency: four keep-alive clients, 32
    // requests each, so the dispatcher batches across connections; every
    // body is still the direct call's bytes.
    let cases: Vec<(String, Vec<u8>)> = figure1_trajectories()
        .iter()
        .flat_map(|t| [1.0, 3.0].map(|tau| (t.points(), tau)))
        .map(|(q, tau)| {
            let points: Vec<String> = q.iter().map(|p| format!("[{},{}]", p.x, p.y)).collect();
            let body = format!(
                "{{\"table\": \"taxi\", \"query\": [{}], \"tau\": {tau}}}",
                points.join(",")
            );
            let (results, _) = search_batch(system, &[q], &[tau], &DistanceFunction::Dtw);
            (body, wire::body_bytes(&wire::hits_value(&results[0])))
        })
        .collect();
    thread::scope(|scope| {
        for client in 0..4 {
            let cases = &cases;
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for request in 0..32 {
                    let (body, expect) = &cases[(client * 7 + request) % cases.len()];
                    write!(
                        stream,
                        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    let (status, got) = read_response(&mut stream);
                    assert_eq!(status, 200, "client {client} request {request}");
                    assert_eq!(&got, expect, "client {client} request {request}");
                }
            });
        }
    });

    // /join parity.
    let (status, body) = post(
        addr,
        "/join",
        "{\"left\": \"taxi\", \"right\": \"taxi2\", \"tau\": 3}",
    );
    assert_eq!(status, 200);
    let (pairs, _) = dita_core::join(
        direct.system("taxi").unwrap(),
        direct.system("taxi2").unwrap(),
        3.0,
        &DistanceFunction::Dtw,
        &dita_core::JoinOptions::default(),
    );
    let expect = wire::body_bytes(&wire::pairs_value(&pairs));
    assert_eq!(body, expect, "join response must be byte-identical");

    // /sql parity over a mixed script.
    let stmts = [
        "SHOW TABLES",
        "SELECT * FROM taxi WHERE DTW(taxi, TRAJECTORY((1,1),(1,2),(3,2))) <= 3",
    ];
    let body_json = format!(
        "{{\"statements\": [\"{}\", \"{}\"]}}",
        stmts[0],
        stmts[1].replace('"', "\\\"")
    );
    let (status, body) = post(addr, "/sql", &body_json);
    assert_eq!(status, 200);
    let results = direct.execute_batch(&stmts).unwrap();
    let expect = wire::body_bytes(&wire::sql_results_value(&results));
    assert_eq!(body, expect, "sql response must be byte-identical");

    server.shutdown().unwrap();
}

#[test]
fn ingest_write_path_flows_through_http() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    let (status, body) = post(
        addr,
        "/insert",
        "{\"table\": \"taxi\", \"rows\": [{\"id\": 9, \"points\": [[50,50],[51,51]]}]}",
    );
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("inserted 1 row(s) into taxi"));

    // The write is visible to a search through the same server.
    let (status, body) = post(
        addr,
        "/search",
        "{\"table\": \"taxi\", \"query\": [[50,50],[51,51]], \"tau\": 0}",
    );
    assert_eq!(status, 200);
    let v = Value::parse(&String::from_utf8_lossy(&body)).unwrap();
    let hits = match v.get("hits") {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{other:?}"),
    };
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].get("id"), Some(&Value::Num(9.0)));

    assert_eq!(post(addr, "/flush", "{\"table\": \"taxi\"}").0, 200);
    assert_eq!(post(addr, "/compact", "{\"table\": \"taxi\"}").0, 200);
    let (status, body) = post(addr, "/delete", "{\"table\": \"taxi\", \"id\": 9}");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("deleted id 9 from taxi"));

    // Finite-coordinate validation surfaces as 400.
    let (status, _) = post(
        addr,
        "/insert",
        "{\"table\": \"taxi\", \"rows\": [{\"id\": 10, \"points\": [[NaN,0]]}]}",
    );
    assert_eq!(status, 400);
    // `null` is not a coordinate either (it used to be stored as x = 0):
    // a 400 naming the point, and nothing reaches the table.
    let (status, body) = post(
        addr,
        "/insert",
        "{\"table\": \"taxi\", \"rows\": [{\"id\": 11, \"points\": [[null,39.9],[116.4,39.9]]}]}",
    );
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("`rows[0].points[0]`"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    let engine = server.shutdown().unwrap();
    assert_eq!(
        engine.row_count("taxi").unwrap(),
        figure1_trajectories().len(),
        "id 9 came and went; ids 10 and 11 were never stored"
    );
}

#[test]
fn overload_sheds_with_429_and_bounded_depth() {
    // More connection threads than queue slots, so the overflowing
    // request still finds a free worker while four sit waiting.
    let server = start(ServerConfig {
        http_workers: 8,
        scheduler: SchedulerConfig {
            queue_capacity: 4,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    server.pause_dispatch();

    // Fill the queue with waiting clients, then overflow it.
    let mut waiting = Vec::new();
    for _ in 0..4 {
        let h = thread::spawn(move || {
            post(
                addr,
                "/search",
                &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
            )
        });
        waiting.push(h);
    }
    let t0 = Instant::now();
    while server.queue_depth() < 4 && t0.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queue_depth(), 4);

    let (status, body) = post(
        addr,
        "/search",
        &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
    );
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    let v = Value::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(v.get("queue_depth"), Some(&Value::Num(4.0)));
    assert_eq!(v.get("retryable"), Some(&Value::Bool(true)));
    assert!(server.queue_depth() <= 4, "depth stays bounded");

    server.resume_dispatch();
    for h in waiting {
        let (status, _) = h.join().unwrap();
        assert_eq!(status, 200);
    }
    let counters = server.scheduler_counters();
    assert!(counters.shed >= 1);
    assert!(counter_value(&server, names::QUERIES_SHED_TOTAL) >= 1.0);
    server.shutdown().unwrap();
}

#[test]
fn deadline_exceeded_cancels_and_counts() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    server.pause_dispatch();

    let (status, body) = call(
        addr,
        "POST",
        "/search",
        &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
        &[("x-dita-deadline-ms", "60")],
    );
    assert_eq!(status, 504, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("deadline exceeded"));

    // The entry is reaped (counted cancelled or expired) once dispatch
    // touches its class again.
    server.resume_dispatch();
    let t0 = Instant::now();
    let counters = loop {
        let c = server.scheduler_counters();
        if c.cancelled + c.expired >= 1 || t0.elapsed() > Duration::from_secs(5) {
            break c;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert!(
        counters.cancelled + counters.expired >= 1,
        "timed-out query must be reaped: {counters:?}"
    );
    assert_eq!(
        counters.admitted,
        counters.dispatched + counters.cancelled + counters.expired,
        "scheduler invariant: {counters:?}"
    );
    assert!(
        counter_value(&server, names::QUERIES_CANCELLED_TOTAL) >= 1.0,
        "cancellations must be visible on the wire metric"
    );
    server.shutdown().unwrap();
}

#[test]
fn client_disconnect_cancels_queued_query() {
    let server = start(ServerConfig::default());
    let addr = server.addr();
    server.pause_dispatch();

    // Send a request, then hang up before the answer.
    let body = format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}");
    let mut stream = TcpStream::connect(addr).unwrap();
    let req = format!(
        "POST /search HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let t0 = Instant::now();
    while server.queue_depth() < 1 && t0.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queue_depth(), 1);
    drop(stream);

    // The connection thread notices the hangup at its poll cadence and
    // cancels the token; give it a few poll periods, then let dispatch
    // reap the entry instead of running it.
    let t0 = Instant::now();
    while server.inflight() > 0 && t0.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        server.inflight(),
        0,
        "worker must abandon the hung-up request"
    );
    server.resume_dispatch();
    let t0 = Instant::now();
    let counters = loop {
        let c = server.scheduler_counters();
        if c.cancelled >= 1 || t0.elapsed() > Duration::from_secs(5) {
            break c;
        }
        thread::sleep(Duration::from_millis(5));
    };
    assert!(
        counters.cancelled >= 1,
        "disconnect must cancel the queued query: {counters:?}"
    );
    assert_eq!(counters.dispatched, 0, "cancelled query must not run");
    assert_eq!(
        counters.admitted,
        counters.dispatched + counters.cancelled + counters.expired
    );
    assert!(counter_value(&server, names::QUERIES_CANCELLED_TOTAL) >= 1.0);
    server.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_query_and_flushes() {
    let server = start(ServerConfig {
        drain_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let handle = server.handle();

    // Park a query in the queue, start shutdown, then let dispatch
    // resume *while the server is draining*: the in-flight request
    // must complete with 200, not be dropped.
    server.pause_dispatch();
    let client = thread::spawn(move || {
        post(
            addr,
            "/search",
            &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
        )
    });
    let t0 = Instant::now();
    while server.queue_depth() < 1 && t0.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queue_depth(), 1);
    let resumer = thread::spawn(move || {
        thread::sleep(Duration::from_millis(100));
        handle.resume_dispatch();
    });
    let engine = server.shutdown().expect("engine returned after shutdown");
    resumer.join().unwrap();
    let (status, _) = client.join().unwrap();
    assert_eq!(status, 200, "draining shutdown must answer in-flight work");
    // Shutdown flushed every table: no pending deltas anywhere.
    for table in ["taxi", "taxi2"] {
        if let Some(sys) = engine.system(table) {
            assert!(!sys.deltas().has_deltas(), "{table} must be flushed");
        }
    }
}

#[test]
fn shutdown_drain_deadline_fails_stragglers_with_503() {
    let server = start(ServerConfig {
        drain_deadline: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    server.pause_dispatch();

    // A queued query with a long client deadline outlives the drain
    // window (dispatch stays paused), so shutdown must fail it loudly.
    let client = thread::spawn(move || {
        call(
            addr,
            "POST",
            "/search",
            &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
            &[("x-dita-deadline-ms", "60000")],
        )
    });
    let t0 = Instant::now();
    while server.queue_depth() < 1 && t0.elapsed() < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.queue_depth(), 1);
    server.shutdown().unwrap();
    let (status, body) = client.join().unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("draining"));
}

#[test]
fn new_requests_after_stop_get_503_and_inserts_survive_shutdown_flush() {
    // Writes acknowledged before shutdown are in the returned engine,
    // flushed (satellite: flush-on-shutdown).
    let server = start(ServerConfig::default());
    let addr = server.addr();
    // Build the index first so the insert lands in the delta path.
    assert_eq!(
        post(
            addr,
            "/sql",
            "{\"sql\": \"CREATE INDEX i ON taxi USE TRIE\"}"
        )
        .0,
        200
    );
    assert_eq!(
        post(
            addr,
            "/insert",
            "{\"table\": \"taxi\", \"rows\": [{\"id\": 77, \"points\": [[9,9]]}]}",
        )
        .0,
        200
    );
    let engine = server.shutdown().expect("engine returned");
    let sys = engine.system("taxi").expect("index kept");
    assert!(
        !sys.deltas().has_deltas(),
        "shutdown must flush pending deltas"
    );
    let live: Vec<u64> = engine
        .snapshot("taxi")
        .unwrap()
        .trajectories()
        .iter()
        .map(|t| t.id)
        .collect();
    assert!(live.contains(&77), "acknowledged insert must survive");
}

/// `Threads:` of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// [`process_threads`] once it reads `expect`, or whatever it reads after
/// five seconds: a joined thread leaves the kernel's count a moment after
/// `join` returns.
#[cfg(target_os = "linux")]
fn settled_threads(expect: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = process_threads();
        if n == expect || Instant::now() > deadline {
            return n;
        }
        thread::yield_now();
    }
}

#[test]
#[cfg(target_os = "linux")]
fn shutdown_and_engine_drop_leave_no_thread_behind() {
    // "Every thread joins" includes the cluster's long-lived workers,
    // which belong to the engine, not the server. The count is the
    // process's, so it only means something while no other test runs:
    // re-run this test alone in a child process unless the harness is
    // already serial.
    const NAME: &str = "shutdown_and_engine_drop_leave_no_thread_behind";
    if !std::env::args().any(|a| a == "--test-threads=1") {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([NAME, "--test-threads=1"])
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "{stdout}\n{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let before = process_threads();
    // `engine()` starts the two cluster workers, `Server::start` the
    // accept thread, the dispatcher and the connection workers.
    let server = start(ServerConfig::default());
    let addr = server.addr();
    assert!(process_threads() > before + 2);
    // Put all of them to work once: an indexed search is a cluster job.
    assert_eq!(
        post(
            addr,
            "/sql",
            "{\"sql\": \"CREATE INDEX i ON taxi USE TRIE\"}"
        )
        .0,
        200
    );
    assert_eq!(
        post(
            addr,
            "/search",
            &format!("{{\"table\": \"taxi\", \"query\": {Q1}, \"tau\": 3}}"),
        )
        .0,
        200
    );
    let engine = server.shutdown().expect("engine returned");
    assert_eq!(
        settled_threads(before + 2),
        before + 2,
        "a drained server keeps nothing but its engine's cluster workers"
    );
    drop(engine);
    assert_eq!(
        settled_threads(before),
        before,
        "cluster workers not joined"
    );
}
