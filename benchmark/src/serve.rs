//! `serve_mixed`: `search_filter`'s table, queries and threshold through
//! `dita_server` over real sockets, with SQL batches, kNN and writes beside
//! the reads.
//!
//! Two closed-loop clients, one keep-alive connection each, replay a
//! ten-request cycle: 8 reads (`/search`; one `/knn` every sixteenth cycle),
//! 1 `/sql` carrying [`spec::SERVE_SQL_BATCH`] statements, 1 write. Each
//! client holds [`spec::SERVE_LIVE_PER_CLIENT`] rows of its own live (they
//! are written before the first round), so its writes alternate `/insert`
//! of a jittered copy of a stored row with `/delete` of its oldest. A
//! stretch is [`spec::SERVE_CYCLES_PER_STRETCH`] cycles of every client;
//! client 0 also runs the flush policy: `/flush` after every
//! [`spec::SERVE_FLUSH_EVERY`] of its cycles and `/compact` at the end of
//! the stretch. A round is a fixed number of stretches, so every round
//! sends the same requests and runs the same number of compactions.

use crate::harness::{
    cycles_per_round, peak_rss_mib, OpSample, Reading, Report, Round, RoundClock,
};
use crate::layers::{jittered_rows, publish, select_sql};
use crate::library::{check_against_scans, close, cluster, inputs, scaled, DTW};
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;
use dita_core::{search, DitaConfig, DitaSystem};
use dita_obs::json::Value;
use dita_server::{wire, Server, ServerConfig};
use dita_sql::Engine;
use dita_trajectory::{Dataset, Point, Trajectory, TrajectoryId};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const TABLE: &str = "taxi";
const TAU: f64 = spec::SERVE_TAU;

/// One answer: `(id, distance)` pairs.
type Hits = Vec<(TrajectoryId, f64)>;

/// The request kinds, which are also the span names of a traced round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Search,
    Knn,
    Sql,
    Insert,
    Delete,
    Flush,
    Compact,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Search,
        Kind::Knn,
        Kind::Sql,
        Kind::Insert,
        Kind::Delete,
        Kind::Flush,
        Kind::Compact,
    ];

    /// The per-layer metric that carries this endpoint's median latency.
    fn p50_metric(self) -> Option<&'static str> {
        match self {
            Kind::Search => Some("server.search_p50_ms"),
            Kind::Knn => Some("server.knn_p50_ms"),
            Kind::Sql => Some("server.sql_p50_ms"),
            Kind::Insert => Some("server.insert_p50_ms"),
            Kind::Delete => None,
            Kind::Flush => Some("server.flush_p50_ms"),
            Kind::Compact => Some("server.compact_p50_ms"),
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Search => "/search",
            Kind::Knn => "/knn",
            Kind::Sql => "/sql",
            Kind::Insert => "/insert",
            Kind::Delete => "/delete",
            Kind::Flush => "/flush",
            Kind::Compact => "/compact",
        }
    }

    fn limit_ms(self) -> f64 {
        match self {
            Kind::Search => spec::SERVE_LIMIT_SEARCH_MS,
            Kind::Knn => spec::SERVE_LIMIT_KNN_MS,
            Kind::Sql => spec::SERVE_LIMIT_SQL_MS,
            Kind::Insert | Kind::Delete | Kind::Flush => spec::SERVE_LIMIT_WRITE_MS,
            Kind::Compact => spec::SERVE_LIMIT_COMPACT_MS,
        }
    }
}

/// A blocking keep-alive HTTP/1.1 client over one `TcpStream`.
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// One request on the persistent connection; `(status, body)`.
    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(req.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed before the response head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status in the response head"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length in the response head"))?;
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed inside the response body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok((status, body))
    }
}

/// The request bodies, made once from the seed.
struct Requests {
    search: Vec<String>,
    knn: Vec<String>,
    /// `sql[i]` carries the statements of queries `i .. i + SERVE_SQL_BATCH`.
    sql: Vec<String>,
    /// The `"points"` JSON of each row of the write pool.
    write_points: Vec<String>,
    flush_every: usize,
    cycles_per_stretch: usize,
}

fn points_json(points: &[Point]) -> String {
    let pts: Vec<String> = points
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    format!("[{}]", pts.join(","))
}

impl Requests {
    fn new(queries: &[Trajectory], pool: &[Trajectory], scale: f64) -> Requests {
        let nq = queries.len();
        Requests {
            search: queries
                .iter()
                .map(|q| {
                    format!(
                        "{{\"table\": \"{TABLE}\", \"query\": {}, \"tau\": {}}}",
                        points_json(q.points()),
                        TAU
                    )
                })
                .collect(),
            knn: queries
                .iter()
                .map(|q| {
                    format!(
                        "{{\"table\": \"{TABLE}\", \"query\": {}, \"k\": {}}}",
                        points_json(q.points()),
                        spec::SERVE_KNN_K
                    )
                })
                .collect(),
            sql: (0..nq)
                .map(|i| {
                    let stmts: Vec<String> = (0..spec::SERVE_SQL_BATCH)
                        .map(|k| {
                            let q = queries[(i + k) % nq].points();
                            format!("\"{}\"", select_sql(TABLE, q, TAU))
                        })
                        .collect();
                    format!("{{\"statements\": [{}]}}", stmts.join(", "))
                })
                .collect(),
            write_points: pool.iter().map(|t| points_json(t.points())).collect(),
            flush_every: scaled(spec::SERVE_FLUSH_EVERY, scale, 4),
            cycles_per_stretch: scaled(spec::SERVE_CYCLES_PER_STRETCH, scale, 16),
        }
    }
}

/// The id of the `k`th row client `client` inserts in round `round`.
/// Rounds differ in the ids they write and in nothing else: the id carries
/// `k`, and `k` alone picks the row of the write pool, so every round
/// writes the same trajectories in the same order.
fn insert_id(client: u64, round: u64, k: u64) -> TrajectoryId {
    assert!(k < 1 << 16 && round < 1 << 16, "id fields overflow");
    spec::SERVE_INSERT_BASE + (client << 32) + (round << 16) + k
}

/// Which row of the write pool a benchmark-inserted id carries.
fn pool_index(id: TrajectoryId, pool_len: usize) -> usize {
    let x = id - spec::SERVE_INSERT_BASE;
    let (client, k) = (x >> 32, x & 0xFFFF);
    ((k * spec::CLIENTS as u64 + client) as usize) % pool_len
}

/// What stays of a request once its answer has been checked.
struct Seen {
    kind: Kind,
    latency_ms: f64,
    bytes_in: usize,
    bytes_out: usize,
}

/// One answered request, kept for checking after the round.
struct Rec {
    kind: Kind,
    /// Query index (reads) or row id (writes).
    arg: u64,
    status: u16,
    body: Vec<u8>,
    sent_bytes: usize,
    latency_ms: f64,
}

/// One closed-loop client and the rows it has written.
struct Client {
    id: u64,
    http: HttpClient,
    /// The round being sent, and the cycles, reads, writes and inserts sent
    /// since it began; they pick the next request, so every round replays
    /// the same list.
    round: u64,
    cycles: u64,
    reads: u64,
    writes: u64,
    inserted: u64,
    live: VecDeque<TrajectoryId>,
    log: Vec<Rec>,
    tracer: Tracer,
}

impl Client {
    fn connect(id: u64, addr: SocketAddr) -> std::io::Result<Client> {
        Ok(Client {
            id,
            http: HttpClient::connect(addr)?,
            round: 0,
            cycles: 0,
            reads: 0,
            writes: 0,
            inserted: 0,
            live: VecDeque::new(),
            log: Vec::new(),
            tracer: Tracer::off(),
        })
    }

    fn begin_round(&mut self) {
        self.round += 1;
        (self.cycles, self.reads, self.writes, self.inserted) = (0, 0, 0, 0);
    }

    fn request(&mut self, kind: Kind, arg: u64, body: &str) -> std::io::Result<()> {
        let op = (self.id << 40) | self.log.len() as u64;
        let span = self.tracer.enter(kind.path(), op);
        let t0 = Instant::now();
        let (status, answer) = self.http.send("POST", kind.path(), body)?;
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tracer.exit(span);
        self.log.push(Rec {
            kind,
            arg,
            status,
            body: answer,
            sent_bytes: body.len(),
            latency_ms,
        });
        Ok(())
    }

    /// The ten-request cycle: eight reads, one `/sql`, one write. The
    /// eighth read is a `/knn` in every [`spec::SERVE_KNN_EVERY`]th cycle.
    fn cycle(&mut self, rq: &Requests) -> std::io::Result<()> {
        let nq = rq.search.len() as u64;
        self.cycles += 1;
        for position in 0..10 {
            if position == 9 {
                self.write(rq)?;
                continue;
            }
            // Clients start half the query list apart.
            let qi = (self.reads + self.id * nq / spec::CLIENTS as u64) % nq;
            self.reads += 1;
            match position {
                7 if self.cycles.is_multiple_of(spec::SERVE_KNN_EVERY) => {
                    self.request(Kind::Knn, qi, &rq.knn[qi as usize])?
                }
                8 => self.request(Kind::Sql, qi, &rq.sql[qi as usize])?,
                _ => self.request(Kind::Search, qi, &rq.search[qi as usize])?,
            }
        }
        Ok(())
    }

    fn row_json(&mut self, rq: &Requests) -> String {
        let id = insert_id(self.id, self.round, self.inserted);
        self.inserted += 1;
        self.live.push_back(id);
        let points = &rq.write_points[pool_index(id, rq.write_points.len())];
        format!("{{\"id\": {id}, \"points\": {points}}}")
    }

    /// Writes this client's live rows in one `/insert`, before any round.
    fn prefill(&mut self, rq: &Requests) -> std::io::Result<()> {
        let rows: Vec<String> = (0..spec::SERVE_LIVE_PER_CLIENT)
            .map(|_| self.row_json(rq))
            .collect();
        let body = format!(
            "{{\"table\": \"{TABLE}\", \"rows\": [{}]}}",
            rows.join(", ")
        );
        self.request(Kind::Insert, 0, &body)
    }

    /// Odd writes of a round insert a row, even ones delete the oldest.
    fn write(&mut self, rq: &Requests) -> std::io::Result<()> {
        self.writes += 1;
        if self.writes.is_multiple_of(2) {
            let id = self.live.pop_front().expect("live rows were prefilled");
            let body = format!("{{\"table\": \"{TABLE}\", \"id\": {id}}}");
            return self.request(Kind::Delete, id, &body);
        }
        let row = self.row_json(rq);
        let id = *self.live.back().expect("a row was just queued");
        let body = format!("{{\"table\": \"{TABLE}\", \"rows\": [{row}]}}");
        self.request(Kind::Insert, id, &body)
    }

    /// One stretch of `cycles` cycles. Client 0 runs the flush policy
    /// beside its cycles and ends the stretch with a compaction.
    fn stretch(&mut self, rq: &Requests, cycles: usize) -> std::io::Result<()> {
        let table = format!("{{\"table\": \"{TABLE}\"}}");
        for c in 1..=cycles {
            self.cycle(rq)?;
            if self.id == 0 && c % rq.flush_every == 0 {
                self.request(Kind::Flush, 0, &table)?;
            }
        }
        if self.id == 0 {
            self.request(Kind::Compact, 0, &table)?;
        }
        Ok(())
    }
}

/// What the checks of a round need to know.
struct Truth<'a> {
    rows: &'a [Trajectory],
    queries: &'a [Trajectory],
    pool: &'a [Trajectory],
    /// The base table's answer to each query (no writes applied).
    expected: &'a [Hits],
}

impl Truth<'_> {
    fn points_of(&self, id: TrajectoryId) -> Option<&[Point]> {
        if id >= spec::SERVE_INSERT_BASE {
            Some(self.pool[pool_index(id, self.pool.len())].points())
        } else {
            self.rows.get(id as usize).map(|t| t.points())
        }
    }

    /// `{"hits": [{"id", "distance"}, ...]}` as `(id, distance)` pairs.
    fn hits_of(v: &Value) -> Option<Hits> {
        let hits: Vec<Value> = v.req("hits").ok()?;
        hits.iter()
            .map(|h| Some((h.req::<u64>("id").ok()?, h.req::<f64>("distance").ok()?)))
            .collect()
    }

    /// A threshold answer read while writes race it: every hit really is
    /// within tau, every base-table hit is there, and anything else is a
    /// benchmark-inserted row.
    fn search_holds(&self, qi: usize, hits: &[(TrajectoryId, f64)]) -> bool {
        let q = self.queries[qi].points();
        let tau = TAU;
        let real = hits.iter().all(|&(id, d)| {
            self.points_of(id)
                .and_then(|t| DTW.verify(t, q, tau * (1.0 + 1e-9)))
                .is_some_and(|x| close(x, d))
        });
        let base_present = self.expected[qi]
            .iter()
            .all(|&(id, d)| hits.iter().any(|&(h, x)| h == id && close(x, d)));
        let extras_are_ours = hits.iter().all(|&(id, _)| {
            id >= spec::SERVE_INSERT_BASE || self.expected[qi].iter().any(|&(e, _)| e == id)
        });
        real && base_present && extras_are_ours
    }

    /// A kNN answer under the same race: k hits, nearest first, each
    /// distance the true one.
    fn knn_holds(&self, qi: usize, hits: &[(TrajectoryId, f64)]) -> bool {
        let q = self.queries[qi].points();
        hits.len() == spec::SERVE_KNN_K.min(self.rows.len())
            && hits.windows(2).all(|w| w[0].1 <= w[1].1)
            && hits.iter().all(|&(id, d)| {
                self.points_of(id)
                    .is_some_and(|t| close(DTW.distance(t, q), d))
            })
    }

    fn holds(&self, r: &Rec) -> bool {
        if r.status != 200 {
            return false;
        }
        let Ok(v) = Value::parse(&String::from_utf8_lossy(&r.body)) else {
            return false;
        };
        let qi = r.arg as usize;
        match r.kind {
            Kind::Search => Self::hits_of(&v).is_some_and(|h| self.search_holds(qi, &h)),
            Kind::Knn => Self::hits_of(&v).is_some_and(|h| self.knn_holds(qi, &h)),
            Kind::Sql => {
                let Ok(results) = v.req::<Vec<Value>>("results") else {
                    return false;
                };
                results.len() == spec::SERVE_SQL_BATCH
                    && results.iter().enumerate().all(|(k, res)| {
                        Self::hits_of(res)
                            .is_some_and(|h| self.search_holds((qi + k) % self.queries.len(), &h))
                    })
            }
            Kind::Insert | Kind::Delete | Kind::Flush | Kind::Compact => v.get("ack").is_some(),
        }
    }
}

/// Runs one round: every client sends `stretches` stretches of `cycles`
/// cycles, each on a thread of its own; the round ends when the last is
/// done. Every answer is checked after the clocks stop.
fn run_round(
    clients: &mut [Client],
    rq: &Requests,
    truth: &Truth<'_>,
    stretches: usize,
    cycles: usize,
    seen: &mut Vec<Seen>,
) -> std::io::Result<Round> {
    for c in clients.iter_mut() {
        c.begin_round();
    }
    let clock = RoundClock::start();
    let outcome: std::io::Result<()> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || (0..stretches).try_for_each(|_| c.stretch(rq, cycles))))
            .collect();
        // Every client is waited for, whichever failed first.
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .fold(Ok(()), Result::and)
    });
    let mut round = clock.stop(Round::default());
    outcome?;
    for c in clients.iter_mut() {
        for r in c.log.drain(..) {
            round.push(&OpSample {
                latency_ms: r.latency_ms,
                correct: truth.holds(&r),
                limit_ms: r.kind.limit_ms(),
                in_latency: r.kind == Kind::Search,
                makespan_ms: None,
            });
            seen.push(Seen {
                kind: r.kind,
                latency_ms: r.latency_ms,
                bytes_in: r.sent_bytes,
                bytes_out: r.body.len(),
            });
        }
    }
    Ok(round)
}

/// Set-up as a service pays it: table in memory to listening server.
/// `Engine::register` takes its table by value; the copy it is given is
/// made before the clock starts.
fn set_up(data: &Dataset) -> std::io::Result<(Server, f64)> {
    let table = data.clone();
    let t0 = Instant::now();
    let mut engine = Engine::new(cluster(), DitaConfig::default());
    engine.register(TABLE, table).expect("fresh catalog");
    engine.ensure_index(TABLE).expect("registered table");
    let server = Server::start(
        engine,
        ServerConfig {
            http_workers: spec::HTTP_WORKERS,
            ..ServerConfig::default()
        },
    )?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// The served table's answer to every query, asked of the server itself
/// before anything is written (the clients share the queries between them).
fn base_answers(clients: &mut [Client], rq: &Requests) -> std::io::Result<Vec<Hits>> {
    let n = clients.len();
    let bad = |i: usize| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("/search of query {i} on the unwritten table was not answered with hits"),
        )
    };
    let shares: Vec<Vec<(usize, Hits)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    (c..rq.search.len())
                        .step_by(n)
                        .map(|i| {
                            let (status, body) =
                                client.http.send("POST", "/search", &rq.search[i])?;
                            Value::parse(&String::from_utf8_lossy(&body))
                                .ok()
                                .filter(|_| status == 200)
                                .and_then(|v| Truth::hits_of(&v))
                                .map(|hits| (i, hits))
                                .ok_or_else(|| bad(i))
                        })
                        .collect::<std::io::Result<Vec<_>>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let mut answers = vec![Vec::new(); rq.search.len()];
    for (i, hits) in shares.into_iter().flatten() {
        answers[i] = hits;
    }
    Ok(answers)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> std::io::Result<Report> {
    let mut report = Report::new();
    let (data, queries) = inputs(
        dita_datagen::beijing_like,
        spec::SERVE_ROWS,
        spec::SERVE_QUERIES,
        args,
    );
    let rows = data.trajectories();
    let pool = jittered_rows(
        rows,
        spec::SERVE_WRITE_POOL,
        spec::SERVE_INSERT_BASE,
        TAU,
        args.seed,
    );
    let rq = Requests::new(&queries, &pool, args.scale);
    let stretches = cycles_per_round(
        spec::SERVE_STRETCHES_PER_ROUND,
        args.seconds,
        rq.cycles_per_stretch * 8,
    );
    report.note(format!(
        "table: {:?}; {} queries; tau {TAU}; round = {stretches} stretch(es) of {} cycles by each of {} clients; client 0 flushes every {} cycles and compacts after each stretch",
        data.stats(),
        queries.len(),
        rq.cycles_per_stretch,
        spec::CLIENTS,
        rq.flush_every
    ));

    let connect = |server: &Server| {
        (0..spec::CLIENTS as u64)
            .map(|id| Client::connect(id, server.addr()))
            .collect::<std::io::Result<Vec<Client>>>()
    };
    let mut setup_s = Vec::new();

    // The unwritten table's answers, from the server itself (the run holds
    // no second index while it measures), a sample of them checked against
    // a brute-force scan.
    let (server, secs) = set_up(&data)?;
    setup_s.push(secs);
    let mut clients = connect(&server)?;
    let expected = base_answers(&mut clients, &rq)?;
    check_against_scans(rows, &queries, TAU, &expected, &mut report);
    let truth = Truth {
        rows,
        queries: &queries,
        pool: &pool,
        expected: &expected,
    };

    // A round: each client writes the rows it holds live, a short stretch
    // of the mixed cycle as warm-up (its compaction folds those rows in),
    // then the measured stretches. The first round runs on the server that
    // gave the answers above and peak memory is read when it ends; each
    // later round runs on a server of its own, for the reason given at
    // `library::measure`. A traced run makes an untraced and a traced round
    // on the first server.
    let epoch = Instant::now();
    let cycles = rq.cycles_per_stretch;
    let mut seen = Vec::new();
    let mut rounds = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut last = (server, clients);
    for r in 0..if args.traced { 1 } else { spec::ROUNDS } {
        if r > 0 {
            let (old, old_clients) = last;
            drop(old_clients);
            let _: Option<Engine> = old.shutdown();
            let (server, secs) = set_up(&data)?;
            setup_s.push(secs);
            let clients = connect(&server)?;
            last = (server, clients);
        }
        let clients = &mut last.1;
        for c in clients.iter_mut() {
            c.prefill(&rq)?;
        }
        let warm = run_round(
            clients,
            &rq,
            &truth,
            1,
            spec::SERVE_WARM_UP_CYCLES,
            &mut Vec::new(),
        )?;
        report.check(
            "warm-up answers hold",
            warm.correct == warm.attempted && warm.attempted > 0,
        );
        rounds.push(run_round(
            clients, &rq, &truth, stretches, cycles, &mut seen,
        )?);
        if r == 0 {
            // Before the checks at the end build a system of their own.
            peak_rss_mb = peak_rss_mib();
        }
        if args.traced {
            seen.clear();
            for c in clients.iter_mut() {
                c.tracer = Tracer::on(epoch);
            }
            rounds.push(run_round(
                clients, &rq, &truth, stretches, cycles, &mut seen,
            )?);
            for c in clients.iter_mut() {
                tracer.absorb(std::mem::replace(&mut c.tracer, Tracer::off()));
            }
            report.set_value(
                "harness.trace_overhead_share",
                1.0 - rounds[1].throughput() / rounds[0].throughput(),
            );
        }
    }
    let (server, mut clients) = last;
    // After a final flush, a fixed probe set must equal, byte for byte,
    // what a system rebuilt from the base table plus the surviving
    // inserts answers.
    let http = &mut clients[0].http;
    let (status, _) = http.send("POST", "/flush", &format!("{{\"table\": \"{TABLE}\"}}"))?;
    report.check("final /flush", status == 200);
    let probes = spec::SERVE_FINAL_PROBES.min(queries.len());
    let mut served = Vec::with_capacity(probes);
    for body in &rq.search[..probes] {
        served.push(http.send("POST", "/search", body)?);
    }
    if args.traced {
        for i in 0..spec::PROBE_OPS as u64 {
            let (answer, _) = tracer.time("server.healthz", i, || http.send("GET", "/healthz", ""));
            report.check("/healthz", answer?.0 == 200);
        }
    }
    let counters = server.scheduler_counters();
    let survivors: Vec<Trajectory> = clients
        .iter()
        .flat_map(|c| c.live.iter())
        .map(|&id| Trajectory::new(id, pool[pool_index(id, pool.len())].points().to_vec()))
        .collect();
    drop(clients);
    let engine = server
        .shutdown()
        .expect("the engine comes back from shutdown");

    // The model clock is not visible through HTTP: read it from library
    // searches over the table the server hands back, writes included.
    let served_sys = engine.system(TABLE).expect("the served table is indexed");
    let makespans: Vec<f64> = queries
        .iter()
        .take(spec::PROBE_OPS)
        .map(|q| {
            search(served_sys, q.points(), TAU, &DTW)
                .1
                .job
                .makespan_sec()
                * 1e3
        })
        .collect();
    drop(engine);

    let mut all = rows.to_vec();
    all.extend(survivors);
    let rebuilt = DitaSystem::build(
        &Dataset::new_unchecked("rebuilt", all),
        DitaConfig::default(),
        cluster(),
    );
    for (i, (status, body)) in served.iter().enumerate() {
        let want = wire::body_bytes(&wire::hits_value(
            &search(&rebuilt, queries[i].points(), TAU, &DTW).0,
        ));
        report.check(
            &format!("probe {i} after the final flush equals the rebuilt system"),
            *status == 200 && *body == want,
        );
    }
    drop(rebuilt);

    // What the clients saw per endpoint.
    for kind in Kind::ALL {
        let v: Vec<f64> = seen
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.latency_ms)
            .collect();
        if v.is_empty() {
            continue;
        }
        let (label, tail) = crate::stats::highest_percentile(&v);
        report.note(format!(
            "{:<9} {:>6} requests: p50 {:>9.4} ms, p{label} {:>9.4} ms, max {:>9.4} ms, limit {} ms, {} over it",
            kind.path(),
            v.len(),
            median(&v),
            tail,
            v.iter().copied().fold(0.0, f64::max),
            kind.limit_ms(),
            v.iter().filter(|&&x| x > kind.limit_ms()).count()
        ));
        if let Some(metric) = kind.p50_metric() {
            report.set_value(metric, median(&v));
        }
    }
    if !args.traced {
        report.end_to_end(&setup_s, &rounds, Some(median(&makespans)), peak_rss_mb);
        return Ok(report);
    }

    report.canary(&rounds);
    let n = seen.len().max(1) as f64;
    report.set_value(
        "server.bytes_in_per_op",
        seen.iter().map(|r| r.bytes_in as f64).sum::<f64>() / n,
    );
    report.set_value(
        "server.bytes_out_per_op",
        seen.iter().map(|r| r.bytes_out as f64).sum::<f64>() / n,
    );
    report.set_value(
        "cluster.mean_batch_size",
        counters.dispatched as f64 / counters.batches.max(1) as f64,
    );
    report.set_value(
        "cluster.shed_total",
        (counters.shed + counters.over_budget) as f64,
    );
    publish(
        &mut report,
        tracer,
        "server.http_roundtrip_us",
        "server.healthz",
        1e6,
    );

    // ... what the front door spends outside the engine: decoding the
    // request bodies and encoding the answers ...
    for (i, body) in rq.search.iter().take(spec::PROBE_OPS).enumerate() {
        tracer.time("server.json_decode", i as u64, || {
            Value::parse(body).is_ok()
        });
        let hits = &expected[i];
        tracer.time("server.wire_encode", i as u64, || {
            wire::body_bytes(&wire::hits_value(hits)).len()
        });
    }
    publish(
        &mut report,
        tracer,
        "server.json_decode_us",
        "server.json_decode",
        1e6,
    );
    publish(
        &mut report,
        tracer,
        "server.wire_encode_us",
        "server.wire_encode",
        1e6,
    );

    // ... and the library layers under it, on a twin of the base table.
    crate::layers::probe(&data, &queries, TAU, &mut report, tracer);
    if let (Some(served), Some(lib)) = (
        report.metrics.get("server.search_p50_ms").copied(),
        report.metrics.get("core.search_us").copied(),
    ) {
        report.set(
            "server.frontdoor_overhead_us",
            Reading::single(served.value * 1e3 - lib.value),
        );
    }
    Ok(report)
}
