//! `dita-server`: the HTTP query service over the embedded DITA engine.
//!
//! The paper's system runs inside Spark; this crate is the repo's
//! stand-in for that serving surface — a dependency-free HTTP/1.1
//! service (std `TcpListener`, a sized thread pool, hand-rolled
//! framing) that exposes the whole query and write surface:
//!
//! | endpoint        | body                                             | answers |
//! |-----------------|--------------------------------------------------|---------|
//! | `POST /sql`     | `{"sql": "..."} \| {"statements": [...]}`        | `{"results": [...]}` |
//! | `POST /search`  | `{"table", "query": [[x,y],..], "tau", "func"?}` | `{"hits": [...]}` |
//! | `POST /knn`     | `{"table", "query", "k", "func"?}`               | `{"hits": [...]}` |
//! | `POST /join`    | `{"left", "right", "tau", "func"?}`              | `{"pairs": [...]}` |
//! | `POST /insert`  | `{"table", "rows": [{"id", "points"}]}`          | `{"ack": "..."}` |
//! | `POST /delete`  | `{"table", "id"}`                                | `{"ack": "..."}` |
//! | `POST /flush`   | `{"table"}`                                      | `{"ack": "..."}` |
//! | `POST /compact` | `{"table"}`                                      | `{"ack": "..."}` |
//! | `GET /metrics`  | —                                                | Prometheus text |
//! | `GET /healthz`  | —                                                | `{"ok": true}` |
//!
//! Every query request passes the bounded [`dita_cluster::QueryScheduler`]:
//! a full queue sheds with `429` (+ observed depth), an unpriceable
//! (NaN-cost) query is refused with `400`, and each admitted request
//! carries a deadline (`x-dita-deadline-ms` header or the configured
//! default) that cancels it cooperatively — as does a client
//! disconnect. See `SERVER.md` for the protocol; `tests/e2e.rs` is the
//! real-socket harness and the benchmark's `serve_mixed` workload the
//! load.

pub mod http;
pub mod server;
pub mod wire;

pub use server::{Server, ServerConfig, ServerHandle};
