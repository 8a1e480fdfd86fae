//! Demo binary: serve a synthetic dataset over HTTP.
//!
//! ```text
//! dita-server [ADDR]        # default 127.0.0.1:7878
//! ```
//!
//! Registers one table `taxi` (the paper's Figure 1 trajectories) and
//! serves until the process is killed. Meant for manual poking; the
//! tests and the benchmark embed [`dita_server::Server`] directly
//! instead.

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::DitaConfig;
use dita_server::{Server, ServerConfig};
use dita_sql::Engine;
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::Dataset;

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let mut engine = Engine::new(
        Cluster::new(ClusterConfig::with_workers(4)),
        DitaConfig::default(),
    );
    engine
        .register(
            "taxi",
            Dataset::new("fig1", figure1_trajectories()).expect("valid dataset"),
        )
        .expect("fresh catalog");
    let config = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, config).expect("bind server");
    println!("dita-server listening on http://{}", server.addr());
    println!("try: curl -s http://{}/healthz", server.addr());
    loop {
        std::thread::park();
    }
}
