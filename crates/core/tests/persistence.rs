//! Index persistence: a snapshot is the table. A loaded system answers
//! exactly what the saved one answered — clean or with pending deltas —
//! a snapshot re-saves to the same bytes and reads as a dataset file, and
//! no damaged or malformed snapshot loads (or panics).

use dita_cluster::{Cluster, ClusterConfig};
use dita_core::snapshot::fnv1a;
use dita_core::{join, knn_search, search, CompactionPolicy, DitaConfig, DitaSystem, JoinOptions};
use dita_distance::DistanceFunction;
use dita_index::trie::MAX_K;
use dita_index::{PivotStrategy, TrieConfig};
use dita_trajectory::trajectory::figure1_trajectories;
use dita_trajectory::{Dataset, Point, Trajectory};
use std::io::ErrorKind;

fn config() -> DitaConfig {
    DitaConfig {
        ng: 4,
        trie: TrieConfig {
            k: 3,
            nl: 8,
            leaf_capacity: 8,
            strategy: PivotStrategy::NeighborDistance,
            ..TrieConfig::default()
        },
    }
}

fn cluster(workers: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_workers(workers))
}

fn save(sys: &DitaSystem) -> Vec<u8> {
    let mut buf = Vec::new();
    sys.save_index(&mut buf).unwrap();
    buf
}

fn load(bytes: &[u8]) -> DitaSystem {
    DitaSystem::load_index(bytes, cluster(3)).unwrap()
}

/// 2 000 `beijing_like` rows, all in the base tries.
fn clean_system() -> DitaSystem {
    DitaSystem::build(&dita_datagen::beijing_like(2_000, 17), config(), cluster(2))
}

/// 1 900 base rows, then 100 more through the write path: flushed
/// segments, unflushed tails, tombstones on base and segment rows, and
/// base and segment ids overwritten in the tail.
fn dirty_system() -> DitaSystem {
    let rows = dita_datagen::beijing_like(2_000, 17).into_trajectories();
    let (base, fresh) = rows.split_at(1_900);
    let mut sys = DitaSystem::build(
        &Dataset::new_unchecked("beijing-dirty", base.to_vec()),
        config(),
        cluster(2),
    );
    sys.set_compaction_policy(CompactionPolicy { auto: false });
    for t in &fresh[..60] {
        sys.insert(t.clone());
    }
    sys.flush();
    for t in &fresh[60..] {
        sys.insert(t.clone());
    }
    for t in base.iter().step_by(97) {
        assert!(sys.delete(t.id));
    }
    assert!(sys.delete(fresh[3].id)); // a segment row
                                      // Overwrites: a base id and a segment id take another row's points.
    sys.insert(Trajectory::new(base[5].id, fresh[70].points().to_vec()));
    sys.insert(Trajectory::new(fresh[10].id, base[50].points().to_vec()));
    assert!(sys.has_deltas());
    let d = sys.deltas();
    assert!(d.parts().iter().any(|p| !p.tail.is_empty()), "no tail");
    assert!(d.parts().iter().any(|p| p.seg.is_some()), "no segment");
    assert!(d.tombstones() > 0, "no tombstone");
    sys
}

/// Answers as `(id, distance bits)`, ordered by id.
fn bits(mut hits: Vec<(u64, f64)>) -> Vec<(u64, u64)> {
    hits.sort_by_key(|&(id, _)| id);
    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
}

fn pair_bits(mut pairs: Vec<(u64, u64, f64)>) -> Vec<(u64, u64, u64)> {
    pairs.sort_by_key(|&(a, b, _)| (a, b));
    pairs
        .into_iter()
        .map(|(a, b, d)| (a, b, d.to_bits()))
        .collect()
}

/// The five functions, each with three thresholds from tight to loose.
fn functions() -> [(DistanceFunction, [f64; 3]); 5] {
    [
        (DistanceFunction::Dtw, [0.01, 0.05, 0.2]),
        (DistanceFunction::Frechet, [0.002, 0.01, 0.03]),
        (DistanceFunction::Edr { eps: 0.002 }, [3.0, 8.0, 15.0]),
        (
            DistanceFunction::Lcss {
                eps: 0.002,
                delta: 3,
            },
            [2.0, 5.0, 10.0],
        ),
        (
            DistanceFunction::Erp { gap: (39.9, 116.4) },
            [0.05, 0.2, 1.0],
        ),
    ]
}

fn assert_same_answers(saved: &DitaSystem, loaded: &DitaSystem) {
    assert_eq!(loaded.name(), saved.name());
    assert_eq!(loaded.config().ng, saved.config().ng);
    assert_eq!(loaded.len(), saved.len());
    assert!(!loaded.has_deltas());
    let live = saved.live_trajectories();
    assert_eq!(loaded.live_trajectories(), live);
    // Live rows, and one point set no row has.
    let mut queries: Vec<Vec<Point>> = live
        .iter()
        .step_by(401)
        .map(|t| t.points().to_vec())
        .collect();
    queries.push(vec![Point::new(39.95, 116.35), Point::new(39.96, 116.37)]);
    for (qi, q) in queries.iter().enumerate() {
        for (func, taus) in functions() {
            for tau in taus {
                let (a, _) = search(saved, q, tau, &func);
                let (b, _) = search(loaded, q, tau, &func);
                assert_eq!(bits(a), bits(b), "search q={qi} {func} tau={tau}");
            }
        }
        for k in [1, 10] {
            let (a, _) = knn_search(saved, q, k, &DistanceFunction::Dtw);
            let (b, _) = knn_search(loaded, q, k, &DistanceFunction::Dtw);
            assert_eq!(bits(a), bits(b), "knn q={qi} k={k}");
        }
    }
    let opts = JoinOptions::default();
    for (func, tau) in [
        (DistanceFunction::Dtw, 0.005),
        (DistanceFunction::Frechet, 0.001),
    ] {
        let (a, _) = join(saved, saved, tau, &func, &opts);
        let (b, _) = join(loaded, loaded, tau, &func, &opts);
        assert!(!a.is_empty(), "{func}: the join finds nothing to compare");
        assert_eq!(pair_bits(a), pair_bits(b), "self-join {func}");
    }
}

#[test]
fn a_loaded_clean_system_answers_as_the_saved_one() {
    let sys = clean_system();
    assert_same_answers(&sys, &load(&save(&sys)));
}

#[test]
fn a_loaded_dirty_system_answers_as_the_saved_one() {
    let sys = dirty_system();
    assert_same_answers(&sys, &load(&save(&sys)));
}

#[test]
fn a_snapshot_resaves_byte_identically() {
    for sys in [clean_system(), dirty_system()] {
        let first = save(&sys);
        assert_eq!(save(&load(&first)), first, "{}", sys.name());
    }
}

#[test]
fn a_snapshot_reads_as_the_live_rows() {
    for sys in [clean_system(), dirty_system()] {
        let rows = Dataset::read_text("rows", save(&sys).as_slice()).unwrap();
        assert_eq!(rows.trajectories(), sys.live_trajectories().as_slice());
    }
}

fn figure1_snapshot() -> Vec<u8> {
    let sys = DitaSystem::build(
        &Dataset::new("fig1", figure1_trajectories()).unwrap(),
        DitaConfig {
            ng: 2,
            trie: TrieConfig {
                k: 2,
                nl: 2,
                leaf_capacity: 0,
                ..TrieConfig::default()
            },
        },
        cluster(2),
    );
    save(&sys)
}

fn load_err(bytes: &[u8]) -> std::io::Error {
    match DitaSystem::load_index(bytes, cluster(1)) {
        Ok(_) => panic!("loaded: {:?}", String::from_utf8_lossy(bytes)),
        Err(e) => e,
    }
}

/// Each FNV-1a step is a bijection of the running hash, so no single-byte
/// change to the body keeps its checksum, and the trailer is compared as
/// the exact line the body hashes to.
#[test]
fn every_truncation_and_every_byte_flip_is_an_error() {
    let snap = figure1_snapshot();
    assert!(DitaSystem::load_index(snap.as_slice(), cluster(1)).is_ok());
    for len in 0..snap.len() {
        let e = load_err(&snap[..len]);
        assert_eq!(e.kind(), ErrorKind::InvalidData, "truncated to {len}: {e}");
    }
    for pos in 0..snap.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            let mut bad = snap.clone();
            bad[pos] ^= mask;
            let e = load_err(&bad);
            assert_eq!(
                e.kind(),
                ErrorKind::InvalidData,
                "byte {pos} ^ {mask:#04x}: {e}"
            );
        }
    }
}

/// `body` with a freshly computed, valid trailer: what is left to reject
/// it is the header check.
fn reseal(body: &str) -> Vec<u8> {
    let rows = body.lines().filter(|l| !l.starts_with('#')).count();
    format!(
        "{body}# end rows={rows} fnv1a={:016x}\n",
        fnv1a(body.as_bytes())
    )
    .into_bytes()
}

#[test]
fn malformed_headers_are_errors() {
    let snap = String::from_utf8(figure1_snapshot()).unwrap();
    let body = &snap[..snap.trim_end().rfind('\n').unwrap() + 1];
    let header = body.lines().next().unwrap();
    assert_eq!(
        header,
        "# dita-snapshot 1 ng=2 k=2 nl=2 leaf_capacity=0 strategy=Neighbor cell_side=0.005 name=fig1"
    );
    // Resealing the untouched body gives the snapshot back.
    assert_eq!(reseal(body), snap.as_bytes());
    for (from, to) in [
        ("ng=2", "ng=0"),
        ("ng=2", "ng=1000000000000"),
        ("ng=2", "ng=4097"),
        (" nl=2", " nl=0"),
        ("snapshot 1", "snapshot 2"),
        ("Neighbor", "Nearest"),
        ("k=2", "k=-2"),
        ("cell_side=0.005", "cell_side=x"),
        (" name=fig1", " label=fig1"),
        ("# dita-snapshot", "# dita-table"),
    ] {
        let e = load_err(&reseal(&body.replacen(from, to, 1)));
        assert_eq!(e.kind(), ErrorKind::InvalidData, "{from} -> {to}: {e}");
    }
    // A row count that disagrees with the rows, under a valid checksum.
    let miscounted = body.to_string() + "# end rows=4 fnv1a=";
    let e = load_err(format!("{miscounted}{:016x}\n", fnv1a(body.as_bytes())).as_bytes());
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
}

/// A node stores its depth as a `u8` and a row of `k + 2` indexing points
/// is `k + 2` levels deep, so a header's `k` is held to `MAX_K`. Above it a
/// checksum-valid snapshot of rows long enough to take every pivot is
/// refused before anything is built; at it the snapshot loads, and the
/// 255-level tries it rebuilds answer a self-join as the saved table does.
#[test]
fn a_header_k_above_the_depth_limit_is_an_error() {
    let rows: Vec<Trajectory> = (0..6u64)
        .map(|i| {
            let pts = (0..300)
                .map(|j| Point::new(i as f64 + (j as f64 * 0.7).sin(), j as f64 * 0.01))
                .collect();
            Trajectory::new(i, pts)
        })
        .collect();
    let trie = TrieConfig {
        k: 2,
        nl: 2,
        leaf_capacity: 0,
        ..TrieConfig::default()
    };
    let sys = DitaSystem::build(
        &Dataset::new("long", rows).unwrap(),
        DitaConfig { ng: 1, trie },
        cluster(1),
    );
    let snap = String::from_utf8(save(&sys)).unwrap();
    let body = &snap[..snap.trim_end().rfind('\n').unwrap() + 1];
    let with_k = |k: usize| reseal(&body.replacen(" k=2 ", &format!(" k={k} "), 1));
    for k in [MAX_K + 1, 255] {
        let e = load_err(&with_k(k));
        assert_eq!(e.kind(), ErrorKind::InvalidData, "k = {k}: {e}");
    }
    let deep = load(&with_k(MAX_K));
    assert_eq!(deep.config().trie.k, MAX_K);
    let func = DistanceFunction::Dtw;
    let opts = JoinOptions::default();
    let (a, _) = join(&sys, &sys, 1.0, &func, &opts);
    let (b, _) = join(&deep, &deep, 1.0, &func, &opts);
    assert!(!a.is_empty());
    assert_eq!(pair_bits(a), pair_bits(b));
}

#[test]
fn names_survive_and_a_newline_in_one_is_refused() {
    let rows = figure1_trajectories();
    for name in ["", "  spaced  name= x ", "tab\there\r", "ünïcode"] {
        let sys = DitaSystem::build(
            &Dataset::new(name, rows.clone()).unwrap(),
            config(),
            cluster(1),
        );
        assert_eq!(load(&save(&sys)).name(), name);
    }
    let sys = DitaSystem::build(
        &Dataset::new("two\nlines", rows).unwrap(),
        config(),
        cluster(1),
    );
    let e = sys.save_index(Vec::new()).unwrap_err();
    assert_eq!(e.kind(), ErrorKind::InvalidInput);
}

#[test]
fn an_empty_table_saves_and_loads() {
    let mut sys = DitaSystem::build(
        &Dataset::new("fig1", figure1_trajectories()).unwrap(),
        config(),
        cluster(1),
    );
    for t in figure1_trajectories() {
        assert!(sys.delete(t.id));
    }
    let loaded = load(&save(&sys));
    assert!(loaded.is_empty());
    assert_eq!(save(&loaded), save(&sys));
}
