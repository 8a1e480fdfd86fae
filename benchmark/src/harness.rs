//! What every workload shares: clocks, rounds, the end-to-end metrics
//! computed from rounds, and the report that is printed.

use crate::spec::{self, Better};
use crate::stats::{highest_percentile, median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// User + system CPU time of this process, every thread included.
pub fn process_cpu_time() -> Duration {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer and
    // touches nothing else; `ts` is a live, aligned, initialized stack value
    // that outlives the call and is not borrowed elsewhere. On failure the
    // call returns -1 and leaves `ts` as initialized; it is read only when
    // the call reports success.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    } else {
        Duration::ZERO
    }
}

/// Restarts this process with address-space randomisation off, unless it
/// already is; returns whether it is off.
///
/// Where the kernel happens to map the heap, the stacks and the text moves
/// every operation of a run by several percent, the same way for as long as
/// the process lives: on the reference host six runs of `search_filter` on
/// one seed spread 8.7 % (quartile distance over median) in throughput
/// with randomisation on and 1.5 % with it off. A benchmark that is to see
/// a change of a tenth cannot spend that much on the luck of a mapping, so
/// it does what `setarch -R` does: set `ADDR_NO_RANDOMIZE` and execute
/// itself again. Where the call is refused (a seccomp profile may) the run
/// goes on with randomisation and says so in its header.
pub fn without_address_randomisation() -> bool {
    use std::os::unix::process::CommandExt;
    const QUERY: libc::c_ulong = 0xffff_ffff;
    // SAFETY: `personality` takes an integer and returns one; with
    // 0xffffffff it only reports the current persona.
    let persona = unsafe { libc::personality(QUERY) };
    if persona == -1 {
        return false;
    }
    if persona & libc::ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    // SAFETY: as above; this sets one flag of this process's persona, which
    // takes effect at the next `execve`.
    let set = unsafe { libc::personality((persona | libc::ADDR_NO_RANDOMIZE) as libc::c_ulong) };
    if set == -1 {
        return false;
    }
    if let Ok(exe) = std::env::current_exe() {
        // Returns only when the kernel refused to execute.
        let _refused = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .exec();
    }
    false
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a fixed arithmetic loop, in ms. It does the same work every time,
/// so when it slows the host slowed, not the program under test.
pub fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut acc = 1u64;
    for i in 0..spec::SPIN_ITERS {
        // The barrier keeps the chain serial: without it the compiler
        // folds the recurrence and the loop measures nothing.
        acc = std::hint::black_box(acc)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times [`spin_ms`] run on two threads at once, in ms. On a host that
/// grants this guest two cores it reads what one loop reads; when the host
/// runs the guest's two CPUs one after the other it reads twice that, and
/// everything multi-threaded under test slows with it — which neither the
/// single loop nor the kernel's steal counter shows.
pub fn spin_pair_ms() -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin_ms);
        s.spawn(spin_ms);
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// What one operation of a measured round reported.
pub struct OpSample {
    /// Client-observed latency, ms.
    pub latency_ms: f64,
    /// The answer was the expected one.
    pub correct: bool,
    /// Latency limit of this kind of operation, ms.
    pub limit_ms: f64,
    /// Counts toward the latency percentiles (`/search` only on
    /// `serve_mixed`; every operation elsewhere).
    pub in_latency: bool,
    /// `JobStats::makespan_sec` in ms, when the operation exposes one.
    pub makespan_ms: Option<f64>,
}

/// One measured round.
#[derive(Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub spin_ms: f64,
    pub spin_pair_ms: f64,
    pub attempted: u64,
    pub correct: u64,
    pub within_limit: u64,
    pub latency_ms: Vec<f64>,
    pub makespan_ms: Vec<f64>,
}

impl Round {
    pub fn push(&mut self, s: &OpSample) {
        self.attempted += 1;
        self.correct += u64::from(s.correct);
        self.within_limit += u64::from(s.correct && s.latency_ms <= s.limit_ms);
        if s.in_latency {
            self.latency_ms.push(s.latency_ms);
        }
        self.makespan_ms.extend(s.makespan_ms);
    }

    pub fn throughput(&self) -> f64 {
        self.correct as f64 / self.wall_s
    }
}

/// Brackets a round: the host canaries first, then wall and CPU clocks.
pub struct RoundClock {
    spin_ms: f64,
    spin_pair_ms: f64,
    wall: Instant,
    cpu: Duration,
}

impl RoundClock {
    pub fn start() -> RoundClock {
        let spin_ms = spin_ms();
        let spin_pair_ms = spin_pair_ms();
        RoundClock {
            spin_ms,
            spin_pair_ms,
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    pub fn stop(self, mut round: Round) -> Round {
        round.wall_s = self.wall.elapsed().as_secs_f64();
        round.cpu_s = process_cpu_time().saturating_sub(self.cpu).as_secs_f64();
        round.spin_ms = self.spin_ms;
        round.spin_pair_ms = self.spin_pair_ms;
        round
    }
}

/// Cycles of one measured round: the workload's frozen count `at_reference`
/// (sized once, on the reference host, for [`spec::RUN_SECONDS`]) scaled to
/// `--seconds`. Arithmetic on constants only: two builds given the same
/// `--seconds` replay the same operation list however fast either is. Never
/// fewer than it takes for the rounds together to leave ten samples beyond
/// p90, however short `--seconds` is.
pub fn cycles_per_round(at_reference: usize, seconds: f64, cycle_ops: usize) -> usize {
    let scaled = (at_reference as f64 * seconds / spec::RUN_SECONDS).round() as usize;
    let enough = (12 * crate::stats::MIN_BEYOND).div_ceil(spec::ROUNDS * cycle_ops.max(1));
    scaled.max(enough).max(1)
}

/// A metric value with the spread it was taken from.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Reading {
    pub fn of(values: &[f64]) -> Reading {
        Reading {
            value: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    pub fn single(value: f64) -> Reading {
        Reading {
            value,
            min: value,
            max: value,
        }
    }
}

/// Everything a run produced; printed by [`Report::print`].
pub struct Report {
    /// Metric name to reading; [`Report::print`] orders them by [`spec`].
    pub metrics: BTreeMap<&'static str, Reading>,
    pub attempted: u64,
    pub failed: u64,
    started: Instant,
}

impl Report {
    pub fn new() -> Report {
        Report {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            started: Instant::now(),
        }
    }

    pub fn set(&mut self, name: &'static str, r: Reading) {
        self.metrics.insert(name, r);
    }

    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.set(name, Reading::single(value));
    }

    /// Prints a progress line, stamped with the seconds since the run
    /// began, so the cost of each phase (set-up, oracle, rounds) shows.
    pub fn note(&mut self, line: String) {
        println!("[{:7.2} s] {line}", self.started.elapsed().as_secs_f64());
    }

    /// Counts a correctness check made outside the measured rounds.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// Folds the measured rounds into the eight end-to-end metrics.
    /// `peak_rss_mb` is read by the caller when the last round ends, before
    /// the checks that follow build anything of their own.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        rounds: &[Round],
        makespan_ms: Option<f64>,
        peak_rss_mb: f64,
    ) {
        let per = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
        let pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latency_ms.iter().copied())
            .collect();
        let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
        let correct: u64 = rounds.iter().map(|r| r.correct).sum();
        let within: u64 = rounds.iter().map(|r| r.within_limit).sum();

        for (i, r) in rounds.iter().enumerate() {
            self.note(format!(
                "round {}: {} operations in {:.3} s, {:.2} correct/s, p50 {:.4} ms, cpu {:.3} s, spin {:.3} ms, two at once {:.3} ms",
                i + 1,
                r.attempted,
                r.wall_s,
                r.throughput(),
                median(&r.latency_ms),
                r.cpu_s,
                r.spin_ms,
                r.spin_pair_ms
            ));
        }
        self.set("setup_s", Reading::of(setup_s));
        self.set("throughput_ops_s", Reading::of(&per(&Round::throughput)));
        self.set(
            "latency_p50_ms",
            Reading::of(&per(&|r| median(&r.latency_ms))),
        );
        // p90 over the pooled samples of all rounds: a round alone may hold
        // too few operations to leave ten beyond its own p90.
        let p90 = percentile(&pooled, 0.90).unwrap_or_else(|| {
            self.failed += 1;
            println!(
                "CHECK FAILED: {} latency samples leave fewer than {} beyond p90",
                pooled.len(),
                crate::stats::MIN_BEYOND
            );
            median(&pooled)
        });
        self.set_value("latency_p90_ms", p90);
        self.set_value("slo_met_share", within as f64 / attempted as f64);
        let makespan = makespan_ms
            .map(Reading::single)
            .unwrap_or_else(|| Reading::of(&per(&|r| median(&r.makespan_ms))));
        self.set("makespan_model_ms", makespan);
        self.set(
            "cpu_s_per_kop",
            Reading::of(&per(&|r| r.cpu_s / r.attempted as f64 * 1e3)),
        );
        self.set_value("peak_rss_mb", peak_rss_mb);

        let (label, tail) = highest_percentile(&pooled);
        self.note(format!(
            "latency over {} pooled samples: highest supported percentile p{label} = {tail:.4} ms (not gated)",
            pooled.len()
        ));
        self.note(format!(
            "operations: attempted {attempted}, failed {}, within limit {within}",
            attempted - correct
        ));
        self.canary(rounds);
    }

    /// Counts the rounds' operations and failures into the result, prints
    /// the host-noise canary and records it for the traced run. Every run,
    /// traced or not, passes its rounds through here exactly once.
    pub fn canary(&mut self, rounds: &[Round]) {
        for r in rounds {
            self.attempted += r.attempted;
            self.failed += r.attempted - r.correct;
        }
        let spins: Vec<f64> = rounds.iter().map(|r| r.spin_ms).collect();
        let spin = Reading::of(&spins);
        self.note(format!(
            "host.spin_ms: median {:.3} max {:.3} over {} rounds",
            spin.value,
            spin.max,
            spins.len()
        ));
        if spin.max > 1.2 * spin.value {
            self.note(format!(
                "WARNING: the host slowed during a round (spin max {:.3} ms > 1.2 x median {:.3} ms): suspect a noisy neighbour before a regression",
                spin.max, spin.value
            ));
        }
        self.set("host.spin_ms", spin);
        let pairs: Vec<f64> = rounds.iter().map(|r| r.spin_pair_ms).collect();
        let pair = Reading::of(&pairs);
        self.note(format!(
            "host.spin_pair_ms: median {:.3} max {:.3}: two loops at once take {:.2} x one",
            pair.value,
            pair.max,
            pair.value / spin.value
        ));
        if pair.value > 1.5 * spin.value {
            self.note(format!(
                "WARNING: the host runs this guest's two CPUs one after the other (two loops at once {:.3} ms > 1.5 x one {:.3} ms): everything multi-threaded reads 15-35 % slower than on a still host",
                pair.value, spin.value
            ));
        }
        self.set("host.spin_pair_ms", pair);
        let tp: Vec<f64> = rounds.iter().map(Round::throughput).collect();
        let r = Reading::of(&tp);
        self.set_value("harness.round_spread_share", (r.max - r.min) / r.value);
    }

    /// Prints the metric table, then the one-line JSON result the driver
    /// reads: the end-to-end metrics, or the per-layer ones when `traced`.
    pub fn print(&self, workload: &str, traced: bool) {
        let names: Vec<(&str, &str, Better)> = if traced {
            spec::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        } else {
            spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect()
        };
        println!(
            "== {workload}: {} metrics ==",
            if traced { "per-layer" } else { "end-to-end" }
        );
        let mut json = Vec::new();
        for (name, unit, better) in names {
            // A layer this workload does not exercise reads zero.
            let r = self
                .metrics
                .get(name)
                .copied()
                .unwrap_or(Reading::single(0.0));
            println!(
                "{name:<36} {:>16.6} {unit:<6} min {:<14.6} max {:<14.6} ({} is better)",
                r.value,
                r.min,
                r.max,
                better.as_str()
            );
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(r.value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A finite number with all its digits; non-finite values become 0 (JSON
/// has no spelling for them) — callers keep such values out of reports.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

/// The header: the host and every fixed setting of the run.
pub fn print_header(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    traced: bool,
    aslr_off: bool,
) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!(
        "dita-benchmark workload={workload} seed={seed} seconds={seconds} scale={scale} traced={traced} | host nproc={nproc} address-randomisation={} rustc=\"{}\" commit={commit}",
        if aslr_off { "off" } else { "on (could not be turned off)" },
        env!("DITA_BENCH_RUSTC"),
    );
    println!(
        "fixed: workers={} http_workers={} clients={} rounds={} counts-sized-for-seconds={} SearchOptions::default JoinOptions::default CompactionPolicy::default obs=disabled-on-library-workloads closed-loop",
        spec::WORKERS,
        spec::HTTP_WORKERS,
        spec::CLIENTS,
        spec::ROUNDS,
        spec::RUN_SECONDS
    );
}
