//! Offline stand-in for the `libc` crate.
//!
//! The benchmark has to build in a checkout with no crate registry, so every
//! third-party dependency of the workspace is replaced by a local crate with
//! the same name (see `[patch.crates-io]` in `benchmark/offline/config.toml`).
//! This one binds the two libc calls the workspace and the benchmark make,
//! `clock_gettime` and `personality`, straight to the system C library that
//! `std` already links. Values are those of Linux on x86-64 and aarch64.
#![allow(non_camel_case_types)]

/// C `int`.
pub type c_int = i32;
/// C `long` (LP64).
pub type c_long = i64;
/// C `unsigned long` (LP64).
pub type c_ulong = u64;
/// C `time_t` (LP64).
pub type time_t = i64;
/// C `clockid_t`.
pub type clockid_t = c_int;

/// C `struct timespec`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds, `0..1_000_000_000`.
    pub tv_nsec: c_long,
}

/// CPU time of the whole process, every thread included.
pub const CLOCK_PROCESS_CPUTIME_ID: clockid_t = 2;
/// CPU time of the calling thread.
pub const CLOCK_THREAD_CPUTIME_ID: clockid_t = 3;

/// `personality(2)` flag: map the process without address randomisation.
pub const ADDR_NO_RANDOMIZE: c_int = 0x0040000;

extern "C" {
    /// `clock_gettime(2)`.
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
    /// `personality(2)`.
    pub fn personality(persona: c_ulong) -> c_int;
}
