//! Offline stand-in for `serde_json` (see `benchmark/stubs/libc` for why).
//!
//! Only `DitaSystem::save_index`/`load_index` call into it and the benchmark
//! calls neither, so both entry points fail with a clear message instead of
//! pretending to work.

/// The stand-in's only error: serialization is not available.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json is a stand-in in the benchmark build; index persistence is unavailable")
    }
}

impl std::error::Error for Error {}

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: see the crate docs.
pub fn to_writer<W: std::io::Write, T: ?Sized>(_writer: W, _value: &T) -> Result<()> {
    Err(Error)
}

/// Always fails: see the crate docs.
pub fn from_reader<R: std::io::Read, T>(_reader: R) -> Result<T> {
    Err(Error)
}
