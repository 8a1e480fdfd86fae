//! Offline stand-in for `serde` (see `benchmark/stubs/libc` for why).
//!
//! The workspace only derives `Serialize`/`Deserialize`; the traits are
//! markers here and the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
