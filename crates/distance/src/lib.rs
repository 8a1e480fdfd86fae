//! Trajectory distance functions and pruning bounds for DITA.
//!
//! Implements every similarity function the paper supports (§2.1, Appendix A):
//!
//! * [`dtw()`] — Dynamic Time Warping, the paper's default (Definition 2.2),
//!   with threshold-aware early-abandoning and the double-direction
//!   verification of §5.3.3(3).
//! * [`frechet()`] — discrete Fréchet distance (Definition A.1), the metric
//!   function.
//! * [`edr()`] — Edit Distance on Real sequence (Definition A.2).
//! * [`lcss`] — Longest Common SubSequence similarity and the derived
//!   distance (Definition A.3).
//! * [`erp()`] — Edit distance with Real Penalty (metric, Chen & Ng 2004).
//! * [`bounds`] — the filter-step lower bounds: AMD / PAMD (§4.1), the MBR
//!   coverage test (Lemma 5.4) and the EDR/LCSS length filter (Appendix A).
//! * [`function`] — a runtime-dispatched [`DistanceFunction`] used by the
//!   SQL layer and the experiment harness.
//! * [`kernel`] — structure-of-arrays threshold kernels with UCR-style band
//!   pruning and reusable scratch buffers: the verification hot path.
//!
//! All functions operate on `&[Point]` slices so they can be used on raw
//! buffers as well as [`dita_trajectory::Trajectory`] values.

#![warn(missing_docs)]

pub mod bounds;
pub mod dtw;
pub mod edr;
pub mod erp;
pub mod frechet;
pub mod function;
pub mod kernel;
pub mod lcss;

pub use bounds::{amd, length_bound_edr, mbr_coverage_prune, pamd, point_mbr_max, point_mbr_sum};
pub use dtw::{dtw, dtw_double_direction, dtw_threshold};
pub use edr::{edr, edr_threshold};
pub use erp::{erp, erp_threshold};
pub use frechet::{frechet, frechet_threshold};
pub use function::DistanceFunction;
pub use kernel::{dtw_soa, edr_soa, erp_soa, frechet_soa, lcss_soa, Scratch};
pub use lcss::{lcss_distance, lcss_distance_threshold, lcss_similarity};
