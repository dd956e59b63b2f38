//! The unified telemetry core for the SAGE reproduction.
//!
//! SAGE's security argument is quantitative — a verifier accepts only
//! when the checksum matches *and* the response lands under
//! `T_avg + k·σ` (paper §7.2) — so the reproduction needs first-class
//! visibility into latencies, stalls and rejection causes. This crate
//! provides the primitives every layer shares:
//!
//! - [`Counter`] — one shared `AtomicU64`. A bump is one relaxed
//!   `fetch_add`.
//! - [`Gauge`] — a last-value cell for model quantities that move both
//!   ways (e.g. the sampling layer's detection probability), exported
//!   in fixed-point per-mille to keep the renderers integer-only.
//! - [`Histogram`] — fixed log2 buckets (65 of them, covering the full
//!   `u64` range), mergeable snapshots, nearest-rank percentile
//!   queries. Recording is two relaxed `fetch_add`s, no CAS loops.
//! - [`WallSpan`] / [`VirtualSpan`] — lightweight spans stamped from
//!   the wall clock or from the service layer's virtual clock.
//! - [`Registry`] — a get-or-create directory of named, labeled
//!   instruments with stable-schema JSON ([`Registry::to_json`]) and
//!   Prometheus text ([`Registry::to_prometheus`]) exporters.
//!
//! # Schema stability
//!
//! Both exporters sort metrics by `(name, labels)` and render numbers
//! without platform-dependent formatting, so a deterministic run
//! produces byte-identical output — the golden tests in the workspace
//! root pin that, making schema drift a deliberate, reviewed change
//! (see DESIGN.md §8).
//!
//! # Dependency policy
//!
//! Like the rest of the workspace, this crate is std-only. The
//! property-based suites are gated behind the default-off `proptest`
//! feature; seeded deterministic twins of each property always run.

mod counter;
mod gauge;
mod hist;
mod registry;
mod span;

pub use counter::Counter;
pub use gauge::Gauge;
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricValue, Registry};
pub use span::{VirtualSpan, WallSpan};
