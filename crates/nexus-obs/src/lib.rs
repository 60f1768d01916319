//! Observability for the Nexus reproduction (DESIGN.md §12).
//!
//! The simulator and runtimes capture bounded [`nexus_runtime::Trace`]
//! streams of per-request phase spans (arrival → queue wait → batched
//! execution → completion), drop causes, and control-plane markers. This
//! crate turns those captures into artifacts:
//!
//! - [`raw`] — the versioned JSON trace-file format (lossless round-trip);
//! - [`phases`] — request lifetime reconstruction and quantile stats;
//! - [`perfetto`] — Chrome-trace / Perfetto export (one track per GPU
//!   slot, one per session, flow arrows arrival → batch);
//! - [`prometheus`] — Prometheus text exposition of a run's metrics;
//! - [`summary`] — the compact human summary;
//! - [`json`] — the workspace's shared JSON value (`serde::Value`) under the
//!   name this crate's surface has always used.
//!
//! The `nexus-trace` binary wraps these as `capture` / `export` /
//! `summarize` / `diff` subcommands.

pub mod perfetto;
pub mod phases;
pub mod prometheus;
pub mod raw;
pub mod summary;

#[cfg(test)]
mod proptests;

/// The JSON value and parser behind every artifact here: the workspace's
/// one JSON stack (`vendor/serde/src/text.rs`), not a second one.
pub mod json {
    pub use serde::Value as Json;

    /// Parses a complete JSON document; the error names the byte offset.
    pub fn parse(input: &str) -> Result<Json, serde::Error> {
        input.parse()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trips_structures() {
            let v = Json::Object(vec![
                ("a".into(), Json::UInt(u64::MAX)),
                ("b".into(), Json::Int(-3)),
                ("c".into(), Json::Float(1.5)),
                (
                    "d".into(),
                    Json::Array(vec![
                        Json::Null,
                        Json::Bool(true),
                        Json::Str("x\"\n".into()),
                    ]),
                ),
                ("e".into(), Json::Object(vec![])),
            ]);
            let s = v.to_string();
            assert_eq!(parse(&s).unwrap(), v);
        }

        #[test]
        fn u64_precision_is_preserved() {
            let s = format!("{}", u64::MAX);
            assert_eq!(parse(&s).unwrap(), Json::UInt(u64::MAX));
        }

        #[test]
        fn integral_floats_stay_floats() {
            let v = Json::Float(2.0);
            let s = v.to_string();
            assert_eq!(s, "2.0");
            assert_eq!(parse(&s).unwrap(), v);
        }

        #[test]
        fn rejects_garbage() {
            assert!(parse("{").is_err());
            assert!(parse("[1,]").is_err());
            assert!(parse("12 34").is_err());
            assert!(parse("\"unterminated").is_err());
        }

        #[test]
        fn parses_whitespace_and_escapes() {
            let v = parse(" { \"k\" : [ 1 , \"a\\u0041b\" ] } ").unwrap();
            assert_eq!(
                v.get("k").and_then(|a| a.as_array()).map(|a| a.len()),
                Some(2)
            );
            assert_eq!(
                v.get("k").unwrap().as_array().unwrap()[1].as_str(),
                Some("aAb")
            );
        }
    }
}

pub use json::{parse as parse_json, Json};
pub use perfetto::{chrome_trace, validate_chrome_trace};
pub use phases::{phase_stats, reconstruct, DropSpan, PhaseStats, Phases, RequestSpan};
pub use raw::{decode, encode, SchemaError, TraceFile, SCHEMA_VERSION};
