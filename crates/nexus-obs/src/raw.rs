//! The on-disk trace file format: a versioned JSON encoding of
//! [`TraceEvent`] streams that round-trips losslessly.
//!
//! Layout (`schema` = [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "truncated": 0,
//!   "meta": { ... },            // free-form capture provenance
//!   "events": [ {"Arrival": {"t": 12, "request": 0, "session": 3}}, ... ]
//! }
//! ```
//!
//! Events are `TraceEvent`'s serde derive: externally-tagged variants with
//! field names matching the declaration, so adding a variant or a field
//! there is the whole codec change (plus a [`SCHEMA_VERSION`] bump).

use nexus_runtime::TraceEvent;
use serde::{Deserialize, Serialize};

use crate::json::Json;

/// Version stamp written into every trace file; bump on any event-schema
/// change so `nexus-trace` can reject files it would misread.
pub const SCHEMA_VERSION: u64 = 2;

/// A trace-file decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn err(msg: impl Into<String>) -> SchemaError {
    SchemaError(msg.into())
}

/// A decoded trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Events in file order.
    pub events: Vec<TraceEvent>,
    /// Events the capture discarded after its buffer filled.
    pub truncated: u64,
    /// Capture provenance (seed, workload, …), if recorded.
    pub meta: Option<Json>,
}

/// Encodes a trace file.
pub fn encode(events: &[TraceEvent], truncated: u64, meta: Option<Json>) -> Json {
    let mut fields = vec![
        ("schema".to_string(), Json::UInt(SCHEMA_VERSION)),
        ("truncated".to_string(), Json::UInt(truncated)),
    ];
    if let Some(meta) = meta {
        fields.push(("meta".to_string(), meta));
    }
    fields.push(("events".to_string(), events.to_value()));
    Json::Object(fields)
}

/// Decodes a trace file, rejecting unknown schema versions.
pub fn decode(doc: &Json) -> Result<TraceFile, SchemaError> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing schema version"))?;
    if schema != SCHEMA_VERSION {
        return Err(err(format!(
            "unsupported schema {schema} (this build reads {SCHEMA_VERSION})"
        )));
    }
    let truncated = doc.get("truncated").and_then(Json::as_u64).unwrap_or(0);
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or_else(|| err("missing events array"))?
        .iter()
        .map(event_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TraceFile {
        events,
        truncated,
        meta: doc.get("meta").cloned(),
    })
}

/// Decodes one externally-tagged event object.
fn event_from_json(j: &Json) -> Result<TraceEvent, SchemaError> {
    Deserialize::from_value(j).map_err(|e| err(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::Micros;
    use nexus_runtime::DropCause;
    use nexus_scheduler::SessionId;
    use nexus_simgpu::FaultKind;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival {
                t: ms(1),
                request: 0,
                session: SessionId(1),
            },
            TraceEvent::Batch {
                t: ms(2),
                backend: 3,
                session: SessionId(1),
                size: 5,
                duration: ms(12),
                rung: 8,
                leftover: true,
                seq: 1,
            },
            TraceEvent::Completion {
                t: ms(14),
                request: 0,
                session: SessionId(1),
                latency: ms(13),
                exec_start: ms(2),
                batch_seq: 1,
                good: true,
            },
            TraceEvent::Drop {
                t: ms(15),
                request: 9,
                session: SessionId(2),
                cause: DropCause::EarlySacrifice,
            },
            TraceEvent::Reallocation {
                t: ms(20),
                gpus: 16,
                model_loads: 4,
            },
            TraceEvent::Fault {
                t: ms(21),
                gpu: 5,
                kind: FaultKind::Slowdown {
                    factor: 2.5,
                    duration: ms(100),
                },
            },
            TraceEvent::Fault {
                t: ms(22),
                gpu: 5,
                kind: FaultKind::Crash,
            },
            TraceEvent::FailureDetected { t: ms(23), gpu: 5 },
            TraceEvent::Retry {
                t: ms(24),
                request: 11,
                session: SessionId(0),
            },
            TraceEvent::Rejoin { t: ms(40), gpu: 5 },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_text() {
        let events = one_of_each();
        let text = encode(&events, 7, Some(Json::Object(vec![]))).to_string();
        let back = decode(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.events, events);
        assert_eq!(back.truncated, 7);
        assert!(back.meta.is_some());
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let doc = Json::Object(vec![
            ("schema".into(), Json::UInt(SCHEMA_VERSION + 1)),
            ("events".into(), Json::Array(vec![])),
        ]);
        assert!(decode(&doc).is_err());
    }

    #[test]
    fn malformed_events_are_rejected() {
        for bad in [
            r#"{"schema":2,"events":[{"Arrival":{"t":1}}]}"#,
            r#"{"schema":2,"events":[{"Mystery":{"t":1}}]}"#,
            r#"{"schema":2,"events":[{"Drop":{"t":1,"request":1,"session":0,"cause":"Huh"}}]}"#,
            r#"{"schema":2,"events":[{"Batch":{"t":1,"backend":0,"session":0,"size":4,"duration":9,"seq":0}}]}"#,
        ] {
            let doc = crate::json::parse(bad).unwrap();
            assert!(decode(&doc).is_err(), "{bad}");
        }
    }
}
