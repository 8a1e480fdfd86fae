//! The service's JSON wire format.
//!
//! Every body the server emits is produced here, and the encoders are
//! `pub` so the real-socket tests (`tests/e2e.rs`) and the benchmark can
//! apply them to *direct* library results and assert byte-identical
//! responses — the parity check that pins "the HTTP layer adds
//! transport, not semantics".
//!
//! Bodies are the pretty form of [`dita_obs::json::Value`] plus a
//! trailing newline; field order is fixed by construction order, so
//! encoding is deterministic.

use dita_obs::json::{Obj, ToJson, Value};
use dita_sql::{QueryResult, SqlError};
use dita_trajectory::{Trajectory, TrajectoryId};

/// Serializes a body value to its on-the-wire bytes.
pub fn body_bytes(v: &Value) -> Vec<u8> {
    let mut s = v.pretty();
    s.push('\n');
    s.into_bytes()
}

/// `{"hits": [{"id": .., "distance": ..}, ...]}` — the `/search`,
/// `/knn` and indexed-search SQL result shape.
pub fn hits_value(hits: &[(TrajectoryId, f64)]) -> Value {
    Obj::new().field("hits", &encode_hits(hits)).build()
}

fn encode_hits(hits: &[(TrajectoryId, f64)]) -> Vec<Value> {
    hits.iter()
        .map(|&(id, distance)| {
            Obj::new()
                .field("id", &id)
                .field("distance", &distance)
                .build()
        })
        .collect()
}

/// `{"pairs": [{"left": .., "right": .., "distance": ..}, ...]}` — the
/// `/join` result shape.
pub fn pairs_value(pairs: &[(TrajectoryId, TrajectoryId, f64)]) -> Value {
    let encoded: Vec<Value> = pairs
        .iter()
        .map(|&(left, right, distance)| {
            Obj::new()
                .field("left", &left)
                .field("right", &right)
                .field("distance", &distance)
                .build()
        })
        .collect();
    Obj::new().field("pairs", &encoded).build()
}

/// `{"ack": "..."}` — the ingest write path's acknowledgement shape.
pub fn ack_value(message: &str) -> Value {
    Obj::new().field("ack", &message).build()
}

/// One SQL statement's result, tagged by variant.
pub fn query_result_value(r: &QueryResult) -> Value {
    match r {
        QueryResult::Rows(rows) => Obj::new()
            .field("type", &"rows")
            .field(
                "rows",
                &rows.iter().map(trajectory_value).collect::<Vec<_>>(),
            )
            .build(),
        QueryResult::SearchHits(hits) => Obj::new()
            .field("type", &"hits")
            .field("hits", &encode_hits(hits))
            .build(),
        QueryResult::JoinPairs(pairs) => {
            let encoded: Vec<Value> = pairs
                .iter()
                .map(|&(left, right, distance)| {
                    Obj::new()
                        .field("left", &left)
                        .field("right", &right)
                        .field("distance", &distance)
                        .build()
                })
                .collect();
            Obj::new()
                .field("type", &"pairs")
                .field("pairs", &encoded)
                .build()
        }
        QueryResult::Ack(message) => Obj::new()
            .field("type", &"ack")
            .field("ack", message)
            .build(),
        QueryResult::TableNames(names) => Obj::new()
            .field("type", &"tables")
            .field("tables", names)
            .build(),
        QueryResult::Plan(plan) => Obj::new()
            .field("type", &"plan")
            .field("plan", plan)
            .build(),
    }
}

/// `{"results": [...]}` — the `/sql` response over a statement batch.
pub fn sql_results_value(results: &[QueryResult]) -> Value {
    let encoded: Vec<Value> = results.iter().map(query_result_value).collect();
    Obj::new().field("results", &encoded).build()
}

fn trajectory_value(t: &Trajectory) -> Value {
    let points: Vec<Value> = t
        .points()
        .iter()
        .map(|p| Value::Arr(vec![p.x.to_json(), p.y.to_json()]))
        .collect();
    Obj::new()
        .field("id", &t.id)
        .field("points", &Value::Arr(points))
        .build()
}

/// An error body plus the HTTP status it travels with.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// HTTP status code.
    pub status: u16,
    /// The JSON body.
    pub body: Value,
}

impl ErrorBody {
    /// A plain error body from a status and message.
    pub fn new(status: u16, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            status,
            body: Obj::new().field("error", &message.into()).build(),
        }
    }
}

/// Maps a front-end error to its HTTP shape. Admission refusals carry
/// their context fields so clients can implement backoff without
/// parsing the message text.
pub fn error_of(err: &SqlError) -> ErrorBody {
    let status = match err {
        SqlError::UnknownTable { .. } => 404,
        SqlError::DuplicateTable { .. } => 409,
        SqlError::QueueFull { .. } => 429,
        // Includes NaN-priced (unpriceable) queries: a client input
        // problem, not server overload.
        SqlError::OverBudget { .. } => 400,
        SqlError::Lex { .. } | SqlError::Parse { .. } | SqlError::Unsupported { .. } => 400,
    };
    let obj = Obj::new()
        .field("error", &err.to_string())
        .field("retryable", &err.is_retryable());
    let obj = match err {
        SqlError::QueueFull { depth } => obj.field("queue_depth", depth),
        SqlError::OverBudget { cost } if cost.is_finite() => obj.field("cost", cost),
        _ => obj,
    };
    ErrorBody {
        status,
        body: obj.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoders_are_deterministic_and_tagged() {
        let hits = vec![(1u64, 0.5f64), (2, 1.25)];
        let body = String::from_utf8(body_bytes(&hits_value(&hits))).unwrap();
        assert!(body.contains("\"hits\""));
        assert!(body.ends_with('\n'));
        assert_eq!(body_bytes(&hits_value(&hits)), body.as_bytes());

        let sql = sql_results_value(&[QueryResult::Ack("done".into())]);
        let first = match sql.get("results") {
            Some(Value::Arr(items)) => &items[0],
            other => panic!("{other:?}"),
        };
        assert_eq!(first.get("type"), Some(&Value::Str("ack".into())));
        assert_eq!(first.get("ack"), Some(&Value::Str("done".into())));
    }

    #[test]
    fn error_status_mapping() {
        assert_eq!(
            error_of(&SqlError::UnknownTable { name: "x".into() }).status,
            404
        );
        assert_eq!(error_of(&SqlError::QueueFull { depth: 7 }).status, 429);
        assert_eq!(
            error_of(&SqlError::OverBudget { cost: f64::NAN }).status,
            400
        );
        assert_eq!(
            error_of(&SqlError::Parse {
                message: "m".into()
            })
            .status,
            400
        );
        let shed = error_of(&SqlError::QueueFull { depth: 7 });
        assert_eq!(shed.body.get("queue_depth"), Some(&Value::Num(7.0)));
        assert_eq!(shed.body.get("retryable"), Some(&Value::Bool(true)));
    }
}
