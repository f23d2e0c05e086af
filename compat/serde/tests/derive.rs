//! The derive's field attributes: `#[serde(default)]` is the only one, and
//! it changes reading, never writing.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Report {
    runs: u32,
    #[serde(default)]
    critical_path: Option<u32>,
}

#[test]
fn a_defaulted_none_writes_null_and_reads_back() {
    let report = Report {
        runs: 3,
        critical_path: None,
    };
    let written = report.to_value();
    assert_eq!(
        written,
        Value::Object(vec![
            ("runs".to_string(), Value::UInt(3)),
            ("critical_path".to_string(), Value::Null),
        ])
    );
    assert_eq!(Report::from_value(&written).unwrap(), report);
    // `default` lets the key be missing on read.
    let without = Value::Object(vec![("runs".to_string(), Value::UInt(3))]);
    assert_eq!(Report::from_value(&without).unwrap(), report);
}
