//! The derive's field attributes: `#[serde(default)]` is the only one, and
//! it changes reading, never writing.

use serde::{Deserialize, Serialize, Serializer, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Report {
    runs: u32,
    #[serde(default)]
    critical_path: Option<u32>,
}

fn compact(value: &impl Serialize) -> String {
    let mut out = Serializer::compact();
    value.serialize(&mut out);
    out.finish().expect("finite values serialize")
}

#[test]
fn a_defaulted_none_writes_null_and_reads_back() {
    let report = Report {
        runs: 3,
        critical_path: None,
    };
    assert_eq!(compact(&report), r#"{"runs":3,"critical_path":null}"#);
    let written = Value::Object(vec![
        ("runs".to_string(), Value::UInt(3)),
        ("critical_path".to_string(), Value::Null),
    ]);
    assert_eq!(Report::from_value(&written).unwrap(), report);
    // `default` lets the key be missing on read.
    let without = Value::Object(vec![("runs".to_string(), Value::UInt(3))]);
    assert_eq!(Report::from_value(&without).unwrap(), report);
}

#[derive(Serialize)]
struct Newtype(i64);

#[derive(Serialize)]
enum Shape {
    Empty,
    Scaled(f64),
    Box { w: u32, tags: Vec<String> },
}

#[test]
fn every_derived_shape_writes_externally_tagged_json() {
    let shapes = [
        Shape::Empty,
        Shape::Scaled(2.0),
        Shape::Box {
            w: 4,
            tags: vec!["\"".to_string(), "é".to_string()],
        },
    ];
    assert_eq!(compact(&Newtype(-7)), "-7");
    assert_eq!(
        compact(&shapes),
        r#"["Empty",{"Scaled":2.0},{"Box":{"w":4,"tags":["\"","é"]}}]"#
    );
    let mut out = Serializer::pretty();
    Shape::Box { w: 4, tags: vec![] }.serialize(&mut out);
    assert_eq!(
        out.finish().unwrap(),
        "{\n  \"Box\": {\n    \"w\": 4,\n    \"tags\": []\n  }\n}"
    );
}

#[test]
fn the_first_error_is_kept() {
    let mut out = Serializer::compact();
    vec![1.0, f64::NAN, f64::INFINITY].serialize(&mut out);
    let err = out.finish().unwrap_err();
    assert_eq!(err.to_string(), "cannot serialize non-finite float NaN");
}
