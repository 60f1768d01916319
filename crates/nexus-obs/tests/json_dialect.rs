//! The dialect of the workspace's one JSON stack, pinned case by case.
//!
//! The parser and writer live in `vendor/serde/src/text.rs`, outside the
//! workspace, so their tests run from here — against `parse_json` /
//! `Json::write` for the parser and compact writer, and against
//! `serde_json::{to_string, to_string_pretty}` for the shapes the committed
//! `bench_results/*.json` depend on.
//!
//! Every verdict in [`dialect_table`] is what the former `nexus-obs`
//! parser returned, except the rows marked "new": over-deep nesting and
//! numbers beyond `f64` used to be a stack overflow and an `inf`.

use nexus_obs::{parse_json, Json};
use serde_json::json;

fn str_of(s: &str) -> Option<Json> {
    Some(Json::Str(s.to_string()))
}

#[test]
fn dialect_table() {
    // (input, Some(value) = accepted as exactly this | None = typed error)
    let table: Vec<(&str, Option<Json>)> = vec![
        // Escapes: the full RFC 8259 set.
        (r#""\b\f\/\n\r\t\"\\""#, str_of("\u{8}\u{c}/\n\r\t\"\\")),
        (r#""\u0041\u00e9""#, str_of("Aé")),
        // Surrogates are accepted; each half (paired or lone) decodes to
        // U+FFFD, as our own writer never emits them.
        (r#""\ud83d\ude00""#, str_of("\u{fffd}\u{fffd}")),
        (r#""\ud800""#, str_of("\u{fffd}")),
        (r#""\x""#, None),
        (r#""\u12""#, None),
        (r#""\u12g4""#, None),
        // Raw control characters inside a string must be escaped.
        ("\"a\u{1}b\"", None),
        ("\"a\nb\"", None),
        ("\"a\tb\"", None),
        ("\"unterminated", None),
        // Numbers keep their lexical class.
        ("0", Some(Json::UInt(0))),
        ("-0", Some(Json::Int(0))),
        ("-3", Some(Json::Int(-3))),
        ("1.5e3", Some(Json::Float(1500.0))),
        ("1E-2", Some(Json::Float(0.01))),
        ("18446744073709551615", Some(Json::UInt(u64::MAX))),
        ("18446744073709551616", None),
        ("-9223372036854775808", Some(Json::Int(i64::MIN))),
        ("-9223372036854775809", None),
        // Lenient beyond the RFC: a leading zero and a bare trailing point.
        ("01", Some(Json::UInt(1))),
        ("1.", Some(Json::Float(1.0))),
        ("-", None),
        (".5", None),
        ("+1", None),
        ("1e", None),
        // New: a number with no finite f64 is an error, not `inf`.
        ("1e999", None),
        ("-1e999", None),
        ("1e-999", Some(Json::Float(0.0))),
        // Objects keep every field in file order; lookup finds the first.
        (
            r#"{"a":1,"a":2}"#,
            Some(Json::Object(vec![
                ("a".to_string(), Json::UInt(1)),
                ("a".to_string(), Json::UInt(2)),
            ])),
        ),
        (r#"{"a":1,}"#, None),
        ("[1,]", None),
        ("[,1]", None),
        (r#"{"a" 1}"#, None),
        (r#"{a:1}"#, None),
        // Literals and document framing.
        (" \t\r\n null \n", Some(Json::Null)),
        ("nul", None),
        ("True", None),
        ("", None),
        ("12 34", None),
        ("{", None),
    ];
    for (input, want) in table {
        let got = parse_json(input).ok();
        assert_eq!(got, want, "input {input:?}");
    }
    let dup = parse_json(r#"{"a":1,"a":2}"#).unwrap();
    assert_eq!(dup.get("a"), Some(&Json::UInt(1)));
}

/// New: nesting is counted, and one level past 128 is a typed error naming
/// the byte — not recursion until the stack runs out.
#[test]
fn nesting_is_capped_at_128_levels() {
    let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    assert!(parse_json(&nested(128)).is_ok());
    let err = parse_json(&nested(129)).unwrap_err().to_string();
    assert!(err.contains("byte 128"), "{err}");
    // Objects count toward the same limit, and siblings do not add up.
    let mixed = r#"{"k":["#.repeat(64) + "1" + &"]}".repeat(64);
    assert!(parse_json(&mixed).is_ok());
    assert!(parse_json(&format!("[{mixed}]")).is_err());
    let wide = format!("[{}]", vec![nested(127); 200].join(","));
    assert!(parse_json(&wide).is_ok());
    // The input that used to abort `nexus-trace` and `simulate`.
    assert!(parse_json(&"[".repeat(100_000)).is_err());
    assert!(parse_json(&r#"{"a":"#.repeat(100_000)).is_err());
}

#[test]
fn compact_and_pretty_shapes() {
    let v = json!({
        "a": 1u32,
        "b": vec![1.5, 2.0],
        "c": "x",
        "d": Vec::<u32>::new()
    });
    let compact = r#"{"a":1,"b":[1.5,2.0],"c":"x","d":[]}"#;
    assert_eq!(serde_json::to_string(&v).unwrap(), compact);
    assert_eq!(v.to_string(), compact);
    let mut written = String::new();
    v.write(&mut written);
    assert_eq!(written, compact);
    assert_eq!(
        serde_json::to_string_pretty(&v).unwrap(),
        "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    2.0\n  ],\n  \"c\": \"x\",\n  \"d\": []\n}"
    );
    assert_eq!(serde_json::from_str::<Json>(compact).unwrap(), v);
}

#[test]
fn control_characters_are_escaped_on_write() {
    let v = Json::Str("q\"b\\n\nr\rt\tz\u{0}u\u{1f}é".to_string());
    let text = v.to_string();
    assert_eq!(text, r#""q\"b\\n\nr\rt\tz\u0000u\u001fé""#);
    assert_eq!(parse_json(&text).unwrap(), v);
}

/// Floats print ryu-style: shortest round-trip digits, plain decimal inside
/// `1e-5 <= |x| < 1e16`, `d.ddde<exp>` outside — what real `serde_json`
/// prints, and what the committed `bench_results` contain.
#[test]
fn float_formatting_matches_ryu() {
    for (x, want) in [
        (1.0, "1.0"),
        (-2.5, "-2.5"),
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (0.05, "0.05"),
        (4727.4443359375, "4727.4443359375"),
        (2.72e-8, "2.72e-8"),
        (1e-7, "1e-7"),
        (4.08e-6, "4.08e-6"),
        (-4.166666666666667e-6, "-4.166666666666667e-6"),
        (1e-5, "0.00001"),
        (9.999999999999999e-6, "9.999999999999999e-6"),
        (0.00005236, "0.00005236"),
        (0.000053472222222222224, "0.000053472222222222224"),
        (0.00014166666666666668, "0.00014166666666666668"),
        (123000.0, "123000.0"),
        (9.007199254740992e15, "9007199254740992.0"),
        (9999999999999998.0, "9999999999999998.0"),
        (1e16, "1e16"),
        (1.2345e300, "1.2345e300"),
        (f64::MAX, "1.7976931348623157e308"),
        (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        (5e-324, "5e-324"),
    ] {
        let text = Json::Float(x).to_string();
        assert_eq!(text, want);
        // Whatever the notation, a float re-parses as the same float.
        assert_eq!(parse_json(&text).unwrap(), Json::Float(x));
    }
    // JSON has no Inf/NaN; null keeps the document parseable.
    assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    assert_eq!(Json::Float(f64::NAN).to_string(), "null");
}
