//! Offline shim for the `serde_json` crate (see `shims/README.md`).
//!
//! Provides [`to_string`], [`from_str`], the [`json!`] macro and the shared
//! [`Value`] type over the shim `serde` data model.
//!
//! ```
//! let v = serde_json::json!({ "xs": vec![1.0f32, 2.0], "n": 3usize });
//! assert_eq!(v.to_string(), r#"{"xs":[1,2],"n":3}"#);
//! let back: serde_json::Value = serde_json::from_str(&v.to_string()).unwrap();
//! assert_eq!(back, v);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub use serde::value::Value;

use serde::{Deserialize, Serialize};

mod parse;

/// Error produced by [`to_string`] / [`from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Converts any [`Serialize`] type into a [`Value`] (used by [`json!`]).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes `value` as compact JSON text.
///
/// # Errors
/// Infallible for the shim data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Parses JSON text and reconstructs a `T`.
///
/// # Errors
/// Returns [`Error`] on malformed JSON or when the parsed value does not
/// have the shape `T` expects.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse::parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Builds a [`Value`] from a JSON-like literal.
///
/// Supported subset: `null`, object literals `{ "key": expr, .. }`, array
/// literals `[expr, ..]` and any expression whose type implements the shim
/// `Serialize` trait. Unlike the real `serde_json::json!`, object/array
/// literals do not nest textually — bind the inner literal to a variable
/// first.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ({ $($key:tt : $value:expr),* $(,)? }) => {{
        let entries: Vec<(String, $crate::Value)> = vec![
            $( (($key).to_string(), $crate::to_value(&$value)) ),*
        ];
        $crate::Value::Object(entries)
    }};
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$value) ),* ])
    };
    ($value:expr) => {
        $crate::to_value(&$value)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": [true, false, null]}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            Value::Number(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        let reparsed: Value = from_str(&v.to_string()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn typed_round_trip() {
        let xs = vec![1.5f32, -2.25, 0.0];
        let text = to_string(&xs).unwrap();
        let back: Vec<f32> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(from_str::<Value>("{\"a\": ").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({ "k": 1.0f32, "s": "hi" });
        assert_eq!(v.to_string(), r#"{"k":1,"s":"hi"}"#);
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!([1usize, 2usize]).to_string(), "[1,2]");
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_rejected() {
        let depth = parse::MAX_DEPTH;
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}null{}", r#"{"k":"#.repeat(n), "}".repeat(n));
        assert!(from_str::<Value>(&arrays(depth)).is_ok());
        assert!(from_str::<Value>(&objects(depth)).is_ok());
        assert!(from_str::<Value>(&arrays(depth + 1)).is_err());
        assert!(from_str::<Value>(&objects(depth + 1)).is_err());
        // Mixed nesting counts every level, and a hostile line far past the
        // limit fails with the same error instead of overflowing the stack.
        let mixed = format!("[{}]", objects(depth));
        assert!(from_str::<Value>(&mixed).is_err());
        let err = from_str::<Value>(&"[".repeat(10_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: Value = from_str(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }
}
