//! Offline stand-in for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! The build environment has no network access, so the workspace patches
//! `serde` to this crate. It deliberately implements a much smaller model
//! than real serde: serialization goes through an owned [`Value`] tree
//! (the only format the workspace uses is JSON via the sibling
//! `serde_json` stub). The `derive` feature re-exports hand-rolled
//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros that cover the
//! shapes this workspace declares: named-field structs, tuple structs, and
//! unit-variant enums.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A dynamically typed serialization tree (JSON-shaped).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (any JSON number without sign, dot, or exponent).
    U64(u64),
    /// Signed integer (negative JSON numbers without dot or exponent).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion-ordered so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an object.
    pub fn get_field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Short description of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) => "unsigned integer",
            Value::I64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// (De)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// A type that can serialize itself into a [`Value`] tree.
pub trait Serialize {
    /// Builds the value tree.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::U64(u) => *u,
                    Value::I64(i) if *i >= 0 => *i as u64,
                    other => return Err(Error::new(format!(
                        "expected unsigned integer, got {}", other.kind()
                    ))),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::I64(i) => *i,
                    Value::U64(u) => i64::try_from(*u)
                        .map_err(|_| Error::new(format!("{u} overflows i64")))?,
                    other => return Err(Error::new(format!(
                        "expected integer, got {}", other.kind()
                    ))),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("{raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::F64(f) => Ok(*f as $t),
                    Value::U64(u) => Ok(*u as $t),
                    Value::I64(i) => Ok(*i as $t),
                    other => Err(Error::new(format!(
                        "expected number, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}
ser_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(value)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::new(format!("expected array of length {N}, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// `Value` passes through both traits unchanged, so callers can work with
// dynamically shaped JSON (e.g. merging result files whose schemas differ)
// without declaring a struct per file.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-5i32).to_value()).unwrap(), -5);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let a: [u32; 3] = [7, 8, 9];
        assert_eq!(<[u32; 3]>::from_value(&a.to_value()).unwrap(), a);
    }

    #[test]
    fn integer_widening_is_accepted() {
        // "2.0" prints as "2" and parses back as an integer; float fields
        // must accept it.
        assert_eq!(f64::from_value(&Value::U64(2)).unwrap(), 2.0);
        assert_eq!(f32::from_value(&Value::I64(-3)).unwrap(), -3.0);
    }

    #[test]
    fn type_mismatches_error() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(String::from_value(&Value::U64(1)).is_err());
    }
}
