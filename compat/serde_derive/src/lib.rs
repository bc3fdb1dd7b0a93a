//! Offline stand-in for `serde_derive`.
//!
//! Real `serde_derive` builds on `syn`/`quote`, which are unavailable in
//! this offline build environment, so these derives parse the item's token
//! stream by hand. They support exactly the shapes the workspace declares:
//!
//! - structs with named fields (objects),
//! - tuple structs (newtype for arity 1, arrays otherwise),
//! - enums with unit variants only (strings).
//!
//! Anything else — generics, data-carrying enum variants, `#[serde(...)]`
//! attributes — is rejected with a compile error rather than silently
//! mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the workspace `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives the workspace `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

/// The shapes we can derive for.
enum Shape {
    /// `struct S { a: T, b: U }` — field names in declaration order.
    Named(Vec<String>),
    /// `struct S(T, U);` — field count.
    Tuple(usize),
    /// `enum E { A, B }` — variant names.
    UnitEnum(Vec<String>),
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let (name, shape) = match parse_item(input) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let escaped = msg.replace('"', "\\\"");
            return format!("compile_error!(\"{escaped}\");")
                .parse()
                .expect("compile_error tokens parse");
        }
    };
    let body = if serialize {
        gen_serialize(&name, &shape)
    } else {
        gen_deserialize(&name, &shape)
    };
    body.parse().expect("generated impl parses")
}

/// Parses `[attrs] [vis] (struct|enum) Name <body>` into name + shape.
fn parse_item(input: TokenStream) -> Result<(String, Shape), String> {
    let mut iter = input.into_iter().peekable();
    skip_attrs_and_vis(&mut iter);

    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            return Err(format!(
                "derive(Serialize/Deserialize) stub does not support generics on `{name}`"
            ));
        }
    }

    let shape = match (kind.as_str(), iter.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(count_tuple_fields(g.stream()))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::UnitEnum(parse_unit_variants(g.stream(), &name)?)
        }
        (k, other) => {
            return Err(format!(
                "derive stub cannot handle `{k}` item `{name}` with body {other:?}"
            ))
        }
    };
    Ok((name, shape))
}

/// Skips any number of `#[...]` attributes and a `pub`/`pub(...)` prefix.
fn skip_attrs_and_vis(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
}

/// Extracts field names from a named-struct body.
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after `{name}`, got {other:?}")),
        }
        fields.push(name);
        // Consume the type: everything up to a comma at angle-depth 0.
        // Generic argument lists are not token groups, so `<`/`>` depth has
        // to be tracked by hand; `->`, shifts, and comparisons cannot occur
        // in field-type position.
        let mut angle_depth = 0i32;
        for tok in iter.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
        }
    }
    Ok(fields)
}

/// Counts fields of a tuple-struct body (top-level commas).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_token = false;
    let mut angle_depth = 0i32;
    for tok in body {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    count += 1;
                    saw_token = false;
                    continue;
                }
                _ => {}
            }
        }
        saw_token = true;
    }
    count + usize::from(saw_token)
}

/// Extracts variant names, rejecting data-carrying variants.
fn parse_unit_variants(body: TokenStream, enum_name: &str) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut iter);
        let name = match iter.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        match iter.next() {
            None => {
                variants.push(name);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push(name),
            other => {
                return Err(format!(
                    "derive stub only supports unit variants; `{enum_name}::{name}` \
                     is followed by {other:?}"
                ))
            }
        }
    }
    Ok(variants)
}

fn gen_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields) => {
            let pushes: String = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),"))
                .collect();
            format!("::serde::Value::Object(vec![{pushes}])")
        }
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Array(vec![{items}])")
        }
        Shape::UnitEnum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\","))
                .collect();
            format!("::serde::Value::Str(match self {{ {arms} }}.to_string())")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!("{f}: ::serde::Deserialize::from_value(value.get_field(\"{f}\")?)?,")
                })
                .collect();
            format!("::std::result::Result::Ok(Self {{ {inits} }})")
        }
        Shape::Tuple(1) => {
            "::std::result::Result::Ok(Self(::serde::Deserialize::from_value(value)?))".to_string()
        }
        Shape::Tuple(n) => {
            let elems: String = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                .collect();
            format!(
                "match value {{\n\
                     ::serde::Value::Array(items) if items.len() == {n} => \
                         ::std::result::Result::Ok(Self({elems})),\n\
                     other => ::std::result::Result::Err(::serde::Error::new(format!(\n\
                         \"expected {n}-element array for {name}, got {{}}\", other.kind()))),\n\
                 }}"
            )
        }
        Shape::UnitEnum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            format!(
                "match value {{\n\
                     ::serde::Value::Str(s) => match s.as_str() {{\n\
                         {arms}\n\
                         other => ::std::result::Result::Err(::serde::Error::new(format!(\n\
                             \"unknown {name} variant `{{other}}`\"))),\n\
                     }},\n\
                     other => ::std::result::Result::Err(::serde::Error::new(format!(\n\
                         \"expected string for {name}, got {{}}\", other.kind()))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}
