//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree serde
//! compatibility layer (see `compat/serde`).
//!
//! Implemented directly on `proc_macro::TokenStream` — no `syn`/`quote`,
//! because the build must work with an empty registry. Supports the shapes
//! this workspace uses:
//!
//! * structs with named fields (`#[serde(default)]` honoured per field;
//!   any other `serde(...)` key is a compile error rather than a silent
//!   no-op);
//! * newtype structs;
//! * enums with unit, newtype and struct variants, serialized in serde's
//!   externally-tagged form (`"Variant"` / `{"Variant": ...}`).
//!
//! Generics, unit structs and tuple structs or variants of more than one
//! field are not supported and produce a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String,
    has_default: bool,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Newtype,
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum ItemKind {
    NamedStruct(Vec<Field>),
    Newtype,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Item {
    name: String,
    kind: ItemKind,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: &TokenTree, c: char) -> bool {
    matches!(tt, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(tt: &TokenTree, s: &str) -> bool {
    matches!(tt, TokenTree::Ident(i) if i.to_string() == s)
}

/// Consume one `#[...]` attribute (the leading `#` was already consumed) and
/// report whether it is `#[serde(default)]`. A `serde(...)` attribute with
/// any other content is an error: the derive would otherwise ignore it.
fn attr_is_serde_default(tokens: &mut Tokens) -> Result<bool, String> {
    let Some(TokenTree::Group(g)) = tokens.next() else {
        panic!("expected [...] after # in attribute");
    };
    let mut inner = g.stream().into_iter();
    match inner.next() {
        Some(ref tt) if is_ident(tt, "serde") => {}
        _ => return Ok(false),
    }
    let args = inner.next().map(|tt| tt.to_string()).unwrap_or_default();
    if args.replace(' ', "") == "(default)" {
        Ok(true)
    } else {
        Err(format!(
            "the serde compat derive supports only `#[serde(default)]`, not `#[serde{args}]`"
        ))
    }
}

/// Skip attributes; returns true if a `#[serde(default)]` was seen.
fn skip_attrs(tokens: &mut Tokens) -> Result<bool, String> {
    let mut has_default = false;
    while matches!(tokens.peek(), Some(tt) if is_punct(tt, '#')) {
        tokens.next();
        has_default |= attr_is_serde_default(tokens)?;
    }
    Ok(has_default)
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(tt) if is_ident(tt, "pub")) {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consume a type (everything up to a top-level `,`), tracking `<...>` depth.
/// Returns false when the stream ended.
fn skip_type(tokens: &mut Tokens) -> bool {
    let mut angle = 0i32;
    let mut seen_any = false;
    while let Some(tt) = tokens.peek() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                tokens.next();
                return true;
            }
            _ => {}
        }
        seen_any = true;
        tokens.next();
    }
    seen_any
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let has_default = skip_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let Some(tt) = tokens.next() else { break };
        let TokenTree::Ident(name) = tt else {
            panic!("expected field name, found {tt}");
        };
        match tokens.next() {
            Some(ref tt) if is_punct(tt, ':') => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type(&mut tokens);
        fields.push(Field {
            name: name.to_string(),
            has_default,
        });
    }
    Ok(fields)
}

/// Check that a tuple-struct/-variant parenthesis group holds exactly one
/// field; `what` names the struct or variant in the error.
fn expect_newtype(stream: TokenStream, what: &str) -> Result<(), String> {
    let mut tokens = stream.into_iter().peekable();
    let mut n = 0;
    loop {
        skip_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        if tokens.peek().is_none() {
            break;
        }
        if !skip_type(&mut tokens) {
            break;
        }
        n += 1;
    }
    if n == 1 {
        Ok(())
    } else {
        Err(format!(
            "the serde compat derive supports one-field tuples only; `{what}` has {n}"
        ))
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs(&mut tokens)?;
        let Some(tt) = tokens.next() else { break };
        let TokenTree::Ident(name) = tt else {
            panic!("expected variant name, found {tt}");
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                tokens.next();
                VariantShape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                expect_newtype(g.stream(), &name.to_string())?;
                tokens.next();
                VariantShape::Newtype
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        while let Some(tt) = tokens.peek() {
            if is_punct(tt, ',') {
                tokens.next();
                break;
            }
            tokens.next();
        }
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    let is_enum;
    loop {
        skip_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        match tokens.next() {
            Some(ref tt) if is_ident(tt, "struct") => {
                is_enum = false;
                break;
            }
            Some(ref tt) if is_ident(tt, "enum") => {
                is_enum = true;
                break;
            }
            Some(_) => continue,
            None => panic!("derive input contains no struct or enum"),
        }
    }
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        panic!("expected type name after struct/enum");
    };
    let name = name.to_string();
    if matches!(tokens.peek(), Some(tt) if is_punct(tt, '<')) {
        panic!("serde compat derive does not support generic type `{name}`");
    }
    let kind = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            if is_enum {
                ItemKind::Enum(parse_variants(g.stream())?)
            } else {
                ItemKind::NamedStruct(parse_named_fields(g.stream())?)
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            expect_newtype(g.stream(), &name)?;
            ItemKind::Newtype
        }
        other => panic!("unsupported item body for `{name}`: {other:?}"),
    };
    Ok(Item { name, kind })
}

// ---------------------------------------------------------------- codegen --

/// Writes the named fields as one object; `access` names each field's value.
fn named_serialize(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let entries: String = fields
        .iter()
        .map(|f| {
            format!(
                "__out.field(\"{n}\"); ::serde::Serialize::serialize({a}, __out);",
                n = f.name,
                a = access(&f.name)
            )
        })
        .collect();
    format!("__out.begin_object(); {entries} __out.end_object();")
}

fn named_from_value(ty: &str, ctor: &str, fields: &[Field], obj: &str) -> String {
    let inits: String = fields
        .iter()
        .map(|f| {
            let missing = if f.has_default {
                "::std::default::Default::default()".to_string()
            } else {
                format!(
                    "return ::std::result::Result::Err(::serde::Error::missing_field(\"{ty}\", \"{n}\"))",
                    n = f.name
                )
            };
            format!(
                "{n}: match ::serde::find_field({obj}, \"{n}\") {{ \
                   ::std::option::Option::Some(x) => ::serde::Deserialize::from_value(x)?, \
                   ::std::option::Option::None => {missing}, }},",
                n = f.name
            )
        })
        .collect();
    format!("{ctor} {{ {inits} }}")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => named_serialize(fields, |f| format!("&self.{f}")),
        ItemKind::Newtype => "::serde::Serialize::serialize(&self.0, __out);".to_string(),
        ItemKind::Enum(variants) => {
            // Externally tagged: a unit variant is its name, any other
            // variant a one-key object from its name to its content.
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let (pattern, content) = match &v.shape {
                        VariantShape::Unit => {
                            return format!("{name}::{vn} => __out.str(\"{vn}\"),");
                        }
                        VariantShape::Newtype => (
                            "(x0)".to_string(),
                            "::serde::Serialize::serialize(x0, __out);".to_string(),
                        ),
                        VariantShape::Named(fields) => {
                            let binds: Vec<&str> =
                                fields.iter().map(|f| f.name.as_str()).collect();
                            (
                                format!("{{ {} }}", binds.join(", ")),
                                named_serialize(fields, |f| f.to_string()),
                            )
                        }
                    };
                    format!(
                        "{name}::{vn} {pattern} => {{ \
                           __out.begin_object(); __out.field(\"{vn}\"); {content} __out.end_object(); \
                         }}"
                    )
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
           fn serialize(&self, __out: &mut ::serde::Serializer) {{ {body} }} \
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            let build = named_from_value(name, name, fields, "fields");
            format!(
                "let fields = match v {{ \
                   ::serde::Value::Object(m) => m.as_slice(), \
                   _ => return ::std::result::Result::Err(::serde::Error::custom(\
                        \"{name}: expected object\")), }}; \
                 ::std::result::Result::Ok({build})"
            )
        }
        ItemKind::Newtype => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        ItemKind::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => return ::std::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter(|v| !matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => unreachable!(),
                        VariantShape::Newtype => format!(
                            "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}(\
                               ::serde::Deserialize::from_value(inner)?)),"
                        ),
                        VariantShape::Named(fields) => {
                            let build = named_from_value(
                                &format!("{name}::{vn}"),
                                &format!("{name}::{vn}"),
                                fields,
                                "fields",
                            );
                            format!(
                                "\"{vn}\" => {{ \
                                   let fields = match inner {{ \
                                     ::serde::Value::Object(m) => m.as_slice(), \
                                     _ => return ::std::result::Result::Err(::serde::Error::custom(\
                                          \"{name}::{vn}: expected object\")), }}; \
                                   ::std::result::Result::Ok({build}) }},"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "match v {{ \
                   ::serde::Value::Str(s) => {{ \
                     match s.as_str() {{ {unit_arms} _ => {{}} }} \
                     ::std::result::Result::Err(::serde::Error::unknown_variant(\"{name}\", s)) \
                   }} \
                   ::serde::Value::Object(m) if m.len() == 1 => {{ \
                     let (tag, inner) = &m[0]; \
                     match tag.as_str() {{ \
                       {tagged_arms} \
                       _ => ::std::result::Result::Err(::serde::Error::unknown_variant(\"{name}\", tag)), \
                     }} \
                   }} \
                   _ => ::std::result::Result::Err(::serde::Error::custom(\
                        \"{name}: expected string or single-key object\")), \
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ \
             {body} \
           }} \
         }}"
    )
}

/// Parse the derive input and generate the impl with `generate`, or a
/// `compile_error!` naming what the compat layer cannot honour.
fn derive(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(message) => format!("::core::compile_error!({message:?});"),
    };
    code.parse().expect("serde_derive generated invalid code")
}

/// Derive `serde::Serialize` (compat layer).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    derive(input, gen_serialize)
}

/// Derive `serde::Deserialize` (compat layer).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    derive(input, gen_deserialize)
}
