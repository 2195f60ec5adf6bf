//! Derive macros for the vendored `serde` shim.
//!
//! The offline build environment has neither `syn` nor `quote`, so the input item is parsed
//! directly from the `proc_macro` token trees.  Supported shapes cover everything this
//! workspace derives on: non-generic structs (named, tuple, unit) and non-generic enums with
//! unit, tuple, and struct variants.  Both derives follow serde's JSON data model
//! (externally tagged enums); the only attribute understood is the field-level
//! `#[serde(default)]`, which makes an absent field decode to `Default::default()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A named field and whether it carries `#[serde(default)]`.
struct Field {
    name: String,
    default: bool,
}

/// One parsed field-or-variant description.
enum Shape {
    /// `struct S;`
    UnitStruct,
    /// `struct S { a: T, b: U }` — fields in order.
    NamedStruct(Vec<Field>),
    /// `struct S(T, U);` — number of fields.
    TupleStruct(usize),
    /// `enum E { ... }` — variants as (name, fields).
    Enum(Vec<(String, VariantFields)>),
}

enum VariantFields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

/// Derives the shim's `serde::Serialize` (JSON writer) for the item.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match shape {
        Shape::UnitStruct => "out.push_str(\"null\");".to_string(),
        Shape::NamedStruct(fields) => {
            let mut code = String::from("out.push('{');\n");
            for (i, Field { name: f, .. }) in fields.iter().enumerate() {
                if i > 0 {
                    code.push_str("out.push(',');\n");
                }
                code.push_str(&format!(
                    "out.push_str(\"\\\"{f}\\\":\");\nserde::Serialize::serialize_json(&self.{f}, out);\n"
                ));
            }
            code.push_str("out.push('}');");
            code
        }
        Shape::TupleStruct(1) => {
            "serde::Serialize::serialize_json(&self.0, out);".to_string()
        }
        Shape::TupleStruct(n) => {
            let mut code = String::from("out.push('[');\n");
            for i in 0..n {
                if i > 0 {
                    code.push_str("out.push(',');\n");
                }
                code.push_str(&format!("serde::Serialize::serialize_json(&self.{i}, out);\n"));
            }
            code.push_str("out.push(']');");
            code
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, fields) in &variants {
                match fields {
                    VariantFields::Unit => {
                        arms.push_str(&format!(
                            "{name}::{v} => {{ out.push_str(\"\\\"{v}\\\"\"); }}\n"
                        ));
                    }
                    VariantFields::Tuple(1) => {
                        arms.push_str(&format!(
                            "{name}::{v}(f0) => {{ out.push_str(\"{{\\\"{v}\\\":\"); \
                             serde::Serialize::serialize_json(f0, out); out.push('}}'); }}\n"
                        ));
                    }
                    VariantFields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let mut inner = format!(
                            "{name}::{v}({}) => {{ out.push_str(\"{{\\\"{v}\\\":[\");\n",
                            binds.join(", ")
                        );
                        for (i, b) in binds.iter().enumerate() {
                            if i > 0 {
                                inner.push_str("out.push(',');\n");
                            }
                            inner.push_str(&format!(
                                "serde::Serialize::serialize_json({b}, out);\n"
                            ));
                        }
                        inner.push_str("out.push_str(\"]}\"); }\n");
                        arms.push_str(&inner);
                    }
                    VariantFields::Named(fs) => {
                        let fs: Vec<&str> = fs.iter().map(|f| f.name.as_str()).collect();
                        let mut inner = format!(
                            "{name}::{v} {{ {} }} => {{ out.push_str(\"{{\\\"{v}\\\":{{\");\n",
                            fs.join(", ")
                        );
                        for (i, f) in fs.iter().enumerate() {
                            if i > 0 {
                                inner.push_str("out.push(',');\n");
                            }
                            inner.push_str(&format!(
                                "out.push_str(\"\\\"{f}\\\":\");\nserde::Serialize::serialize_json({f}, out);\n"
                            ));
                        }
                        inner.push_str("out.push_str(\"}}\"); }\n");
                        arms.push_str(&inner);
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let code = format!(
        "impl serde::Serialize for {name} {{\n\
         fn serialize_json(&self, out: &mut String) {{\n{body}\n}}\n}}"
    );
    code.parse().expect("generated Serialize impl must parse")
}

/// Derives the shim's `serde::Deserialize` (decoder from `serde::Value`) for the item.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_item(input);
    let body = match shape {
        Shape::UnitStruct => format!("serde::__private::unit(value).map(|()| {name})"),
        Shape::NamedStruct(fields) => decode_named(&name, &fields, "value"),
        Shape::TupleStruct(n) => decode_tuple(&name, n, "value"),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (v, fields) in &variants {
                let path = format!("{name}::{v}");
                let arm = match fields {
                    VariantFields::Unit => format!("serde::__private::unit(body).map(|()| {path})"),
                    VariantFields::Named(fields) => decode_named(&path, fields, "body"),
                    VariantFields::Tuple(n) => decode_tuple(&path, *n, "body"),
                };
                arms.push_str(&format!("{v:?} => {arm},\n"));
            }
            let tags: Vec<String> = variants.iter().map(|(v, _)| format!("{v:?}")).collect();
            format!(
                "let (tag, body) = serde::__private::variant(value)?;\n\
                 let decoded = match tag {{\n{arms}\
                 other => return Err(serde::__private::unknown_variant(other, &[{}])),\n}};\n\
                 decoded.map_err(|e| e.at(tag))",
                tags.join(", ")
            )
        }
    };
    let code = format!(
        "impl serde::Deserialize for {name} {{\n\
         fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {{\n{body}\n}}\n}}"
    );
    code.parse().expect("generated Deserialize impl must parse")
}

/// A decoder expression for the named-field struct (or variant) `path` from `value`.
fn decode_named(path: &str, fields: &[Field], value: &str) -> String {
    let names: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
    let mut inits = String::new();
    for Field { name, default } in fields {
        let helper = if *default { "field_or_default" } else { "field" };
        inits.push_str(&format!("{name}: serde::__private::{helper}(map, {name:?})?,\n"));
    }
    format!(
        "serde::__private::object({value}, &[{}]).and_then(|map| Ok({path} {{\n{inits}}}))",
        names.join(", ")
    )
}

/// A decoder expression for the `n`-field tuple struct (or variant) `path` from `value`:
/// a newtype decodes its field directly, wider tuples from an array.
fn decode_tuple(path: &str, n: usize, value: &str) -> String {
    if n == 1 {
        return format!("serde::Deserialize::deserialize({value}).map({path})");
    }
    let elements: Vec<String> =
        (0..n).map(|i| format!("serde::__private::element(&items[{i}], {i})?")).collect();
    format!(
        "serde::__private::tuple({value}, {n}).and_then(|items| Ok({path}({})))",
        elements.join(", ")
    )
}

/// The argument text of a `#[serde(...)]` attribute (`default` for `#[serde(default)]`);
/// `None` for any other attribute, doc comments included.
fn serde_attribute(attr: Option<TokenTree>) -> Option<String> {
    let Some(TokenTree::Group(group)) = attr else { return None };
    let mut tokens = group.stream().into_iter();
    match (tokens.next(), tokens.next()) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            Some(args.stream().to_string())
        }
        _ => None,
    }
}

/// Parses a struct or enum item down to the pieces the derives need.
fn parse_item(input: TokenStream) -> (String, Shape) {
    let mut trees = input.into_iter().peekable();
    // Skip attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    let kind = loop {
        match trees.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(args) = serde_attribute(trees.next()) {
                    panic!("serde_derive shim: unsupported container attribute #[serde({args})]");
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = trees.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        trees.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                panic!("serde_derive shim: unexpected token `{s}` before struct/enum keyword");
            }
            other => panic!("serde_derive shim: unexpected token {other:?}"),
        }
    };
    let name = match trees.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = trees.peek() {
        if p.as_char() == '<' {
            panic!(
                "serde_derive shim: generic type `{name}` is not supported; \
                 write the Serialize impl by hand"
            );
        }
    }
    if kind == "enum" {
        let body = match trees.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        };
        return (name, Shape::Enum(parse_variants(body)));
    }
    // Struct: brace body (named), paren body (tuple), or bare `;` (unit).
    match trees.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            (name, Shape::NamedStruct(parse_named_fields(g.stream())))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            (name, Shape::TupleStruct(count_tuple_fields(g.stream())))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => (name, Shape::UnitStruct),
        other => panic!("serde_derive shim: expected struct body, got {other:?}"),
    }
}

/// Extracts the fields of a named-field body, skipping visibility and types and reading
/// `#[serde(default)]` among the attributes.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut trees = body.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        let mut default = false;
        let name = loop {
            match trees.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    match serde_attribute(trees.next()).as_deref() {
                        Some("default") => default = true,
                        Some(args) => {
                            panic!("serde_derive shim: unsupported attribute #[serde({args})]")
                        }
                        None => {}
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = trees.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            trees.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde_derive shim: unexpected field token {other:?}"),
            }
        };
        fields.push(Field { name, default });
        match trees.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after field name, got {other:?}"),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut depth: i32 = 0;
        loop {
            match trees.next() {
                None => return fields,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
}

/// Counts the fields of a tuple body (top-level commas at angle depth 0).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth: i32 = 0;
    let mut saw_tokens = false;
    let mut last_was_comma = false;
    for tree in body {
        saw_tokens = true;
        last_was_comma = false;
        if let TokenTree::Punct(p) = &tree {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    count += 1;
                    last_was_comma = true;
                }
                _ => {}
            }
        }
    }
    if !saw_tokens {
        0
    } else if last_was_comma {
        count
    } else {
        count + 1
    }
}

/// Parses enum variants (unit, tuple, or struct-like).
fn parse_variants(body: TokenStream) -> Vec<(String, VariantFields)> {
    let mut variants = Vec::new();
    let mut trees = body.into_iter().peekable();
    loop {
        // Skip attributes before the variant name.
        let variant = loop {
            match trees.next() {
                None => return variants,
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    if let Some(args) = serde_attribute(trees.next()) {
                        panic!("serde_derive shim: unsupported variant attribute #[serde({args})]");
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => panic!("serde_derive shim: unexpected variant token {other:?}"),
            }
        };
        let fields = match trees.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                trees.next();
                VariantFields::Named(parse_named_fields(stream))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                trees.next();
                VariantFields::Tuple(count_tuple_fields(stream))
            }
            _ => VariantFields::Unit,
        };
        variants.push((variant, fields));
        // Consume the trailing comma, if any.
        if let Some(TokenTree::Punct(p)) = trees.peek() {
            if p.as_char() == ',' {
                trees.next();
            }
        }
    }
}
