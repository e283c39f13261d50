//! Oracles for the trace-format JSON codec (`copart_telemetry::Json`).
//!
//! * `json-roundtrip` — encode→parse→encode is a fixpoint for randomized
//!   values (awkward strings, dyadic and bit-pattern floats, duplicate
//!   object keys), and parse is the exact inverse of encode.
//! * `json-depth-limit` — the recursive-descent parser accepts nesting
//!   up to [`MAX_DEPTH`] and rejects
//!   anything deeper. This is the property that flushed out the
//!   stack-overflow bomb (corpus entry `json-depth-limit-bomb`): before
//!   the limit existed, a hostile trace file of `100_000 × '['` crashed
//!   the process instead of returning a parse error.
//! * `json-writer-matches-reference` — every byte of JSON this workspace
//!   writes comes out of one emitter, `JsonWriter`. The per-character
//!   renderer it replaced lives on here as `reference_render`, and
//!   random trees must render to the same bytes through `to_string` and
//!   through the writer directly, and parse back to the same tree — so
//!   the escaping and number rules, which *are* the wire format, cannot
//!   drift unnoticed.

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_telemetry::json::MAX_DEPTH;
use copart_telemetry::{Json, JsonWriter};
use std::fmt::Write as _;

/// Characters chosen to stress the string escaper: quotes, backslashes,
/// control characters, multi-byte UTF-8.
const TRICKY_CHARS: [char; 10] = [
    'a', 'b', '"', '\\', '\n', '\t', '\u{0}', '\u{7f}', 'é', '😀',
];

fn gen_string(src: &mut Source) -> String {
    let len = src.size(0, 6);
    (0..len).map(|_| *src.pick(&TRICKY_CHARS)).collect()
}

fn gen_number(src: &mut Source) -> f64 {
    match src.below(3) {
        // Small integers (including negatives).
        0 => src.size(0, 2_000_000) as f64 - 1_000_000.0,
        // Dyadic fractions: exact in binary, awkward in decimal.
        1 => (src.size(0, 1 << 20) as f64 - (1 << 19) as f64) / (1u64 << src.size(0, 10)) as f64,
        // Arbitrary bit patterns, discarding non-finite ones.
        _ => {
            let x = f64::from_bits(src.draw());
            if x.is_finite() {
                x
            } else {
                0.0
            }
        }
    }
}

fn gen_value(src: &mut Source, depth: usize) -> Json {
    if depth == 0 || src.chance(0.4) {
        match src.below(4) {
            0 => Json::Null,
            1 => Json::Bool(src.chance(0.5)),
            2 => Json::Num(gen_number(src)),
            _ => Json::Str(gen_string(src)),
        }
    } else if src.chance(0.5) {
        let len = src.size(0, 4);
        Json::Arr((0..len).map(|_| gen_value(src, depth - 1)).collect())
    } else {
        let len = src.size(0, 4);
        // Duplicate keys are representable (ordered member list) and must
        // survive the round trip; don't deduplicate.
        Json::Obj(
            (0..len)
                .map(|_| (gen_string(src), gen_value(src, depth - 1)))
                .collect(),
        )
    }
}

fn roundtrip_case(src: &mut Source) -> CaseOutcome {
    let value = gen_value(src, 4);
    let encoded = value.to_string();
    let witness = format!("doc={encoded}");
    let parsed = match Json::parse(&encoded) {
        Ok(v) => v,
        Err(e) => {
            return CaseOutcome {
                witness,
                verdict: Err(format!("own encoding rejected: {e}")),
            }
        }
    };
    if parsed != value {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "parse is not the inverse of encode: got {parsed:?}"
            )),
        };
    }
    let re_encoded = parsed.to_string();
    if re_encoded != encoded {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "encode→parse→encode not a fixpoint: {encoded:?} vs {re_encoded:?}"
            )),
        };
    }
    CaseOutcome {
        witness,
        verdict: Ok(()),
    }
}

fn depth_limit_case(src: &mut Source) -> CaseOutcome {
    // Straddle the limit densely: depths near MAX_DEPTH are the
    // interesting region, but include shallow and clearly-over cases.
    let depth = src.size(1, MAX_DEPTH + 64);
    let arrays = src.chance(0.5);
    let witness = format!(
        "depth={depth} kind={}",
        if arrays { "arrays" } else { "objects" }
    );
    let doc = if arrays {
        format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
    } else {
        format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    };
    let result = Json::parse(&doc);
    let should_parse = depth <= MAX_DEPTH;
    match (result, should_parse) {
        (Ok(v), true) => {
            // While we're here: the accepted document round-trips.
            let re = v.to_string();
            if Json::parse(&re).as_ref() == Ok(&v) {
                CaseOutcome {
                    witness,
                    verdict: Ok(()),
                }
            } else {
                CaseOutcome {
                    witness,
                    verdict: Err(format!("accepted document does not round-trip: {re:?}")),
                }
            }
        }
        (Err(e), false) => {
            if e.to_string().contains("nested") {
                CaseOutcome {
                    witness,
                    verdict: Ok(()),
                }
            } else {
                CaseOutcome {
                    witness,
                    verdict: Err(format!("rejected for the wrong reason: {e}")),
                }
            }
        }
        (Ok(_), false) => CaseOutcome {
            witness,
            verdict: Err(format!(
                "depth {depth} > MAX_DEPTH {MAX_DEPTH} accepted — unbounded recursion"
            )),
        },
        (Err(e), true) => CaseOutcome {
            witness,
            verdict: Err(format!(
                "depth {depth} ≤ MAX_DEPTH {MAX_DEPTH} rejected: {e}"
            )),
        },
    }
}

/// The renderer `Json`'s `Display` was before the push writer: one
/// `write!` per character, one per number. Kept verbatim (modulo writing
/// into a `String`) as the reference the writer is judged against.
fn reference_render(value: &Json, out: &mut String) {
    fn escaped(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => {
                    let _ = write!(out, "{c}");
                }
            }
        }
        out.push('"');
    }
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_render(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escaped(k, out);
                out.push(':');
                reference_render(v, out);
            }
            out.push('}');
        }
    }
}

/// Numbers at the edges of the formatting rule: signed zero, the last
/// exact integer and its neighbours, magnitudes that other JSON writers
/// print in exponent form, the smallest subnormal, and the three
/// non-finite values that must become `null`.
const EDGE_NUMBERS: [f64; 14] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    -9_007_199_254_740_992.0,
    1e21,
    1e-7,
    5e-324,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn wire_number(src: &mut Source) -> f64 {
    match src.below(3) {
        0 => *src.pick(&EDGE_NUMBERS),
        1 => src.size(0, 2_000_000) as f64 - 1_000_000.0,
        // Any bit pattern, non-finite ones included.
        _ => f64::from_bits(src.draw()),
    }
}

fn wire_string(src: &mut Source) -> String {
    let len = src.size(0, 8);
    (0..len)
        .map(|_| match src.below(4) {
            0 => *src.pick(&['a', '"', '\\', '/', ' ', '\u{7f}']),
            // Every control byte, not just the named escapes.
            1 => char::from(src.below(0x20) as u8),
            2 => *src.pick(&['é', 'ß', '→', '😀', '\u{fffd}']),
            _ => char::from(0x20 + src.below(0x5f) as u8),
        })
        .collect()
}

fn wire_value(src: &mut Source, depth: usize) -> Json {
    if depth == 0 || src.chance(0.35) {
        match src.below(4) {
            0 => Json::Null,
            1 => Json::Bool(src.chance(0.5)),
            2 => Json::Num(wire_number(src)),
            _ => Json::Str(wire_string(src)),
        }
    } else if src.chance(0.5) {
        let len = src.size(0, 4);
        Json::Arr((0..len).map(|_| wire_value(src, depth - 1)).collect())
    } else {
        let len = src.size(0, 4);
        Json::Obj(
            (0..len)
                .map(|_| (wire_string(src), wire_value(src, depth - 1)))
                .collect(),
        )
    }
}

/// What parsing the rendering must give back: the tree with every
/// non-finite number replaced by `null`.
fn as_parsed(value: &Json) -> Json {
    match value {
        Json::Num(x) if !x.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(as_parsed).collect()),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), as_parsed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn writer_case(src: &mut Source) -> CaseOutcome {
    let value = wire_value(src, 6);
    let mut reference = String::new();
    reference_render(&value, &mut reference);
    let witness = format!("doc={reference}");
    let verdict = (|| {
        let rendered = value.to_string();
        if rendered != reference {
            return Err(format!(
                "to_string differs from the reference: {rendered:?}"
            ));
        }
        // The writer appends: text already in the buffer is untouched
        // and does not count as a previous value.
        let mut appended = String::from("earlier line\n");
        value.emit(&mut JsonWriter::new(&mut appended));
        if appended.strip_prefix("earlier line\n") != Some(reference.as_str()) {
            return Err(format!("the writer appended something else: {appended:?}"));
        }
        match Json::parse(&reference) {
            Ok(parsed) if parsed == as_parsed(&value) => Ok(()),
            Ok(parsed) => Err(format!("parses back to a different tree: {parsed:?}")),
            Err(e) => Err(format!("own rendering rejected: {e}")),
        }
    })();
    CaseOutcome { witness, verdict }
}

/// The JSON codec oracles.
pub fn properties() -> Vec<Property> {
    vec![
        Property::new("json-roundtrip", roundtrip_case),
        Property::new("json-depth-limit", depth_limit_case),
        Property::new("json-writer-matches-reference", writer_case),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..64 {
            let mut src = Source::from_seed(seed);
            let out = roundtrip_case(&mut src);
            assert_eq!(
                out.verdict,
                Ok(()),
                "roundtrip seed {seed}: {}",
                out.witness
            );
            let mut src = Source::from_seed(seed ^ 0x1234);
            let out = depth_limit_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "depth seed {seed}: {}", out.witness);
            let mut src = Source::from_seed(seed ^ 0x5678);
            let out = writer_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "writer seed {seed}: {}", out.witness);
        }
    }

    /// The reference is only a witness if it disagrees with a wrong
    /// writer: it must itself produce the documented escapes and rules.
    #[test]
    fn reference_renderer_pins_the_wire_rules() {
        let value = Json::Arr(vec![
            Json::Str("q\"b\\n\nr\rt\tz\u{0}u\u{1f}d\u{7f}é😀".into()),
            Json::Num(-0.0),
            Json::Num(9_007_199_254_740_992.0),
            Json::Num(1e21),
            Json::Num(f64::NAN),
            Json::Num(f64::NEG_INFINITY),
        ]);
        let mut out = String::new();
        reference_render(&value, &mut out);
        assert_eq!(
            out,
            "[\"q\\\"b\\\\n\\nr\\rt\\tz\\u0000u\\u001fd\u{7f}é😀\",-0,\
             9007199254740992,1000000000000000000000,null,null]"
        );
        assert_eq!(value.to_string(), out);
    }
}
