//! Property tests for the one JSON codec (`xclean_telemetry::json`,
//! ROADMAP E.2's JSON half): whatever text arrives the parser neither
//! panics nor loops, and everything the printer and the escaper write
//! parses back to the value it came from — built values included, whose
//! integers print exactly and read back as the nearest `f64`.

use std::borrow::Cow;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xclean_telemetry::json::{escape, parse, Json, MAX_DEPTH};

/// Token-dense fragments: concatenations land on every parser branch far
/// more often than uniformly random characters would.
const FRAGMENTS: [&str; 32] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d834", "\\udd1e", "004", "0", "1", "9", "-",
    "+", ".", "e", "E", "true", "false", "null", "tru", " ", "\n", "a", "é", "😀", "\u{1}", "\\n",
    "\"k\":",
];

/// Short text over quotes, backslashes, control characters, ASCII and
/// the astral planes; a small alphabet so keys collide.
fn text(rng: &mut TestRng) -> String {
    (0..rng.below(6))
        .map(|_| match rng.below(8) {
            0 => '"',
            1 => '\\',
            2 => char::from(rng.below(0x20) as u8),
            3 => 'é',
            4 => char::from_u32(0x1F600 + rng.below(16) as u32).expect("emoji block"),
            _ => char::from(b'a' + rng.below(3) as u8),
        })
        .collect()
}

fn finite_number(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => rng.below(1 << 53) as f64,
        1 => -(rng.below(1000) as f64),
        2 => rng.below(1 << 20) as f64 / 1024.0,
        3 => -0.0,
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|n| n.is_finite())
            .unwrap_or(0.5),
    }
}

/// A value whose containers nest at most `depth` deep.
fn tree(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(finite_number(rng)),
        3 => Json::Str(text(rng)),
        4 => (0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect(),
        _ => Json::object(
            (0..rng.below(4))
                .map(|_| (text(rng), tree(rng, depth - 1)))
                .collect::<Vec<_>>(),
        ),
    }
}

/// Literal keys, the way producers name their members.
const KEYS: [&str; 4] = ["query", "log_score", "total_nanos", "k\"\\\u{1}é"];

/// An integer anywhere in `u64`, often past 2^53 where `f64` loses it.
fn integer(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => rng.below(1 << 20),
        1 => (1 << 53) + rng.below(1 << 20),
        2 => u64::MAX - rng.below(1 << 20),
        _ => rng.next_u64(),
    }
}

/// A value built the way the producers build theirs: `Int` and `Num`
/// from typed fields, literal (borrowed) and computed (owned) keys.
fn built(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::from(rng.below(2) == 0),
        2 => Json::from(integer(rng)),
        3 => Json::from(finite_number(rng)),
        4 => Json::from(text(rng)),
        5 => (0..rng.below(4)).map(|_| built(rng, depth - 1)).collect(),
        _ => Json::object(
            (0..rng.below(4))
                .map(|i| {
                    let key = match i % 2 {
                        0 => Cow::Borrowed(KEYS[rng.below(KEYS.len() as u64) as usize]),
                        _ => Cow::Owned(text(rng)),
                    };
                    (key, built(rng, depth - 1))
                })
                .collect::<Vec<_>>(),
        ),
    }
}

/// What the parser reads back from a built value: every number a `Num`.
fn as_parsed(value: &Json) -> Json {
    match value {
        Json::Int(n) => Json::Num(*n as f64),
        Json::Arr(items) => items.iter().map(as_parsed).collect(),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), as_parsed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Every `Int` in `value`, in document order.
fn integers(value: &Json, out: &mut Vec<u64>) {
    match value {
        Json::Int(n) => out.push(*n),
        Json::Arr(items) => items.iter().for_each(|v| integers(v, out)),
        Json::Obj(members) => members.iter().for_each(|(_, v)| integers(v, out)),
        _ => {}
    }
}

/// The vendored `proptest` has no recursive strategies, so a tree is
/// grown from one generated seed.
fn tree_from(seed: u64, depth: usize) -> Json {
    tree(&mut TestRng::deterministic(&seed.to_string()), depth)
}

/// A scalar enclosed by exactly `levels` containers, each also holding
/// `width` scalar siblings on either side; bit `i` of `shape` picks
/// object or array for level `i`.
fn nested(levels: usize, width: usize, shape: u64) -> String {
    let mut doc = "1".to_string();
    for level in 0..levels {
        doc = if shape >> (level % 64) & 1 == 0 {
            format!("[{}{doc}{}]", "0,".repeat(width), ",0".repeat(width))
        } else {
            format!("{{{}\"k\":{doc}}}", "\"s\":0,".repeat(width))
        };
    }
    doc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24),
        raw in proptest::collection::vec(proptest::char::range('\0', '\u{10FFFF}'), 0..8),
    ) {
        let mut text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        if let Ok(v) = parse(&text) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }
        text.extend(raw);
        let _ = parse(&text);
    }

    #[test]
    fn parse_never_panics_on_single_byte_mutations_of_valid_documents(
        seed in 0u64..u64::MAX,
        at in 0usize..4096,
        byte in 0u8..=255,
        pretty in 0u8..2,
    ) {
        let tree = tree_from(seed, 4);
        let doc = if pretty == 0 { tree.render() } else { tree.render_pretty() };
        let mut bytes = doc.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        // `parse` takes text: a body that stops being UTF-8 never reaches
        // it, so such a mutation is read the lossy way instead.
        let mutated = String::from_utf8_lossy(&bytes);
        if let Ok(v) = parse(&mutated) {
            prop_assert_eq!(parse(&v.render()), Ok(v));
        }
    }

    #[test]
    fn both_renderings_parse_back_to_the_same_tree(seed in 0u64..u64::MAX) {
        let tree = tree_from(seed, 5);
        prop_assert_eq!(parse(&tree.render()), Ok(tree.clone()));
        prop_assert_eq!(parse(&tree.render_pretty()), Ok(tree));
    }

    #[test]
    fn built_values_print_and_parse_back(seed in 0u64..u64::MAX) {
        let value = built(&mut TestRng::deterministic(&seed.to_string()), 4);
        let text = value.render();
        prop_assert_eq!(parse(&text), Ok(as_parsed(&value)));
        prop_assert_eq!(parse(&value.render_pretty()), Ok(as_parsed(&value)));
        // Integers print digit for digit, not through an `f64`.
        let mut ints = Vec::new();
        integers(&value, &mut ints);
        let mut rest = text.as_str();
        for n in ints {
            let digits = n.to_string();
            let at = rest.find(&digits);
            prop_assert!(at.is_some(), "{} missing from {}", digits, text);
            rest = &rest[at.unwrap_or(0) + digits.len()..];
        }
    }

    #[test]
    fn every_u64_prints_exactly(n in 0u64..u64::MAX) {
        let text = Json::from(n).render();
        prop_assert_eq!(&text, &n.to_string());
        prop_assert_eq!(parse(&text), Ok(Json::Num(n as f64)));
        if n <= 1 << 53 {
            prop_assert_eq!(parse(&text).ok().and_then(|v| v.as_u64()), Some(n));
        }
    }

    #[test]
    fn escaped_text_parses_back_to_itself(
        low in proptest::collection::vec(proptest::char::range('\0', '\u{7f}'), 0..24),
        any in proptest::collection::vec(proptest::char::range('\0', '\u{10FFFF}'), 0..24),
    ) {
        let text: String = low.into_iter().chain(any).collect();
        prop_assert_eq!(
            parse(&format!("\"{}\"", escape(&text))),
            Ok(Json::Str(text))
        );
    }

    #[test]
    fn a_value_deeper_than_max_depth_is_rejected_at_any_width(
        width in 0usize..5,
        shape in 0u64..u64::MAX,
    ) {
        prop_assert!(parse(&nested(MAX_DEPTH, width, shape)).is_ok());
        let too_deep = parse(&nested(MAX_DEPTH + 1, width, shape));
        prop_assert_eq!(too_deep.map_err(|e| e.message), Err("nesting too deep"));
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last(
        members in proptest::collection::vec(("[ab]{1,2}", 0u32..100), 1..8),
    ) {
        let body: Vec<String> = members.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let parsed = parse(&format!("{{{}}}", body.join(", "))).unwrap();
        let Json::Obj(kept) = &parsed else {
            return Err(format!("not an object: {parsed:?}"));
        };
        prop_assert_eq!(kept.len(), members.len());
        for (key, _) in &members {
            let last = members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| *v);
            prop_assert_eq!(parsed[key.as_str()].as_u64(), last.map(u64::from));
        }
    }
}
